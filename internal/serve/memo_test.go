package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"bgperf/internal/core"
)

func metricsN(n int) core.Metrics { return core.Metrics{QLenFG: float64(n)} }

func TestCacheEntryBound(t *testing.T) {
	c := newMemo[core.Metrics](3, 0, nil)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), metricsN(i))
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.ll.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		m, ok := c.Get(fmt.Sprintf("k%d", i))
		if !ok || m.QLenFG != float64(i) {
			t.Errorf("k%d missing or wrong: %v %v", i, m.QLenFG, ok)
		}
	}
}

func TestCacheRecency(t *testing.T) {
	c := newMemo[core.Metrics](2, 0, nil)
	c.Add("a", metricsN(1))
	c.Add("b", metricsN(2))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", metricsN(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was refreshed and must survive")
	}
}

func TestCacheByteBudget(t *testing.T) {
	per := int64(len("somekey-0")) + int64(unsafe.Sizeof(core.Metrics{})) + entryOverhead
	c := newMemo[core.Metrics](1000, 3*per, nil)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("somekey-%d", i), metricsN(i))
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len = %d, want 3 under the byte budget", c.ll.Len())
	}
	if c.bytes > 3*per {
		t.Fatalf("bytes = %d exceeds budget %d", c.bytes, 3*per)
	}
}

// TestCacheByteBudgetKeepsOne pins that a budget smaller than a single
// entry still caches the most recent entry rather than thrashing to empty —
// the eviction loop never removes the entry it just inserted.
func TestCacheByteBudgetKeepsOne(t *testing.T) {
	c := newMemo[core.Metrics](1000, 1, nil)
	c.Add("a", metricsN(1))
	if c.ll.Len() != 1 {
		t.Fatalf("len = %d, want the just-inserted entry to survive", c.ll.Len())
	}
	c.Add("b", metricsN(2))
	if c.ll.Len() != 1 {
		t.Fatalf("len = %d, want exactly one entry under a tiny budget", c.ll.Len())
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("the newer entry should be the survivor")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newMemo[core.Metrics](0, 0, nil)
	c.Add("a", metricsN(1))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must always miss")
	}
	if c.ll.Len() != 0 {
		t.Fatalf("disabled cache holds %d entries", c.ll.Len())
	}
}

func TestCacheReAddRefreshes(t *testing.T) {
	c := newMemo[core.Metrics](2, 0, nil)
	c.Add("a", metricsN(1))
	c.Add("b", metricsN(2))
	c.Add("a", metricsN(1)) // refresh, not duplicate
	if c.ll.Len() != 2 {
		t.Fatalf("re-adding duplicated the entry: len %d", c.ll.Len())
	}
	c.Add("c", metricsN(3))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refreshed entry evicted before the stale one")
	}
}

// shareOneCall starts a caller that blocks inside fn for key "k", parks n
// more callers on its call, releases it, and returns how often fn ran and
// how many of the n callers reported memoShared with the leader's value.
func shareOneCall(t *testing.T, c *memo[core.Metrics], n int) (calls, shared int64) {
	t.Helper()
	var ran, sharedN atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	// A known leader enters first and blocks inside fn …
	var leaderWG sync.WaitGroup
	leaderWG.Add(1)
	go func() {
		defer leaderWG.Done()
		m, src, err := c.Do(context.Background(), "k", func() (core.Metrics, error) {
			ran.Add(1)
			close(leaderIn)
			<-release
			return metricsN(42), nil
		})
		if err != nil || src != memoComputed || m.QLenFG != 42 {
			t.Errorf("leader: %v %v %v", m.QLenFG, err, src)
		}
	}()
	<-leaderIn

	// … then n followers pile on while the call is in flight.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, src, err := c.Do(context.Background(), "k", func() (core.Metrics, error) {
				ran.Add(1)
				return metricsN(-1), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if src == memoShared && m.QLenFG == 42 {
				sharedN.Add(1)
			}
		}()
	}
	// Release the leader only after every follower is parked on its call.
	for c.waiters.Load() != int64(n) {
	}
	close(release)
	wg.Wait()
	leaderWG.Wait()
	return ran.Load(), sharedN.Load()
}

func TestFlightGroupSingleCall(t *testing.T) {
	const n = 8
	c := newMemo[core.Metrics](16, 0, nil)
	calls, shared := shareOneCall(t, c, n)
	if calls != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", calls)
	}
	if shared != n {
		t.Fatalf("%d of %d followers shared the leader's 42", shared, n)
	}
	// The finished call is now a stored entry.
	if m, src, err := c.Do(context.Background(), "k", func() (core.Metrics, error) {
		t.Fatal("a stored key must not run fn")
		return core.Metrics{}, nil
	}); err != nil || src != memoStored || m.QLenFG != 42 {
		t.Fatalf("after the call: %v %v %v", m.QLenFG, err, src)
	}
}

// TestMemoDisabledStillShares pins that CacheEntries < 0 turns off storing
// only: concurrent identical calls still share one call, and nothing is
// stored after it finishes.
func TestMemoDisabledStillShares(t *testing.T) {
	const n = 8
	c := newMemo[core.Metrics](0, 0, nil)
	calls, shared := shareOneCall(t, c, n)
	if calls != 1 {
		t.Fatalf("fn ran %d times with storing disabled, want exactly 1", calls)
	}
	if shared != n {
		t.Fatalf("%d of %d followers shared the leader's 42", shared, n)
	}
	if c.ll.Len() != 0 || len(c.calls) != 0 {
		t.Fatalf("disabled memo kept %d entries and %d calls", c.ll.Len(), len(c.calls))
	}
	m, src, err := c.Do(context.Background(), "k", func() (core.Metrics, error) { return metricsN(7), nil })
	if err != nil || src != memoComputed || m.QLenFG != 7 {
		t.Fatalf("a later call must run fresh: %v %v %v", m.QLenFG, err, src)
	}
}

func TestFlightGroupFollowerDeadline(t *testing.T) {
	c := newMemo[core.Metrics](16, 0, nil)
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	go c.Do(context.Background(), "k", func() (core.Metrics, error) {
		close(leaderIn)
		<-block
		return metricsN(1), nil
	})
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	go func() {
		for c.waiters.Load() != 1 {
		}
		cancel()
		close(parked)
	}()
	_, src, err := c.Do(ctx, "k", func() (core.Metrics, error) {
		t.Fatal("follower must not run fn")
		return core.Metrics{}, nil
	})
	<-parked
	if src != memoShared {
		t.Fatal("caller should have waited on the blocked leader")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	close(block)

	// A caller whose context has already ended joins no call.
	_, src, err = c.Do(ctx, "other", func() (core.Metrics, error) {
		t.Fatal("an expired caller must not run fn")
		return core.Metrics{}, nil
	})
	if src != memoComputed || !errors.Is(err, context.Canceled) {
		t.Fatalf("expired caller: %v %v", src, err)
	}
}

func TestFlightGroupErrorShared(t *testing.T) {
	c := newMemo[core.Metrics](16, 0, nil)
	sentinel := errors.New("boom")
	_, _, err := c.Do(context.Background(), "k", func() (core.Metrics, error) {
		return core.Metrics{}, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("leader error lost: %v", err)
	}
	if c.ll.Len() != 0 {
		t.Fatal("a failed call must not be stored")
	}
	// The failed call must not wedge the key: a later call runs fresh.
	m, src, err := c.Do(context.Background(), "k", func() (core.Metrics, error) {
		return metricsN(7), nil
	})
	if err != nil || src != memoComputed || m.QLenFG != 7 {
		t.Fatalf("key wedged after error: %v %v %v", m.QLenFG, err, src)
	}
}

// TestMemoStressRunsEachKeyOnce races K keys × N goroutines through Do and
// Get (run it under -race): with room for every key, each key's fn runs
// exactly once, its entry stays stored, and every caller sees its value.
func TestMemoStressRunsEachKeyOnce(t *testing.T) {
	const k, n, rounds = 8, 16, 4
	c := newMemo[core.Metrics](k, 0, nil)
	var calls [k]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := 0; j < k; j++ {
					i := (j + g) % k
					key := fmt.Sprintf("k%d", i)
					m, _, err := c.Do(context.Background(), key, func() (core.Metrics, error) {
						calls[i].Add(1)
						return metricsN(i), nil
					})
					if err != nil || m.QLenFG != float64(i) {
						t.Errorf("%s: %v %v", key, m.QLenFG, err)
					}
					if m, ok := c.Get(key); ok && m.QLenFG != float64(i) {
						t.Errorf("%s stored %v", key, m.QLenFG)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("k%d: fn ran %d times, want exactly 1", i, got)
		}
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d is no longer stored", i)
		}
	}
	if c.ll.Len() != k || len(c.calls) != 0 {
		t.Fatalf("memo holds %d entries and %d calls, want %d and 0", c.ll.Len(), len(c.calls), k)
	}
}
