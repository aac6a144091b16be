package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testPeer is an httptest server acting as a remote bgperfd: healthy (or
// not) at /healthz, echoing at /v1/solve.
func testPeer(t *testing.T, healthy *atomic.Bool) (addr string, hits *atomic.Int64) {
	t.Helper()
	hits = &atomic.Int64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			if healthy.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case "/v1/solve":
			hits.Add(1)
			if r.Header.Get(ForwardedHeader) != "1" {
				t.Errorf("forwarded request missing %s header", ForwardedHeader)
			}
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"echo":true}`))
		}
	}))
	t.Cleanup(ts.Close)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host, hits
}

// newTestCluster builds a cluster of self plus the given remote addresses,
// with background probing disabled (tests drive CheckHealth directly).
func newTestCluster(t *testing.T, self string, remotes ...string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:           self,
		Peers:          append([]string{self}, remotes...),
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "a:1", Peers: []string{"b:1"}}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	if _, err := New(Config{Self: "a:1"}); err == nil {
		t.Fatal("empty peer list accepted")
	}
}

func TestForwardAndStatus(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	addr, hits := testPeer(t, &healthy)
	c := newTestCluster(t, "self:0", addr)

	body, status, err := c.Forward(context.Background(), addr, "/v1/solve", []byte(`{"x":1}`))
	if err != nil || status != http.StatusOK {
		t.Fatalf("Forward = %d, %v", status, err)
	}
	if !strings.Contains(string(body), `"echo":true`) {
		t.Fatalf("unexpected forward body %s", body)
	}
	if hits.Load() != 1 {
		t.Fatalf("peer saw %d solves, want 1", hits.Load())
	}
	st := c.Status()
	if len(st) != 2 || !st[0].Self || st[0].Addr != "self:0" {
		t.Fatalf("status = %+v", st)
	}
	var buf []byte
	if buf, err = json.Marshal(st); err != nil || !strings.Contains(string(buf), addr) {
		t.Fatalf("status not serializable with peer row: %s %v", buf, err)
	}
}

func TestForwardToUnknownPeer(t *testing.T) {
	c := newTestCluster(t, "self:0")
	if _, _, err := c.Forward(context.Background(), "ghost:1", "/v1/solve", nil); err == nil {
		t.Fatal("forward to unknown peer succeeded")
	}
}

// TestHealthMarksPeerDownAndRecovers pins membership semantics: a failing
// (or draining) /healthz takes the peer out of routing, and a passing one
// brings it back.
func TestHealthMarksPeerDownAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	addr, _ := testPeer(t, &healthy)
	c := newTestCluster(t, "self:0", addr)

	// Find a key the remote owns while up.
	var key string
	for i := 0; ; i++ {
		if k := keyFor(i); c.ring.Owner(k) == addr {
			key = k
			break
		}
	}
	if peer, local := c.Owner(key); local || peer != addr {
		t.Fatalf("key not routed to its owner: peer=%s local=%v", peer, local)
	}

	healthy.Store(false) // peer starts draining: healthz flips to 503
	c.CheckHealth(context.Background())
	if peer, local := c.Owner(key); !local || peer != "self:0" {
		t.Fatalf("down peer still routed to: peer=%s local=%v", peer, local)
	}

	healthy.Store(true)
	c.CheckHealth(context.Background())
	if peer, local := c.Owner(key); local || peer != addr {
		t.Fatalf("recovered peer not routed to: peer=%s local=%v", peer, local)
	}
}

// TestForwardFailureTripsBreakerAndFallsBack pins the one failure rule: a
// forward is a single attempt, and a peer that gives no answer — a refused
// connection or a 503 — fails it with ErrPeerUnavailable and is marked
// down at once, so Owner routes its keys to self until the next passing
// probe brings it back.
func TestForwardFailureTripsBreakerAndFallsBack(t *testing.T) {
	var solves atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		solves.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable) // draining or shedding
	}))
	t.Cleanup(ts.Close)
	shedding := strings.TrimPrefix(ts.URL, "http://")
	dead := "127.0.0.1:1" // reserved port: refused immediately

	for _, peer := range []string{dead, shedding} {
		c := newTestCluster(t, "self:0", peer)
		var key string
		for i := 0; ; i++ {
			if k := keyFor(i); c.ring.Owner(k) == peer {
				key = k
				break
			}
		}
		_, _, err := c.Forward(context.Background(), peer, "/v1/solve", []byte(`{}`))
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("%s: Forward error %v does not wrap ErrPeerUnavailable", peer, err)
		}
		if owner, local := c.Owner(key); !local || owner != "self:0" {
			t.Fatalf("%s: peer still owns keys after one failed forward: owner=%s local=%v", peer, owner, local)
		}
		if st := c.Status(); len(st) != 2 || st[1].Up {
			t.Fatalf("%s: peer still marked up: %+v", peer, st)
		}
		if peer == shedding {
			if n := solves.Load(); n != 1 {
				t.Fatalf("forward made %d attempts, want exactly 1", n)
			}
			c.CheckHealth(context.Background())
			if st := c.Status(); !st[1].Up {
				t.Fatalf("passing probe did not bring the peer back: %+v", st)
			}
		}
	}
}

// TestForwardCallerDeadlineKeepsPeerUp pins that only the peer's failures
// mark it down: a forward abandoned because the caller's own deadline
// expired returns the context error and leaves a healthy (slow) peer up.
func TestForwardCallerDeadlineKeepsPeerUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte(`{"echo":true}`))
	}))
	t.Cleanup(ts.Close)
	peer := strings.TrimPrefix(ts.URL, "http://")
	c := newTestCluster(t, "self:0", peer)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.Forward(ctx, peer, "/v1/solve", []byte(`{}`))
	if err == nil {
		t.Fatal("forward outlived the caller's deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("deadline forward error = %v, want the caller's context error", err)
	}
	if st := c.Status(); len(st) != 2 || !st[1].Up {
		t.Fatalf("caller's deadline marked a healthy peer down: %+v", st)
	}
}
