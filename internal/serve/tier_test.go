package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// sweepBody builds a small Fig-5-style grid: the email workload at 20%
// load across n background probabilities.
func sweepBody(n int) string {
	body := `{"points":[`
	for i := 0; i < n; i++ {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"workload":"email","utilization":0.2,"bgProb":%.2f}`, 0.05+0.05*float64(i))
	}
	return body + `]}`
}

// TestDiskTierSurvivesRestart pins the acceptance bar of the persistent
// tier: a sweep served twice across a daemon restart re-solves zero
// points — every answer on the second pass is a disk hit, and the
// disk-hit counter equals the grid size.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const grid = 8
	body := sweepBody(grid)

	s1 := newTest(t, Options{CacheDir: dir})
	if rec := postJSON(t, s1.Handler(), "/v1/sweep", body); rec.Code != http.StatusOK {
		t.Fatalf("first sweep: status %d: %s", rec.Code, rec.Body)
	}
	if solverSolves(s1) != grid {
		t.Fatalf("first sweep ran %d solves, want %d", solverSolves(s1), grid)
	}
	if ds := s1.DiskStats(); ds.Writes != grid || ds.Entries != grid {
		t.Fatalf("disk tier after first sweep: %+v, want %d writes and entries", ds, grid)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart": a fresh server over the same cache directory. Its memory
	// LRU is empty, so every point must come from disk — and none from the
	// solver.
	s2 := newTest(t, Options{CacheDir: dir})
	rec := postJSON(t, s2.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("second sweep: status %d: %s", rec.Code, rec.Body)
	}
	if solverSolves(s2) != 0 {
		t.Fatalf("second sweep ran %d solves, want 0", solverSolves(s2))
	}
	st := s2.Stats()
	if st.DiskHits != grid {
		t.Fatalf("disk hits = %d, want %d (the grid size)", st.DiskHits, grid)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != nil || r.Metrics == nil {
			t.Fatalf("point %d failed after restart: %+v", i, r)
		}
		if !r.Cached || !r.DiskCached {
			t.Fatalf("point %d not flagged as a disk hit: %+v", i, r)
		}
	}
}

// TestDiskHitPromotesToMemory pins tier layering: a disk hit promotes the
// entry into the memory LRU, so the next request for the same point is a
// pure memory hit that never touches the disk store again.
func TestDiskHitPromotesToMemory(t *testing.T) {
	dir := t.TempDir()

	s1 := newTest(t, Options{CacheDir: dir})
	if rec := postJSON(t, s1.Handler(), "/v1/solve", fig5Body); rec.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
	}
	s1.Close()

	s2 := newTest(t, Options{CacheDir: dir})
	// First request: memory miss, disk hit, promotion.
	var res PointResult
	rec := postJSON(t, s2.Handler(), "/v1/solve", fig5Body)
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached || !res.DiskCached {
		t.Fatalf("first request after restart not a disk hit: %+v", res)
	}
	// Second request: the promoted entry answers from memory.
	rec = postJSON(t, s2.Handler(), "/v1/solve", fig5Body)
	res = PointResult{}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached || res.DiskCached {
		t.Fatalf("promoted entry did not answer from memory: %+v", res)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("disk hits = %d, cache hits = %d; want 1 and 1", st.DiskHits, st.CacheHits)
	}
	if sol := s2.Stats().Solves; sol != 0 {
		t.Fatalf("restart re-solved %d points, want 0", sol)
	}
}

// TestMetricsReportsDiskSection pins the /metrics shape: a disk-backed
// daemon exposes a "disk" section, a plain one omits it.
func TestMetricsReportsDiskSection(t *testing.T) {
	s := newTest(t, Options{CacheDir: t.TempDir()})
	rec := doGet(t, s.Handler(), "/metrics")
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["disk"]; !ok {
		t.Fatalf("disk-backed /metrics missing disk section: %s", rec.Body)
	}

	plain := newTest(t, Options{})
	rec = doGet(t, plain.Handler(), "/metrics")
	snap = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["disk"]; ok {
		t.Fatalf("diskless /metrics has a disk section: %s", rec.Body)
	}
}
