package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// BenchmarkServePoint measures one /v1/solve round trip over loopback
// HTTP for each serving tier, on paper-grid points (the email, softdev
// and useraccounts workloads at 20% load, bgProb 0.1–0.6):
//
//   - cold: a single node with caching off, so every request solves;
//   - mem: a single node answering from its memory LRU;
//   - disk: a single node with the LRU off, answering from its disk store;
//   - forward-warm: node A (caching off) forwards every point to its
//     owner B, which answers from memory;
//   - forward-cold: A forwards to B, and B (caching off) solves every
//     request.
//
// The forward cases use only points B owns, so each request crosses the
// extra hop.
func BenchmarkServePoint(b *testing.B) {
	var grid []string
	for _, wl := range []string{"email", "softdev", "useraccounts"} {
		for i := 1; i <= 6; i++ {
			grid = append(grid, fmt.Sprintf(`{"workload":%q,"utilization":0.2,"bgProb":%.1f}`, wl, 0.1*float64(i)))
		}
	}
	noCache := Options{CacheEntries: -1}

	b.Run("cold", func(b *testing.B) {
		benchPoints(b, serveNode(b, noCache), grid)
	})
	b.Run("mem", func(b *testing.B) {
		benchPoints(b, serveNode(b, Options{}), grid)
	})
	b.Run("disk", func(b *testing.B) {
		benchPoints(b, serveNode(b, Options{CacheEntries: -1, CacheDir: b.TempDir()}), grid)
	})
	forward := func(b *testing.B, owner Options) {
		lnA, lnB := listen(b), listen(b)
		peers := []string{lnA.Addr().String(), lnB.Addr().String()}
		a := Options{CacheEntries: -1, Self: peers[0], Peers: peers, HealthInterval: -1}
		owner.Self, owner.Peers, owner.HealthInterval = peers[1], peers, -1
		sA := serveOn(b, lnA, a)
		serveOn(b, lnB, owner)
		var owned []string
		for _, body := range grid {
			if owner, _ := ownerOf(b, sA, body); owner == peers[1] {
				owned = append(owned, body)
			}
		}
		if len(owned) == 0 {
			b.Fatal("the remote node owns no grid point")
		}
		benchPoints(b, peers[0], owned)
	}
	b.Run("forward-warm", func(b *testing.B) { forward(b, Options{}) })
	b.Run("forward-cold", func(b *testing.B) { forward(b, noCache) })
}

// serveNode serves a single-node Server over opts on a loopback listener
// and returns its address.
func serveNode(b *testing.B, opts Options) string {
	ln := listen(b)
	serveOn(b, ln, opts)
	return ln.Addr().String()
}

// benchPoints posts the grid round-robin to addr, once untimed to warm
// whatever tier the node caches in, then b.N timed requests.
func benchPoints(b *testing.B, addr string, grid []string) {
	url := "http://" + addr + "/v1/solve"
	post := func(body string) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("solve %s: status %d, %v", body, resp.StatusCode, err)
		}
	}
	for _, body := range grid {
		post(body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(grid[i%len(grid)])
	}
}
