package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bgperf/internal/cluster"
	"bgperf/internal/core"
)

// startNode binds a real listener, builds a cluster-mode Server advertising
// that address, and serves it — the serve-layer analogue of one bgperfd.
// The peer list must include the node's own address.
func startNode(t testing.TB, ln net.Listener, peers []string) *Server {
	t.Helper()
	return serveOn(t, ln, Options{
		Self:           ln.Addr().String(),
		Peers:          peers,
		HealthInterval: -1, // membership is static for the test
	})
}

// serveOn builds a Server over opts and serves it on ln until cleanup.
func serveOn(t testing.TB, ln net.Listener, opts Options) *Server {
	t.Helper()
	s := newTest(t, opts)
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return s
}

// listen binds an ephemeral localhost port.
func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestClusterShardsSweepAcrossPeers pins the distributed path end to end:
// a sweep sent to one node forwards each point to its ring owner, the
// forwarded answers carry the peer's address, no point fails, and the
// remote peer performed real solves for its shard.
func TestClusterShardsSweepAcrossPeers(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	peers := []string{lnA.Addr().String(), lnB.Addr().String()}
	sA := startNode(t, lnA, peers)
	sB := startNode(t, lnB, peers)

	// A grid wide enough that both peers own some points (128 virtual
	// nodes make a starved peer on 16 keys astronomically unlikely).
	resp, err := http.Post("http://"+peers[0]+"/v1/sweep", "application/json",
		strings.NewReader(sweepBody(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep via node A: status %d, %v: %s", resp.StatusCode, err, body)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	var forwarded int
	for i, r := range sweep.Results {
		if r.Error != nil || r.Metrics == nil {
			t.Fatalf("point %d failed: %+v", i, r)
		}
		if r.Peer != "" {
			if r.Peer != peers[1] {
				t.Fatalf("point %d forwarded to %q, not the known peer %q", i, r.Peer, peers[1])
			}
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Fatal("no point was forwarded to the remote peer")
	}
	if st := sA.Stats(); st.Forwarded != int64(forwarded) {
		t.Fatalf("node A forwarded counter = %d, want %d", st.Forwarded, forwarded)
	}
	if st := sB.Stats(); st.Solves == 0 {
		t.Fatal("remote peer answered forwards without solving anything")
	}

	// Parity across the wire: a forwarded point's metrics are byte-equal
	// to solving the same point directly at its owner.
	for i, r := range sweep.Results {
		if r.Peer == "" {
			continue
		}
		direct, err := http.Post("http://"+peers[1]+"/v1/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workload":"email","utilization":0.2,"bgProb":%.2f}`,
				0.05+0.05*float64(i))))
		if err != nil {
			t.Fatal(err)
		}
		directBody, _ := io.ReadAll(direct.Body)
		direct.Body.Close()
		var dres PointResult
		if err := json.Unmarshal(directBody, &dres); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(r.Metrics)
		want, _ := json.Marshal(dres.Metrics)
		if string(got) != string(want) {
			t.Fatalf("forwarded metrics differ from the owner's own answer\n got:  %s\n want: %s", got, want)
		}
		break // one point suffices
	}
}

// TestClusterDeadPeerFallsBackLocally pins the degrade path at the serve
// layer: when a point's owner is unreachable, the node solves it locally
// instead of failing the request.
func TestClusterDeadPeerFallsBackLocally(t *testing.T) {
	dead := "127.0.0.1:1" // reserved port: connections are refused
	s := newTest(t, Options{
		Self:           "self:0",
		Peers:          []string{"self:0", dead},
		HealthInterval: -1,
	})
	req, key := pointOwnedBy(t, s, dead)
	rec := postJSON(t, s.Handler(), "/v1/solve", req)
	var res PointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || res.Error != nil || res.Metrics == nil {
		t.Fatalf("fallback solve failed: %d %s", rec.Code, rec.Body)
	}
	if res.Peer != "" {
		t.Fatalf("locally-degraded point claims peer %q", res.Peer)
	}
	if res.Key != key {
		t.Fatalf("answered key %q, want %q", res.Key, key)
	}
	if st := s.Stats(); st.ForwardFailures == 0 {
		t.Fatal("forward-failure counter never moved")
	}
}

// TestClusterDrainingOwnerFallsBackLocally pins that a draining owner's
// 503 is no answer: the coordinator marks the owner down and solves the
// point itself, instead of relaying the 503 to its client.
func TestClusterDrainingOwnerFallsBackLocally(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	peers := []string{lnA.Addr().String(), lnB.Addr().String()}
	sA := startNode(t, lnA, peers)
	sB := startNode(t, lnB, peers)
	body, _ := pointOwnedBy(t, sA, peers[1])
	sB.StartDrain()

	resp, err := http.Post("http://"+peers[0]+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining owner's point: status %d: %s", resp.StatusCode, got)
	}
	var res PointResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	assertDirectMetrics(t, body, res)
	if res.Peer != "" {
		t.Fatalf("locally-answered point claims peer %q", res.Peer)
	}
	if n := sA.Stats().ForwardFailures; n != 1 {
		t.Fatalf("forwardFailures = %d, want 1", n)
	}
	assertPeerDown(t, sA, peers[1])
}

// TestClusterTruncatedAnswerFallsBackLocally pins the garbage-peer fault:
// an owner that answers 200 with a truncated body, or with a body that
// carries neither metrics nor an error, yields no answer, so the
// coordinator counts one forward failure, marks the owner down, and
// returns the correct metrics from a local solve.
func TestClusterTruncatedAnswerFallsBackLocally(t *testing.T) {
	for name, answer := range map[string]string{
		"truncated":    `{"key":"k","metrics":{"qlenFG":0.`,
		"empty-object": `{}`,
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(answer))
			}))
			t.Cleanup(ts.Close)
			garbage := strings.TrimPrefix(ts.URL, "http://")
			s := newTest(t, Options{
				Self:           "self:0",
				Peers:          []string{"self:0", garbage},
				HealthInterval: -1,
			})
			body, _ := pointOwnedBy(t, s, garbage)
			rec := postJSON(t, s.Handler(), "/v1/solve", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("garbage-answer point: status %d: %s", rec.Code, rec.Body)
			}
			var res PointResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			assertDirectMetrics(t, body, res)
			if res.Peer != "" {
				t.Fatalf("locally-answered point claims peer %q", res.Peer)
			}
			if n := s.Stats().ForwardFailures; n != 1 {
				t.Fatalf("forwardFailures = %d, want 1", n)
			}
			assertPeerDown(t, s, garbage)
		})
	}
}

// assertDirectMetrics checks that res carries metrics byte-equal to a
// single-node daemon's answer for the same request body.
func assertDirectMetrics(t *testing.T, body string, res PointResult) {
	t.Helper()
	rec := postJSON(t, newTest(t, Options{}).Handler(), "/v1/solve", body)
	var direct PointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &direct); err != nil || direct.Metrics == nil {
		t.Fatalf("direct solve: %v: %s", err, rec.Body)
	}
	got, _ := json.Marshal(res.Metrics)
	want, _ := json.Marshal(direct.Metrics)
	if string(got) != string(want) {
		t.Fatalf("metrics differ from a direct solve\n got:  %s\n want: %s", got, want)
	}
}

// assertPeerDown checks that s's /clusterz shows peer as down.
func assertPeerDown(t *testing.T, s *Server, peer string) {
	t.Helper()
	rec := doGet(t, s.Handler(), "/clusterz")
	var cz struct {
		Peers []cluster.PeerStatus `json:"peers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cz); err != nil {
		t.Fatal(err)
	}
	for _, p := range cz.Peers {
		if p.Addr == peer {
			if p.Up {
				t.Fatalf("peer %s still up in /clusterz: %s", peer, rec.Body)
			}
			return
		}
	}
	t.Fatalf("peer %s missing from /clusterz: %s", peer, rec.Body)
}

// TestForwardedHeaderAnswersLocally pins loop prevention: a request a peer
// already routed here is answered locally even when the ring says another
// peer owns it — no forward is attempted at all.
func TestForwardedHeaderAnswersLocally(t *testing.T) {
	other := "127.0.0.1:1"
	s := newTest(t, Options{
		Self:           "self:0",
		Peers:          []string{"self:0", other},
		HealthInterval: -1,
	})
	body, _ := pointOwnedBy(t, s, other)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded request got %d: %s", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.Forwarded != 0 || st.ForwardFailures != 0 {
		t.Fatalf("forwarded request re-forwarded: %+v", st)
	}
}

// TestClusterzEndpoint pins the operator surface: cluster mode exposes the
// membership table, single-node mode reports {"enabled": false}.
func TestClusterzEndpoint(t *testing.T) {
	single := newTest(t, Options{})
	rec := doGet(t, single.Handler(), "/clusterz")
	if !strings.Contains(rec.Body.String(), `"enabled": false`) {
		t.Fatalf("single-node /clusterz = %s", rec.Body)
	}

	clustered := newTest(t, Options{
		Self:           "self:0",
		Peers:          []string{"self:0", "peer:1"},
		HealthInterval: -1,
	})
	rec = doGet(t, clustered.Handler(), "/clusterz")
	var got struct {
		Enabled bool                 `json:"enabled"`
		Peers   []cluster.PeerStatus `json:"peers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Enabled || len(got.Peers) != 2 || !got.Peers[0].Self {
		t.Fatalf("clustered /clusterz = %s", rec.Body)
	}
}

// pointOwnedBy scans bgProb values until it finds a parameter point whose
// cache key the ring assigns to the given peer, returning the request body
// and the key. With 128 virtual nodes a handful of probes always suffices.
func pointOwnedBy(t *testing.T, s *Server, peer string) (body, key string) {
	t.Helper()
	for i := 1; i < 1000; i++ {
		body = fmt.Sprintf(`{"workload":"email","utilization":0.2,"bgProb":%.4f}`, float64(i)/1000)
		if owner, k := ownerOf(t, s, body); owner == peer {
			return body, k
		}
	}
	t.Fatal("no point owned by the peer in 1000 probes")
	return "", ""
}

// ownerOf returns the peer s currently routes a /v1/solve body to, and the
// body's cache key.
func ownerOf(t testing.TB, s *Server, body string) (owner, key string) {
	t.Helper()
	var req SolveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	if key, err = core.CacheKey(cfg); err != nil {
		t.Fatal(err)
	}
	owner, _ = s.cl.Owner(key)
	return owner, key
}
