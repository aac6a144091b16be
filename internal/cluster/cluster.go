package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Membership and forwarding defaults; see Config.
const (
	// DefaultHealthInterval is the period between /healthz probes per peer.
	DefaultHealthInterval = 2 * time.Second
	// DefaultHealthTimeout bounds one health probe.
	DefaultHealthTimeout = 1 * time.Second
	// clientTimeout bounds one HTTP round trip (forward or probe) even when
	// the caller's context carries no deadline.
	clientTimeout = 30 * time.Second
	// maxForwardBody bounds a forwarded response body read from a peer.
	maxForwardBody = 8 << 20
)

// ErrPeerUnavailable is returned by Forward when the target peer gave no
// answer for the point: a transport failure, or a 503 because it is
// draining or shedding load. The peer is then marked down until its next
// passing health probe, and the caller should answer locally.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// Config configures a Cluster. Self and Peers are required.
type Config struct {
	// Self is this process's own advertised address (host:port), and must
	// appear in Peers; keys the ring assigns to Self are solved locally.
	Self string
	// Peers is the static cluster membership, every bgperfd's host:port
	// including Self. All peers must share the same list (order-insensitive)
	// or they will compute different rings.
	Peers []string
	// HealthInterval is the membership probe period; 0 means
	// DefaultHealthInterval, negative disables background probing (a peer
	// marked down then stays down until CheckHealth runs — used by tests).
	HealthInterval time.Duration
}

// PeerStatus is one row of the membership snapshot served at /clusterz.
type PeerStatus struct {
	// Addr is the peer's advertised host:port.
	Addr string `json:"addr"`
	// Self marks this process's own row.
	Self bool `json:"self,omitempty"`
	// Up reports whether the peer receives forwards: false after a failed
	// health probe or a forward that got no answer, true again after the
	// next passing probe (always true for Self).
	Up bool `json:"up"`
}

// Cluster is the membership + routing half of cluster mode: it owns the
// ring, the per-peer up/down state, the health prober, and the forwarding
// client. Create one with New and stop its prober with Close.
type Cluster struct {
	self   string
	ring   *Ring
	client *http.Client

	mu sync.Mutex
	up map[string]bool // remote peers only

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates cfg, builds the cluster routing state, and starts the
// background health prober unless cfg.HealthInterval is negative. Peers
// start out optimistically up; the first probe or failed forward corrects
// that.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Peers, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		self:   cfg.Self,
		ring:   ring,
		client: &http.Client{Timeout: clientTimeout},
		up:     make(map[string]bool),
		stop:   make(chan struct{}),
	}
	found := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			found = true
		} else {
			c.up[p] = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	interval := cfg.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	if interval > 0 {
		c.wg.Add(1)
		go c.probeLoop(interval)
	}
	return c, nil
}

// probeLoop runs CheckHealth every interval until Close.
func (c *Cluster) probeLoop(interval time.Duration) {
	defer c.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.CheckHealth(context.Background())
		}
	}
}

// Close stops the health prober. It never touches in-flight forwards.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// CheckHealth probes every remote peer's /healthz once and updates the
// up/down state: any 200 marks the peer up, anything else (including a
// draining peer's 503) marks it down so the ring routes around it.
func (c *Cluster) CheckHealth(ctx context.Context) {
	c.mu.Lock()
	peers := make([]string, 0, len(c.up))
	for p := range c.up {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	for _, p := range peers {
		up := c.probe(ctx, p)
		c.mu.Lock()
		c.up[p] = up
		c.mu.Unlock()
	}
}

// probe performs one bounded health check against peer.
func (c *Cluster) probe(ctx context.Context, peer string) bool {
	ctx, cancel := context.WithTimeout(ctx, DefaultHealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// available reports whether peer should receive forwards right now.
func (c *Cluster) available(peer string) bool {
	if peer == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.up[peer]
}

// MarkDown takes peer out of routing until its next passing health probe.
// Forward applies it itself; the serving layer also applies it when a
// peer's answer turns out to be unusable (a body that does not decode).
func (c *Cluster) MarkDown(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.up[peer]; ok {
		c.up[peer] = false
	}
}

// Owner routes key to its owning available peer. local is true when this
// process should answer the key itself — either because it owns it, or
// because no other peer is available (the degrade-don't-fail rule: a dead
// worker's share of the key space is served by whoever is asked).
func (c *Cluster) Owner(key string) (peer string, local bool) {
	owner := c.ring.OwnerAmong(key, c.available)
	if owner == "" || owner == c.self {
		return c.self, true
	}
	return owner, false
}

// Forward POSTs body to http://peer+path once, with the forwarded-marker
// header set so the receiver answers locally rather than re-routing. It
// returns the peer's response body and HTTP status; any status but 503 is
// the peer's answer for the point, application errors included. A peer
// that gives no answer (transport failure or 503) is marked down and
// Forward returns ErrPeerUnavailable. A failure caused by ctx ending is
// the caller's, not the peer's: it returns ctx's error and marks nothing.
func (c *Cluster) Forward(ctx context.Context, peer, path string, body []byte) ([]byte, int, error) {
	c.mu.Lock()
	_, known := c.up[peer]
	c.mu.Unlock()
	if !known {
		return nil, 0, fmt.Errorf("%w: unknown peer %q", ErrPeerUnavailable, peer)
	}
	respBody, status, err := c.post(ctx, peer, path, body)
	switch {
	case err != nil && ctx.Err() != nil:
		return nil, 0, fmt.Errorf("cluster: forward to %s abandoned: %w", peer, ctx.Err())
	case err == nil && status != http.StatusServiceUnavailable:
		return respBody, status, nil
	case err == nil:
		err = fmt.Errorf("%s answered %d", peer, status)
	}
	c.MarkDown(peer)
	return nil, 0, fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
}

// ForwardedHeader marks a request as already routed by a peer; a receiver
// seeing it answers locally, which makes routing loops impossible even
// when peers momentarily disagree about liveness.
const ForwardedHeader = "X-Bgperf-Forwarded"

// post performs one forward round trip.
func (c *Cluster) post(ctx context.Context, peer, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		return nil, 0, err
	}
	return respBody, resp.StatusCode, nil
}

// Status returns the membership snapshot, self first then peers sorted by
// address — the /clusterz payload.
func (c *Cluster) Status() []PeerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := []PeerStatus{{Addr: c.self, Self: true, Up: true}}
	peers := make([]string, 0, len(c.up))
	for p := range c.up {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		out = append(out, PeerStatus{Addr: p, Up: c.up[p]})
	}
	return out
}
