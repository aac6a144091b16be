// Package cluster shards the solve-cache key space across a static set of
// bgperfd processes. It provides the three mechanisms the serving layer
// composes into cluster mode:
//
//   - a consistent hash ring (Ring) mapping each core.CacheKey to its
//     owning peer, with virtual nodes for balance — when a peer dies, only
//     the keys it owned move (to their next peers clockwise), the rest of
//     the space is untouched;
//   - health-checked membership (Cluster) over a static -peers list: every
//     peer is probed at /healthz on an interval, and a down or draining
//     peer stops receiving forwards until it passes a probe again;
//   - single-attempt forwarding with one failure rule: a peer that gives
//     no answer for a point (transport failure or 503) is marked down
//     until its next passing probe, and the caller solves the point
//     locally.
//
// The package is transport-shaped but model-agnostic: it moves opaque JSON
// bodies between peers and never imports the serving layer. See
// docs/OPERATIONS.md for deployment topologies and the full failure model.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the number of ring positions per peer. 128 vnodes
// keep the expected per-peer load within a few percent of uniform for the
// cluster sizes a static peer list is plausible for (≤ dozens of peers).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a set of peers. Build one
// with NewRing; membership changes are expressed at lookup time (OwnerAmong
// with a liveness predicate), not by mutating the ring, so every peer in a
// cluster computes identical ownership from the same static peer list.
type Ring struct {
	points []ringPoint
	peers  []string
}

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// peer.
type ringPoint struct {
	pos  uint64
	peer string
}

// NewRing builds a ring over peers with vnodes virtual nodes each (<= 0
// means DefaultVirtualNodes). Peer order does not matter — positions
// depend only on the peer names — and duplicate peers are collapsed.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(peers))
	r := &Ring{}
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer address")
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				pos:  hashPos(fmt.Sprintf("%s#%d", p, i)),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.peer < b.peer // total order even on (astronomically rare) collisions
	})
	sort.Strings(r.peers)
	return r, nil
}

// hashPos maps a label (a vnode name or a cache key) onto the ring.
func hashPos(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the distinct peers on the ring, sorted.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Owner returns the peer owning key: the first virtual node clockwise from
// the key's ring position.
func (r *Ring) Owner(key string) string {
	return r.OwnerAmong(key, nil)
}

// OwnerAmong returns the owner of key among live peers: the first virtual
// node clockwise whose peer satisfies alive (nil means every peer is
// live). This is the rebalance rule — a dead peer's keys fall through to
// the next distinct peers clockwise, while keys owned by live peers keep
// their owner. Returns "" when no peer is alive.
func (r *Ring) OwnerAmong(key string, alive func(peer string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := hashPos(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive == nil || alive(p.peer) {
			return p.peer
		}
	}
	return ""
}
