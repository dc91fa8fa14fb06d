// Package cluster turns one llmqserve into a fleet: a consistent-hash
// router (Router) that keeps batches stage-affine across worker processes,
// so each hot stage's KV cache warms on exactly one node fleet-wide, plus
// the name resolution (Resolve) both CLIs share. The same router over one
// in-process member (NewLocal) is static sharding, so it is the only code
// that splits a batch across concurrent runs.
//
// The seam is the existing backend contract: workers expose their local
// Backend over POST /v1/batch (internal/server), the router speaks it via
// backend.Remote, and the query layers above notice nothing — answers are
// content-keyed above the seam, so routed relations are byte-identical to
// single-process ones.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is how many ring points each worker contributes. 64 keeps the
// per-worker key share within a few percent of uniform at fleet sizes this
// router targets (units to tens of workers) while keeping the ring tiny.
const vnodes = 64

// ring is an immutable consistent-hash ring over worker addresses. Stage
// keys hash onto the same circle as the workers' virtual nodes; a key is
// owned by the first virtual node clockwise from it. Adding or removing one
// worker moves only ~1/N of the keys — the property that keeps persistent
// engines stage-affine across fleet changes.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	addr string
}

// newRing builds the ring for the given worker addresses. Duplicate
// addresses are an error: they would silently double a worker's key share.
func newRing(addrs []string) (*ring, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one worker")
	}
	seen := make(map[string]bool, len(addrs))
	points := make([]ringPoint, 0, len(addrs)*vnodes)
	for _, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty worker address")
		}
		if seen[addr] {
			return nil, fmt.Errorf("cluster: duplicate worker address %q", addr)
		}
		seen[addr] = true
		for i := 0; i < vnodes; i++ {
			points = append(points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", addr, i)),
				addr: addr,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].addr < points[j].addr // deterministic under collisions
	})
	return &ring{points: points}, nil
}

// ringHash hashes a ring label (vnode name or stage key) to its circle
// position. Raw FNV-1a has poor avalanche on short strings differing only in
// a suffix — a worker's vnodes would cluster into one arc and ownership
// degenerates — so the sum is pushed through a 64-bit finalizer
// (MurmurHash3's fmix64) to spread the points uniformly.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the worker owning key: the first virtual node at or after
// the key's hash, wrapping around.
func (r *ring) owner(key string) string {
	return r.points[r.start(key)].addr
}

// ordered returns every distinct worker in ring order starting from key's
// owner — the failover preference list: index 0 is the owner, index 1 the
// node a drained or dead owner's keys fall to.
func (r *ring) ordered(key string) []string {
	start := r.start(key)
	var addrs []string
	seen := make(map[string]bool)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.addr] {
			continue
		}
		seen[p.addr] = true
		addrs = append(addrs, p.addr)
	}
	return addrs
}

// start locates the first ring point at or after key's hash.
func (r *ring) start(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
