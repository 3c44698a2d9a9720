// Package cluster is prpartd's peer layer: a deterministic
// consistent-hash ring that shards solve keys across daemon instances,
// a small framed RPC for peer-to-peer cache fill (hash-verified bodies
// with the prcheck verdict carried along), and replication of solved
// blobs to a key's owners. The serving layer consults it as the tier
// after the local store: on a miss, ask the key's owners before running
// the search; after a local solve, push the result to the owners so the
// next request for that key lands warm anywhere in the cluster.
//
// Everything is seeded and deterministic: the same member set, seed and
// request sequence produces the same ring placement, the same owner
// walks and the same cluster.* counters, which is what lets the chaos
// e2e harness (internal/e2e) pin "byte-identical regardless of which
// node serves" as a regression-gated contract.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member: enough points
// that a three-node ring splits keys within a few percent of evenly,
// cheap enough that ring construction is microseconds.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over cluster members. It is immutable
// after construction and safe for concurrent use. Placement is a pure
// function of (members, vnodes, seed): member order does not matter,
// and removing a member only remaps the keys that member owned — every
// other key keeps its owners, which is what makes a node kill or rejoin
// a local disturbance instead of a cluster-wide reshuffle.
type Ring struct {
	seed    int64
	vnodes  int
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over the given members (base URLs or any
// stable node names) with vnodes virtual points per member. Members
// are deduplicated and sorted, so callers need not agree on an order —
// only on the set and the seed.
func NewRing(members []string, vnodes int, seed int64) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make(map[string]bool, len(members))
	var ms []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !uniq[m] {
			uniq[m] = true
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(ms)
	r := &Ring{seed: seed, vnodes: vnodes, members: ms}
	r.points = make([]ringPoint, 0, len(ms)*vnodes)
	for mi, m := range ms {
		h := stringHash(seed, m)
		for v := 0; v < vnodes; v++ {
			// Successive vnode points are derived by re-mixing, so one
			// member's points scatter over the whole ring instead of
			// clustering near its name hash.
			h = mix64(h + uint64(v)*0x9e3779b97f4a7c15)
			r.points = append(r.points, ringPoint{hash: h, member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on member rank so placement
		// stays a pure function of the member set.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the ring's member set in sorted order. Callers must
// not mutate the returned slice.
func (r *Ring) Members() []string { return r.members }

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the placement seed.
func (r *Ring) Seed() int64 { return r.seed }

// Owners returns the n distinct members owning key, walking clockwise
// from the key's point. n is clamped to the member count; the first
// entry is the primary owner.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	kh := stringHash(r.seed, key)
	// First point at or after the key's hash, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for step := 0; step < len(r.points) && len(owners) < n; step++ {
		p := r.points[(i+step)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			owners = append(owners, r.members[p.member])
		}
	}
	return owners
}

// stringHash maps s to a ring position: FNV-1a folded with the seed
// through a splitmix64 finalizer, so different seeds yield unrelated
// placements and equal inputs always agree across processes.
func stringHash(seed int64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h ^ mix64(uint64(seed)))
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer (the same construction the multilevel engine uses for seeded
// name ranks).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
