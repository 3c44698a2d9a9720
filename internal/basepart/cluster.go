// Package basepart implements the paper's modified hierarchical clustering
// (§IV-C): starting from disconnected mode nodes, edges are inserted in
// decreasing edge-weight order, and each newly completed sub-graph that is
// supported by at least one configuration becomes a base partition with an
// associated frequency weight.
//
// Interpretation note (see DESIGN.md §2): the co-occurrence graph can
// contain cliques that no single configuration supports (the paper's
// example has the triangle {A1,B2,C1} which Table I omits). A complete
// sub-graph is therefore recorded as a base partition only when its mode
// set is a subset of at least one configuration — which makes the final
// enumeration exactly "all non-empty subsets of configurations", with
// frequency weight equal to the node weight for singletons and the minimum
// internal edge weight otherwise.
//
// BasePartitions is the package's one entry point.
package basepart

import (
	"fmt"
	"sort"

	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/resource"
)

// BasePartition is a cluster of modes that may be allocated to a
// reconfigurable region as a unit. A multi-mode base partition is
// instantiated as one wrapper containing all of its modes, so its area is
// the sum of its members' utilisations.
type BasePartition struct {
	// Set is the canonical mode set.
	Set modeset.Set
	// FreqWeight is the paper's frequency weight: how strongly the
	// cluster's modes occur (together) across the configurations.
	FreqWeight int
	// Resources is the summed utilisation of the member modes.
	Resources resource.Vector
}

// Label renders the base partition with human-readable mode names.
func (bp BasePartition) Label(d *design.Design) string { return bp.Set.Label(d) }

// edge is a link between two modes weighted by co-occurrence count.
type edge struct {
	A, B   design.ModeRef
	Weight int
}

// MaxConfigModes bounds the number of active modes per configuration the
// clustering accepts: base partitions are subsets of configurations, so a
// configuration with k active modes contributes up to 2^k-1 of them.
const MaxConfigModes = 20

// BasePartitions runs the clustering on a connectivity matrix and
// returns every base partition: the singletons (every used mode, in
// matrix column order, with frequency weight equal to the node weight)
// first, then the multi-mode partitions in the order the edge insertions
// complete them. This is the paper's Table I content.
func BasePartitions(m *connmat.Matrix) ([]BasePartition, error) {
	d := m.Design()
	for ci := range d.Configurations {
		if n := len(d.ConfigModes(ci)); n > MaxConfigModes {
			return nil, fmt.Errorf("basepart: configuration %d has %d active modes; max supported is %d",
				ci, n, MaxConfigModes)
		}
	}

	var parts []BasePartition
	seen := make(map[string]bool)

	// k=0: every used mode is a disconnected sub-graph.
	for _, r := range m.Modes() {
		bp := BasePartition{
			Set:        modeset.New(r),
			FreqWeight: m.NodeWeight(r),
			Resources:  d.ModeResources(r),
		}
		parts = append(parts, bp)
		seen[bp.Set.Key()] = true
	}

	// Candidate edges: every co-occurring pair, highest weight first.
	edges := allEdges(m)
	inserted := make(map[[2]design.ModeRef]bool)
	haveEdge := func(a, b design.ModeRef) bool {
		return inserted[edgeKey(a, b)]
	}

	for _, e := range edges {
		inserted[edgeKey(e.A, e.B)] = true
		// New complete sub-graphs containing the inserted edge: subsets
		// of configurations that include both endpoints and whose other
		// pairwise edges were all inserted earlier.
		for ci := range d.Configurations {
			if !m.Contains(ci, e.A) || !m.Contains(ci, e.B) {
				continue
			}
			others := make([]design.ModeRef, 0, 8)
			for _, r := range d.ConfigModes(ci) {
				if r != e.A && r != e.B {
					others = append(others, r)
				}
			}
			// Enumerate subsets of the remaining modes; keep those whose
			// union with {A,B} is fully connected.
			for mask := 0; mask < 1<<len(others); mask++ {
				set := []design.ModeRef{e.A, e.B}
				for bi, r := range others {
					if mask&(1<<bi) != 0 {
						set = append(set, r)
					}
				}
				if !cliqueComplete(set, haveEdge) {
					continue
				}
				s := modeset.New(set...)
				if seen[s.Key()] {
					continue
				}
				seen[s.Key()] = true
				parts = append(parts, BasePartition{
					Set:        s,
					FreqWeight: m.MinEdgeWeight(s.Refs()),
					Resources:  sumResources(d, s),
				})
			}
		}
	}
	return parts, nil
}

func sumResources(d *design.Design, s modeset.Set) resource.Vector {
	var v resource.Vector
	for _, r := range s.Refs() {
		v = v.Add(d.ModeResources(r))
	}
	return v
}

// cliqueComplete reports whether every pair in set is linked. The edge
// (set[0], set[1]) is the one just inserted and is known present.
func cliqueComplete(set []design.ModeRef, haveEdge func(a, b design.ModeRef) bool) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if i == 0 && j == 1 {
				continue
			}
			if !haveEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

func edgeKey(a, b design.ModeRef) [2]design.ModeRef {
	if b.Module < a.Module || (b.Module == a.Module && b.Mode < a.Mode) {
		a, b = b, a
	}
	return [2]design.ModeRef{a, b}
}

// allEdges returns every positive-weight edge sorted by weight descending,
// with deterministic tie-breaking on mode order.
func allEdges(m *connmat.Matrix) []edge {
	modes := m.Modes()
	var edges []edge
	for i := 0; i < len(modes); i++ {
		for j := i + 1; j < len(modes); j++ {
			w := m.EdgeWeight(modes[i], modes[j])
			if w > 0 {
				edges = append(edges, edge{A: modes[i], B: modes[j], Weight: w})
			}
		}
	}
	sort.SliceStable(edges, func(a, b int) bool {
		return edges[a].Weight > edges[b].Weight
	})
	return edges
}
