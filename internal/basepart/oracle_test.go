package basepart

import (
	"slices"
	"sort"

	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/resource"
)

// The paper's modified hierarchical clustering (§IV-C, Fig. 5), kept as
// the oracle BasePartitions is checked against: starting from
// disconnected mode nodes, edges are inserted in decreasing edge-weight
// order, and each newly completed sub-graph that is supported by at least
// one configuration becomes a base partition.

// edge is a link between two modes weighted by co-occurrence count.
type edge struct {
	A, B   design.ModeRef
	Weight int
}

// edgeInsertion runs the clustering on a connectivity matrix and returns
// every base partition: the singletons (every used mode, in matrix column
// order, with frequency weight equal to the node weight) first, then the
// multi-mode partitions in the order the edge insertions complete them.
func edgeInsertion(m *connmat.Matrix) []BasePartition {
	d := m.Design()
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
			modes := d.ConfigModes(ci)
			if !slices.Contains(modes, e.A) || !slices.Contains(modes, e.B) {
				continue
			}
			others := make([]design.ModeRef, 0, 8)
			for _, r := range modes {
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
					FreqWeight: minEdgeWeight(m, s.Refs()),
					Resources:  sumResources(d, s),
				})
			}
		}
	}
	return parts
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

// sumResources is the summed utilisation of a set's modes.
func sumResources(d *design.Design, s modeset.Set) resource.Vector {
	var v resource.Vector
	for i := 0; i < s.Len(); i++ {
		v = v.Add(d.ModeResources(s.At(i)))
	}
	return v
}

// minEdgeWeight returns the smallest pairwise edge weight within a set of
// two or more modes: the paper's frequency weight for multi-mode base
// partitions. For singletons it returns the node weight.
func minEdgeWeight(m *connmat.Matrix, set []design.ModeRef) int {
	if len(set) == 1 {
		return m.NodeWeight(set[0])
	}
	minW := -1
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if w := m.EdgeWeight(set[i], set[j]); minW < 0 || w < minW {
				minW = w
			}
		}
	}
	return max(minW, 0)
}
