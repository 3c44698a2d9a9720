// Package basepart computes the base partitions of the paper's §IV-C:
// the clusters of modes that may be allocated to a reconfigurable region
// as a unit, each with an associated frequency weight.
//
// The paper finds them with a modified hierarchical clustering: starting
// from disconnected mode nodes, co-occurrence edges are inserted in
// decreasing weight order, and each newly completed sub-graph that is
// supported by at least one configuration becomes a base partition. The
// co-occurrence graph can contain cliques that no single configuration
// supports (the paper's example has the triangle {A1,B2,C1}, which
// Table I omits), so a sub-graph counts only when its mode set is a
// subset of a configuration. Every such subset is a clique, and the
// procedure completes it when its last internal edge goes in; its output
// is therefore exactly the non-empty subsets of the configurations
// (DESIGN.md §2 note 1). BasePartitions computes that closed form in one
// pass over each configuration's subsets; the edge-insertion procedure is
// kept as the package's test oracle.
//
// The frequency weight is the node weight for a singleton and the minimum
// internal edge weight otherwise. BasePartitions is the package's one
// entry point.
package basepart

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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

// MaxConfigModes bounds the number of active modes per configuration the
// clustering accepts: base partitions are subsets of configurations, so a
// configuration with k active modes contributes up to 2^k-1 of them.
const MaxConfigModes = 20

// BasePartitions returns every base partition of the design behind a
// connectivity matrix, each mode set once: the paper's Table I content.
// The cost is Σ 2^k·k over configurations with k active modes. The
// slice is in configuration order, then subset order; order it with
// cover.Order before use.
//
// Per configuration it builds one k×k table of pair weights (node
// weights on the diagonal) and walks the subset masks in increasing
// order, so a subset's frequency weight and summed resources extend
// those of the subset without its highest mode. A mode's node weight is
// at least its edge weight to any other mode, so the minimum over a
// singleton's "edges" (its node weight) and a new mode's edges is the
// minimum edge weight of the pair — the recurrence needs no special
// case for two-mode subsets.
func BasePartitions(m *connmat.Matrix) ([]BasePartition, error) {
	d := m.Design()
	maxK := 0
	for ci := range d.Configurations {
		n := len(d.ConfigModes(ci))
		if n > MaxConfigModes {
			return nil, fmt.Errorf("basepart: configuration %d has %d active modes; max supported is %d",
				ci, n, MaxConfigModes)
		}
		maxK = max(maxK, n)
	}

	// Per subset mask of the current configuration: frequency weight
	// and summed resources. Per mode pair: the weight table.
	weight := make([]int, 1<<maxK)
	res := make([]resource.Vector, 1<<maxK)
	pair := make([]int, maxK*maxK)
	refs := make([]design.ModeRef, 0, maxK)
	var key []byte

	var parts []BasePartition
	// seen holds the keys of the sets already emitted. The first
	// configuration's subsets are distinct, so it skips the lookup; the
	// last one's are never looked up again, so it skips the insert.
	seen := make(map[string]struct{})
	last := len(d.Configurations) - 1
	for ci := range d.Configurations {
		modes := d.ConfigModes(ci)
		k := len(modes)
		for i, a := range modes {
			pair[i*k+i] = m.NodeWeight(a)
			for j := i + 1; j < k; j++ {
				w := m.EdgeWeight(a, modes[j])
				pair[i*k+j], pair[j*k+i] = w, w
			}
		}
		for mask := 1; mask < 1<<k; mask++ {
			hi := bits.Len(uint(mask)) - 1
			rest := mask &^ (1 << hi)
			if rest == 0 {
				weight[mask], res[mask] = pair[hi*k+hi], d.ModeResources(modes[hi])
			} else {
				w := weight[rest]
				for r := rest; r != 0; r &= r - 1 {
					w = min(w, pair[hi*k+bits.TrailingZeros(uint(r))])
				}
				weight[mask], res[mask] = w, res[rest].Add(res[1<<hi])
			}

			// ConfigModes lists one mode per module in module order, so
			// the subset's modes in bit order are already canonical.
			refs, key = refs[:0], key[:0]
			for r := mask; r != 0; r &= r - 1 {
				ref := modes[bits.TrailingZeros(uint(r))]
				refs = append(refs, ref)
				if ci > 0 || ci < last {
					key = binary.AppendUvarint(key, uint64(ref.Module))
					key = binary.AppendUvarint(key, uint64(ref.Mode))
				}
			}
			if ci > 0 {
				if _, dup := seen[string(key)]; dup {
					continue
				}
			}
			if ci < last {
				seen[string(key)] = struct{}{}
			}
			parts = append(parts, BasePartition{
				Set:        modeset.New(refs...),
				FreqWeight: weight[mask],
				Resources:  res[mask],
			})
		}
	}
	return parts, nil
}
