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
	"fmt"

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
// The cost is Σ 2^k over configurations with k active modes. The slice
// is in configuration order, then subset order; order it with
// cover.Order before use.
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
	for ci := range d.Configurations {
		modes := d.ConfigModes(ci)
		for mask := 1; mask < 1<<len(modes); mask++ {
			var refs []design.ModeRef
			for i, r := range modes {
				if mask&(1<<i) != 0 {
					refs = append(refs, r)
				}
			}
			s := modeset.New(refs...)
			if key := s.Key(); !seen[key] {
				seen[key] = true
				parts = append(parts, BasePartition{
					Set:        s,
					FreqWeight: m.MinEdgeWeight(refs),
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
