// Package scheme represents a concrete partitioning of a PR design: a set
// of reconfigurable regions, each holding one or more base partitions, an
// optional set of base partitions promoted into the static logic, and the
// per-configuration record of which base partition each region holds.
//
// A scheme is the object the paper's algorithm searches over and what the
// baselines (single-region, one-module-per-region, fully static) construct
// directly; the cost model in internal/cost consumes it.
package scheme

import (
	"errors"
	"fmt"
	"strings"

	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/modeset"
	"prpart/internal/resource"
)

// Inactive marks a region that a configuration does not use; the region
// keeps whatever it held before, so transitions into such configurations
// do not reconfigure it.
const Inactive = -1

// Region is one reconfigurable region holding mutually exclusive base
// partitions; at runtime exactly one of them is loaded at a time.
type Region struct {
	// Parts are the base partitions allocated to the region.
	Parts []basepart.BasePartition
}

// MaxResources returns the per-resource maximum over the region's parts:
// the paper's eq. (2).
func (r *Region) MaxResources() resource.Vector {
	var v resource.Vector
	for _, p := range r.Parts {
		v = v.Max(p.Resources)
	}
	return v
}

// Tiles returns the region's size in whole tiles (eqs. 3-5).
func (r *Region) Tiles() resource.Vector {
	return device.Tiles(r.MaxResources())
}

// Area returns the primitive capacity the region reserves once quantised
// to whole tiles.
func (r *Region) Area() resource.Vector {
	return device.TilesToPrimitives(r.Tiles())
}

// Frames returns the number of configuration frames spanned by the region
// (eq. 6) — the cost of reconfiguring it once.
func (r *Region) Frames() int {
	return device.FramesForTiles(r.Tiles())
}

// Label renders the region contents like the paper's Table III rows:
// "M2, {M1, D2}".
func (r *Region) Label(d *design.Design) string {
	parts := make([]string, len(r.Parts))
	for i, p := range r.Parts {
		if p.Set.Len() == 1 {
			parts[i] = d.ModeName(p.Set.Refs()[0])
		} else {
			parts[i] = p.Label(d)
		}
	}
	return strings.Join(parts, ", ")
}

// Scheme is a complete partitioning of a design.
type Scheme struct {
	// Design is the partitioned design.
	Design *design.Design
	// Regions are the reconfigurable regions.
	Regions []Region
	// Static lists base partitions promoted into the static logic; their
	// modes are always present and never reconfigured.
	Static []basepart.BasePartition
	// Active[ci][ri] is the index into Regions[ri].Parts of the base
	// partition configuration ci requires there, or Inactive.
	Active [][]int
	// Name labels the scheme in reports ("proposed", "modular", ...).
	Name string
}

// StaticResources returns the summed utilisation of all promoted static
// parts. Everything in static logic is physically present simultaneously,
// so this is a sum, never a max.
func (s *Scheme) StaticResources() resource.Vector {
	var v resource.Vector
	for _, p := range s.Static {
		v = v.Add(p.Resources)
	}
	return v
}

// TotalResources returns the device resources the scheme consumes: the
// design's fixed static logic, the promoted static parts, and every
// region's tile-quantised area.
func (s *Scheme) TotalResources() resource.Vector {
	v := s.Design.Static.Add(s.StaticResources())
	for i := range s.Regions {
		v = v.Add(s.Regions[i].Area())
	}
	return v
}

// FitsIn reports whether the scheme's total resources fit a budget.
func (s *Scheme) FitsIn(budget resource.Vector) bool {
	return s.TotalResources().FitsIn(budget)
}

// StaticSet returns the union of all promoted static parts' modes.
func (s *Scheme) StaticSet() modeset.Set {
	var set modeset.Set
	for _, p := range s.Static {
		set = set.Union(p.Set)
	}
	return set
}

// Validate checks that the scheme actually implements the design:
//
//  1. Active has one row per configuration and one column per region,
//     with part indices in range.
//  2. Every mode required by every configuration is provided — either by
//     the static logic or by the active part of some region.
//  3. No region is asked to provide two different parts at once (implied
//     by the representation) and an active part really intersects the
//     configuration (no spurious activations).
func (s *Scheme) Validate() error {
	var errs []error
	d := s.Design
	if len(s.Active) != len(d.Configurations) {
		return fmt.Errorf("scheme %s: %d activation rows for %d configurations",
			s.Name, len(s.Active), len(d.Configurations))
	}
	staticSet := s.StaticSet()
	for ci := range d.Configurations {
		row := s.Active[ci]
		if len(row) != len(s.Regions) {
			errs = append(errs, fmt.Errorf("config %d: %d activation columns for %d regions",
				ci, len(row), len(s.Regions)))
			continue
		}
		cfg := modeset.New(d.ConfigModes(ci)...)
		provided := staticSet
		for ri, pi := range row {
			if pi == Inactive {
				continue
			}
			if pi < 0 || pi >= len(s.Regions[ri].Parts) {
				errs = append(errs, fmt.Errorf("config %d region %d: part index %d out of range",
					ci, ri, pi))
				continue
			}
			part := s.Regions[ri].Parts[pi]
			if !part.Set.Intersects(cfg) {
				errs = append(errs, fmt.Errorf("config %d region %d: active part %s shares no mode with the configuration",
					ci, ri, part.Label(d)))
			}
			provided = provided.Union(part.Set)
		}
		if !cfg.SubsetOf(provided) {
			for _, r := range cfg.Refs() {
				if !provided.Contains(r) {
					errs = append(errs, fmt.Errorf("config %d: mode %s not provided by any region or static logic",
						ci, d.ModeName(r)))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// String summarises the scheme.
func (s *Scheme) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s: %d regions", s.Name, len(s.Regions))
	if len(s.Static) > 0 {
		fmt.Fprintf(&b, ", %d static parts", len(s.Static))
	}
	fmt.Fprintf(&b, ", resources %v", s.TotalResources())
	return b.String()
}
