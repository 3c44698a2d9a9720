// Package partition implements the paper's partitioning algorithm (§IV-C,
// Fig. 6) and the two conventional schemes it is compared against:
// one-module-per-region and single-region, plus the fully static
// implementation used as the area upper bound in Table IV.
package partition

import (
	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/resource"
	"prpart/internal/scheme"
)

func basePartition(d *design.Design, refs ...design.ModeRef) basepart.BasePartition {
	s := modeset.New(refs...)
	var v resource.Vector
	for i := 0; i < s.Len(); i++ {
		v = v.Add(d.ModeResources(s.At(i)))
	}
	return basepart.BasePartition{Set: s, FreqWeight: 1, Resources: v}
}

// Modular builds the one-module-per-region scheme: each module that is
// used by at least one configuration gets its own region, sized for its
// largest mode; a transition reconfigures every region whose module
// changes mode. Modules absent from a configuration (mode 0) leave their
// region untouched.
func Modular(d *design.Design) *scheme.Scheme {
	s := &scheme.Scheme{Design: d, Name: "modular"}
	// regionOf[mi] is the region of module mi, -1 when unused.
	regionOf := make([]int, len(d.Modules))
	// partOf[mi][mode-1] is the part index of that mode, -1 when unused.
	partOf := make([][]int, len(d.Modules))
	used := make([]map[int]bool, len(d.Modules))
	for _, c := range d.Configurations {
		for mi, k := range c.Modes {
			if k != 0 {
				if used[mi] == nil {
					used[mi] = make(map[int]bool)
				}
				used[mi][k] = true
			}
		}
	}
	for mi, m := range d.Modules {
		regionOf[mi] = -1
		partOf[mi] = make([]int, len(m.Modes))
		for i := range partOf[mi] {
			partOf[mi][i] = -1
		}
		if len(used[mi]) == 0 {
			continue
		}
		var reg scheme.Region
		for k := 1; k <= len(m.Modes); k++ {
			if !used[mi][k] {
				continue
			}
			partOf[mi][k-1] = len(reg.Parts)
			reg.Parts = append(reg.Parts, basePartition(d, design.ModeRef{Module: mi, Mode: k}))
		}
		regionOf[mi] = len(s.Regions)
		s.Regions = append(s.Regions, reg)
	}
	for _, c := range d.Configurations {
		row := make([]int, len(s.Regions))
		for ri := range row {
			row[ri] = scheme.Inactive
		}
		for mi, k := range c.Modes {
			if k != 0 && regionOf[mi] >= 0 {
				row[regionOf[mi]] = partOf[mi][k-1]
			}
		}
		s.Active = append(s.Active, row)
	}
	return s
}

// SingleRegion builds the scheme with all reconfigurable logic in one
// region: the region holds one base partition per configuration (the
// whole configuration's mode set), is sized for the largest configuration,
// and is fully reconfigured on every transition.
func SingleRegion(d *design.Design) *scheme.Scheme {
	s := &scheme.Scheme{Design: d, Name: "single-region"}
	var reg scheme.Region
	for ci := range d.Configurations {
		reg.Parts = append(reg.Parts, basePartition(d, d.ConfigModes(ci)...))
	}
	s.Regions = []scheme.Region{reg}
	for ci := range d.Configurations {
		s.Active = append(s.Active, []int{ci})
	}
	return s
}

// FullyStatic builds the no-reconfiguration scheme: every mode of every
// module is instantiated concurrently in static logic behind mode-select
// multiplexers. Reconfiguration time is zero; the area is the sum of
// everything, which is usually what rules it out (Table IV).
func FullyStatic(d *design.Design) *scheme.Scheme {
	s := &scheme.Scheme{Design: d, Name: "static"}
	for mi, m := range d.Modules {
		for k := 1; k <= len(m.Modes); k++ {
			s.Static = append(s.Static, basePartition(d, design.ModeRef{Module: mi, Mode: k}))
		}
	}
	s.Active = make([][]int, len(d.Configurations))
	for ci := range s.Active {
		s.Active[ci] = []int{}
	}
	return s
}
