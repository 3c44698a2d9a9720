// Package wrapper implements step 3 of the proposed tool flow (§III-B):
// for every base partition that the partitioner grouped into a region, it
// generates a wrapper module that instantiates the partition's member
// modes behind a mode-select interface, so that the vendor tools can
// build one netlist (and later one partial bitstream) per region variant.
package wrapper

import (
	"fmt"
	"sort"
	"strings"

	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/netlist"
	"prpart/internal/scheme"
)

// Set is the full wrapper collection for a scheme.
type Set struct {
	// Regions[ri][pi] is the wrapper for part pi of region ri.
	Regions [][]*netlist.Module
	// Static is the wrapper for promoted static parts (nil when none).
	Static *netlist.Module
	// Blackboxes holds the black-box stubs of the member modes.
	Blackboxes map[string]*netlist.Module
}

// Generate builds wrappers for every region variant of a scheme. Every
// member mode gets an interface-compatible black-box stub, as the vendor
// flow would when synthesis runs later.
func Generate(s *scheme.Scheme) (*Set, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("wrapper: scheme invalid: %w", err)
	}
	out := &Set{Blackboxes: map[string]*netlist.Module{}}
	for ri := range s.Regions {
		var regionWrappers []*netlist.Module
		for pi, part := range s.Regions[ri].Parts {
			w, err := out.wrap(s.Design, fmt.Sprintf("prr%d_p%d", ri+1, pi), part)
			if err != nil {
				return nil, err
			}
			regionWrappers = append(regionWrappers, w)
		}
		out.Regions = append(out.Regions, regionWrappers)
	}
	if len(s.Static) > 0 {
		merged := basepart.BasePartition{Set: s.StaticSet()}
		w, err := out.wrap(s.Design, "static_modes", merged)
		if err != nil {
			return nil, err
		}
		out.Static = w
	}
	return out, nil
}

// wrap builds one wrapper module instantiating the part's modes behind a
// 33-bit output mux (32 data + valid) driven by the mode-select input.
func (set *Set) wrap(d *design.Design, name string, part basepart.BasePartition) (*netlist.Module, error) {
	refs := part.Set.Refs()
	if len(refs) == 0 {
		return nil, fmt.Errorf("wrapper: %s: empty base partition", name)
	}
	m := &netlist.Module{
		Name: name,
		Ports: []netlist.Port{
			{Name: "clk", Dir: netlist.Input, Width: 1},
			{Name: "rst", Dir: netlist.Input, Width: 1},
			{Name: "sel", Dir: netlist.Input, Width: selWidth(len(refs))},
			{Name: "s_data", Dir: netlist.Input, Width: 32},
			{Name: "s_valid", Dir: netlist.Input, Width: 1},
			{Name: "m_data", Dir: netlist.Output, Width: 32},
			{Name: "m_valid", Dir: netlist.Output, Width: 1},
		},
	}
	for i, r := range refs {
		sub := stub(d, r)
		set.Blackboxes[sub.Name] = sub
		dataNet := fmt.Sprintf("u%d_data", i)
		validNet := fmt.Sprintf("u%d_valid", i)
		m.Nets = append(m.Nets, dataNet, validNet)
		m.Instances = append(m.Instances, netlist.Instance{
			Name: fmt.Sprintf("u%d", i),
			Prim: netlist.SubModule,
			Of:   sub.Name,
			Conns: map[string]string{
				"clk":     "clk",
				"rst":     "rst",
				"s_data":  "s_data",
				"s_valid": "s_valid",
				"m_data":  dataNet,
				"m_valid": validNet,
			},
		})
	}
	// Output mux: 33 bits (data+valid) selected among the members. One
	// LUT per 2:1 mux bit level; single-member wrappers need none.
	if n := len(refs); n > 1 {
		muxLUTs := 33 * (n - 1)
		for i := 0; i < muxLUTs; i++ {
			m.Instances = append(m.Instances, netlist.Instance{
				Name:  fmt.Sprintf("mux_%d", i),
				Prim:  netlist.LUT,
				Conns: map[string]string{"I0": "sel"},
			})
		}
	}
	return m, nil
}

// stub builds an interface-compatible black-box for a mode.
func stub(d *design.Design, r design.ModeRef) *netlist.Module {
	return &netlist.Module{
		Name: sanitize(d.ModeName(r)),
		Ports: []netlist.Port{
			{Name: "clk", Dir: netlist.Input, Width: 1},
			{Name: "rst", Dir: netlist.Input, Width: 1},
			{Name: "s_data", Dir: netlist.Input, Width: 32},
			{Name: "s_valid", Dir: netlist.Input, Width: 1},
			{Name: "m_data", Dir: netlist.Output, Width: 32},
			{Name: "m_valid", Dir: netlist.Output, Width: 1},
		},
	}
}

// Netlist assembles the wrappers and black-boxes into one validated
// netlist design rooted at a synthetic top.
func (set *Set) Netlist() (*netlist.Design, error) {
	d := netlist.NewDesign("pr_top")
	top := d.Modules["pr_top"]
	top.Ports = []netlist.Port{{Name: "clk", Dir: netlist.Input, Width: 1}}
	for _, sub := range set.Blackboxes {
		d.AddModule(sub)
	}
	var names []string
	for ri, region := range set.Regions {
		for pi, w := range region {
			d.AddModule(w)
			names = append(names, fmt.Sprintf("r%d_%d:%s", ri, pi, w.Name))
		}
	}
	if set.Static != nil {
		d.AddModule(set.Static)
		names = append(names, "static:"+set.Static.Name)
	}
	sort.Strings(names)
	for i, n := range names {
		of := n[strings.IndexByte(n, ':')+1:]
		top.Instances = append(top.Instances, netlist.Instance{
			Name:  fmt.Sprintf("i%d", i),
			Prim:  netlist.SubModule,
			Of:    of,
			Conns: map[string]string{"clk": "clk"},
		})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Verilog renders every wrapper (and black-box stubs) keyed by module
// name.
func (set *Set) Verilog() map[string]string {
	out := map[string]string{}
	for _, region := range set.Regions {
		for _, w := range region {
			out[w.Name] = w.Verilog()
		}
	}
	if set.Static != nil {
		out[set.Static.Name] = set.Static.Verilog()
	}
	for name, bb := range set.Blackboxes {
		out[name] = bb.Verilog()
	}
	return out
}

func selWidth(n int) int {
	w := 1
	for (1 << w) < n {
		w++
	}
	return w
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
