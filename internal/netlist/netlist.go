// Package netlist provides the minimal structural netlist representation
// shared by the wrapper generator (internal/wrapper) and the artifact
// checker (internal/check): modules with ports, primitive instances and
// nets. It is deliberately small — just enough to stand in for the
// vendor netlist formats in the automated tool flow (§III-B steps 3-4).
package netlist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// PortDir is the direction of a module port.
type PortDir int

const (
	// Input ports receive data.
	Input PortDir = iota
	// Output ports drive data.
	Output
)

// String returns the Verilog keyword for the direction.
func (d PortDir) String() string {
	if d == Output {
		return "output"
	}
	return "input"
}

// Port is a named, sized module port.
type Port struct {
	Name  string
	Dir   PortDir
	Width int // bits; 1 renders without a range
}

// Primitive identifies the device primitive class an instance maps to.
type Primitive int

const (
	// LUT is a look-up table.
	LUT Primitive = iota
	// FF is a flip-flop.
	FF
	// BRAMPrim is one BlockRAM.
	BRAMPrim
	// DSPPrim is one DSP slice.
	DSPPrim
	// SubModule is an instance of another netlist module.
	SubModule
)

// Instance is one primitive or sub-module instantiation.
type Instance struct {
	Name string
	Prim Primitive
	// Of names the sub-module when Prim == SubModule.
	Of string
	// Conns maps formal port names to net names.
	Conns map[string]string
}

// Module is one netlist module.
type Module struct {
	Name      string
	Ports     []Port
	Nets      []string
	Instances []Instance
}

// Design is a set of modules with one top.
type Design struct {
	Top     string
	Modules map[string]*Module
}

// NewDesign creates an empty design with the named top module.
func NewDesign(top string) *Design {
	d := &Design{Top: top, Modules: map[string]*Module{}}
	d.Modules[top] = &Module{Name: top}
	return d
}

// AddModule adds (or replaces) a module.
func (d *Design) AddModule(m *Module) { d.Modules[m.Name] = m }

// Validate checks referential integrity: the top exists, submodule
// references resolve, instance connections name declared ports of the
// target, and there are no instantiation cycles.
func (d *Design) Validate() error {
	var errs []error
	if _, ok := d.Modules[d.Top]; !ok {
		errs = append(errs, fmt.Errorf("netlist: top module %q not defined", d.Top))
	}
	for _, m := range d.Modules {
		for _, inst := range m.Instances {
			if inst.Prim != SubModule {
				continue
			}
			sub, ok := d.Modules[inst.Of]
			if !ok {
				errs = append(errs, fmt.Errorf("netlist: %s/%s instantiates undefined module %q",
					m.Name, inst.Name, inst.Of))
				continue
			}
			for formal := range inst.Conns {
				if sub.Port(formal) == nil {
					errs = append(errs, fmt.Errorf("netlist: %s/%s connects unknown port %q of %q",
						m.Name, inst.Name, formal, inst.Of))
				}
			}
		}
	}
	if err := d.checkAcyclic(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (d *Design) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("netlist: instantiation cycle through %q", name)
		case black:
			return nil
		}
		color[name] = gray
		if m := d.Modules[name]; m != nil {
			for _, inst := range m.Instances {
				if inst.Prim == SubModule {
					if err := visit(inst.Of); err != nil {
						return err
					}
				}
			}
		}
		color[name] = black
		return nil
	}
	names := make([]string, 0, len(d.Modules))
	for n := range d.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Port returns the named port of the module, or nil.
func (m *Module) Port(name string) *Port {
	for i := range m.Ports {
		if m.Ports[i].Name == name {
			return &m.Ports[i]
		}
	}
	return nil
}

// Count tallies the primitive instances of one module (not descending
// into sub-modules).
func (m *Module) Count(p Primitive) int {
	n := 0
	for _, inst := range m.Instances {
		if inst.Prim == p {
			n++
		}
	}
	return n
}

// Verilog renders the module as synthesisable-looking Verilog. Primitive
// instances render as vendor primitive stubs; the output is a textual
// artefact of the tool flow, not input to a real synthesiser.
func (m *Module) Verilog() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (\n", m.Name)
	for i, p := range m.Ports {
		comma := ","
		if i == len(m.Ports)-1 {
			comma = ""
		}
		if p.Width > 1 {
			fmt.Fprintf(&b, "  %s [%d:0] %s%s\n", p.Dir, p.Width-1, p.Name, comma)
		} else {
			fmt.Fprintf(&b, "  %s %s%s\n", p.Dir, p.Name, comma)
		}
	}
	b.WriteString(");\n")
	for _, n := range m.Nets {
		fmt.Fprintf(&b, "  wire %s;\n", n)
	}
	for _, inst := range m.Instances {
		of := inst.Of
		switch inst.Prim {
		case LUT:
			of = "LUT6"
		case FF:
			of = "FDRE"
		case BRAMPrim:
			of = "RAMB36"
		case DSPPrim:
			of = "DSP48E"
		}
		fmt.Fprintf(&b, "  %s %s (", of, inst.Name)
		keys := make([]string, 0, len(inst.Conns))
		for k := range inst.Conns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, ".%s(%s)", k, inst.Conns[k])
		}
		b.WriteString(");\n")
	}
	b.WriteString("endmodule\n")
	return b.String()
}
