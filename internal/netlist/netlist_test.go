package netlist

import (
	"strings"
	"testing"
)

func sampleDesign() *Design {
	d := NewDesign("top")
	leaf := &Module{
		Name: "mac",
		Ports: []Port{
			{Name: "clk", Dir: Input, Width: 1},
			{Name: "a", Dir: Input, Width: 18},
			{Name: "p", Dir: Output, Width: 48},
		},
	}
	leaf.Instances = append(leaf.Instances,
		Instance{Name: "d0", Prim: DSPPrim},
		Instance{Name: "r0", Prim: BRAMPrim},
	)
	for i := 0; i < 20; i++ {
		leaf.Instances = append(leaf.Instances, Instance{Name: "l", Prim: LUT})
	}
	for i := 0; i < 10; i++ {
		leaf.Instances = append(leaf.Instances, Instance{Name: "f", Prim: FF})
	}
	d.AddModule(leaf)
	top := d.Modules["top"]
	top.Ports = []Port{{Name: "clk", Dir: Input, Width: 1}}
	top.Nets = []string{"n1"}
	top.Instances = []Instance{
		{Name: "u0", Prim: SubModule, Of: "mac", Conns: map[string]string{"clk": "clk", "a": "n1"}},
		{Name: "u1", Prim: SubModule, Of: "mac", Conns: map[string]string{"clk": "clk"}},
	}
	return d
}

func TestValidateOK(t *testing.T) {
	if err := sampleDesign().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMissingTop(t *testing.T) {
	d := sampleDesign()
	d.Top = "nope"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "top module") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateUndefinedSubmodule(t *testing.T) {
	d := sampleDesign()
	top := d.Modules["top"]
	top.Instances = append(top.Instances, Instance{Name: "bad", Prim: SubModule, Of: "ghost"})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "undefined module") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateUnknownPort(t *testing.T) {
	d := sampleDesign()
	top := d.Modules["top"]
	top.Instances[0].Conns["bogus"] = "n1"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unknown port") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	d := NewDesign("a")
	d.Modules["a"].Instances = []Instance{{Name: "u", Prim: SubModule, Of: "b"}}
	d.AddModule(&Module{Name: "b", Instances: []Instance{{Name: "v", Prim: SubModule, Of: "a"}}})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestCount(t *testing.T) {
	m := sampleDesign().Modules["mac"]
	if m.Count(LUT) != 20 || m.Count(FF) != 10 || m.Count(DSPPrim) != 1 || m.Count(BRAMPrim) != 1 {
		t.Errorf("counts: %d/%d/%d/%d", m.Count(LUT), m.Count(FF), m.Count(DSPPrim), m.Count(BRAMPrim))
	}
	if m.Count(SubModule) != 0 {
		t.Error("leaf has no submodules")
	}
}

func TestPortLookup(t *testing.T) {
	m := sampleDesign().Modules["mac"]
	if p := m.Port("a"); p == nil || p.Width != 18 {
		t.Errorf("Port(a) = %+v", p)
	}
	if m.Port("zzz") != nil {
		t.Error("Port(zzz) should be nil")
	}
}

func TestVerilogRendering(t *testing.T) {
	d := sampleDesign()
	v := d.Modules["mac"].Verilog()
	for _, want := range []string{
		"module mac (", "input clk", "input [17:0] a", "output [47:0] p",
		"DSP48E", "RAMB36", "LUT6", "FDRE", "endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog missing %q:\n%s", want, v)
		}
	}
	top := d.Modules["top"].Verilog()
	if !strings.Contains(top, "mac u0 (.a(n1), .clk(clk));") {
		t.Errorf("submodule instantiation malformed:\n%s", top)
	}
	if !strings.Contains(top, "wire n1;") {
		t.Errorf("net declaration missing:\n%s", top)
	}
}

func TestPortDirString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Error("PortDir strings wrong")
	}
}
