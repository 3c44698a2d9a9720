package design

import (
	"sort"
	"strings"
	"testing"

	"prpart/internal/resource"
)

func TestPaperExampleValid(t *testing.T) {
	for _, d := range []*Design{
		PaperExample(), VideoReceiver(), VideoReceiverModified(),
		TwoModuleExample(), SingleModeExample(),
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestUsedModesPaperExample(t *testing.T) {
	d := PaperExample()
	used := d.UsedModes()
	if len(used) != 8 {
		t.Fatalf("UsedModes = %d, want 8 (A1-A3, B1-B2, C1-C3)", len(used))
	}
	all := d.AllModes()
	if len(all) != 8 {
		t.Fatalf("AllModes = %d, want 8", len(all))
	}
}

func TestUsedModesSkipsUnreferenced(t *testing.T) {
	d := VideoReceiver()
	// R.None (mode 4) and the modified set's unused modes never appear.
	for _, r := range d.UsedModes() {
		if d.ModeName(r) == "R.None" {
			t.Error("R.None should not be a used mode in the 8-config case study")
		}
	}
	if got, want := len(d.UsedModes()), 13; got != want {
		// 14 modes total, R.None unused.
		t.Errorf("UsedModes = %d, want %d", got, want)
	}
}

func TestConfigResources(t *testing.T) {
	d := VideoReceiver()
	// Config 0: F1 + R3 + M1 + D1 + V1.
	want := resource.New(818+123+50+630+4700, 0+0+0+2+40, 28+8+2+0+65)
	if got := d.ConfigResources(0); got != want {
		t.Errorf("ConfigResources(0) = %v, want %v", got, want)
	}
}

func TestLargestConfiguration(t *testing.T) {
	d := TwoModuleExample()
	// Configs: {A1,B1}=600, {A2,B2}=520, {A1,B2}=220 -> largest 600.
	if got := d.LargestConfiguration(); got.CLB != 600 {
		t.Errorf("LargestConfiguration CLB = %d, want 600", got.CLB)
	}
}

func TestStaticSum(t *testing.T) {
	d := VideoReceiver()
	got := d.StaticSum()
	// Sum of all Table II modes: 15751 CLB, 83 BRAM, 204 DSP. (The paper's
	// Table IV quotes 15053/68/202 for the same sum; see EXPERIMENTS.md.)
	want := resource.New(15751, 83, 204)
	if got != want {
		t.Errorf("StaticSum = %v, want %v", got, want)
	}
}

// TestVideoReceiverTable2 pins the case study's 13 IP-core utilisations
// against a second transcription of the paper's Table II: every mode but
// the empty recovery mode R.None is one row.
func TestVideoReceiverTable2(t *testing.T) {
	table2 := map[string]resource.Vector{
		"F.Filter1": resource.New(818, 0, 28), // Matched Filter
		"F.Filter2": resource.New(500, 0, 34),
		"R.Fine":    resource.New(318, 1, 13), // Recovery
		"R.Coarse1": resource.New(195, 1, 5),
		"R.Coarse2": resource.New(123, 0, 8),
		"M.BPSK":    resource.New(50, 0, 2), // Demodulator
		"M.QPSK":    resource.New(97, 0, 4),
		"D.Viterbi": resource.New(630, 2, 0), // Decoder (FEC)
		"D.Turbo":   resource.New(748, 15, 4),
		"D.DPC":     resource.New(234, 2, 0),
		"V.MPEG4":   resource.New(4700, 40, 65), // Decoder (video)
		"V.MPEG2":   resource.New(4558, 16, 32),
		"V.JPEG":    resource.New(2780, 6, 9),
	}
	seen := 0
	for _, m := range VideoReceiver().Modules {
		for _, md := range m.Modes {
			key := m.Name + "." + md.Name
			if key == "R.None" {
				if !md.Resources.IsZero() {
					t.Errorf("R.None = %v, want zero", md.Resources)
				}
				continue
			}
			v, ok := table2[key]
			if !ok {
				t.Errorf("%s not in Table II", key)
				continue
			}
			seen++
			if md.Resources != v {
				t.Errorf("%s = %v, Table II %v", key, md.Resources, v)
			}
		}
	}
	if seen != len(table2) {
		t.Errorf("design has %d of Table II's %d IP cores", seen, len(table2))
	}
}

func TestModuleLargestSum(t *testing.T) {
	d := VideoReceiver()
	v := d.Modules[4] // video decoder
	if got := v.Largest(); got != resource.New(4700, 40, 65) {
		t.Errorf("V.Largest = %v", got)
	}
	if got := v.Sum(); got != resource.New(4700+4558+2780, 40+16+6, 65+32+9) {
		t.Errorf("V.Sum = %v", got)
	}
}

func TestModeNameAndResources(t *testing.T) {
	d := VideoReceiver()
	r := ModeRef{Module: 3, Mode: 2}
	if got := d.ModeName(r); got != "D.Turbo" {
		t.Errorf("ModeName = %q, want D.Turbo", got)
	}
	if got := d.ModeResources(r); got != resource.New(748, 15, 4) {
		t.Errorf("ModeResources = %v", got)
	}
	// Out-of-range refs degrade to positional naming, not panics.
	if got := d.ModeName(ModeRef{Module: 99, Mode: 1}); got != "m99.1" {
		t.Errorf("ModeName(out of range) = %q", got)
	}
	if got := d.ModeName(ModeRef{Module: 0, Mode: 99}); got != "m0.99" {
		t.Errorf("ModeName(bad mode) = %q", got)
	}
}

func TestConfigName(t *testing.T) {
	d := PaperExample()
	if got := d.ConfigName(0); got != "S->A3->B2->C3" {
		t.Errorf("ConfigName(0) = %q", got)
	}
	d.Configurations[0].Name = "boot"
	if got := d.ConfigName(0); got != "boot" {
		t.Errorf("named ConfigName = %q", got)
	}
	s := SingleModeExample()
	if got := s.ConfigName(0); got != "S->C1->F1" {
		t.Errorf("single-mode ConfigName = %q", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Design)
		want   string
	}{
		{"no modules", func(d *Design) { d.Modules = nil }, "no modules"},
		{"no configurations", func(d *Design) { d.Configurations = nil }, "no configurations"},
		{"negative static", func(d *Design) { d.Static = resource.New(-1, 0, 0) }, "negative"},
		{"unnamed module", func(d *Design) { d.Modules[0].Name = "" }, "no name"},
		{"duplicate module", func(d *Design) { d.Modules[1].Name = d.Modules[0].Name }, "duplicate module"},
		{"no modes", func(d *Design) { d.Modules[0].Modes = nil }, "no modes"},
		{"unnamed mode", func(d *Design) { d.Modules[0].Modes[0].Name = "" }, "has no name"},
		{"duplicate mode", func(d *Design) { d.Modules[0].Modes[1].Name = d.Modules[0].Modes[0].Name }, "duplicate mode"},
		{"negative mode resources", func(d *Design) {
			d.Modules[0].Modes[0].Resources = resource.New(0, -2, 0)
		}, "negative resources"},
		{"bad config length", func(d *Design) { d.Configurations[0].Modes = []int{1} }, "selects"},
		{"mode out of range", func(d *Design) { d.Configurations[0].Modes[0] = 9 }, "out of range"},
		{"all-zero config", func(d *Design) {
			d.Configurations[0].Modes = make([]int, len(d.Modules))
		}, "activates no modes"},
		{"duplicate config", func(d *Design) {
			d.Configurations[1].Modes = append([]int(nil), d.Configurations[0].Modes...)
		}, "duplicates"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := PaperExample()
			c.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid design")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSortConfigurations(t *testing.T) {
	d := PaperExample()
	d.SortConfigurations()
	prev := d.Configurations[0].Modes
	for _, c := range d.Configurations[1:] {
		for k := range prev {
			if prev[k] != c.Modes[k] {
				if prev[k] > c.Modes[k] {
					t.Fatalf("configurations not sorted: %v before %v", prev, c.Modes)
				}
				break
			}
		}
		prev = c.Modes
	}
}

func TestConfigModesSkipsAbsent(t *testing.T) {
	d := SingleModeExample()
	m0 := d.ConfigModes(0)
	if len(m0) != 2 {
		t.Fatalf("config 0 active modes = %d, want 2", len(m0))
	}
	m1 := d.ConfigModes(1)
	if len(m1) != 3 {
		t.Fatalf("config 1 active modes = %d, want 3", len(m1))
	}
}

func TestFindMode(t *testing.T) {
	d := VideoReceiver()
	r, err := d.FindMode("D.Turbo")
	if err != nil || r != (ModeRef{Module: 3, Mode: 2}) {
		t.Errorf("FindMode(D.Turbo) = %v, %v", r, err)
	}
	if _, err := d.FindMode("D/Turbo"); err != nil {
		t.Errorf("slash separator rejected: %v", err)
	}
	for _, bad := range []string{"NoDot", "X.Turbo", "D.Nope"} {
		if _, err := d.FindMode(bad); err == nil {
			t.Errorf("FindMode(%q) accepted", bad)
		}
	}
}

// StaticSum returns the area of a fully static implementation: static
// logic plus the sum of every mode of every module (all instantiated
// concurrently behind mode-select multiplexers). The paper's "Static"
// scheme in Table IV.
func (d *Design) StaticSum() resource.Vector {
	v := d.Static
	for _, m := range d.Modules {
		v = v.Add(m.Sum())
	}
	return v
}

// SortConfigurations orders configurations deterministically (by mode
// index vectors) without changing semantics; useful for canonical output.
func (d *Design) SortConfigurations() {
	sort.SliceStable(d.Configurations, func(i, j int) bool {
		a, b := d.Configurations[i].Modes, d.Configurations[j].Modes
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Largest returns the per-resource maximum over the module's modes: the
// region size the one-module-per-region baseline must reserve for it.
func (m *Module) Largest() resource.Vector {
	var v resource.Vector
	for _, md := range m.Modes {
		v = v.Max(md.Resources)
	}
	return v
}

// Sum returns the element-wise sum over the module's modes: the area a
// fully static implementation pays for it.
func (m *Module) Sum() resource.Vector {
	var v resource.Vector
	for _, md := range m.Modes {
		v = v.Add(md.Resources)
	}
	return v
}
