package scheme

import (
	"strings"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/resource"
)

func bp(d *design.Design, refs ...design.ModeRef) basepart.BasePartition {
	s := modeset.New(refs...)
	var v resource.Vector
	for _, r := range s.Refs() {
		v = v.Add(d.ModeResources(r))
	}
	return basepart.BasePartition{Set: s, FreqWeight: 1, Resources: v}
}

func r(mod, mode int) design.ModeRef { return design.ModeRef{Module: mod, Mode: mode} }

// twoModuleModular builds the one-module-per-region scheme for the
// two-module example by hand.
func twoModuleModular(d *design.Design) *Scheme {
	return &Scheme{
		Design: d,
		Name:   "modular",
		Regions: []Region{
			{Parts: []basepart.BasePartition{bp(d, r(0, 1)), bp(d, r(0, 2))}},
			{Parts: []basepart.BasePartition{bp(d, r(1, 1)), bp(d, r(1, 2))}},
		},
		Active: [][]int{
			{0, 0}, // A1 -> B1
			{1, 1}, // A2 -> B2
			{0, 1}, // A1 -> B2
		},
	}
}

func TestRegionAreaAndFrames(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	// Region A: max(100, 400) = 400 CLB -> 20 tiles -> 720 frames.
	if got := s.Regions[0].MaxResources(); got != resource.New(400, 0, 0) {
		t.Errorf("region A max = %v", got)
	}
	if got := s.Regions[0].Frames(); got != 720 {
		t.Errorf("region A frames = %d, want 720", got)
	}
	// Region B: max(500, 120) = 500 CLB -> 25 tiles -> 900 frames.
	if got := s.Regions[1].Frames(); got != 900 {
		t.Errorf("region B frames = %d, want 900", got)
	}
	if got := s.Regions[0].Area(); got != resource.New(400, 0, 0) {
		t.Errorf("region A area = %v", got)
	}
}

func TestRegionModesAndLabel(t *testing.T) {
	d := design.VideoReceiver()
	reg := Region{Parts: []basepart.BasePartition{
		bp(d, r(2, 2)),          // M2
		bp(d, r(2, 1), r(3, 2)), // {M1, D2}
	}}
	if got := reg.Label(d); got != "M.QPSK, {M.BPSK, D.Turbo}" {
		t.Errorf("Label = %q", got)
	}
	if got := reg.Modes().Len(); got != 3 {
		t.Errorf("Modes len = %d, want 3", got)
	}
	// Area is the max of part sums: {M1,D2} = 50+748 CLB dominates M2.
	if got := reg.MaxResources(); got != resource.New(798, 15, 6) {
		t.Errorf("MaxResources = %v", got)
	}
}

func TestSchemeTotalsAndStatic(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	// design.Static (90,8,0) + region areas (400 + 500 CLB).
	if got := s.TotalResources(); got != resource.New(990, 8, 0) {
		t.Errorf("TotalResources = %v", got)
	}
	if !s.FitsIn(resource.New(990, 8, 0)) {
		t.Error("scheme should fit its own total")
	}
	if s.FitsIn(resource.New(989, 8, 0)) {
		t.Error("scheme should not fit a smaller budget")
	}
	// Promote B2 into static: totals now include its raw sum.
	s.Static = append(s.Static, bp(d, r(1, 2)))
	if got := s.StaticResources(); got != resource.New(120, 0, 0) {
		t.Errorf("StaticResources = %v", got)
	}
	if got := s.StaticSet(); !got.Contains(r(1, 2)) {
		t.Errorf("StaticSet = %v", got)
	}
}

func TestValidateAcceptsGoodScheme(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scheme rejected: %v", err)
	}
}

func TestValidateCatchesMissingMode(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	s.Active[0][1] = Inactive // config 0 loses B1
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "not provided") {
		t.Fatalf("err = %v, want missing-mode error", err)
	}
}

func TestValidateStaticProvides(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	// Move B's region to static entirely and deactivate it.
	s.Static = []basepart.BasePartition{bp(d, r(1, 1)), bp(d, r(1, 2))}
	s.Regions = s.Regions[:1]
	s.Active = [][]int{{0}, {1}, {0}}
	if err := s.Validate(); err != nil {
		t.Fatalf("static-provided scheme rejected: %v", err)
	}
}

func TestValidateCatchesBadIndices(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	s.Active[1][0] = 7
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}

func TestValidateCatchesSpuriousActivation(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	// Config 2 is A1->B2; activating A2 there is spurious... but A2 still
	// intersects nothing of config 2. Use a part sharing no mode.
	s.Active[2][0] = 1 // A2 active in config A1->B2
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "shares no mode") {
		t.Fatalf("err = %v, want spurious-activation error", err)
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	s.Active = s.Active[:2]
	if err := s.Validate(); err == nil {
		t.Fatal("short activation matrix accepted")
	}
	s = twoModuleModular(d)
	s.Active[0] = []int{0}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("err = %v, want column-mismatch error", err)
	}
}

func TestString(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	s.Static = []basepart.BasePartition{bp(d, r(1, 2))}
	out := s.String()
	if !strings.Contains(out, "modular") || !strings.Contains(out, "2 regions") ||
		!strings.Contains(out, "1 static") {
		t.Errorf("String = %q", out)
	}
}

func TestNumRegions(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	if s.NumRegions() != 2 {
		t.Errorf("NumRegions = %d, want 2", s.NumRegions())
	}
}

func TestRegionTilesQuantised(t *testing.T) {
	d := design.TwoModuleExample()
	s := twoModuleModular(d)
	// Region A max = 400 CLB -> exactly 20 tiles.
	if got := s.Regions[0].Tiles(); got != resource.New(20, 0, 0) {
		t.Errorf("Tiles = %v", got)
	}
	// A 401-CLB part needs 21 tiles.
	s.Regions[0].Parts[1].Resources = resource.New(401, 0, 0)
	if got := s.Regions[0].Tiles(); got != resource.New(21, 0, 0) {
		t.Errorf("Tiles after bump = %v", got)
	}
}

// NumRegions returns the number of reconfigurable regions.
func (s *Scheme) NumRegions() int { return len(s.Regions) }

// Modes returns the union of the region's parts' mode sets.
func (r *Region) Modes() modeset.Set {
	var s modeset.Set
	for _, p := range r.Parts {
		s = s.Union(p.Set)
	}
	return s
}
