package compat

import (
	"testing"
	"testing/quick"

	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/modeset"
)

func r(mod, mode int) design.ModeRef { return design.ModeRef{Module: mod, Mode: mode} }

// Compatible reports whether sets a and b may share a region: no
// configuration intersects both.
func Compatible(m *connmat.Matrix, a, b modeset.Set) bool {
	return !ConfigMask(m, a).Intersects(ConfigMask(m, b))
}

// Union returns a fresh mask with every configuration marked in m or o.
func (m Mask) Union(o Mask) Mask {
	out := make(Mask, len(m))
	for i := range m {
		out[i] = m[i] | o[i]
	}
	return out
}

// Clone returns an independent copy.
func (m Mask) Clone() Mask {
	return append(Mask(nil), m...)
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.masks) }

func TestPaperCompatibilityExamples(t *testing.T) {
	m := connmat.New(design.PaperExample())
	// Paper: {A1} and {A2} are compatible; {A1} and {B1} are not, because
	// of configuration S->A1->B1->C1.
	if !Compatible(m, modeset.New(r(0, 1)), modeset.New(r(0, 2))) {
		t.Error("{A1} and {A2} should be compatible")
	}
	if Compatible(m, modeset.New(r(0, 1)), modeset.New(r(1, 1))) {
		t.Error("{A1} and {B1} should be incompatible")
	}
	// A multi-mode set {M1,D2}-style check: {A3,B2} vs {A2} — A2 occurs
	// only in config 5, which contains B2, so they are incompatible.
	if Compatible(m, modeset.New(r(0, 3), r(1, 2)), modeset.New(r(0, 2))) {
		t.Error("{A3,B2} and {A2} should be incompatible (config 5)")
	}
}

func TestCaseStudyCompatibility(t *testing.T) {
	m := connmat.New(design.VideoReceiver())
	// Table III pairs that share regions must be compatible:
	// PRR1 holds M2 and {M1,D2}; PRR3 holds D1 and R1; PRR4 F1 and F2.
	pairs := [][2]modeset.Set{
		{modeset.New(r(2, 2)), modeset.New(r(2, 1), r(3, 2))}, // M2 vs {M1,D2}
		{modeset.New(r(3, 1)), modeset.New(r(1, 1))},          // D1 vs R1
		{modeset.New(r(0, 1)), modeset.New(r(0, 2))},          // F1 vs F2
	}
	for _, p := range pairs {
		if !Compatible(m, p[0], p[1]) {
			t.Errorf("sets %v and %v should be compatible", p[0], p[1])
		}
	}
	// D1 and R2 co-occur (configs 5-7): incompatible.
	if Compatible(m, modeset.New(r(3, 1)), modeset.New(r(1, 2))) {
		t.Error("D1 and R2 should be incompatible")
	}
}

func TestMaskBasics(t *testing.T) {
	m := NewMask(130)
	if len(m) != 3 {
		t.Fatalf("mask words = %d, want 3", len(m))
	}
	for _, i := range []int{0, 63, 64, 129} {
		m.Set(i)
		if !m.Has(i) {
			t.Errorf("Has(%d) = false after Set", i)
		}
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
	o := NewMask(130)
	o.Set(63)
	if !m.Intersects(o) {
		t.Error("masks sharing bit 63 should intersect")
	}
	o2 := NewMask(130)
	o2.Set(1)
	if m.Intersects(o2) {
		t.Error("disjoint masks should not intersect")
	}
	u := m.Union(o2)
	if u.Count() != 5 || !u.Has(1) {
		t.Errorf("Union wrong: count=%d", u.Count())
	}
	c := m.Clone()
	c.Set(2)
	if m.Has(2) {
		t.Error("Clone shares storage with original")
	}
	c.Or(o2)
	if c.Count() != 6 || !c.Has(1) || !c.Has(2) || !u.Has(1) || u.Has(2) {
		t.Errorf("Or wrong: count=%d", c.Count())
	}
}

func TestConfigMask(t *testing.T) {
	d := design.PaperExample()
	m := connmat.New(d)
	// B2 appears in configurations 1,3,4,5 (0-based 0,2,3,4).
	mask := ConfigMask(m, modeset.New(r(1, 2)))
	want := []bool{true, false, true, true, true}
	for i, w := range want {
		if mask.Has(i) != w {
			t.Errorf("ConfigMask(B2).Has(%d) = %v, want %v", i, mask.Has(i), w)
		}
	}
}

func TestTable(t *testing.T) {
	d := design.PaperExample()
	m := connmat.New(d)
	sets := []modeset.Set{
		modeset.New(r(0, 1)), // A1
		modeset.New(r(0, 2)), // A2
		modeset.New(r(1, 1)), // B1
		modeset.New(r(1, 2)), // B2
	}
	tab := NewTable(m, sets)
	if tab.Len() != 4 {
		t.Fatalf("table len = %d", tab.Len())
	}
	if !tab.Compatible(0, 1) {
		t.Error("A1/A2 should be table-compatible")
	}
	if tab.Compatible(0, 2) {
		t.Error("A1/B1 should be table-incompatible")
	}
	if tab.Mask(3).Count() != 4 {
		t.Errorf("B2 mask count = %d, want 4", tab.Mask(3).Count())
	}
}

func TestCompatibleMatchesDefinitionProperty(t *testing.T) {
	// Compatible(a,b) must equal "no configuration intersects both sets".
	for _, d := range []*design.Design{design.PaperExample(), design.VideoReceiver()} {
		m := connmat.New(d)
		modes := m.Modes()
		f := func(ai, bi uint) bool {
			a := modeset.New(modes[int(ai%uint(len(modes)))])
			b := modeset.New(modes[int(bi%uint(len(modes)))])
			slow := true
			for ci := range d.Configurations {
				cfg := modeset.New(d.ConfigModes(ci)...)
				if a.Intersects(cfg) && b.Intersects(cfg) {
					slow = false
					break
				}
			}
			return Compatible(m, a, b) == slow
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}
