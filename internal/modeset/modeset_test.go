package modeset

import (
	"testing"
	"testing/quick"

	"prpart/internal/design"
)

func r(mod, mode int) design.ModeRef { return design.ModeRef{Module: mod, Mode: mode} }

func TestNewSortsAndDedupes(t *testing.T) {
	s := New(r(2, 1), r(0, 3), r(2, 1), r(0, 1))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	refs := s.Refs()
	want := []design.ModeRef{r(0, 1), r(0, 3), r(2, 1)}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero Set should be empty")
	}
	if s.Contains(r(0, 1)) {
		t.Error("empty set contains nothing")
	}
	if !s.SubsetOf(New(r(0, 1))) {
		t.Error("empty set is a subset of everything")
	}
	if s.Intersects(New(r(0, 1))) {
		t.Error("empty set intersects nothing")
	}
	if s.Key() != "" || s.String() != "{}" {
		t.Errorf("empty set key/string: %q %q", s.Key(), s.String())
	}
}

func TestContains(t *testing.T) {
	s := New(r(0, 1), r(1, 2), r(2, 3))
	for _, m := range s.Refs() {
		if !s.Contains(m) {
			t.Errorf("Contains(%v) = false", m)
		}
	}
	if s.Contains(r(1, 1)) {
		t.Error("Contains(non-member) = true")
	}
}

func TestUnionIntersectsSubset(t *testing.T) {
	a := New(r(0, 1), r(1, 2))
	b := New(r(1, 2), r(2, 3))
	u := a.Union(b)
	if u.Len() != 3 {
		t.Fatalf("union len = %d, want 3", u.Len())
	}
	if !a.Intersects(b) {
		t.Error("a and b share r(1,2)")
	}
	c := New(r(3, 1))
	if a.Intersects(c) {
		t.Error("a and c are disjoint")
	}
	if !a.SubsetOf(u) || !b.SubsetOf(u) {
		t.Error("operands must be subsets of their union")
	}
	if u.SubsetOf(a) {
		t.Error("union is not a subset of one operand here")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := New(r(1, 2), r(0, 1))
	b := New(r(0, 1), r(1, 2))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("order-insensitive equality failed")
	}
	c := New(r(0, 1))
	if a.Equal(c) {
		t.Error("sets of different size equal")
	}
	d := New(r(0, 1), r(1, 3))
	if a.Equal(d) {
		t.Error("different sets equal")
	}
	if a.Key() != "m0.1,m1.2" {
		t.Errorf("Key = %q", a.Key())
	}
}

func TestLabel(t *testing.T) {
	d := design.PaperExample()
	s := New(r(0, 3), r(1, 2))
	if got := s.Label(d); got != "{A.3, B.2}" {
		t.Errorf("Label = %q", got)
	}
}

func TestImmutability(t *testing.T) {
	a := New(r(0, 1))
	b := New(r(1, 1))
	_ = a.Union(b)
	if a.Len() != 1 || b.Len() != 1 {
		t.Error("Union mutated an operand")
	}
	refs := a.Refs()
	refs[0] = r(9, 9)
	if a.Contains(r(9, 9)) {
		t.Error("mutating Refs() result leaked into the set")
	}
}

func TestSetProperties(t *testing.T) {
	gen := func(raw []uint8) Set {
		refs := make([]design.ModeRef, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			refs = append(refs, r(int(raw[i]%5), int(raw[i+1]%4)+1))
		}
		return New(refs...)
	}
	f := func(ra, rb []uint8) bool {
		a, b := gen(ra), gen(rb)
		u := a.Union(b)
		// Union is commutative, contains both, and intersection symmetry.
		return u.Equal(b.Union(a)) &&
			a.SubsetOf(u) && b.SubsetOf(u) &&
			a.Intersects(b) == b.Intersects(a) &&
			a.Equal(a.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsetIffUnionEqual(t *testing.T) {
	gen := func(raw []uint8) Set {
		refs := make([]design.ModeRef, 0, len(raw))
		for _, v := range raw {
			refs = append(refs, r(int(v%4), int(v/4%3)+1))
		}
		return New(refs...)
	}
	f := func(ra, rb []uint8) bool {
		a, b := gen(ra), gen(rb)
		return a.SubsetOf(b) == a.Union(b).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// IsEmpty reports whether the set has no modes.
func (s Set) IsEmpty() bool { return len(s.refs) == 0 }

// Equal reports whether s and t contain exactly the same modes.
func (s Set) Equal(t Set) bool {
	if len(s.refs) != len(t.refs) {
		return false
	}
	for i := range s.refs {
		if s.refs[i] != t.refs[i] {
			return false
		}
	}
	return true
}
