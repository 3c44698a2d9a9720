package resource

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{CLB, "CLB"},
		{BRAM, "BRAM"},
		{DSP, "DSP"},
		{Kind(42), "Kind(42)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestGetSet(t *testing.T) {
	v := New(1, 2, 3)
	for i, want := range []int{1, 2, 3} {
		if got := v.Get(Kinds[i]); got != want {
			t.Errorf("Get(%v) = %d, want %d", Kinds[i], got, want)
		}
	}
	v2 := v.Set(BRAM, 9)
	if v2.BRAM != 9 || v.BRAM != 2 {
		t.Errorf("Set must not mutate receiver: v=%v v2=%v", v, v2)
	}
}

func TestGetPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(invalid) did not panic")
		}
	}()
	New(1, 2, 3).Get(Kind(99))
}

func TestSetPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(invalid) did not panic")
		}
	}()
	New(1, 2, 3).Set(Kind(99), 1)
}

func TestAddSub(t *testing.T) {
	a := New(10, 5, 2)
	b := New(3, 1, 7)
	if got, want := a.Add(b), New(13, 6, 9); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := a.Sub(b), New(7, 4, -5); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.SubFloor(b), New(7, 4, 0); got != want {
		t.Errorf("SubFloor = %v, want %v", got, want)
	}
}

func TestMax(t *testing.T) {
	a := New(10, 1, 2)
	b := New(3, 6, 2)
	if got, want := a.Max(b), New(10, 6, 2); got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
}

func TestScale(t *testing.T) {
	if got, want := New(1, 2, 3).Scale(4), New(4, 8, 12); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestFitsIn(t *testing.T) {
	cap := New(100, 10, 20)
	if !New(100, 10, 20).FitsIn(cap) {
		t.Error("equal vector should fit")
	}
	if !New(0, 0, 0).FitsIn(cap) {
		t.Error("zero vector should fit")
	}
	if New(101, 0, 0).FitsIn(cap) {
		t.Error("CLB overflow should not fit")
	}
	if New(0, 11, 0).FitsIn(cap) {
		t.Error("BRAM overflow should not fit")
	}
	if New(0, 0, 21).FitsIn(cap) {
		t.Error("DSP overflow should not fit")
	}
}

func TestZeroTotalNonNegative(t *testing.T) {
	var z Vector
	if !z.IsZero() || z.Total() != 0 || !z.IsNonNegative() {
		t.Errorf("zero vector misbehaves: %v", z)
	}
	if New(1, 0, 0).IsZero() {
		t.Error("non-zero vector reported as zero")
	}
	if New(-1, 0, 0).IsNonNegative() {
		t.Error("negative vector reported non-negative")
	}
	if got := New(1, 2, 3).Total(); got != 6 {
		t.Errorf("Total = %d, want 6", got)
	}
}

func TestString(t *testing.T) {
	if got, want := New(5, 2, 1).String(), "{5 CLB, 2 BRAM, 1 DSP}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSumAllMaxAll(t *testing.T) {
	vs := []Vector{New(1, 2, 3), New(4, 0, 1), New(0, 5, 0)}
	if got, want := SumAll(vs...), New(5, 7, 4); got != want {
		t.Errorf("SumAll = %v, want %v", got, want)
	}
	if got, want := MaxAll(vs...), New(4, 5, 3); got != want {
		t.Errorf("MaxAll = %v, want %v", got, want)
	}
	if got := SumAll(); !got.IsZero() {
		t.Errorf("SumAll() = %v, want zero", got)
	}
	if got := MaxAll(); !got.IsZero() {
		t.Errorf("MaxAll() = %v, want zero", got)
	}
}

// Property: Add is commutative and associative; Max is idempotent,
// commutative and dominates both operands.
func TestAddCommutative(t *testing.T) {
	f := func(a, b Vector) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAssociative(t *testing.T) {
	f := func(a, b, c Vector) bool {
		return a.Add(b).Add(c) == a.Add(b.Add(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxProperties(t *testing.T) {
	f := func(a, b Vector) bool {
		m := a.Max(b)
		return m == b.Max(a) && m == m.Max(a) && m == m.Max(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubFloorNonNegative(t *testing.T) {
	f := func(a, b Vector) bool { return a.SubFloor(b).IsNonNegative() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxFitsInSum(t *testing.T) {
	// For non-negative vectors, max(a,b) always fits in a+b.
	f := func(a, b Vector) bool {
		a, b = Clamp(a, 1<<20), Clamp(b, 1<<20)
		return a.Max(b).FitsIn(a.Add(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// SumAll returns the element-wise sum of all vectors in vs.
func SumAll(vs ...Vector) Vector {
	var s Vector
	for _, v := range vs {
		s = s.Add(v)
	}
	return s
}

// MaxAll returns the element-wise maximum of all vectors in vs, or the zero
// vector when vs is empty.
func MaxAll(vs ...Vector) Vector {
	var m Vector
	for _, v := range vs {
		m = m.Max(v)
	}
	return m
}
