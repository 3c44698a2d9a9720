package connmat

import (
	"strings"
	"testing"
	"testing/quick"

	"prpart/internal/design"
)

// ref resolves a "Module mode-index" pair on the paper example, where
// module A=0, B=1, C=2.
func ref(mod, mode int) design.ModeRef { return design.ModeRef{Module: mod, Mode: mode} }

func TestPaperExampleMatrix(t *testing.T) {
	d := design.PaperExample()
	m := New(d)
	if m.NumConfigs() != 5 || m.NumModes() != 8 {
		t.Fatalf("matrix shape %dx%d, want 5x8", m.NumConfigs(), m.NumModes())
	}
	// The paper's printed matrix, columns A1 A2 A3 B1 B2 C1 C2 C3:
	want := [5][8]int{
		{0, 0, 1, 0, 1, 0, 0, 1},
		{1, 0, 0, 1, 0, 1, 0, 0},
		{0, 0, 1, 0, 1, 1, 0, 0},
		{1, 0, 0, 0, 1, 0, 1, 0},
		{0, 1, 0, 0, 1, 0, 0, 1},
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 8; j++ {
			got := 0
			if m.cells[i][j] {
				got = 1
			}
			if got != want[i][j] {
				t.Errorf("cell (%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func TestNodeWeights(t *testing.T) {
	m := New(design.PaperExample())
	// Paper: node weight of A1 is 2, of B2 is 4.
	cases := []struct {
		r    design.ModeRef
		want int
	}{
		{ref(0, 1), 2}, // A1
		{ref(0, 2), 1}, // A2
		{ref(0, 3), 2}, // A3
		{ref(1, 1), 1}, // B1
		{ref(1, 2), 4}, // B2
		{ref(2, 1), 2}, // C1
		{ref(2, 2), 1}, // C2
		{ref(2, 3), 2}, // C3
	}
	for _, c := range cases {
		if got := m.NodeWeight(c.r); got != c.want {
			t.Errorf("NodeWeight(%v) = %d, want %d", m.Design().ModeName(c.r), got, c.want)
		}
	}
}

func TestEdgeWeights(t *testing.T) {
	m := New(design.PaperExample())
	// Paper: W(A1,B1) = 1 and W(B2,C3) = 2.
	if got := m.EdgeWeight(ref(0, 1), ref(1, 1)); got != 1 {
		t.Errorf("W(A1,B1) = %d, want 1", got)
	}
	if got := m.EdgeWeight(ref(1, 2), ref(2, 3)); got != 2 {
		t.Errorf("W(B2,C3) = %d, want 2", got)
	}
	// A3,B2 is the highest edge weight (2) in the worked clustering.
	if got := m.EdgeWeight(ref(0, 3), ref(1, 2)); got != 2 {
		t.Errorf("W(A3,B2) = %d, want 2", got)
	}
	// Modes of the same module never co-occur.
	if got := m.EdgeWeight(ref(0, 1), ref(0, 2)); got != 0 {
		t.Errorf("W(A1,A2) = %d, want 0", got)
	}
	// Self edge is zero.
	if got := m.EdgeWeight(ref(0, 1), ref(0, 1)); got != 0 {
		t.Errorf("W(A1,A1) = %d, want 0", got)
	}
}

// support counts the rows that activate every mode of set, reading the
// cells directly: the frequency weight must never fall below it.
func support(m *Matrix, set []design.ModeRef) int {
	n := 0
rows:
	for i := range m.cells {
		for _, r := range set {
			if c := m.Column(r); c < 0 || !m.cells[i][c] {
				continue rows
			}
		}
		n++
	}
	return n
}

func TestSetSupportAndMinEdge(t *testing.T) {
	m := New(design.PaperExample())
	// {A3,B2,C3}: min edge weight is 1 (A3-C3), as in Fig. 5(b).
	set := []design.ModeRef{ref(0, 3), ref(1, 2), ref(2, 3)}
	if got := m.EdgeWeight(ref(0, 3), ref(2, 3)); got != 1 {
		t.Errorf("EdgeWeight(A3,C3) = %d, want 1", got)
	}
	if got := support(m, set); got != 1 {
		t.Errorf("support({A3,B2,C3}) = %d, want 1", got)
	}
	// {A1,B2,C1} is a clique of the graph but supported by no config.
	tri := []design.ModeRef{ref(0, 1), ref(1, 2), ref(2, 1)}
	if got := support(m, tri); got != 0 {
		t.Errorf("support({A1,B2,C1}) = %d, want 0", got)
	}
	for i, a := range tri {
		for _, b := range tri[i+1:] {
			if m.EdgeWeight(a, b) == 0 {
				t.Errorf("EdgeWeight(%v,%v) = 0: {A1,B2,C1} should be a clique", a, b)
			}
		}
	}
	// Unused mode has zero support.
	if got := support(m, []design.ModeRef{{Module: 0, Mode: 99}}); got != 0 {
		t.Errorf("support(unused) = %d, want 0", got)
	}
}

func TestModeZeroGetsNoColumn(t *testing.T) {
	d := design.SingleModeExample()
	m := New(d)
	if m.NumModes() != 5 {
		t.Fatalf("single-mode example columns = %d, want 5", m.NumModes())
	}
	// Absent modules contribute nothing: config 0 is CAN+FIR only.
	if !m.Contains(0, ref(0, 1)) || !m.Contains(0, ref(1, 1)) {
		t.Error("config 0 should contain CAN1 and FIR1")
	}
	if m.Contains(0, ref(2, 1)) {
		t.Error("config 0 should not contain Eth1")
	}
}

func TestUnusedModeColumn(t *testing.T) {
	d := design.VideoReceiver()
	m := New(d)
	if m.NumModes() != 13 {
		t.Fatalf("columns = %d, want 13 (R.None unused)", m.NumModes())
	}
	if c := m.Column(design.ModeRef{Module: 1, Mode: 4}); c != -1 {
		t.Errorf("Column(R.None) = %d, want -1", c)
	}
	if w := m.NodeWeight(design.ModeRef{Module: 1, Mode: 4}); w != 0 {
		t.Errorf("NodeWeight(R.None) = %d, want 0", w)
	}
}

func TestCloneClearAllZero(t *testing.T) {
	orig := New(design.PaperExample())
	m := orig.Clone()
	if m.AllZero() {
		t.Fatal("fresh matrix should not be all-zero")
	}
	if !m.Clear(4, ref(0, 2)) { // A2 in config 5
		t.Fatal("Clear(conf5, A2) should report newly covered")
	}
	if m.Clear(4, ref(0, 2)) {
		t.Fatal("second Clear of same cell should report false")
	}
	if m.Clear(0, ref(0, 2)) { // A2 not in config 1
		t.Fatal("clearing an unset cell should report false")
	}
	if !orig.Contains(4, ref(0, 2)) {
		t.Fatal("Clear leaked into the original matrix")
	}
	// Clear everything; AllZero must flip.
	for i := 0; i < m.NumConfigs(); i++ {
		for _, r := range m.Modes() {
			m.Clear(i, r)
		}
	}
	if !m.AllZero() {
		t.Fatal("matrix should be all-zero after clearing everything")
	}
}

func TestString(t *testing.T) {
	s := New(design.PaperExample()).String()
	if !strings.Contains(s, "A.1") || !strings.Contains(s, "Conf.5") {
		t.Errorf("String output missing headers:\n%s", s)
	}
}

// Property: on any valid design, edge weight is symmetric and bounded by
// both node weights, and set support is bounded by the min edge weight.
func TestWeightBoundsProperty(t *testing.T) {
	for _, d := range []*design.Design{
		design.PaperExample(), design.VideoReceiver(),
		design.VideoReceiverModified(), design.SingleModeExample(),
	} {
		m := New(d)
		modes := m.Modes()
		f := func(ai, bi, ci uint) bool {
			a := modes[int(ai%uint(len(modes)))]
			b := modes[int(bi%uint(len(modes)))]
			c := modes[int(ci%uint(len(modes)))]
			if m.EdgeWeight(a, b) != m.EdgeWeight(b, a) {
				return false
			}
			if m.EdgeWeight(a, b) > m.NodeWeight(a) || m.EdgeWeight(a, b) > m.NodeWeight(b) {
				return false
			}
			if a == b || b == c || a == c {
				return true // set support is defined on sets, not multisets
			}
			s := support(m, []design.ModeRef{a, b, c})
			return s <= m.EdgeWeight(a, b) && s <= m.EdgeWeight(b, c) && s <= m.EdgeWeight(a, c)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}
