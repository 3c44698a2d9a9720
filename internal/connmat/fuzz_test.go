package connmat

import (
	"fmt"
	"testing"

	"prpart/internal/design"
	"prpart/internal/resource"
)

// designFromBytes decodes a fuzz payload into a bounded design: up to 4
// modules of up to 3 modes with small resource vectors, and up to 6
// configurations whose mode selections (0 = absent) come straight from
// the payload. The decoder is total — any byte string yields a design —
// but the result may still be rejected by design.Validate (e.g. a
// configuration row of all zeros), which the fuzz target treats as an
// uninteresting input.
func designFromBytes(data []byte) *design.Design {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	d := &design.Design{Name: "fuzz", Static: resource.New(1, 0, 0)}
	nMod := 1 + int(next())%4
	for mi := 0; mi < nMod; mi++ {
		m := &design.Module{Name: fmt.Sprintf("M%d", mi)}
		nModes := 1 + int(next())%3
		for k := 0; k < nModes; k++ {
			m.Modes = append(m.Modes, design.Mode{
				Name:      fmt.Sprintf("m%d", k),
				Resources: resource.New(1+int(next())%50, int(next())%4, int(next())%4),
			})
		}
		d.Modules = append(d.Modules, m)
	}
	nCfg := 1 + int(next())%6
	for ci := 0; ci < nCfg; ci++ {
		cfg := design.Configuration{Name: fmt.Sprintf("C%d", ci)}
		for _, m := range d.Modules {
			cfg.Modes = append(cfg.Modes, int(next())%(len(m.Modes)+1))
		}
		d.Configurations = append(d.Configurations, cfg)
	}
	return d
}

// FuzzMatrix builds the connectivity matrix for arbitrary bounded
// designs and cross-checks every derived quantity against its
// definition: node weights are column sums, edge weights are symmetric
// and bounded by both node weights, the support of a one- or two-mode
// set equals them, and Clear/AllZero behave like a plain bitmap.
func FuzzMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 10, 1, 1, 20, 2, 0, 2, 5, 0, 0, 3, 1, 2, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := designFromBytes(data)
		if err := d.Validate(); err != nil {
			return
		}
		m := New(d)
		if m.NumConfigs() != len(d.Configurations) {
			t.Fatalf("NumConfigs = %d, want %d", m.NumConfigs(), len(d.Configurations))
		}
		modes := m.Modes()
		if m.NumModes() != len(modes) {
			t.Fatalf("NumModes = %d but Modes() has %d entries", m.NumModes(), len(modes))
		}

		for _, r := range modes {
			c := m.Column(r)
			if c < 0 || c >= m.NumModes() {
				t.Fatalf("Column(%v) = %d out of range", r, c)
			}
			// NodeWeight is the column sum, and every used mode occurs.
			n := 0
			for i := 0; i < m.NumConfigs(); i++ {
				if m.cells[i][c] {
					n++
				}
			}
			if w := m.NodeWeight(r); w != n {
				t.Fatalf("NodeWeight(%v) = %d, column sum %d", r, w, n)
			}
			if m.NodeWeight(r) == 0 {
				t.Fatalf("used mode %v has zero node weight", r)
			}
			if s := support(m, []design.ModeRef{r}); s != m.NodeWeight(r) {
				t.Fatalf("support({%v}) = %d, NodeWeight = %d", r, s, m.NodeWeight(r))
			}
		}

		for i, a := range modes {
			for _, b := range modes[i+1:] {
				ab, ba := m.EdgeWeight(a, b), m.EdgeWeight(b, a)
				if ab != ba {
					t.Fatalf("EdgeWeight asymmetric: %v-%v %d vs %d", a, b, ab, ba)
				}
				if ab > m.NodeWeight(a) || ab > m.NodeWeight(b) {
					t.Fatalf("EdgeWeight(%v,%v) = %d exceeds a node weight", a, b, ab)
				}
				if s := support(m, []design.ModeRef{a, b}); s != ab {
					t.Fatalf("support pair = %d, EdgeWeight = %d", s, ab)
				}
			}
		}

		// Unused modes are invisible.
		ghost := design.ModeRef{Module: 99, Mode: 1}
		if m.Column(ghost) != -1 || m.NodeWeight(ghost) != 0 || support(m, []design.ModeRef{ghost}) != 0 {
			t.Fatal("unknown mode reported as present")
		}

		// Clearing every set cell through a clone empties it and leaves
		// the original untouched.
		cl := m.Clone()
		cleared := 0
		for i := 0; i < cl.NumConfigs(); i++ {
			for _, r := range modes {
				if cl.Clear(i, r) {
					cleared++
					if cl.Clear(i, r) {
						t.Fatalf("Clear(%d, %v) reported new ground twice", i, r)
					}
				}
			}
		}
		if !cl.AllZero() {
			t.Fatal("clone not AllZero after clearing every cell")
		}
		if m.AllZero() && cleared > 0 {
			t.Fatal("clearing the clone zeroed the original")
		}
		total := 0
		for _, r := range modes {
			total += m.NodeWeight(r)
		}
		if cleared != total {
			t.Fatalf("cleared %d cells, matrix holds %d", cleared, total)
		}
	})
}
