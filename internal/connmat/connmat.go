// Package connmat builds the connectivity matrix of the paper's §IV-C:
// one row per valid configuration and one column per used mode, with a 1
// where the mode is active in the configuration. The matrix yields the
// node weights (how often each mode occurs) and edge weights (how often
// two modes co-occur) that drive the clustering, and is also the structure
// the covering algorithm progressively zeroes.
package connmat

import (
	"fmt"
	"strings"

	"prpart/internal/design"
)

// Matrix is the configurations × modes connectivity matrix. The zero value
// is not useful; construct with New.
type Matrix struct {
	d     *design.Design
	modes []design.ModeRef // column order
	col   map[design.ModeRef]int
	cells [][]bool // [config][column]
}

// New builds the connectivity matrix for a design. Columns are allocated
// only for modes used by at least one configuration; per §IV-D, mode 0
// (absent module) gets no column.
func New(d *design.Design) *Matrix {
	modes := d.UsedModes()
	col := make(map[design.ModeRef]int, len(modes))
	for i, r := range modes {
		col[r] = i
	}
	cells := make([][]bool, len(d.Configurations))
	for ci := range d.Configurations {
		row := make([]bool, len(modes))
		for _, r := range d.ConfigModes(ci) {
			row[col[r]] = true
		}
		cells[ci] = row
	}
	return &Matrix{d: d, modes: modes, col: col, cells: cells}
}

// Design returns the design the matrix was built from.
func (m *Matrix) Design() *design.Design { return m.d }

// Modes returns the column order: every used mode.
func (m *Matrix) Modes() []design.ModeRef {
	out := make([]design.ModeRef, len(m.modes))
	copy(out, m.modes)
	return out
}

// NumConfigs returns the number of rows.
func (m *Matrix) NumConfigs() int { return len(m.cells) }

// NumModes returns the number of columns.
func (m *Matrix) NumModes() int { return len(m.modes) }

// Column returns the column index of a mode, or -1 when the mode is
// unused.
func (m *Matrix) Column(r design.ModeRef) int {
	if c, ok := m.col[r]; ok {
		return c
	}
	return -1
}

// Contains reports whether configuration i activates mode r.
func (m *Matrix) Contains(i int, r design.ModeRef) bool {
	c, ok := m.col[r]
	return ok && m.cells[i][c]
}

// NodeWeight returns the number of configurations containing mode r
// (the columnar sum of the matrix).
func (m *Matrix) NodeWeight(r design.ModeRef) int {
	c, ok := m.col[r]
	if !ok {
		return 0
	}
	n := 0
	for i := range m.cells {
		if m.cells[i][c] {
			n++
		}
	}
	return n
}

// EdgeWeight returns W_ij: the number of configurations in which modes a
// and b occur concurrently.
func (m *Matrix) EdgeWeight(a, b design.ModeRef) int {
	ca, oka := m.col[a]
	cb, okb := m.col[b]
	if !oka || !okb || ca == cb {
		return 0
	}
	n := 0
	for i := range m.cells {
		if m.cells[i][ca] && m.cells[i][cb] {
			n++
		}
	}
	return n
}

// Clone returns an independent copy of the matrix that can be zeroed by
// the covering algorithm without disturbing the original.
func (m *Matrix) Clone() *Matrix {
	cells := make([][]bool, len(m.cells))
	for i, row := range m.cells {
		cells[i] = append([]bool(nil), row...)
	}
	return &Matrix{d: m.d, modes: m.modes, col: m.col, cells: cells}
}

// Clear zeroes the cell (config i, mode r). It reports whether the cell
// was previously set — i.e. whether this clearing covered new ground.
func (m *Matrix) Clear(i int, r design.ModeRef) bool {
	c, ok := m.col[r]
	if !ok || !m.cells[i][c] {
		return false
	}
	m.cells[i][c] = false
	return true
}

// AllZero reports whether every cell has been cleared.
func (m *Matrix) AllZero() bool {
	for i := range m.cells {
		for _, set := range m.cells[i] {
			if set {
				return false
			}
		}
	}
	return true
}

// String renders the matrix like the paper's display: a header of mode
// names and one 0/1 row per configuration.
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteString("        ")
	for _, r := range m.modes {
		fmt.Fprintf(&b, "%8s", m.d.ModeName(r))
	}
	b.WriteByte('\n')
	for i, row := range m.cells {
		fmt.Fprintf(&b, "Conf.%-3d", i+1)
		for _, set := range row {
			v := 0
			if set {
				v = 1
			}
			fmt.Fprintf(&b, "%8d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
