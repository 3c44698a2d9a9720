// Package compat implements the paper's compatibility relation: two base
// partitions are compatible when their modes never co-occur — no valid
// configuration needs a mode from each. Only compatible partitions may
// share a reconfigurable region, because a region holds exactly one base
// partition at a time; assigning two partitions that one configuration
// needs simultaneously would make that configuration unimplementable.
package compat

import (
	"math/bits"

	"prpart/internal/connmat"
	"prpart/internal/modeset"
)

// Mask is a bitset over configuration indices.
type Mask []uint64

// NewMask returns an empty mask able to hold n configurations.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Set marks configuration i.
func (m Mask) Set(i int) { m[i/64] |= 1 << (i % 64) }

// Has reports whether configuration i is marked.
func (m Mask) Has(i int) bool { return m[i/64]&(1<<(i%64)) != 0 }

// Intersects reports whether two masks share a configuration. o must
// be at least as long as m.
func (m Mask) Intersects(o Mask) bool {
	o = o[:len(m)]
	for i := range m {
		if m[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of marked configurations.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or marks in m every configuration marked in o, in place. o must be
// at least as long as m.
func (m Mask) Or(o Mask) {
	o = o[:len(m)]
	for i := range m {
		m[i] |= o[i]
	}
}

// ConfigMask returns the mask of configurations that intersect (activate
// at least one mode of) the given set.
func ConfigMask(m *connmat.Matrix, set modeset.Set) Mask {
	n := m.NumConfigs()
	out := NewMask(n)
	for ci := 0; ci < n; ci++ {
		for i := 0; i < set.Len(); i++ {
			if m.Contains(ci, set.At(i)) {
				out.Set(ci)
				break
			}
		}
	}
	return out
}

// Table precomputes the configuration masks of a list of mode sets so
// that pairwise compatibility queries are O(configs/64).
type Table struct {
	masks []Mask
}

// NewTable builds a table for the given sets against matrix m.
func NewTable(m *connmat.Matrix, sets []modeset.Set) *Table {
	t := &Table{masks: make([]Mask, len(sets))}
	for i, s := range sets {
		t.masks[i] = ConfigMask(m, s)
	}
	return t
}

// Compatible reports whether entries i and j may share a region.
func (t *Table) Compatible(i, j int) bool {
	return !t.masks[i].Intersects(t.masks[j])
}

// Mask returns the configuration mask of entry i.
func (t *Table) Mask(i int) Mask { return t.masks[i] }
