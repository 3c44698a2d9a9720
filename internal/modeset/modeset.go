// Package modeset provides an immutable, canonically ordered set of mode
// references. Base partitions, regions and configurations are all mode
// sets; giving them one canonical representation makes deduplication,
// comparison and map keying trivial across the pipeline.
package modeset

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"prpart/internal/design"
)

// Set is a canonically sorted, duplicate-free list of mode references.
// The zero value is the empty set. Sets are value types: operations return
// new sets and never mutate their inputs.
type Set struct {
	refs []design.ModeRef
}

// New builds a set from the given references, sorting and deduplicating.
func New(refs ...design.ModeRef) Set {
	out := append([]design.ModeRef(nil), refs...)
	slices.SortFunc(out, compare)
	out = dedupe(out)
	return Set{refs: out}
}

// compare is the canonical order: by module, then by mode.
func compare(a, b design.ModeRef) int {
	if c := cmp.Compare(a.Module, b.Module); c != 0 {
		return c
	}
	return cmp.Compare(a.Mode, b.Mode)
}

func less(a, b design.ModeRef) bool { return compare(a, b) < 0 }

func dedupe(refs []design.ModeRef) []design.ModeRef {
	w := 0
	for i, r := range refs {
		if i == 0 || refs[w-1] != r {
			refs[w] = r
			w++
		}
	}
	return refs[:w]
}

// Len returns the number of modes in the set.
func (s Set) Len() int { return len(s.refs) }

// Refs returns the modes in canonical order, as a fresh copy the caller
// may keep or modify. To read the modes without copying, use Len and At.
func (s Set) Refs() []design.ModeRef {
	return append([]design.ModeRef(nil), s.refs...)
}

// At returns the i-th mode in canonical order, 0 <= i < Len().
func (s Set) At(i int) design.ModeRef { return s.refs[i] }

// Contains reports whether r is a member of the set.
func (s Set) Contains(r design.ModeRef) bool {
	i := sort.Search(len(s.refs), func(i int) bool { return !less(s.refs[i], r) })
	return i < len(s.refs) && s.refs[i] == r
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	return New(append(s.Refs(), t.refs...)...)
}

// Intersects reports whether s and t share at least one mode.
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s.refs) && j < len(t.refs) {
		switch {
		case s.refs[i] == t.refs[j]:
			return true
		case less(s.refs[i], t.refs[j]):
			i++
		default:
			j++
		}
	}
	return false
}

// SubsetOf reports whether every mode of s is in t.
func (s Set) SubsetOf(t Set) bool {
	i, j := 0, 0
	for i < len(s.refs) {
		if j >= len(t.refs) {
			return false
		}
		switch {
		case s.refs[i] == t.refs[j]:
			i++
			j++
		case less(t.refs[j], s.refs[i]):
			j++
		default:
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key: the modes'
// positional references (design.ModeRef.String) joined by commas.
func (s Set) Key() string {
	var b []byte
	for i, r := range s.refs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, 'm')
		b = strconv.AppendInt(b, int64(r.Module), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(r.Mode), 10)
	}
	return string(b)
}

// Label renders the set with human-readable mode names from d, in the
// paper's "{A1, B2}" style.
func (s Set) Label(d *design.Design) string {
	parts := make([]string, len(s.refs))
	for i, r := range s.refs {
		parts[i] = d.ModeName(r)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// String renders the set with positional mode references.
func (s Set) String() string { return "{" + s.Key() + "}" }
