// Package cover implements the paper's covering algorithm (§IV-C): base
// partitions, ordered ascending by mode count (then frequency weight,
// then area), are drawn in sequence and used to zero the entries of the
// connectivity matrix they provide, until every configuration is fully
// covered. The partitions actually used form a candidate partition set —
// the starting point for region allocation. Removing the head of the list
// and re-covering yields the next candidate set, until covering fails or
// the caller's bound on distinct sets is reached (SetsN): the search only
// ever uses a prefix of the sequence, so enumeration stops there.
package cover

import (
	"errors"
	"sort"
	"strings"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/device"
)

// ErrUncoverable reports that the base-partition list cannot cover every
// configuration — the candidate-set iteration has been exhausted.
var ErrUncoverable = errors.New("cover: base partitions cannot cover all configurations")

// CandidateSet is a set of base partitions whose modes cover every valid
// configuration, plus the activation record the covering produced.
type CandidateSet struct {
	// Parts are the selected base partitions, in selection order.
	Parts []basepart.BasePartition
	// Active[ci][pi] reports whether configuration ci requires part pi
	// (the part covered at least one of the configuration's modes).
	Active [][]bool
}

// Order sorts base partitions into the paper's covering order: ascending
// number of modes, then ascending frequency weight, then ascending area
// in frames, with the canonical set key as a final deterministic
// tie-break. The input is not modified.
func Order(parts []basepart.BasePartition) []basepart.BasePartition {
	out := append([]basepart.BasePartition(nil), parts...)
	frames := make([]int, len(out))
	for i, bp := range out {
		frames[i] = device.Frames(bp.Resources)
	}
	sort.Stable(coverOrder{out, frames, make([]string, len(out))})
	return out
}

// coverOrder sorts parts by Order's keys. frames[i] is the frame count
// of parts[i], computed once per part; keys[i] is its set key, built the
// first time a tie reaches it. Both are swapped along with the part.
type coverOrder struct {
	parts  []basepart.BasePartition
	frames []int
	keys   []string
}

func (o coverOrder) Len() int { return len(o.parts) }

func (o coverOrder) Swap(i, j int) {
	o.parts[i], o.parts[j] = o.parts[j], o.parts[i]
	o.frames[i], o.frames[j] = o.frames[j], o.frames[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

func (o coverOrder) Less(i, j int) bool {
	a, b := o.parts[i], o.parts[j]
	if a.Set.Len() != b.Set.Len() {
		return a.Set.Len() < b.Set.Len()
	}
	if a.FreqWeight != b.FreqWeight {
		return a.FreqWeight < b.FreqWeight
	}
	if o.frames[i] != o.frames[j] {
		return o.frames[i] < o.frames[j]
	}
	return o.key(i) < o.key(j)
}

func (o coverOrder) key(i int) string {
	if o.keys[i] == "" {
		o.keys[i] = o.parts[i].Set.Key()
	}
	return o.keys[i]
}

// Cover runs one covering pass: partitions are taken in list order, each
// kept only if it covers at least one still-uncovered (configuration,
// mode) cell, until the matrix is fully covered. ErrUncoverable is
// returned when the list runs out first.
func Cover(list []basepart.BasePartition, m *connmat.Matrix) (*CandidateSet, error) {
	work := m.Clone()
	nCfg := m.NumConfigs()
	cs := &CandidateSet{}
	for _, bp := range list {
		if work.AllZero() {
			break
		}
		var active []int
		for ci := 0; ci < nCfg; ci++ {
			covered := false
			for i := 0; i < bp.Set.Len(); i++ {
				if work.Clear(ci, bp.Set.At(i)) {
					covered = true
				}
			}
			if covered {
				active = append(active, ci)
			}
		}
		if len(active) == 0 {
			continue // covers nothing new: not a candidate
		}
		row := make([]bool, nCfg)
		for _, ci := range active {
			row[ci] = true
		}
		cs.Parts = append(cs.Parts, bp)
		// Active is stored config-major; transpose as we go.
		for ci := 0; ci < nCfg; ci++ {
			if len(cs.Active) <= ci {
				cs.Active = append(cs.Active, nil)
			}
			cs.Active[ci] = append(cs.Active[ci], row[ci])
		}
	}
	if !work.AllZero() {
		return nil, ErrUncoverable
	}
	if len(cs.Active) == 0 {
		cs.Active = make([][]bool, nCfg)
	}
	return cs, nil
}

// Sets enumerates every candidate partition set of the paper's outer
// loop: the first covering uses the whole ordered list; each subsequent
// one removes the current head and re-covers, until covering fails. The
// partitions must already be in covering order (see Order). It is SetsN
// without a bound.
func Sets(ordered []basepart.BasePartition, m *connmat.Matrix) []*CandidateSet {
	return SetsN(ordered, m, int(^uint(0)>>1))
}

// SetsN is Sets stopped once limit distinct candidate sets are found.
// Sets keeps first occurrences in enumeration order, so the result is
// exactly the first min(limit, len(Sets(ordered, m))) sets of Sets, at
// the cost of only the coverings needed to reach them.
func SetsN(ordered []basepart.BasePartition, m *connmat.Matrix, limit int) []*CandidateSet {
	var out []*CandidateSet
	seen := make(map[string]bool)
	for start := 0; start < len(ordered) && len(out) < limit; start++ {
		cs, err := Cover(ordered[start:], m)
		if err != nil {
			break
		}
		key := setKey(cs)
		if !seen[key] {
			seen[key] = true
			out = append(out, cs)
		}
	}
	return out
}

func setKey(cs *CandidateSet) string {
	var b strings.Builder
	for _, p := range cs.Parts {
		b.WriteString(p.Set.Key())
		b.WriteByte(';')
	}
	return b.String()
}
