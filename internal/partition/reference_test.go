package partition

import (
	"sort"

	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/resource"
)

// This file retains the pre-incremental search engine, verbatim, as the
// oracle for differential testing (the same role baselines.go plays for
// the cost model). It lives in a test file so the shipped package
// compiles one engine; referenceSolve runs it over the same candidate
// sets solveOnce searches. referenceRun recomputes every move delta
// from first principles via moveDelta, recomputes totalArea per
// iteration, applies moves by cloning, and snapshots every feasible
// state. It shares state construction (initial, moduleGrouped,
// newGroup), move enumeration and snapshot semantics with the optimised
// engine but touches neither the delta cache nor the running
// aggregates, so any incremental-bookkeeping bug shows up as a
// divergence in TestDifferentialIncrementalVsReference. referenceRun
// also skips the search counters — oracle runs must not perturb the optimised
// path's deterministic observability contract.

// referenceSolve is solveOnce with every candidate set searched by
// referenceRun instead of (*searcher).run: the same clustering phase,
// the same selection phase, and the serial path's shared scratch.
func referenceSolve(d *design.Design, opts Options) (*Result, error) {
	m, sets, err := candidateSets(d, opts)
	if err != nil {
		return nil, err
	}
	snaps := make([]*snapshot, len(sets))
	counts := make([]int, len(sets))
	sc := newScratch()
	for i := range sets {
		snaps[i], counts[i] = newSearcher(d, m, sets[i], opts, sc).referenceRun()
	}
	return bestResult(d, opts, snaps, counts)
}

// referenceRun is the oracle counterpart of (*searcher).run.
func (s *searcher) referenceRun() (*snapshot, int) {
	base := s.initial()
	states := 0
	var best *snapshot
	record := func(st *state) {
		states++
		if !s.feasible(st.totalArea()) {
			return
		}
		sn := s.referenceSnap(st)
		if best == nil || sn.better(best) {
			best = sn
		}
	}
	record(base)

	if !s.opts.GreedyOnly {
		if seed := s.moduleGrouped(); seed != nil {
			record(seed)
			s.referenceDescend(seed, record)
		}
	}

	s.referenceDescend(base, record)

	if !s.opts.GreedyOnly {
		firsts := s.appendLegalMoves(nil, base, !s.opts.NoStatic)
		type scored struct {
			mv move
			d  int64
		}
		sc := make([]scored, len(firsts))
		for i, mv := range firsts {
			d, _ := s.moveDelta(base, mv)
			sc[i] = scored{mv, d}
		}
		sort.SliceStable(sc, func(i, j int) bool { return sc[i].d < sc[j].d })
		if maxFirst := s.opts.maxFirst(); len(sc) > maxFirst {
			sc = sc[:maxFirst]
		}
		for _, c := range sc {
			st := s.referenceApply(base, c.mv)
			record(st)
			s.referenceDescend(st, record)
		}
	}
	return best, states
}

// referenceSnap freezes a state with recomputed aggregates, ignoring the
// running cost/area fields the optimised path maintains.
func (s *searcher) referenceSnap(st *state) *snapshot {
	return &snapshot{s: s, st: st.clone(), cost: st.totalCost(), area: st.totalArea()}
}

func (s *searcher) referenceDescend(st *state, record func(*state)) {
	statics := []bool{false}
	if !s.opts.NoStatic {
		statics = append(statics, true)
	}
	for _, withStatic := range statics {
		s.referenceGreedy(st, withStatic, false, record)
		s.referenceGreedy(st, withStatic, true, record)
	}
}

// referenceApply returns a new state with the move applied, rebuilding
// the affected groups and leaving the running aggregates stale (the
// oracle never reads them).
func (s *searcher) referenceApply(st *state, mv move) *state {
	out := st.clone()
	if mv.part >= 0 && mv.j >= 0 {
		gi, gj := out.groups[mv.i], out.groups[mv.j]
		pi := gi.parts[mv.part]
		rest := make([]int, 0, len(gi.parts)-1)
		for k, p := range gi.parts {
			if k != mv.part {
				rest = append(rest, p)
			}
		}
		out.path = append(out.path, pathStep{a: []int{pi}, b: gj.parts})
		merged := s.newGroup(append(append([]int(nil), gj.parts...), pi)...)
		hi, lo := mv.i, mv.j
		if hi < lo {
			hi, lo = lo, hi
		}
		out.groups = append(out.groups[:hi], out.groups[hi+1:]...)
		out.groups = append(out.groups[:lo], out.groups[lo+1:]...)
		if len(rest) > 0 {
			out.groups = append(out.groups, s.newGroup(rest...))
		}
		out.groups = append(out.groups, merged)
		return out
	}
	if mv.j < 0 {
		g := out.groups[mv.i]
		out.path = append(out.path, pathStep{static: true, a: g.parts})
		out.static = append(out.static, g.parts...)
		for _, pi := range g.parts {
			out.staticRes = out.staticRes.Add(s.partRes[pi])
		}
		out.groups = append(out.groups[:mv.i], out.groups[mv.i+1:]...)
		return out
	}
	gi, gj := out.groups[mv.i], out.groups[mv.j]
	out.path = append(out.path, pathStep{a: gi.parts, b: gj.parts})
	merged := s.newGroup(append(append([]int(nil), gi.parts...), gj.parts...)...)
	hi, lo := mv.i, mv.j
	if hi < lo {
		hi, lo = lo, hi
	}
	out.groups = append(out.groups[:hi], out.groups[hi+1:]...)
	out.groups = append(out.groups[:lo], out.groups[lo+1:]...)
	out.groups = append(out.groups, merged)
	return out
}

// appendAllMoves appends every move available from st to out: per
// source group, every compatible merge, then (when allowStatic) the
// static promotion, then (when allowTransfers) every single-part
// transfer to another group. This order is the one the move scan's
// ordinals (moveOrd in scan.go) encode; appendLegalMoves is its
// transfer-free form.
func (s *searcher) appendAllMoves(out []move, st *state, allowStatic, allowTransfers bool) []move {
	for i := 0; i < len(st.groups); i++ {
		for j := i + 1; j < len(st.groups); j++ {
			if s.groupsCompatible(st.groups[i], st.groups[j]) {
				out = append(out, move{i: i, j: j, part: -1})
			}
		}
		if allowStatic {
			out = append(out, move{i: i, j: -1, part: -1})
		}
		// Moving the sole part of a group equals a merge, so only groups
		// with two or more parts are sources.
		if !allowTransfers || len(st.groups[i].parts) < 2 {
			continue
		}
		for k, p := range st.groups[i].parts {
			for j := 0; j < len(st.groups); j++ {
				if j != i && s.partCompatible(p, st.groups[j]) {
					out = append(out, move{i: i, j: j, part: k})
				}
			}
		}
	}
	return out
}

// referenceGreedy is the oracle counterpart of (*searcher).greedy: it
// re-enumerates moves into a fresh slice and scores each candidate with
// moveDelta every iteration.
func (s *searcher) referenceGreedy(st *state, allowStatic, allowTransfers bool, record func(*state)) {
	cur := st.clone()
	for {
		moves := s.appendAllMoves(nil, cur, allowStatic, allowTransfers)
		bestIdx := s.referenceSelect(cur, moves)
		if bestIdx < 0 {
			return
		}
		cur = s.referenceApply(cur, moves[bestIdx])
		record(cur)
	}
}

// referenceSelect returns the index of the move the greedy policy
// applies from cur among moves (in appendAllMoves order), scored with
// moveDelta: the first best in enumeration order, or -1 when every
// move is rejected.
func (s *searcher) referenceSelect(cur *state, moves []move) int {
	curArea := cur.totalArea()
	curViol := s.violation(curArea)
	bestIdx := -1
	var bestCost, bestViol, bestSaved int64
	for i, mv := range moves {
		d, area := s.moveDelta(cur, mv)
		if curViol == 0 {
			v := s.violation(area)
			if v > 0 {
				continue
			}
			if d > 0 || (d == 0 && area.Total() >= curArea.Total()) {
				continue
			}
			saved := int64(curArea.Total() - area.Total())
			if bestIdx < 0 || d < bestCost || (d == bestCost && saved > bestSaved) {
				bestIdx, bestCost, bestSaved = i, d, saved
			}
		} else {
			v := s.violation(area)
			saved := curViol - v
			if saved <= 0 {
				continue
			}
			if bestIdx < 0 || d*bestSaved < bestCost*saved ||
				(d*bestSaved == bestCost*saved && v < bestViol) {
				bestIdx, bestCost, bestViol, bestSaved = i, d, v, saved
			}
		}
	}
	return bestIdx
}

// moveDelta predicts the cost and area effect of a move without building
// the new state, from first principles: it rebuilds the affected groups
// and recomputes the area sum. It is the non-incremental oracle the
// delta cache is differentially tested against, and the oracle's move
// scorer; the production engine scores moves in scan.go.
func (s *searcher) moveDelta(st *state, mv move) (dCost int64, newArea resource.Vector) {
	area := st.totalArea()
	if mv.part >= 0 && mv.j >= 0 {
		gi, gj := st.groups[mv.i], st.groups[mv.j]
		pi := gi.parts[mv.part]
		rest := make([]int, 0, len(gi.parts)-1)
		for k, p := range gi.parts {
			if k != mv.part {
				rest = append(rest, p)
			}
		}
		dst := s.newGroup(append(append([]int(nil), gj.parts...), pi)...)
		var src *group
		srcContrib, srcArea := int64(0), resource.Vector{}
		if len(rest) > 0 {
			src = s.newGroup(rest...)
			srcContrib, srcArea = src.contrib, src.area
		}
		dCost = dst.contrib + srcContrib - gi.contrib - gj.contrib
		newArea = area.Sub(gi.area).Sub(gj.area).Add(dst.area).Add(srcArea)
		return dCost, newArea
	}
	if mv.j < 0 {
		g := st.groups[mv.i]
		var raw resource.Vector
		for _, pi := range g.parts {
			raw = raw.Add(s.partRes[pi])
		}
		return -g.contrib, area.Sub(g.area).Add(raw)
	}
	gi, gj := st.groups[mv.i], st.groups[mv.j]
	res := gi.res.Max(gj.res)
	frames := s.searchFrames(res)
	var contrib int64
	if s.weights != nil {
		merged := make([]int32, len(gi.act))
		for ci := range merged {
			// Compatibility guarantees at most one side is active.
			if gi.act[ci] != 0 {
				merged[ci] = gi.act[ci]
			} else {
				merged[ci] = gj.act[ci]
			}
		}
		contrib = frames * s.weightedDiff(merged)
	} else {
		a := int64(gi.active + gj.active)
		sq := gi.sumSq + gj.sumSq
		contrib = frames * (a*a - sq) / 2
	}
	dCost = contrib - gi.contrib - gj.contrib
	mergedArea := device.TilesToPrimitives(device.Tiles(res))
	newArea = area.Sub(gi.area).Sub(gj.area).Add(mergedArea)
	return dCost, newArea
}

// partCompatible reports whether candidate part p may join group g,
// from the compatibility table directly (the scan reads its flat mask
// array instead).
func (s *searcher) partCompatible(p int, g *group) bool {
	return !s.tab.Mask(p).Intersects(g.mask)
}
