package partition

import (
	"fmt"
	"sort"

	"prpart/internal/compat"
	"prpart/internal/cost"
	"prpart/internal/device"
	"prpart/internal/resource"
	"prpart/internal/scheme"
)

// state is a point in the search space: candidate parts grouped into
// regions, plus parts promoted to static logic.
//
// Groups are immutable once constructed (see newGroup): every move
// takes its replacement groups from newGroup and only edits the state's
// group slice. That invariant is what lets copies share group pointers,
// snapshots survive later in-place moves, newGroup hand one group to
// every state that holds its parts, and the delta cache in delta.go key
// entries by group id without ever invalidating them.
type state struct {
	groups    []*group
	static    []int // part indices promoted to static logic
	staticRes resource.Vector
	// path records the moves that produced this state, for Result.Trace.
	path []pathStep
	// cost and area are running aggregates maintained by applyMove:
	// cost == totalCost() and area == totalArea() at all times on the
	// optimised path, so per-candidate evaluation never walks the
	// groups. The test-only reference engine (reference_test.go)
	// ignores them and recomputes.
	cost int64
	area resource.Vector
}

// pathStep is one recorded search move.
type pathStep struct {
	static bool  // promotion to static (b empty) vs merge
	a, b   []int // part indices of the operand groups
}

// totalCost is the scheme's total reconfiguration time in scaled frames,
// recomputed from the groups — the ground truth the running state.cost
// must equal (asserted by the delta-cache property test).
func (st *state) totalCost() int64 {
	var t int64
	for _, g := range st.groups {
		t += g.contrib
	}
	return t
}

// totalArea is the device resources the state consumes (fixed static
// logic excluded; the searcher adds it when checking the budget),
// recomputed from the groups — the ground truth for state.area.
func (st *state) totalArea() resource.Vector {
	v := st.staticRes
	for _, g := range st.groups {
		v = v.Add(g.area)
	}
	return v
}

// copyTo overwrites dst with st, reusing dst's slice capacity: the
// group list, static list and path are copied, group pointers (and the
// part lists path steps reference) are shared, since groups are
// immutable. The descent's scratch states are refilled this way; dst
// must not be a state whose slices a snapshot still holds.
func (st *state) copyTo(dst *state) {
	dst.groups = append(dst.groups[:0], st.groups...)
	dst.static = append(dst.static[:0], st.static...)
	dst.path = append(dst.path[:0], st.path...)
	dst.staticRes, dst.cost, dst.area = st.staticRes, st.cost, st.area
}

// clone returns a copy of st that owns all of its slices, so neither
// side's later edits or appends can reach the other.
func (st *state) clone() *state {
	out := &state{}
	st.copyTo(out)
	return out
}

// searchFrames converts a raw resource requirement into the search cost
// unit: quantised frames × frameScale normally, or the idealised
// (fractional-tile) equivalent under NoQuantize.
func (s *searcher) searchFrames(res resource.Vector) int64 {
	if s.opts.NoQuantize {
		return int64(res.CLB)*device.FramesPerCLBTile*frameScale/device.CLBsPerTile +
			int64(res.BRAM)*device.FramesPerBRAMTile*frameScale/device.BRAMsPerTile +
			int64(res.DSP)*device.FramesPerDSPTile*frameScale/device.DSPsPerTile
	}
	return int64(device.Frames(res)) * frameScale
}

// newGroup returns the immutable group holding exactly the given
// parts, in the given order. Groups are hash-consed per candidate set:
// when the set's searches already built a group with this ordered part
// list, newGroup returns that group, id included, so a state reached
// again by another descent is made of the very groups it was made of
// before, and the delta cache and the scan memo recognise it. This is
// exact because every group field is a pure function of the ordered
// parts; order is part of the key because in-group order feeds the
// transfer ordinals, applyMove's part lists and Region.Parts. On a
// miss the group and a copy of parts are carved from the scratch's
// slabs (see scratch.group), so callers may pass a reused buffer; the
// id is the next per-candidate-set sequence number, used as a
// delta-cache key.
func (s *searcher) newGroup(parts ...int) *group {
	sc := s.sc
	slot := sc.internFind(parts)
	if id := sc.intern[slot]; id != 0 {
		return sc.groups[id-1]
	}
	g := sc.group()
	g.parts, g.id = sc.partList(len(parts)), sc.nextID()
	copy(g.parts, parts)
	sc.groups = append(sc.groups, g)
	sc.intern[slot] = uint32(len(sc.groups))
	for _, pi := range parts {
		g.res = g.res.Max(s.partRes[pi])
		g.raw = g.raw.Add(s.partRes[pi])
		n := int64(s.partAct[pi])
		g.active += s.partAct[pi]
		g.sumSq += n * n
	}
	if s.weights != nil {
		g.act = s.activation(parts)
	}
	var e pairEntry
	e, g.frames = s.groupCost(g.res, g.active, g.sumSq, g.act)
	g.area, g.contrib = e.area, e.contrib
	if n := len(s.d.Configurations); n <= 64 {
		g.mask = g.maskWord[:]
	} else {
		g.mask = compat.NewMask(n)
	}
	for _, pi := range parts {
		g.mask.Or(s.tab.Mask(pi))
	}
	return g
}

// groupsCompatible reports whether two groups may merge: a group's mask
// is the union of its parts' masks, so disjoint masks ⇔ every cross
// pair of parts is compatible.
func (s *searcher) groupsCompatible(ga, gb *group) bool {
	return !ga.mask.Intersects(gb.mask)
}

// activation maps each configuration to the active part of the group
// (part index + 1; 0 = inactive). At most one part of a compatible group
// is active per configuration.
func (s *searcher) activation(parts []int) []int32 {
	act := make([]int32, len(s.d.Configurations))
	for _, pi := range parts {
		for ci := range s.cs.Active {
			if s.cs.Active[ci][pi] {
				act[ci] = int32(pi) + 1
			}
		}
	}
	return act
}

// weightedDiff sums the pair weights of every configuration pair that
// reconfigures the group (both active, different parts).
func (s *searcher) weightedDiff(act []int32) int64 {
	var t int64
	for i := 0; i < len(act); i++ {
		if act[i] == 0 {
			continue
		}
		for j := i + 1; j < len(act); j++ {
			if act[j] != 0 && act[j] != act[i] {
				t += s.weights[i][j]
			}
		}
	}
	return t
}

// pinned reports whether a candidate part contains a designer-pinned
// mode and must live in static logic.
func (s *searcher) pinned(pi int) bool {
	for _, r := range s.opts.PinnedStatic {
		if s.cs.Parts[pi].Set.Contains(r) {
			return true
		}
	}
	return false
}

// initial builds the start state: every candidate part in its own region,
// except designer-pinned parts, which start in static logic.
func (s *searcher) initial() *state {
	st := &state{}
	for pi := range s.cs.Parts {
		if s.pinned(pi) {
			st.static = append(st.static, pi)
			st.staticRes = st.staticRes.Add(s.partRes[pi])
			continue
		}
		st.groups = append(st.groups, s.newGroup(pi))
	}
	st.cost = st.totalCost()
	st.area = st.totalArea()
	return st
}

// move is one search step.
type move struct {
	// merge indices (into state.groups); j < 0 means "promote i to static".
	i, j int
	// part >= 0 turns the move into a transfer: part (an index into
	// state.groups[i].parts) moves from group i to group j. Transfers
	// never create or destroy groups beyond emptying i.
	part int
}

// applyMove applies mv to st in place, updating the running cost and
// area aggregates from the delta cache. Because groups are immutable,
// the surgery only edits st's own slices; earlier snapshots that still
// reference the retired groups are unaffected. The slice-edit order
// (new merged group appended last, after the transfer-source remnant)
// matches the original engine exactly — group order feeds both move
// enumeration and the scheme's stable region sort, so it is part of the
// determinism contract.
//
// sc must be the scratch whose delta cache and dense rows evaluated mv
// (the shard scratch of a sharded refine scan, s.sc otherwise) so the
// entry lookups below always hit. The new groups' part lists are assembled
// in s.sc's reused parts buffer (newGroup copies them only on an
// intern miss); path steps reference the operands' immutable part
// lists instead of copying them.
func (s *searcher) applyMove(sc *scratch, st *state, mv move) {
	if mv.part >= 0 && mv.j >= 0 {
		gi, gj := st.groups[mv.i], st.groups[mv.j]
		k := mv.part
		pi := gi.parts[k]
		row := s.scan.row(sc, pi)
		dst := s.scan.entry(sc, row, gj, pi, -1)
		src := s.scan.entry(sc, row, gi, pi, k)
		st.path = append(st.path, pathStep{a: gi.parts[k : k+1 : k+1], b: gj.parts})
		s.sc.parts = append(append(s.sc.parts[:0], gj.parts...), pi)
		merged := s.newGroup(s.sc.parts...)
		var rest *group
		if len(gi.parts) > 1 {
			s.sc.parts = append(append(s.sc.parts[:0], gi.parts[:k]...), gi.parts[k+1:]...)
			rest = s.newGroup(s.sc.parts...)
		}
		hi, lo := mv.i, mv.j
		if hi < lo {
			hi, lo = lo, hi
		}
		st.groups = append(st.groups[:hi], st.groups[hi+1:]...)
		st.groups = append(st.groups[:lo], st.groups[lo+1:]...)
		if rest != nil {
			st.groups = append(st.groups, rest)
		}
		st.groups = append(st.groups, merged)
		st.cost += dst.contrib + src.contrib - gi.contrib - gj.contrib
		st.area = st.area.Sub(gi.area).Sub(gj.area).Add(dst.area).Add(src.area)
		return
	}
	if mv.j < 0 {
		g := st.groups[mv.i]
		st.path = append(st.path, pathStep{static: true, a: g.parts})
		st.static = append(st.static, g.parts...)
		st.staticRes = st.staticRes.Add(g.raw)
		st.groups = append(st.groups[:mv.i], st.groups[mv.i+1:]...)
		st.cost -= g.contrib
		st.area = st.area.Sub(g.area).Add(g.raw)
		return
	}
	gi, gj := st.groups[mv.i], st.groups[mv.j]
	e := s.mergeEntry(sc, gi, gj)
	st.path = append(st.path, pathStep{a: gi.parts, b: gj.parts})
	s.sc.parts = append(append(s.sc.parts[:0], gi.parts...), gj.parts...)
	merged := s.newGroup(s.sc.parts...)
	hi, lo := mv.i, mv.j
	if hi < lo {
		hi, lo = lo, hi
	}
	st.groups = append(st.groups[:hi], st.groups[hi+1:]...)
	st.groups = append(st.groups[:lo], st.groups[lo+1:]...)
	st.groups = append(st.groups, merged)
	st.cost += e.contrib - gi.contrib - gj.contrib
	st.area = st.area.Sub(gi.area).Sub(gj.area).Add(e.area)
}

// appendLegalMoves appends the first moves available from st to out
// (reusing its capacity): every compatible group merge and (when
// allowStatic) every static promotion, per source group in that order.
func (s *searcher) appendLegalMoves(out []move, st *state, allowStatic bool) []move {
	for i := 0; i < len(st.groups); i++ {
		for j := i + 1; j < len(st.groups); j++ {
			if s.groupsCompatible(st.groups[i], st.groups[j]) {
				out = append(out, move{i: i, j: j, part: -1})
			}
		}
		if allowStatic {
			out = append(out, move{i: i, j: -1, part: -1})
		}
	}
	return out
}

func (s *searcher) feasible(area resource.Vector) bool {
	return s.d.Static.Add(area).FitsIn(s.opts.Budget)
}

// snapshot freezes a feasible state for later comparison and extraction.
type snapshot struct {
	s    *searcher
	st   *state
	cost int64
	area resource.Vector
}

// snap deep-copies st (clone), so a snapshot of one of the scratch's
// reused descent states survives every later descent.
func (s *searcher) snap(st *state) *snapshot {
	return &snapshot{s: s, st: st.clone(), cost: st.cost, area: st.area}
}

// better orders snapshots by total reconfiguration cost, then total area,
// then fewer regions.
func (a *snapshot) better(b *snapshot) bool {
	return b.beatenBy(a.cost, a.area, len(a.st.groups))
}

// beatenBy reports whether a state with the given cost, area and region
// count comes before sn in snapshot.better's order.
func (sn *snapshot) beatenBy(cost int64, area resource.Vector, regions int) bool {
	if cost != sn.cost {
		return cost < sn.cost
	}
	if at, bt := area.Total(), sn.area.Total(); at != bt {
		return at < bt
	}
	return regions < len(sn.st.groups)
}

// incumbent is the best feasible state a search has recorded, with the
// number of states it was offered.
type incumbent struct {
	s      *searcher
	best   *snapshot
	states int
}

// record offers a visited state, cost-first: the comparison with the
// incumbent runs on the running aggregates, and only a strictly better
// feasible state is materialised with snap — losing states cost zero
// allocations.
func (in *incumbent) record(st *state) {
	in.states++
	if !in.s.feasible(st.area) {
		return
	}
	if in.best != nil && !in.best.beatenBy(st.cost, st.area, len(st.groups)) {
		in.s.sc.n.snapSkip++
		return
	}
	in.best = in.s.snap(st)
}

// result materialises the snapshot as the search's Result: its scheme,
// validated, with the scheme's Summary, the snapshot's trace, and the
// given candidate-set and state counts.
func (sn *snapshot) result(candidateSets, states int) (*Result, error) {
	sch := sn.scheme()
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: best scheme invalid: %w", err)
	}
	_, sum := cost.Evaluate(sch)
	return &Result{
		Scheme:        sch,
		Summary:       sum,
		CandidateSets: candidateSets,
		States:        states,
		Trace:         sn.trace(),
	}, nil
}

// scheme materialises the snapshot as a scheme.Scheme named "proposed".
func (sn *snapshot) scheme() *scheme.Scheme {
	s := sn.s
	out := &scheme.Scheme{Design: s.d, Name: "proposed"}
	// Deterministic region order: largest frame count first, then by
	// first part index (matches the paper's PRR numbering style).
	groups := append([]*group(nil), sn.st.groups...)
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].frames != groups[j].frames {
			return groups[i].frames > groups[j].frames
		}
		return minInt(groups[i].parts) < minInt(groups[j].parts)
	})
	for _, g := range groups {
		var reg scheme.Region
		for _, pi := range g.parts {
			reg.Parts = append(reg.Parts, s.cs.Parts[pi])
		}
		out.Regions = append(out.Regions, reg)
	}
	for _, pi := range sn.st.static {
		out.Static = append(out.Static, s.cs.Parts[pi])
	}
	nCfg := len(s.d.Configurations)
	out.Active = make([][]int, nCfg)
	for ci := 0; ci < nCfg; ci++ {
		row := make([]int, len(groups))
		for ri, g := range groups {
			row[ri] = scheme.Inactive
			for slot, pi := range g.parts {
				if s.cs.Active[ci][pi] {
					row[ri] = slot
					break
				}
			}
		}
		out.Active[ci] = row
	}
	return out
}

// trace renders the snapshot's move path with human-readable labels.
func (sn *snapshot) trace() []string {
	s := sn.s
	label := func(parts []int) string {
		out := ""
		for i, pi := range parts {
			if i > 0 {
				out += " + "
			}
			out += s.cs.Parts[pi].Label(s.d)
		}
		return out
	}
	steps := make([]string, 0, len(sn.st.path))
	for _, p := range sn.st.path {
		if p.static {
			steps = append(steps, "promote "+label(p.a)+" to static")
		} else {
			steps = append(steps, "merge "+label(p.a)+" with "+label(p.b))
		}
	}
	return steps
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// violation measures how far an area overshoots the budget, in idealised
// frame units (the same weighting the search cost uses), summed over
// resource kinds. Zero means feasible.
func (s *searcher) violation(area resource.Vector) int64 {
	over := s.d.Static.Add(area).SubFloor(s.opts.Budget)
	return s.searchFrames(over)
}

// run searches one candidate partition set: a greedy descent from the
// initial state, restarted once per distinct first move (the paper's
// "distinct from those used to begin the previous iterations"), bounded
// by MaxFirstMoves. It returns the best feasible snapshot and the number
// of states evaluated.
func (s *searcher) run() (*snapshot, int) {
	base := s.initial()
	in := incumbent{s: s}
	record := in.record
	record(base)

	// Seed the one-module-per-region grouping when the candidate set is
	// all singletons (always true for the first set): this guarantees the
	// search result is never worse than the modular baseline when the
	// baseline fits, and gives static promotion a strong starting point.
	if !s.opts.GreedyOnly {
		if seed := s.moduleGrouped(); seed != nil {
			record(seed)
			s.descend(seed, record)
		}
	}

	// The plain descent (no forced first move) ...
	s.descend(base, record)

	if !s.opts.GreedyOnly {
		// ... and one descent per distinct first move, most promising
		// (lowest cost increase per violation removed) first. The moves
		// are copied into the scored buffer before the descents below
		// recycle the shared move buffer.
		firsts := s.appendLegalMoves(s.sc.moves[:0], base, !s.opts.NoStatic)
		s.sc.moves = firsts
		scored := s.sc.scored[:0]
		for _, mv := range firsts {
			scored = append(scored, scoredMove{mv: mv, d: s.moveCost(base, mv)})
		}
		s.sc.scored = scored
		sort.SliceStable(scored, func(i, j int) bool { return scored[i].d < scored[j].d })
		if maxFirst := s.opts.maxFirst(); len(scored) > maxFirst {
			scored = scored[:maxFirst]
		}
		// Each restart state is rebuilt in the scratch's first-move
		// buffer; record snapshots copy it, and greedy descends from a
		// copy of its own.
		st := &s.sc.first
		for _, c := range scored {
			base.copyTo(st)
			s.applyMove(s.sc, st, c.mv)
			record(st)
			s.descend(st, record)
		}
	}
	s.flushCounts()
	return in.best, in.states
}

// descend runs the greedy policy from st under several move vocabularies:
// each extra move family (static promotion, transfers) can steer the
// descent onto a worse trajectory as easily as a better one, so the
// restricted descents keep the smaller search spaces covered and the
// recorded-state set grows monotonically with each family. Transfers
// are left out when s.transfers is off, and a cancelled s.ctx stops the
// descent before its next pair of vocabularies.
func (s *searcher) descend(st *state, record func(*state)) {
	statics := [...]bool{false, true}
	n := len(statics)
	if s.opts.NoStatic {
		n = 1
	}
	for _, withStatic := range statics[:n] {
		if s.ctx.Err() != nil {
			return
		}
		s.greedy(st, withStatic, false, record)
		if s.transfers {
			s.greedy(st, withStatic, true, record)
		}
	}
}

// moduleGrouped builds the state that groups singleton parts by module —
// the candidate-set equivalent of the one-module-per-region scheme — or
// nil when the candidate set contains multi-mode parts.
func (s *searcher) moduleGrouped() *state {
	byModule := make(map[int][]int)
	var order []int
	for pi, p := range s.cs.Parts {
		if p.Set.Len() != 1 {
			return nil
		}
		mi := p.Set.At(0).Module
		if _, ok := byModule[mi]; !ok {
			order = append(order, mi)
		}
		byModule[mi] = append(byModule[mi], pi)
	}
	sort.Ints(order)
	st := &state{}
	for _, mi := range order {
		var free []int
		for _, pi := range byModule[mi] {
			if s.pinned(pi) {
				st.static = append(st.static, pi)
				st.staticRes = st.staticRes.Add(s.partRes[pi])
				continue
			}
			free = append(free, pi)
		}
		if len(free) > 0 {
			st.groups = append(st.groups, s.newGroup(free...))
		}
	}
	st.cost = st.totalCost()
	st.area = st.totalArea()
	return st
}

// greedy repeatedly applies the best move. While the state is infeasible
// it picks the move with the lowest reconfiguration-cost increase per
// unit of budget violation removed (merging trades time for area in this
// model; it can never reduce cost). Once feasible it applies
// cost-improving moves — in practice static promotions — until none
// remain. Candidates are scored by the move scan (scan.go) against the
// delta cache. The descending state is the scratch's desc buffer,
// refilled from st and mutated in place, so a descent allocates only
// the groups its applied moves create (from the scratch slabs) and the
// snapshots record takes of strictly better states.
func (s *searcher) greedy(st *state, allowStatic, allowTransfers bool, record func(*state)) {
	s.cDescents.Inc()
	depth := 0
	defer func() { s.gDepth.Observe(int64(depth)) }()
	cur := &s.sc.desc
	st.copyTo(cur)
	for {
		mv, sc, ok := s.scan.scan(cur, s.scan.shardsFor(cur, allowTransfers), allowStatic, allowTransfers)
		if !ok {
			return
		}
		s.applyMove(sc, cur, mv)
		depth++
		record(cur)
	}
}
