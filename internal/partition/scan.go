package partition

import (
	"math"
	"runtime"
	"sync"

	"prpart/internal/resource"
)

// This file is the greedy descent's move scan: one pass over the legal
// moves of the current state that evaluates every candidate against the
// delta cache and keeps the best of each move class (merge, static
// promotion, transfer) under the greedy policy, remembered per state in
// the scan memo (scanMemo, below). The paper's search restarts its
// descent once per distinct first move and descend runs every start
// under four move vocabularies, so many scans meet a state the
// candidate set already scanned; with hash-consed groups (newGroup)
// such a state has the same group ids, and the scan evaluates only the
// classes the memo lacks for it. Its one parameter is the shard count.
// The solve path scans every state as one shard, inline on the
// searcher's own scratch — it already parallelises over candidate
// sets. The refine path (RefineContext), where one level of a
// multilevel solve can carry a thousand parts and the O(parts ×
// groups) transfer scan dominates the whole solve, splits large states
// into refineShards shards that a worker pool executes. Candidate moves
// are independent reads of the immutable current state; only the
// winning move's application mutates anything, and that stays serial.
//
// The design constraint is the repo's serial-vs-parallel identity
// contract: Workers must change wall-clock time and nothing else — not
// the scheme, not the trace, not one obs counter. Three decisions make
// that hold by construction rather than by tolerance:
//
//   - Fixed sharding, independent of Workers. A sharded state is always
//     split into refineShards fixed shards (merge/static moves by
//     source-group id, transfers by source part index); workers are
//     merely who executes a shard. Every per-shard cache and counter
//     trajectory is therefore a pure function of the input.
//   - Per-shard scratches. The delta cache and quantise memo are
//     allocation-free but single-threaded; each shard owns a private
//     scratch, and shard ownership is stable across iterations (group
//     ids survive unrelated moves, part indices never change), so a
//     shard re-hits its own cache exactly as one shared cache would.
//     Cached entries are exact pure functions of their operands, so
//     splitting the cache can change hit/miss timing, never a value.
//   - Deterministic fixed-order reduction. Every candidate carries an
//     ordinal encoding its position in the enumeration order of the
//     test enumerator appendAllMoves (reference_test.go); in-shard
//     incumbent updates, the per-class cross-shard reduction and the
//     combine over classes break exact score ties by that ordinal, so
//     the selected move is the first best in enumeration order no
//     matter how many shards there are, which worker saw the move or
//     which classes the memo answered. betterCand with the ordinal is
//     a strict total order, which is what makes the best of the class
//     bests the best of all.
//
// Most scans run in the infeasible phase on a handful of groups, so the
// scan's cost is the cost of each candidate, and the kernel keeps that
// small. prepare copies the groups' mask words into one flat array, so
// a merge or transfer compatibility test — which most pairs fail — is
// an AND of words read in sequence, not a walk through each group's
// mask slice. A transfer's destination side comes from the moved part's
// dense row, indexed by the destination's raw group id (extRow); only
// a first read computes it. While the state is infeasible each legal
// transfer computes its violation once, on the exact area. A one-shard
// scan owns every move, so it tests no shard ownership.

const (
	// refineShards is the shard count of a sharded refine scan. It is
	// deliberately NOT the worker count: decomposition must be a pure
	// function of the state for determinism, and 16 shards keep
	// granularity fine enough that up to 16 workers stay busy.
	refineShards = 16

	// Sharding thresholds, on state shape only (never Workers): below
	// them a one-shard scan wins on constant factors. A merge-dominated
	// iteration shards when the group count alone makes the O(G²) pair
	// scan worth splitting; a transfer iteration shards on live part
	// count, since transfers contribute O(parts × groups) candidates.
	refineParMinGroups = 64
	refineParMinParts  = 128
)

// EffectiveRefineWorkers resolves an Options.Workers value to the
// worker count the refine scan will actually use: 0 and 1 run the
// sharded scan inline, negative takes GOMAXPROCS, and the count is
// capped at both the shard count and GOMAXPROCS (the shards are pure
// CPU; extra workers beyond either bound only add scheduling overhead,
// and since the decomposition is worker-independent the cap cannot
// change any result).
func EffectiveRefineWorkers(workers int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > refineShards {
		workers = refineShards
	}
	return workers
}

// parWorthwhile reports whether cur's scan is large enough to shard.
// Pure function of the state and move vocabulary.
func parWorthwhile(cur *state, allowTransfers bool) bool {
	if len(cur.groups) >= refineParMinGroups {
		return true
	}
	if !allowTransfers || len(cur.groups) < 2 {
		return false
	}
	parts := 0
	for _, g := range cur.groups {
		parts += len(g.parts)
	}
	return parts >= refineParMinParts
}

// Ordinal move classes, matching the per-source order of the test
// enumerator appendAllMoves (reference_test.go): merges first, then the
// static promotion, then transfers. They also index the per-class
// incumbents of a scan and of the scan memo.
const (
	ordMerge uint64 = iota
	ordStatic
	ordTransfer
	numClasses
)

// classesFor is the set of move classes (bit c for class c) a scan
// under the given move vocabulary evaluates: merges always.
func classesFor(allowStatic, allowTransfers bool) uint8 {
	need := uint8(1) << ordMerge
	if allowStatic {
		need |= 1 << ordStatic
	}
	if allowTransfers {
		need |= 1 << ordTransfer
	}
	return need
}

// moveOrd packs a candidate's position in the enumeration order into
// one comparable word: source index i (high), class, part slot k,
// destination j (low). Lower ordinal ⇔ enumerated earlier by
// appendAllMoves. The field widths cover any reachable state — j and
// i are group indices (a refine level has thousands of groups at
// most), and k is a part slot within one group, which transfers only
// enumerate while the whole level has ≤ refineTransferCap parts.
func moveOrd(i int, class uint64, k, j int) uint64 {
	if i >= 1<<29 || j >= 1<<20 || k >= 1<<12 {
		panic("partition: move scan ordinal overflow")
	}
	return uint64(i)<<34 | class<<32 | uint64(k)<<20 | uint64(j)
}

// ordMove decodes the move an ordinal stands for (moveOrd's inverse).
func ordMove(ord uint64) move {
	i, j := int(ord>>34), int(ord&(1<<20-1))
	switch ord >> 32 & 3 {
	case ordMerge:
		return move{i: i, j: j, part: -1}
	case ordStatic:
		return move{i: i, j: -1, part: -1}
	}
	return move{i: i, j: j, part: int(ord >> 20 & (1<<12 - 1))}
}

// shardCand is the incumbent best move of one move class — in one
// shard, or reduced over a scan's shards — as its ordinal (which
// ordMove decodes), plus its selection scores and the class's counter
// deltas. It holds no pointer, so the scan memo can store it.
type shardCand struct {
	ok    bool
	ord   uint64
	d     int64 // cost delta
	v     int64 // resulting violation (infeasible phase)
	saved int64 // area saved (feasible) / violation removed (infeasible)

	moves   int64 // legal candidates enumerated
	rejects int64 // candidates rejected by the greedy policy
}

// betterCand is the greedy selection rule: whether a candidate with
// cost delta d, saving saved, resulting violation v and ordinal ord
// beats incumbent b. While feasible, the lower cost delta wins, then
// the larger area saving (cost-neutral area reductions make room for
// later static promotions). While infeasible, the lower cost increase
// per unit of violation removed wins, then the smaller resulting
// violation. The enumeration ordinal breaks exact ties, so the first
// best move in enumeration order is chosen. The candidate side is
// scalars so the scan can test a move before building anything.
func betterCand(d, saved, v int64, ord uint64, b *shardCand, feasible bool) bool {
	if feasible {
		if d != b.d {
			return d < b.d
		}
		if saved != b.saved {
			return saved > b.saved
		}
		return ord < b.ord
	}
	// Cross-multiply to stay in integers (saved > 0 on both sides).
	al, bl := d*b.saved, b.d*saved
	if al != bl {
		return al < bl
	}
	if v != b.v {
		return v < b.v
	}
	return ord < b.ord
}

// extRow is the destination cache of one candidate part: slot id holds
// the extension entry of the group with that id by the part (see
// extendEntry), filled the first time a scan reads it. Groups are
// immutable and an id never stands for another group within a
// candidate set, so a filled slot can never go stale — unlike a slot
// indexed by group position, which applyMove's slice surgery would
// shift every iteration. The rows are the only home of extension
// entries: the transfer scan reads them for every compatible
// destination, and applyMove reads the winner's back from the row of
// the scratch that evaluated it.
//
// Rows are indexed by the raw id. A candidate set builds few groups —
// on the §V sweep corpus a median of 29 ids per set, 291 at most, and
// at most 719 per level of BenchmarkMultilevelHuge — so a row grows to
// the largest id a scan of it reads (plus a quarter of slack, so a
// descent regrows it rarely) and no further.
type extRow struct {
	slots []extSlot
}

// extSlot is one compact extension entry: the contribution, the area
// in 32-bit components, and the scratch epoch it was filled in. A tag
// other than the scratch's current epoch means unknown, so reset
// empties every row at once by advancing the epoch, with no clearing.
// An entry whose area does not fit 32 bits is never stored; its slot
// stays unknown and every read recomputes it.
type extSlot struct {
	contrib        int64
	clb, bram, dsp int32
	tag            uint32
}

// grow extends the row with unknown slots to n slots.
func (r *extRow) grow(n int) {
	slots := make([]extSlot, n)
	copy(slots, r.slots)
	r.slots = slots
}

// row returns the dense row of part pi in sc. A shard scratch holds the
// rows of the parts its shard owns, at pi / shards; the searcher's own
// scratch holds every part's row at pi.
func (p *moveScan) row(sc *scratch, pi int) *extRow {
	if sc != p.s.sc {
		pi /= p.maxShards
	}
	if pi >= len(sc.ext) {
		sc.ext = append(sc.ext, make([]extRow, pi+1-len(sc.ext))...)
	}
	return &sc.ext[pi]
}

// dest returns the extension of group gj by part pi — the destination
// side of a transfer — from the part's row in sc, computing and
// storing it the first time. The caller has checked that pi may join
// gj.
func (p *moveScan) dest(sc *scratch, row *extRow, gj *group, pi int) pairEntry {
	id := int(gj.id)
	if id >= len(row.slots) {
		row.grow(max(id+1, p.rowLen))
	}
	sl := &row.slots[id]
	if sl.tag == sc.epoch {
		sc.n.deltaHit++
		return pairEntry{contrib: sl.contrib, area: resource.Vector{CLB: int(sl.clb), BRAM: int(sl.bram), DSP: int(sl.dsp)}}
	}
	sc.n.deltaMiss++
	e := p.s.extendEntry(sc, gj, pi)
	if a := e.area; a.CLB <= math.MaxInt32 && a.BRAM <= math.MaxInt32 && a.DSP <= math.MaxInt32 {
		*sl = extSlot{contrib: e.contrib, clb: int32(a.CLB), bram: int32(a.BRAM), dsp: int32(a.DSP), tag: sc.epoch}
	}
	return e
}

// disjoint reports whether two masks of equal length share no
// configuration: two groups may merge, and a part may join a group,
// exactly when their masks are disjoint.
func disjoint(a, b []uint64) bool {
	b = b[:len(a)]
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// transfers evaluates every transfer of part slot k of group i into
// another group of the current state, in destination order. It returns
// how many were legal and how many of those the greedy area rule
// rejected (while feasible a move must stay feasible; while infeasible
// it must shrink the violation), and hands each survivor to visit with
// its exact cost delta, resulting total area and budget violation.
// Compatibility is read from the scan's flat mask array, the
// destination side from the moved part's dense row in sc. The source
// side — the shrunken source group's entry — is the same whatever the
// destination, so it is looked up at most once, on the first
// destination that may still be accepted. While the state is feasible,
// rejection can often be decided from the destination alone: the
// source group's area is non-negative and fitting is monotone in area,
// so a lower bound that already fails proves the exact area fails too,
// and the source side is never looked up. While infeasible, the exact
// violation is needed for every survivor anyway, so each transfer
// computes it once.
func (p *moveScan) transfers(sc *scratch, i, k int, visit func(j int, d int64, area resource.Vector, v int64)) (moves, rejects int64) {
	s := p.s
	groups := p.cur.groups
	gi := groups[i]
	pi := gi.parts[k]
	mask, row := s.tab.Mask(pi), p.row(sc, pi)
	w, m0 := p.words, mask[0]
	feasible := p.curViol == 0
	var shrink pairEntry
	haveShrink := false
	for j := range groups {
		if w == 1 {
			if m0&p.masks[j] != 0 {
				continue
			}
		} else if !disjoint(mask, p.masks[j*w:j*w+w]) {
			continue
		}
		if j == i {
			continue
		}
		gj := groups[j]
		dst := p.dest(sc, row, gj, pi)
		moves++
		area := p.curArea.Sub(gi.area).Sub(gj.area).Add(dst.area)
		if feasible && !s.feasible(area) {
			rejects++
			continue
		}
		if !haveShrink {
			shrink, haveShrink = s.shrinkEntry(sc, gi, k), true
		}
		area = area.Add(shrink.area)
		v, rej := s.areaViolation(area, p.curViol)
		if rej {
			rejects++
			continue
		}
		visit(j, dst.contrib+shrink.contrib-gi.contrib-gj.contrib, area, v)
	}
	return moves, rejects
}

// moveScan is the searcher's move scan. Shard scratches are drawn from
// scratchPool on the first sharded scan (release returns them), the
// worker pool is started on the first sharded scan with more than one
// worker; a one-shard scan runs inline on the searcher's own scratch.
type moveScan struct {
	s *searcher
	// maxShards is the shard count of states worth splitting
	// (parWorthwhile): 1 on the solve path, refineShards on refine.
	maxShards int
	workers   int

	scratches [refineShards]*scratch
	cands     [refineShards][numClasses]shardCand

	// Per-iteration inputs, written before shards are dispatched and
	// read-only while they run. masks holds the current groups' mask
	// words back to back, words per group, so a compatibility test
	// reads one flat array instead of each group's mask through its
	// slice header. rowLen is the size a dense row grows to: the
	// largest group id of the state plus a quarter of slack. need is
	// the set of move classes the shards evaluate (see classesFor).
	shards  int
	cur     *state
	masks   []uint64
	words   int
	rowLen  int
	need    uint8
	curArea resource.Vector
	curViol int64

	jobs chan int
	wg   sync.WaitGroup
}

// close releases the worker pool (the goroutines exit when the job
// channel closes). Safe when the pool was never started.
func (p *moveScan) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}

// release returns the shard scratches to scratchPool. Their tallies
// must have been flushed (searcher.flushCounts) and no scan may run
// afterwards.
func (p *moveScan) release() {
	for i, sc := range p.scratches {
		if sc != nil {
			putScratch(sc)
			p.scratches[i] = nil
		}
	}
}

// shardsFor returns the shard count cur's scan runs with — a function
// of the state only, never of the worker count, so the set of sharded
// iterations (and with it every cache and counter trajectory) is
// identical at any Workers setting.
func (p *moveScan) shardsFor(cur *state, allowTransfers bool) int {
	if p.maxShards > 1 && parWorthwhile(cur, allowTransfers) {
		return p.maxShards
	}
	return 1
}

// scratch returns the scratch shard si evaluates with.
func (p *moveScan) scratch(si int) *scratch {
	if p.shards == 1 {
		return p.s.sc
	}
	return p.scratches[si]
}

// prepare sets the per-iteration inputs of a scan of cur that
// evaluates the move classes in need (see classesFor).
func (p *moveScan) prepare(cur *state, shards int, need uint8) {
	if shards > 1 && p.scratches[0] == nil {
		for i := range p.scratches {
			sc := getScratch()
			sc.reset()
			p.scratches[i] = sc
		}
	}
	p.shards = shards
	p.cur = cur
	w := 0
	if len(cur.groups) > 0 {
		w = len(cur.groups[0].mask)
	}
	p.words = w
	if n := len(cur.groups) * w; cap(p.masks) < n {
		p.masks = make([]uint64, n, 2*n)
	} else {
		p.masks = p.masks[:n]
	}
	var maxID uint64
	for j, g := range cur.groups {
		if w == 1 { // a one-word mask is backed by the group's maskWord
			p.masks[j] = g.maskWord[0]
		} else {
			copy(p.masks[j*w:j*w+w], g.mask)
		}
		maxID = max(maxID, g.id)
	}
	p.rowLen = int(maxID+1) + int(maxID+1)/4
	p.need = need
	p.curArea = cur.area
	p.curViol = p.s.violation(cur.area)
}

// scan selects the best legal move from cur under the greedy policy.
// The move classes the vocabulary allows are looked up in the scan
// memo first; only the classes it lacks for cur are evaluated, by
// splitting that candidate space into the given number of shards and
// reducing each class's shard incumbents in fixed shard order. The
// winner over the classes is then picked with betterCand. It returns
// the move with the scratch whose delta cache evaluated it, so
// applyMove hits; ok=false means no applicable move remains.
func (p *moveScan) scan(cur *state, shards int, allowStatic, allowTransfers bool) (move, *scratch, bool) {
	s := p.s
	want := classesFor(allowStatic, allowTransfers)
	memo := &s.sc.memo
	ei := memo.lookup(cur)
	if miss := want &^ memo.entries[ei].have; miss != 0 {
		p.prepare(cur, shards, miss)
		p.runShards()
		p.reduce(&memo.entries[ei])
	}

	e := &memo.entries[ei]
	feasible := e.viol == 0
	var nMoves, nRejects int64
	win := -1
	for c := range e.cls {
		if want&(1<<c) == 0 {
			continue
		}
		x := &e.cls[c]
		nMoves += x.moves
		nRejects += x.rejects
		if x.ok && (win < 0 || betterCand(x.d, x.saved, x.v, x.ord, &e.cls[win], feasible)) {
			win = c
		}
	}
	s.cMoves.Add(nMoves)
	s.cRejects.Add(nRejects)
	if win < 0 {
		return move{}, nil, false
	}
	sc := s.sc
	if si := e.shard[win]; si >= 0 {
		sc = p.scratches[si]
	}
	return ordMove(e.cls[win].ord), sc, true
}

// runShards runs every shard of the prepared scan, inline or on the
// worker pool.
func (p *moveScan) runShards() {
	if p.shards == 1 || p.workers <= 1 {
		for si := 0; si < p.shards; si++ {
			p.runShard(si)
		}
		return
	}
	if p.jobs == nil {
		p.jobs = make(chan int, refineShards)
		for w := 0; w < p.workers; w++ {
			go func() {
				for si := range p.jobs {
					p.runShard(si)
					p.wg.Done()
				}
			}()
		}
	}
	p.wg.Add(p.shards)
	for si := 0; si < p.shards; si++ {
		p.jobs <- si
	}
	p.wg.Wait()
}

// reduce folds the shard incumbents of every class the prepared scan
// evaluated into memo entry e, in fixed shard order, recording which
// scratch evaluated each class winner (-1: the searcher's own).
func (p *moveScan) reduce(e *memoEntry) {
	feasible := p.curViol == 0
	for c := range e.cls {
		if p.need&(1<<c) == 0 {
			continue
		}
		var best shardCand
		shard := int8(-1)
		for si := 0; si < p.shards; si++ {
			x := &p.cands[si][c]
			best.moves += x.moves
			best.rejects += x.rejects
			if x.ok && (!best.ok || betterCand(x.d, x.saved, x.v, x.ord, &best, feasible)) {
				best.ok, best.ord, best.d, best.v, best.saved = true, x.ord, x.d, x.v, x.saved
				if p.shards > 1 {
					shard = int8(si)
				}
			}
		}
		e.cls[c], e.shard[c] = best, shard
	}
	e.have |= p.need
	e.viol = p.curViol
}

// runShard enumerates and evaluates shard si's slice of the candidate
// space of the classes in p.need, keeping each class's best candidate
// in p.cands[si]. Ownership:
// merge and static moves belong to the shard of their source group's
// id (stable under unrelated moves — surviving groups keep their ids,
// and the lower-indexed member of a surviving pair stays lower, since
// applyMove's slice surgery preserves relative order); transfers
// belong to the shard of the moved part's index (stable by
// definition). Both assignments put every repeated evaluation of the
// same cache key in the same shard, so per-shard caches re-hit across
// iterations exactly like one shared cache. A shard's dense rows are
// those of the parts it owns, kept in its scratch at pi / shards. A
// one-shard scan owns everything and tests no ownership.
func (p *moveScan) runShard(si int) {
	s := p.s
	sc := p.scratch(si)
	n := p.shards
	cur := p.cur
	curArea, curViol := p.curArea, p.curViol
	feasible := curViol == 0
	cands := &p.cands[si]
	*cands = [numClasses]shardCand{}

	// accept applies the greedy selection policy to an evaluated legal
	// move and updates its class incumbent. The scores are compared
	// before anything is written, so a losing candidate costs no copy.
	accept := func(best *shardCand, ord uint64, d int64, area resource.Vector, v int64) {
		var saved int64
		if feasible {
			// Accept strict cost improvements, or cost-neutral area
			// reductions.
			if d > 0 || (d == 0 && area.Total() >= curArea.Total()) {
				best.rejects++
				return
			}
			saved, v = int64(curArea.Total()-area.Total()), 0
		} else {
			saved = curViol - v
		}
		if best.ok && !betterCand(d, saved, v, ord, best, feasible) {
			return
		}
		best.ok, best.ord = true, ord
		best.d, best.v, best.saved = d, v, saved
	}

	consider := func(best *shardCand, gi, gj *group, ord uint64) {
		best.moves++
		d, area, v, ok := s.evalMove(sc, gi, gj, curArea, curViol)
		if !ok {
			best.rejects++
			return
		}
		accept(best, ord, d, area, v)
	}

	groups := cur.groups
	w := p.words
	merges, statics := p.need&(1<<ordMerge) != 0, p.need&(1<<ordStatic) != 0
	if merges || statics {
		for i, gi := range groups {
			if n > 1 && int(gi.id)%n != si {
				continue
			}
			if merges {
				mi := p.masks[i*w : i*w+w]
				for j := i + 1; j < len(groups); j++ {
					if w == 1 {
						if mi[0]&p.masks[j] != 0 {
							continue
						}
					} else if !disjoint(mi, p.masks[j*w:j*w+w]) {
						continue
					}
					consider(&cands[ordMerge], gi, groups[j], moveOrd(i, ordMerge, 0, j))
				}
			}
			if statics {
				consider(&cands[ordStatic], gi, nil, moveOrd(i, ordStatic, 0, 0))
			}
		}
	}
	if p.need&(1<<ordTransfer) == 0 {
		return
	}
	best := &cands[ordTransfer]
	for i := 0; i < len(groups); i++ {
		// Moving the sole part of a group equals a merge, so only
		// groups with two or more parts are sources.
		gi := groups[i]
		if len(gi.parts) < 2 {
			continue
		}
		for k, pi := range gi.parts {
			if n > 1 && pi%n != si {
				continue
			}
			moves, rejects := p.transfers(sc, i, k, func(j int, d int64, area resource.Vector, v int64) {
				accept(best, moveOrd(i, ordTransfer, k, j), d, area, v)
			})
			best.moves += moves
			best.rejects += rejects
		}
	}
}

// scanMemo remembers, per candidate set, the per-class results of the
// move scans run so far, keyed by the scanned state: its ordered
// group-id sequence, guarded by its running area. Hash-consed groups
// (newGroup) give a state reached again — by another vocabulary's
// descent from the same start, or another restart converging on it —
// the same id sequence, so its scan is answered here instead of being
// re-evaluated. A class result is exact for the state: the legal
// moves, their scores and their ordinals are pure functions of the
// ordered groups and the area (the static list is every part no group
// holds). The memo holds no pointer, so the garbage collector never
// scans it: entries in one slice, key ids in another, and an
// open-addressed slot table of entry index + 1 (0 = empty).
type scanMemo struct {
	slots   []int32
	entries []memoEntry
	ids     []uint32
}

// memoEntry is one scanned state: its key (hash, area, and ids[off :
// off+n]) and, per class in have, the class's reduced incumbent and
// the scratch that evaluated it (shard index, -1 = the searcher's
// own), plus the state's budget violation.
type memoEntry struct {
	hash   uint64
	off, n uint32
	area   resource.Vector
	viol   int64
	have   uint8
	shard  [numClasses]int8
	cls    [numClasses]shardCand
}

// memoInitialSlots is the memo slot table's first size; it doubles at
// 2/3 load.
const memoInitialSlots = 1 << 10

func (m *scanMemo) reset() {
	clear(m.slots)
	m.entries = m.entries[:0]
	m.ids = m.ids[:0]
}

// lookup returns the index of cur's entry, adding an empty one (have
// == 0) when cur has not been scanned in this candidate set.
func (m *scanMemo) lookup(cur *state) int {
	if 3*len(m.entries) >= 2*len(m.slots) {
		m.grow()
	}
	h := uint64(len(cur.groups))
	for _, g := range cur.groups {
		h = hashMix(h, g.id)
	}
	for i := hashSlot(h, len(m.slots)); ; i = (i + 1) & (len(m.slots) - 1) {
		x := m.slots[i]
		if x == 0 {
			off := len(m.ids)
			for _, g := range cur.groups {
				m.ids = append(m.ids, uint32(g.id))
			}
			m.entries = append(m.entries, memoEntry{hash: h, off: uint32(off), n: uint32(len(cur.groups)), area: cur.area})
			m.slots[i] = int32(len(m.entries))
			return len(m.entries) - 1
		}
		if e := &m.entries[x-1]; e.hash == h && e.area == cur.area && m.keyIs(e, cur.groups) {
			return int(x - 1)
		}
	}
}

// keyIs reports whether e's key is exactly the ids of groups, in order.
func (m *scanMemo) keyIs(e *memoEntry, groups []*group) bool {
	if int(e.n) != len(groups) {
		return false
	}
	for i, id := range m.ids[e.off : e.off+e.n] {
		if uint64(id) != groups[i].id {
			return false
		}
	}
	return true
}

func (m *scanMemo) grow() {
	n := max(2*len(m.slots), memoInitialSlots)
	m.slots = make([]int32, n)
	for x := range m.entries {
		i := hashSlot(m.entries[x].hash, n)
		for m.slots[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		m.slots[i] = int32(x + 1)
	}
}
