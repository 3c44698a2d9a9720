package partition

import (
	"slices"
	"sync"

	"prpart/internal/device"
	"prpart/internal/resource"
)

// This file is the incremental move-evaluation engine behind the greedy
// descent. The classic observation (Fiduccia & Mattheyses, DAC 1982) is
// that a partitioning move only changes the score of the elements it
// touches, so re-deriving every candidate's gain from scratch each
// iteration wastes almost all of the work. Here that takes two forms:
//
//   - a delta cache: the cost and quantised area of a merged (or
//     extended, or shrunken) group depend only on the operand groups'
//     contents, so they are cached under the operands' identities and
//     survive across descent iterations — after an applied move, only
//     pairs involving the two touched groups miss. Groups are
//     hash-consed per candidate set (newGroup), so an identity stands
//     for content: a group another descent rebuilds gets its old id
//     back, and its entries hit instead of being costed again. Each
//     entry kind has one home, the layout its key fits: merge entries,
//     keyed by a sparse pair of group ids, in pairTable; extension and
//     shrink entries, keyed by a part and a group id, in the part's
//     dense row (extRow, scan.go).
//   - running aggregates: each state carries its total cost and area,
//     updated by applied moves, so per-candidate evaluation no longer
//     walks every group.
//
// Determinism contract: every quantity produced here is exactly the
// integer the non-incremental reference path computes (the oracle's
// moveDelta in reference_test.go; totalCost and totalArea in state.go)
// — not approximately, bit for bit — so the optimised descent visits
// the same states in the same order and returns byte-identical schemes
// and traces. The differential and property suites in delta_test.go
// and incremental_differential_test.go enforce this.

// scoredMove is a first move paired with its cost delta, for the
// restart-ordering sort in run.
type scoredMove struct {
	mv move
	d  int64
}

// scratch is the reusable working set of one search worker: move and
// activation buffers, the descent's state buffers, the group intern
// table, the delta cache (the merge table and the dense part rows), the
// move scan's per-state memo, and the slabs groups are carved from. A
// scratch is reused across the candidate sets a worker processes, and
// across solves through scratchPool (avoiding re-growth of its tables
// and slices), but reset per set, so cache hit/miss counters are a
// deterministic function of the input regardless of how sets are
// distributed over workers or which scratch a solve draws.
type scratch struct {
	moves  []move
	scored []scoredMove
	act    []int32
	parts  []int     // applyMove's candidate part lists, copied by newGroup on an intern miss
	pairs  pairTable // merge entries
	ext    []extRow  // extension and shrink entries: the dense rows of the parts a scan shard owns (see scan.go)
	epoch  uint32    // tag of the row slots filled for the current candidate set
	memo   scanMemo  // per-state class results of the move scan (see scan.go)
	n      tally

	// groups[id] is the group with that id, and intern is the
	// hash-consing table over them (see newGroup): an open-addressed
	// slot array of id+1 (0 = empty) keyed by the hash of a group's
	// ordered part list. Ids are dense, so len(groups) is the next id.
	groups []*group
	intern []uint32

	// desc is the state greedy descends in and first the restart state
	// run builds per first move. Both are refilled with state.copyTo
	// and never handed out: snapshots deep-copy them.
	desc, first state

	// groupSlab and partSlab are the unused tails of the chunks that
	// group structs and part lists are carved from. A chunk is handed
	// out piece by piece and never reused, so a group stays valid for
	// as long as anything references it, whatever the scratch does
	// next; a new chunk replaces an exhausted one.
	groupSlab []group
	partSlab  []int
}

// Slab chunk sizes: a group chunk is ~25 KB, a part chunk 8 KB. A part
// list longer than a quarter chunk gets an allocation of its own rather
// than orphan the rest of a chunk.
const (
	groupSlabLen = 128
	partSlabLen  = 1024
)

// group hands out a zeroed group struct from the slab.
func (sc *scratch) group() *group {
	if len(sc.groupSlab) == 0 {
		sc.groupSlab = make([]group, groupSlabLen)
	}
	g := &sc.groupSlab[0]
	sc.groupSlab = sc.groupSlab[1:]
	return g
}

// partList hands out a part list of length and capacity n from the
// slab; the capacity bound keeps an append from reaching the next list.
func (sc *scratch) partList(n int) []int {
	if n > len(sc.partSlab) {
		if n > partSlabLen/4 {
			return make([]int, n)
		}
		sc.partSlab = make([]int, partSlabLen)
	}
	p := sc.partSlab[:n:n]
	sc.partSlab = sc.partSlab[n:]
	return p
}

// tally counts cache outcomes in plain fields of the scratch
// that owns them, so the hot path does no atomic adds; a shard only
// writes its own scratch. searcher.flushCounts adds the tallies to the
// shared instruments once per searcher.
type tally struct {
	deltaHit, deltaMiss int64
	snapSkip            int64
}

// nextID is the id the next interned group gets.
func (sc *scratch) nextID() uint64 { return uint64(len(sc.groups)) }

// hashMix folds one word into a running hash (64-bit FNV-1a over
// words). Callers spread the result over a table with hashSlot.
func hashMix(h, w uint64) uint64 { return (h ^ w) * 0x100000001b3 }

// hashSlot maps a hash or key to its preferred slot of a power-of-two
// table (the golden-ratio multiplier moves the mixed low bits up).
func hashSlot(h uint64, slots int) int {
	return int((h * 0x9e3779b97f4a7c15 >> 32) & uint64(slots-1))
}

// partsHash hashes an ordered part list for the intern table.
func partsHash(parts []int) uint64 {
	h := uint64(len(parts))
	for _, p := range parts {
		h = hashMix(h, uint64(p))
	}
	return h
}

// internInitialSlots is the intern table's first size; it doubles at
// 2/3 load.
const internInitialSlots = 1 << 10

// internFind returns the intern slot of parts: holding the id+1 of the
// group already built with exactly this ordered part list, or empty
// where such a group is to be recorded. It grows the table first, so
// the returned slot stays valid for one insert.
func (sc *scratch) internFind(parts []int) int {
	if 3*len(sc.groups) >= 2*len(sc.intern) {
		sc.growIntern()
	}
	for i := hashSlot(partsHash(parts), len(sc.intern)); ; i = (i + 1) & (len(sc.intern) - 1) {
		id := sc.intern[i]
		if id == 0 || slices.Equal(sc.groups[id-1].parts, parts) {
			return i
		}
	}
}

func (sc *scratch) growIntern() {
	n := max(2*len(sc.intern), internInitialSlots)
	sc.intern = make([]uint32, n)
	for id, g := range sc.groups {
		i := hashSlot(partsHash(g.parts), n)
		for sc.intern[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		sc.intern[i] = uint32(id + 1)
	}
}

func newScratch() *scratch {
	sc := &scratch{epoch: 1}
	sc.pairs.init()
	return sc
}

// scratchPool recycles solve scratches across solves, so a solve does
// not pay for a fresh merge table, memo and dense rows. Reuse cannot
// change a result: reset clears every cache per candidate set, and what
// survives it (buffer capacity, slab tails) holds no values a search
// reads.
var scratchPool = sync.Pool{New: func() any { return newScratch() }}

// retention lists the retention bounds of scratchPool: a scratch with
// any size past its bound is dropped, not pooled, because reset clears
// every table, row and memo per candidate set — one large solve must
// not make every later small solve clear its oversized caches — and
// because a pooled scratch is live heap the GC budgets for. The merge
// table bound is 2× its initial 4096 slots (~320 KB); the row bound is
// in slots over all rows (24 bytes each, ~390 KB), 2.2× the largest a
// §V sweep scratch reaches (7,336 over a 463-design sweep), so sweep
// scratches always go back; the intern bound is 2× its initial slots
// (~8 KB, plus the group index); the memo bounds are in entries
// (~460 KB) and in stored key ids (~128 KB).
var retention = [...]struct {
	name string
	size func(*scratch) int
	max  int
}{
	{"pair table slots", func(sc *scratch) int { return len(sc.pairs.keys) }, 1 << 13},
	{"dense row slots", (*scratch).rowSlots, 1 << 14},
	{"intern slots", func(sc *scratch) int { return len(sc.intern) }, 2 * internInitialSlots},
	{"memo entries", func(sc *scratch) int { return cap(sc.memo.entries) }, 1 << 11},
	{"memo key ids", func(sc *scratch) int { return cap(sc.memo.ids) }, 1 << 15},
}

// rowSlots is the number of dense slots over all of sc's rows.
func (sc *scratch) rowSlots() int {
	n := 0
	for i := range sc.ext {
		n += len(sc.ext[i].slots)
	}
	return n
}

// getScratch takes a scratch from scratchPool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to scratchPool unless it outgrew a retention
// bound. The caller must not use sc afterwards; snapshots taken with
// it stay valid (they own their slices, and slabs are never reused).
func putScratch(sc *scratch) {
	for _, b := range retention {
		if b.size(sc) > b.max {
			return
		}
	}
	// The descent states and the intern index still point at the last
	// solve's groups; drop them so a pooled scratch pins no slab chunk
	// it is done with.
	sc.desc, sc.first = state{}, state{}
	clear(sc.groups)
	sc.groups = sc.groups[:0]
	scratchPool.Put(sc)
}

// reset prepares the scratch for a new candidate set. Table and row
// storage is retained (only marked empty: the rows by a new epoch),
// the intern table forgets every group, and group ids restart at zero.
func (sc *scratch) reset() {
	sc.pairs.reset()
	if sc.epoch++; sc.epoch == 0 {
		// The epoch wrapped: a slot tag could match again.
		for i := range sc.ext {
			clear(sc.ext[i].slots)
		}
		sc.epoch = 1
	}
	sc.memo.reset()
	clear(sc.groups)
	sc.groups = sc.groups[:0]
	clear(sc.intern)
	sc.n = tally{}
}

// mergeKey packs the unordered id pair of two groups a merge combines
// into a single word, the lower id in the high half. Groups are
// immutable once built and an id never stands for another group within
// a candidate set, so an entry can never go stale: applying a move only
// drops the two touched groups from the state, and their entries hit
// again if a later state holds them again. The packing is injective
// (the guard keeps both ids under 32 bits — a candidate set would need
// four billion groups to overflow), and every key is nonzero because
// the two ids of a merge differ, so the higher is at least 1, which is
// what lets pairTable use zero as its empty-slot sentinel.
func mergeKey(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b >= 1<<32 {
		panic("partition: delta-cache id overflow")
	}
	return a<<32 | b
}

// pairEntry is a delta-cache entry: the cost contribution and
// tile-quantised area of the group a merge, extension or shrink would
// build.
type pairEntry struct {
	contrib int64
	area    resource.Vector
}

// pairTable is the merge table: an open-addressed hash table from
// packed id pairs (mergeKey) to pairEntry. It sits on the merge scan's
// probe path — one lookup per compatible pair per scanned state —
// where a specialised flat table beats a Go map: single-word keys,
// Fibonacci hashing, linear probing over a contiguous slot array, and
// a reset that just clears the key words while keeping capacity. The
// pairs a candidate set merges are a sparse subset of its ids squared,
// which is why they are hashed rather than given dense rows.
type pairTable struct {
	keys    []uint64 // 0 = empty slot
	entries []pairEntry
	n       int
}

func (t *pairTable) init() {
	const initialSlots = 1 << 12
	t.keys = make([]uint64, initialSlots)
	t.entries = make([]pairEntry, initialSlots)
}

func (t *pairTable) reset() {
	clear(t.keys)
	t.n = 0
}

// slot maps a key to its preferred slot index (len(keys) is a power of
// two; hashSlot spreads packed keys whose entropy sits in the low bits).
func (t *pairTable) slot(key uint64) int { return hashSlot(key, len(t.keys)) }

func (t *pairTable) get(key uint64) (pairEntry, bool) {
	for i := t.slot(key); ; i = (i + 1) & (len(t.keys) - 1) {
		switch t.keys[i] {
		case key:
			return t.entries[i], true
		case 0:
			return pairEntry{}, false
		}
	}
}

func (t *pairTable) put(key uint64, e pairEntry) {
	if 3*t.n >= 2*len(t.keys) { // grow at 2/3 load
		t.grow()
	}
	for i := t.slot(key); ; i = (i + 1) & (len(t.keys) - 1) {
		if t.keys[i] == 0 {
			t.keys[i], t.entries[i] = key, e
			t.n++
			return
		}
	}
}

func (t *pairTable) grow() {
	oldKeys, oldEntries := t.keys, t.entries
	t.keys = make([]uint64, 2*len(oldKeys))
	t.entries = make([]pairEntry, 2*len(oldEntries))
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		for j := t.slot(k); ; j = (j + 1) & (len(t.keys) - 1) {
			if t.keys[j] == 0 {
				t.keys[j], t.entries[j] = k, oldEntries[i]
				break
			}
		}
	}
}

// groupCost is the one cost function of a region group: the
// tile-quantised area, the search frames and the cost contribution of a
// group with raw per-resource maximum res. The contribution is frames ×
// the (weighted) number of configuration pairs whose transition
// reconfigures the group — both sides active with different parts. In
// uniform mode that number follows from active and sumSq, the sum of
// the parts' activation counts and of their squares; in weighted mode
// it is summed over act, the per-configuration activation. newGroup and
// the delta-cache entries below each build these aggregates in their
// own way (merge and extend in O(1)) and hand them here.
func (s *searcher) groupCost(res resource.Vector, active int, sumSq int64, act []int32) (e pairEntry, frames int64) {
	e.area = device.TilesToPrimitives(device.Tiles(res))
	frames = s.searchFrames(res)
	if s.weights != nil {
		e.contrib = frames * s.weightedDiff(act)
	} else {
		a := int64(active)
		e.contrib = frames * ((a*a - sumSq) / 2)
	}
	return e, frames
}

// mergeEntry returns the contribution and area of the group that would
// result from merging gi and gj, cached under the unordered id pair.
func (s *searcher) mergeEntry(sc *scratch, gi, gj *group) pairEntry {
	key := mergeKey(gi.id, gj.id)
	if e, ok := sc.pairs.get(key); ok {
		sc.n.deltaHit++
		return e
	}
	sc.n.deltaMiss++
	var act []int32
	if s.weights != nil {
		// Compatibility guarantees at most one side is active per
		// configuration, so the merged activation is a plain overlay.
		act = sc.act[:0]
		for ci, a := range gi.act {
			if a == 0 {
				a = gj.act[ci]
			}
			act = append(act, a)
		}
		sc.act = act
	}
	e, _ := s.groupCost(gi.res.Max(gj.res), gi.active+gj.active, gi.sumSq+gj.sumSq, act)
	sc.pairs.put(key, e)
	return e
}

// extendEntry computes the contribution and area of group gj extended
// by candidate part pi — the destination side of a transfer move. It
// is cached in slot gj.id of the part's dense row (moveScan.entry).
func (s *searcher) extendEntry(sc *scratch, gj *group, pi int) pairEntry {
	var act []int32
	if s.weights != nil {
		act = append(sc.act[:0], gj.act...)
		for ci := range s.cs.Active {
			if s.cs.Active[ci][pi] {
				act[ci] = int32(pi) + 1
			}
		}
		sc.act = act
	}
	n := int64(s.partAct[pi])
	e, _ := s.groupCost(gj.res.Max(s.partRes[pi]), gj.active+s.partAct[pi], gj.sumSq+n*n, act)
	return e
}

// shrinkEntry computes the contribution and area of group gi with the
// part at slot k removed — the source side of a transfer move. It is
// cached in slot gi.id of the removed part's dense row
// (moveScan.entry). The activation aggregates subtract, but max does
// not, so the raw resources walk the remaining parts; the cache makes
// that a one-time cost per (group, part) combination.
func (s *searcher) shrinkEntry(sc *scratch, gi *group, k int) pairEntry {
	pi := gi.parts[k]
	var res resource.Vector
	for idx, p := range gi.parts {
		if idx != k {
			res = res.Max(s.partRes[p])
		}
	}
	var act []int32
	if s.weights != nil {
		// A configuration activates at most one part of the group, so
		// removing pi clears exactly the configurations that map to it.
		act = append(sc.act[:0], gi.act...)
		for ci, a := range act {
			if a == int32(pi)+1 {
				act[ci] = 0
			}
		}
		sc.act = act
	}
	n := int64(s.partAct[pi])
	e, _ := s.groupCost(res, gi.active-s.partAct[pi], gi.sumSq-n*n, act)
	return e
}

// evalMove is the incremental counterpart of the oracle's moveDelta
// (reference_test.go) for merge and static-promotion moves (transfers
// go through the scan's dense rows, see moveScan.transfers): merging gi
// with gj, or promoting gi to static logic when gj is nil. It produces
// the candidate's exact cost delta, resulting total area and budget
// violation from the delta cache and the state's running aggregates,
// and applies the area-based rejection rule the greedy policy uses
// (while feasible a move must stay feasible; while infeasible it must
// shrink the violation). ok=false reports such a rejection.
func (s *searcher) evalMove(sc *scratch, gi, gj *group, curArea resource.Vector, curViol int64) (dCost int64, newArea resource.Vector, v int64, ok bool) {
	if gj == nil {
		newArea = curArea.Sub(gi.area).Add(gi.raw)
		dCost = -gi.contrib
	} else {
		e := s.mergeEntry(sc, gi, gj)
		newArea = curArea.Sub(gi.area).Sub(gj.area).Add(e.area)
		dCost = e.contrib - gi.contrib - gj.contrib
	}
	v, rej := s.areaViolation(newArea, curViol)
	return dCost, newArea, v, !rej
}

// areaViolation returns the budget violation of area together with the
// greedy rejection verdict, computing frames only when the magnitude
// matters. In the feasible phase (curViol == 0) rejection is exactly
// "does not fit": a nonzero deficit always quantises to a positive
// frame count (Tiles rounds any positive component up to a whole tile,
// and the NoQuantize per-unit frame rates are all positive), so
// violation > 0 and !feasible coincide, accepted moves have v == 0 by
// construction, and the per-candidate searchFrames call disappears. In
// the infeasible phase the exact violation drives the cost-per-frame-
// saved selection, so it is computed in full.
func (s *searcher) areaViolation(area resource.Vector, curViol int64) (v int64, rejected bool) {
	if curViol == 0 {
		return 0, !s.feasible(area)
	}
	v = s.violation(area)
	return v, curViol-v <= 0
}

// moveCost returns just the cost delta of a merge or static-promotion
// move (transfers are never first moves) — the restart-ordering
// heuristic in run scores every first move regardless of feasibility
// and never needs the area.
func (s *searcher) moveCost(st *state, mv move) int64 {
	if mv.j < 0 {
		return -st.groups[mv.i].contrib
	}
	gi, gj := st.groups[mv.i], st.groups[mv.j]
	e := s.mergeEntry(s.sc, gi, gj)
	return e.contrib - gi.contrib - gj.contrib
}
