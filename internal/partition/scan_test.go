package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// scanTally runs one scan of cur at the given shard count and returns
// its selection with the moves_evaluated and moves_rejected it added.
func scanTally(s *searcher, cur *state, shards int, allowStatic, allowTransfers bool) (mv move, sc *scratch, ok bool, moves, rejects int64) {
	m0, r0 := s.cMoves.Value(), s.cRejects.Value()
	mv, sc, ok = s.scan.scan(cur, shards, allowStatic, allowTransfers)
	return mv, sc, ok, s.cMoves.Value() - m0, s.cRejects.Value() - r0
}

// checkShardInvariant walks the greedy descents greedy itself runs from
// st — every move vocabulary — and on each visited state scans as one
// shard and as refineShards shards: both must pick the same move with
// the same tallies. The scan memo is emptied before each of the two
// scans, so both evaluate every class of the vocabulary and the
// sharded one runs the per-class cross-shard reduction (otherwise the
// memo would answer the second scan from the first). The one-shard
// winner is applied, as on the solve path.
func checkShardInvariant(t *testing.T, label string, s *searcher, st *state) {
	t.Helper()
	for _, withStatic := range []bool{false, true} {
		for _, withTransfers := range []bool{false, true} {
			cur := st.clone()
			for step := 0; ; step++ {
				s.sc.memo.reset()
				mv1, sc1, ok1, m1, r1 := scanTally(s, cur, 1, withStatic, withTransfers)
				s.sc.memo.reset()
				mvN, _, okN, mN, rN := scanTally(s, cur, refineShards, withStatic, withTransfers)
				if ok1 != okN || mv1 != mvN || m1 != mN || r1 != rN {
					t.Fatalf("%s static=%v transfers=%v step %d: 1 shard picks %+v (ok=%v moves=%d rejects=%d), %d shards pick %+v (ok=%v moves=%d rejects=%d)",
						label, withStatic, withTransfers, step, mv1, ok1, m1, r1, refineShards, mvN, okN, mN, rN)
				}
				if !ok1 {
					break
				}
				s.applyMove(sc1, cur, mv1)
			}
		}
	}
}

// TestScanShardCountInvariant pins the move scan's one parameter: the
// shard count changes how the candidate space is split and which
// scratch caches what, never which move is selected or how many
// candidates are evaluated and rejected. It covers the solve path's
// candidate sets (all-separate and module-grouped starts, loose and
// tight budgets) over the paper designs and a seeded synthetic corpus,
// plus a refine-scale singleton warm start large enough to cross the
// parWorthwhile thresholds.
func TestScanShardCountInvariant(t *testing.T) {
	corpus := 10
	if raceEnabled {
		corpus = 3
	}
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(9, corpus)...)
	for _, d := range designs {
		budget := Modular(d).TotalResources()
		for _, opts := range []Options{{Budget: budget}, {Budget: tighten(budget, 80)}} {
			opts.Obs = obs.New()
			for _, s := range newTestSearchers(t, d, opts) {
				checkShardInvariant(t, d.Name, s, s.initial())
				if seed := s.moduleGrouped(); seed != nil {
					checkShardInvariant(t, d.Name+"/module-grouped", s, seed)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	d := synthetic.HugeOne(rng, synthetic.Logic, "scan-shards-150", 150)
	ws := refineWarmStart(d)
	opts := Options{Budget: Modular(d).TotalResources(), Obs: obs.New()}
	s := newSearcher(d, connmat.New(d), &cover.CandidateSet{Parts: ws.Parts, Active: ws.Active}, opts, newScratch())
	checkShardInvariant(t, d.Name, s, s.initial())
}

// checkRowsAgainstFresh walks greedy's descents from every state in
// starts under each move vocabulary, scanning as greedy does. After
// every scan under transfers it compares the dense rows with a fresh
// searcher: for every transfer source part of the state and every other
// group, the part's row slot for the group's id must be filled exactly
// when the part may join the group (partCompatible on the fresh
// group), and a filled slot must equal extendEntry on the fresh group.
// Incompatible destinations are never read, so an empty slot there is
// what a correct scan leaves. It returns how many filled slots it
// compared for ids built before the descent began that are not start
// groups — groups an earlier descent built and interning handed out
// again.
func checkRowsAgainstFresh(t *testing.T, c memoCase, starts []*state) (reinterned int) {
	t.Helper()
	s := c.s
	nParts := uint64(len(s.cs.Parts))
	statics := []bool{false, true}
	if s.opts.NoStatic {
		statics = statics[:1]
	}
	for si, st := range starts {
		for _, withStatic := range statics {
			for _, withTransfers := range []bool{false, true} {
				cur := st.clone()
				first := s.sc.nextID()
				for step := 0; ; step++ {
					mv, sc, ok := s.scan.scan(cur, s.scan.shardsFor(cur, withTransfers), withStatic, withTransfers)
					if withTransfers {
						reinterned += checkRows(t, c, cur, first, nParts, fmt.Sprintf("start %d static=%v step %d", si, withStatic, step))
					}
					if !ok {
						break
					}
					s.applyMove(sc, cur, mv)
				}
			}
		}
	}
	return reinterned
}

// checkRows compares the rows a transfer scan of cur read with a fresh
// searcher (see checkRowsAgainstFresh).
func checkRows(t *testing.T, c memoCase, cur *state, first, nParts uint64, where string) (reinterned int) {
	t.Helper()
	s := c.s
	fs := c.fresh()
	fresh := make([]*group, len(cur.groups))
	for j, g := range cur.groups {
		fresh[j] = fs.newGroup(g.parts...)
	}
	shards := s.scan.shardsFor(cur, true)
	for i, gi := range cur.groups {
		if len(gi.parts) < 2 {
			continue
		}
		for _, pi := range gi.parts {
			sc := s.sc
			if shards > 1 {
				sc = s.scan.scratches[pi%shards]
			}
			row := s.scan.row(sc, pi)
			for j, gj := range cur.groups {
				if j == i {
					continue
				}
				var slot extSlot
				if id := int(gj.id); id < len(row.slots) {
					slot = row.slots[id]
				}
				filled := slot.tag == sc.epoch
				if compatible := fs.partCompatible(pi, fresh[j]); filled != compatible {
					t.Fatalf("%s %s: part %d into group %v (id %d): row slot filled=%v, partCompatible=%v",
						c.label, where, pi, gj.parts, gj.id, filled, compatible)
				}
				if !filled {
					continue
				}
				want := fs.extendEntry(fs.sc, fresh[j], pi)
				got := pairEntry{contrib: slot.contrib, area: resource.Vector{CLB: int(slot.clb), BRAM: int(slot.bram), DSP: int(slot.dsp)}}
				if got != want {
					t.Fatalf("%s %s: part %d into group %v (id %d): row slot %+v, a fresh extendEntry %+v",
						c.label, where, pi, gj.parts, gj.id, got, want)
				}
				if gj.id >= nParts && gj.id < first {
					reinterned++
				}
			}
		}
	}
	return reinterned
}

// rowCases is memoCases with the searchers of d's candidate sets
// sharing one scratch, as the sets a solve worker searches share its
// scratch: each searcher is built, resetting the scratch, only when
// its case is taken, so every set after the first reads rows an
// earlier set grew, under a new epoch.
func rowCases(t *testing.T, d *design.Design, opts Options, maxSets int) []func() memoCase {
	t.Helper()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatalf("%s: BasePartitions: %v", d.Name, err)
	}
	sc, fsc := newScratch(), newScratch()
	var out []func() memoCase
	for _, cs := range cover.SetsN(cover.Order(parts), m, maxSets) {
		out = append(out, func() memoCase {
			return memoCase{
				label: d.Name,
				s:     newSearcher(d, m, cs, opts, sc),
				fresh: func() *searcher { return newSearcher(d, m, cs, opts, fsc) },
			}
		})
	}
	return out
}

// TestTransferRowsMatchFreshEntries pins the dense transfer rows,
// indexed by raw group id: every slot a transfer scan reads holds
// exactly the entry a fresh scratch computes for the part and the
// group the id stands for, and only compatible destinations are ever
// filled. It walks every descent run starts — the all-separate and
// module-grouped starts and every first-move restart, each under every
// move vocabulary — so that groups built by an earlier descent come
// back through interning with their old, lower ids and are read again;
// the candidate sets of one design share a scratch, so rows outlive a
// set. The inputs are the case study, the paper example, seeded
// synthetic designs and a design with more than 64 configurations
// (masks of two words), plus one refine-scale level whose large states
// shard, so rows also live in shard scratches.
func TestTransferRowsMatchFreshEntries(t *testing.T) {
	corpus := 3
	if raceEnabled {
		corpus = 1
	}
	type input struct {
		d    *design.Design
		opts Options
	}
	paper := design.PaperExample()
	wide := wideDesign(2, 10, 3, 3, 70)
	inputs := []input{
		{design.VideoReceiver(), Options{Budget: design.CaseStudyBudget()}},
		{paper, Options{Budget: Modular(paper).TotalResources()}},
		{paper, Options{Budget: tighten(Modular(paper).TotalResources(), 80)}},
		{wide, Options{Budget: Modular(wide).TotalResources()}},
	}
	for _, seed := range []int64{1, 4} {
		for _, d := range synthetic.Generate(seed, corpus) {
			inputs = append(inputs, input{d, Options{Budget: Modular(d).TotalResources()}})
		}
	}
	for _, in := range inputs {
		in.opts.Obs = obs.New()
		reinterned := 0
		for _, next := range rowCases(t, in.d, in.opts, 4) {
			c := next()
			reinterned += checkRowsAgainstFresh(t, c, descentStarts(c.s))
		}
		if reinterned == 0 {
			t.Errorf("%s: no row slot of a re-interned group was read; the test exercises nothing", in.d.Name)
		}
	}

	// One refine level, walked as RefineContext walks it: every
	// vocabulary from the singleton warm start, whose scans shard.
	rng := rand.New(rand.NewSource(11))
	d := synthetic.HugeOne(rng, synthetic.Logic, "rows-refine-150", 150)
	ws := refineWarmStart(d)
	m := connmat.New(d)
	opts := Options{Budget: Modular(d).TotalResources(), Obs: obs.New()}
	set := &cover.CandidateSet{Parts: ws.Parts, Active: ws.Active}
	fsc := newScratch()
	c := memoCase{
		label: d.Name,
		s:     newSearcher(d, m, set, opts, newScratch()),
		fresh: func() *searcher { return newSearcher(d, m, set, opts, fsc) },
	}
	c.s.scan.maxShards = refineShards
	start := c.s.initial()
	if c.s.scan.shardsFor(start, true) == 1 {
		t.Fatalf("%s: the refine start does not shard", d.Name)
	}
	checkRowsAgainstFresh(t, c, []*state{start})
	c.s.scan.release()
}

// TestRowEpochWrap pins reset's epoch wrap: when the epoch counter
// overflows, every row slot is cleared, so a slot filled under the
// epoch the counter restarts at does not read as filled again.
func TestRowEpochWrap(t *testing.T) {
	sc := newScratch()
	sc.ext = []extRow{{slots: []extSlot{{contrib: 7, tag: 1}, {contrib: 9, tag: math.MaxUint32}}}}
	sc.epoch = math.MaxUint32
	sc.reset()
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	for id, slot := range sc.ext[0].slots {
		if slot != (extSlot{}) {
			t.Fatalf("slot %d = %+v after the epoch wrapped, want it cleared", id, slot)
		}
	}
}
