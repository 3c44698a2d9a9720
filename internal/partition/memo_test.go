package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/synthetic"
)

// memoCase is one searcher whose descents TestScanMemoMatchesFreshScan
// walks, with a constructor for fresh searchers over the same candidate
// set and options. The fresh searchers share one scratch of their own,
// which newSearcher resets — to exactly a new scratch's contents, as
// TestPooledScratchIdentity pins — so a walk does not allocate a
// scratch per visited state.
type memoCase struct {
	label string
	s     *searcher
	fresh func() *searcher
}

// memoCases builds one memoCase per candidate set of d, for the first
// maxSets sets.
func memoCases(t *testing.T, d *design.Design, opts Options, maxSets int) []memoCase {
	t.Helper()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatalf("%s: BasePartitions: %v", d.Name, err)
	}
	sets := cover.SetsN(cover.Order(parts), m, maxSets)
	out := make([]memoCase, len(sets))
	for i, cs := range sets {
		fsc := newScratch()
		out[i] = memoCase{
			label: d.Name,
			s:     newSearcher(d, m, cs, opts, newScratch()),
			fresh: func() *searcher { return newSearcher(d, m, cs, opts, fsc) },
		}
	}
	return out
}

// descentStarts returns the states run starts descents from: the
// all-separate start, the module-grouped start when the set has one,
// and the restart state of each first move run tries, in run's order.
func descentStarts(s *searcher) []*state {
	base := s.initial()
	starts := []*state{base}
	if seed := s.moduleGrouped(); seed != nil {
		starts = append(starts, seed)
	}
	firsts := s.appendLegalMoves(nil, base, !s.opts.NoStatic)
	sort.SliceStable(firsts, func(i, j int) bool { return s.moveCost(base, firsts[i]) < s.moveCost(base, firsts[j]) })
	if len(firsts) > s.opts.maxFirst() {
		firsts = firsts[:s.opts.maxFirst()]
	}
	for _, mv := range firsts {
		st := base.clone()
		s.applyMove(s.sc, st, mv)
		starts = append(starts, st)
	}
	return starts
}

// freshState rebuilds cur in searcher fs: the same ordered part lists,
// as groups of fs's own (fresh) scratch.
func freshState(fs *searcher, cur *state) *state {
	st := &state{static: slices.Clone(cur.static), staticRes: cur.staticRes}
	for _, g := range cur.groups {
		st.groups = append(st.groups, fs.newGroup(g.parts...))
	}
	st.cost, st.area = st.totalCost(), st.totalArea()
	fs.scan.beginRun()
	return st
}

// checkMemoAgainstFresh walks greedy's descents from every state in
// starts under each move vocabulary, scanning as greedy does. At every
// visited state the memo's class results must equal a full all-class
// scan of the state on a fresh searcher, as one shard — so on a
// sharded state this also pins the per-class cross-shard reduction
// against the one-shard scan; the moves_evaluated and
// moves_rejected the memo'd scan adds must equal that fresh scan's
// tallies of the vocabulary's classes; and the move it selects must be
// the one the test oracle selects (referenceSelect, the first best in
// enumeration order), which shares no code with the scan's class
// combine. It returns how many scans the memo answered without
// evaluating a class.
func checkMemoAgainstFresh(t *testing.T, c memoCase, starts []*state) (answered int) {
	t.Helper()
	s := c.s
	statics := []bool{false, true}
	if s.opts.NoStatic {
		statics = statics[:1]
	}
	for si, st := range starts {
		for _, withStatic := range statics {
			for _, withTransfers := range []bool{false, true} {
				want := classesFor(withStatic, withTransfers)
				cur := st.clone()
				s.scan.beginRun()
				for step := 0; ; step++ {
					shards := s.scan.shardsFor(cur, withTransfers)
					n0 := len(s.sc.memo.entries)
					if ei := s.sc.memo.lookup(cur); ei < n0 && s.sc.memo.entries[ei].have&want == want {
						answered++
					}
					mv, sc, ok, moves, rejects := scanTally(s, cur, shards, withStatic, withTransfers)
					e := s.sc.memo.entries[s.sc.memo.lookup(cur)]

					fs := c.fresh()
					fcur := freshState(fs, cur)
					fs.scan.scan(fcur, 1, true, true)
					fe := fs.sc.memo.entries[fs.sc.memo.lookup(fcur)]
					var fmoves, frejects int64
					for class := range e.cls {
						if e.have&(1<<class) != 0 && e.cls[class] != fe.cls[class] {
							t.Fatalf("%s start %d static=%v transfers=%v step %d class %d: memo holds %+v, a fresh all-class scan %+v",
								c.label, si, withStatic, withTransfers, step, class, e.cls[class], fe.cls[class])
						}
						if want&(1<<class) != 0 {
							fmoves += fe.cls[class].moves
							frejects += fe.cls[class].rejects
						}
					}
					all := fs.appendAllMoves(nil, fcur, withStatic, withTransfers)
					oracle := fs.referenceSelect(fcur, all)
					if ok != (oracle >= 0) || (ok && mv != all[oracle]) || moves != fmoves || rejects != frejects {
						var omv move
						if oracle >= 0 {
							omv = all[oracle]
						}
						t.Fatalf("%s start %d static=%v transfers=%v step %d: memo'd scan picks %+v (ok=%v moves=%d rejects=%d), the oracle %+v (ok=%v), a fresh scan tallies moves=%d rejects=%d",
							c.label, si, withStatic, withTransfers, step, mv, ok, moves, rejects, omv, oracle >= 0, fmoves, frejects)
					}
					if !ok {
						break
					}
					s.applyMove(sc, cur, mv)
				}
			}
		}
	}
	return answered
}

// TestScanMemoMatchesFreshScan pins the scan memo's exactness: a scan
// answered — wholly or in part — from the memo selects the move, and
// tallies the candidates, that scanning the state afresh would. It
// walks every descent run starts (both starts and every first-move
// restart, each under every move vocabulary) on the case study, the
// paper example at a loose and a tight budget, a design searched under
// TransitionWeights and seeded synthetic designs, plus one refine-scale
// level whose large states shard.
func TestScanMemoMatchesFreshScan(t *testing.T) {
	corpus := 4
	if raceEnabled {
		corpus = 1
	}
	type input struct {
		d       *design.Design
		opts    Options
		maxSets int
	}
	cs := design.VideoReceiver()
	paper := design.PaperExample()
	// Mostly-zero transition weights make many moves cost-neutral, so
	// class winners tie on every score and the ordinal decides. On this
	// design and budget, over all of its candidate sets, such ties go
	// both ways: to a later class's move and to an earlier class's.
	tied := synthetic.Generate(1, 5)[4]
	zeroHeavy := make([][]float64, len(tied.Configurations))
	for i := range zeroHeavy {
		zeroHeavy[i] = make([]float64, len(tied.Configurations))
		for j := range zeroHeavy[i] {
			if i != j && (7*i+11*j)%3 == 0 {
				zeroHeavy[i][j] = 1
			}
		}
	}
	inputs := []input{
		{cs, Options{Budget: design.CaseStudyBudget()}, 4},
		{paper, Options{Budget: Modular(paper).TotalResources()}, 4},
		{paper, Options{Budget: tighten(Modular(paper).TotalResources(), 80)}, 4},
		{cs, Options{Budget: design.CaseStudyBudget(), TransitionWeights: uniformWeights(len(cs.Configurations))}, 4},
		{tied, Options{Budget: tighten(Modular(tied).TotalResources(), 80), TransitionWeights: zeroHeavy}, defaultMaxCandidateSets},
	}
	for _, seed := range []int64{1, 4} {
		for _, d := range synthetic.Generate(seed, corpus) {
			inputs = append(inputs, input{d, Options{Budget: Modular(d).TotalResources()}, 4})
		}
	}
	for _, in := range inputs {
		in.opts.Obs = obs.New()
		answered := 0
		for _, c := range memoCases(t, in.d, in.opts, in.maxSets) {
			answered += checkMemoAgainstFresh(t, c, descentStarts(c.s))
		}
		if answered == 0 {
			t.Errorf("%s: the memo answered no scan; the test exercises nothing", in.d.Name)
		}
	}

	// One refine level: a singleton warm start large enough that its
	// scans shard (parWorthwhile).
	rng := rand.New(rand.NewSource(11))
	d := synthetic.HugeOne(rng, synthetic.Logic, "memo-refine-150", 150)
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
	if c.s.scan.shardsFor(start, false) == 1 {
		t.Fatalf("%s: the refine start does not shard", d.Name)
	}
	if checkMemoAgainstFresh(t, c, []*state{start}) == 0 {
		t.Errorf("%s: the memo answered no scan; the test exercises nothing", d.Name)
	}
	c.s.scan.release()
}

// TestInternedGroupFields pins hash-consing's exactness: every group a
// candidate set's descents intern equals, in every field but its id, a
// group built from the same ordered parts on a fresh scratch; asking
// again for the same ordered parts returns the interned group itself,
// and asking for the same parts in another order does not. The inputs
// cover uniform and TransitionWeights searches, and a design with more
// than 64 configurations, whose group masks are allocated rather than
// inline.
func TestInternedGroupFields(t *testing.T) {
	cs := design.VideoReceiver()
	wide := wideDesign(2, 10, 3, 3, 70)
	if len(wide.Configurations) <= 64 {
		t.Fatalf("%s has %d configurations, want more than 64", wide.Name, len(wide.Configurations))
	}
	inputs := []struct {
		d    *design.Design
		opts Options
	}{
		{cs, Options{Budget: design.CaseStudyBudget()}},
		{cs, Options{Budget: design.CaseStudyBudget(), TransitionWeights: uniformWeights(len(cs.Configurations))}},
		{design.PaperExample(), Options{Budget: Modular(design.PaperExample()).TotalResources()}},
		{wide, Options{Budget: Modular(wide).TotalResources(), MaxCandidateSets: 1}},
	}
	for _, in := range inputs {
		for _, c := range memoCases(t, in.d, in.opts, 4) {
			s := c.s
			base := s.initial()
			s.descend(base, func(*state) {})
			if seed := s.moduleGrouped(); seed != nil {
				s.descend(seed, func(*state) {})
			}
			groups := slices.Clone(s.sc.groups)
			if len(groups) <= len(base.groups) {
				t.Fatalf("%s: descents interned no group beyond the start's", c.label)
			}
			for id, g := range groups {
				if g.id != uint64(id) {
					t.Fatalf("%s: group %v has id %d at index %d", c.label, g.parts, g.id, id)
				}
				if again := s.newGroup(slices.Clone(g.parts)...); again != g {
					t.Fatalf("%s: parts %v interned twice", c.label, g.parts)
				}
				fg := *c.fresh().newGroup(g.parts...)
				fg.id = g.id
				if !reflect.DeepEqual(fg, *g) {
					t.Fatalf("%s: interned group %+v differs from a fresh one %+v", c.label, *g, fg)
				}
				if len(g.parts) > 1 {
					rev := slices.Clone(g.parts)
					slices.Reverse(rev)
					if other := s.newGroup(rev...); other == g || !slices.Equal(other.parts, rev) {
						t.Fatalf("%s: parts %v in reverse order share the group of %v", c.label, rev, g.parts)
					}
				}
			}
		}
	}
}
