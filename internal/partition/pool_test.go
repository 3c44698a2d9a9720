package partition

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/check"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/synthetic"
)

// solveOn is solveOnce's serial search with the scratch supplied by the
// caller instead of drawn from scratchPool, so a test can choose
// exactly which scratch a solve reuses.
func solveOn(d *design.Design, opts Options, sc *scratch) (*Result, error) {
	m, sets, err := candidateSets(d, opts)
	if err != nil {
		return nil, err
	}
	snaps := make([]*snapshot, len(sets))
	counts := make([]int, len(sets))
	for i := range sets {
		snaps[i], counts[i] = newSearcher(d, m, sets[i], opts, sc).run()
	}
	return bestResult(d, opts, snaps, counts)
}

// poolFingerprint renders what TestPooledScratchIdentity compares: the
// scheme's check.Fingerprint, the Summary, States, Trace and every
// partition.* counter the solve recorded into o.
func poolFingerprint(res *Result, err error, o *obs.Obs) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s\nsummary %+v\nstates %d\n", check.Fingerprint(res.Scheme), res.Summary, res.States)
	for _, step := range res.Trace {
		fmt.Fprintf(&b, "trace %s\n", step)
	}
	counters := o.Snapshot().Counters
	for _, name := range sortedKeys(counters) {
		if strings.HasPrefix(name, "partition.") {
			fmt.Fprintf(&b, "%s=%d\n", name, counters[name])
		}
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPooledScratchIdentity pins the scratch pool's contract: a solve on
// a reused scratch — one whose pair table, dense rows, descent buffers
// and slab tails were grown by a different design — returns exactly
// what a solve on a fresh scratch returns, down to every partition.*
// counter. The sequence runs a large design, then small ones, then the
// large one again: small solves inherit an oversized table and longer
// rows, the repeated large solve inherits the small ones' state. It
// runs once on one explicitly reused scratch, and once through
// SolveContext, whose scratches come from scratchPool, at Workers 1
// and 2; there the sequence's tables straddle the pool's retention
// bound, so some solves reuse a grown pooled scratch and others drop
// theirs.
func TestPooledScratchIdentity(t *testing.T) {
	large := synthetic.Generate(1, 41)[40]
	small := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	small = append(small, synthetic.Generate(4, 3)...)
	seq := []*design.Design{large}
	seq = append(seq, small...)
	seq = append(seq, large)

	optsFor := func(d *design.Design, workers int, o *obs.Obs) Options {
		return Options{Budget: Modular(d).TotalResources(), Workers: workers, Obs: o}
	}
	fresh := make(map[*design.Design]string)
	pooled, dropped := false, false
	for _, d := range seq {
		if _, ok := fresh[d]; ok {
			continue
		}
		o := obs.New()
		sc := newScratch()
		res, err := solveOn(d, optsFor(d, 1, o), sc)
		fresh[d] = poolFingerprint(res, err, o)
		n := len(sc.pairs.keys)
		pooled = pooled || (n > 1<<12 && n <= maxPooledPairSlots)
		dropped = dropped || n > maxPooledPairSlots
	}
	if !pooled || !dropped {
		t.Fatalf("sequence must grow some pair tables within the pool's retention bound (%v) and some past it (%v)", pooled, dropped)
	}

	reused := newScratch()
	for i, d := range seq {
		o := obs.New()
		res, err := solveOn(d, optsFor(d, 1, o), reused)
		if got := poolFingerprint(res, err, o); got != fresh[d] {
			t.Fatalf("reused scratch, step %d (%s) diverged from a fresh scratch:\n--- fresh\n%s--- reused\n%s", i, d.Name, fresh[d], got)
		}
	}

	for _, workers := range []int{1, 2} {
		for i, d := range seq {
			o := obs.New()
			res, err := SolveContext(context.Background(), d, optsFor(d, workers, o))
			if got := poolFingerprint(res, err, o); got != fresh[d] {
				t.Fatalf("pooled solve at Workers=%d, step %d (%s) diverged from a fresh scratch:\n--- fresh\n%s--- pooled\n%s",
					workers, i, d.Name, fresh[d], got)
			}
		}
	}
}

// TestPooledScratchSnapshotSurvivesReuse takes a snapshot of every state
// a descent records — all of them views of the scratch's reused descent
// state — then runs further descents over the same buffers and requires
// each snapshot's trace, groups and aggregates to read as they did when
// it was taken.
func TestPooledScratchSnapshotSurvivesReuse(t *testing.T) {
	d := design.VideoReceiver()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatal(err)
	}
	sets := cover.SetsN(cover.Order(parts), m, 1)
	s := newSearcher(d, m, sets[0], Options{Budget: design.CaseStudyBudget()}, newScratch())
	base := s.initial()

	type taken struct {
		sn     *snapshot
		trace  []string
		groups [][]int
		static []int
	}
	var all []taken
	s.greedy(base, true, true, func(st *state) {
		sn := s.snap(st)
		tk := taken{sn: sn, trace: sn.trace(), static: append([]int(nil), sn.st.static...)}
		for _, g := range sn.st.groups {
			tk.groups = append(tk.groups, append([]int(nil), g.parts...))
		}
		all = append(all, tk)
	})
	if len(all) < 2 {
		t.Fatalf("descent recorded %d states; the test needs a multi-step descent", len(all))
	}
	// Later descents refill and extend the same path, group and static
	// buffers the snapshots were taken from.
	s.descend(base, func(*state) {})
	s.greedy(s.moduleGrouped(), true, true, func(*state) {})

	for i, tk := range all {
		if got := tk.sn.trace(); !reflect.DeepEqual(got, tk.trace) {
			t.Fatalf("snapshot %d: trace changed after buffer reuse:\nwas %q\nnow %q", i, tk.trace, got)
		}
		var groups [][]int
		for _, g := range tk.sn.st.groups {
			groups = append(groups, g.parts)
		}
		if !reflect.DeepEqual(groups, tk.groups) || !reflect.DeepEqual(append([]int(nil), tk.sn.st.static...), tk.static) {
			t.Fatalf("snapshot %d: groups or static list changed after buffer reuse", i)
		}
		if tk.sn.cost != tk.sn.st.totalCost() || tk.sn.area != tk.sn.st.totalArea() {
			t.Fatalf("snapshot %d: aggregates no longer match its groups", i)
		}
	}
}

// TestDescentAllocations pins the allocation counts of the descent hot
// path, so a change that brings back per-move or per-solve allocation
// fails tier 1. Measured at the time of writing: one greedy descent on
// the case study's first candidate set allocates 0 times per run (its
// groups come from slab chunks that a run refills about once in 30), and
// one case-study Solve allocates ~3,290 times, almost all in clustering,
// covering and result building. The bounds allow ~20% headroom.
func TestDescentAllocations(t *testing.T) {
	const (
		maxDescentAllocs = 1
		maxSolveAllocs   = 3900
	)
	d := design.VideoReceiver()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatal(err)
	}
	sets := cover.SetsN(cover.Order(parts), m, 1)
	s := newSearcher(d, m, sets[0], Options{Budget: design.CaseStudyBudget()}, newScratch())
	base := s.initial()
	discard := func(*state) {}
	if n := testing.AllocsPerRun(200, func() { s.greedy(base, true, false, discard) }); n > maxDescentAllocs {
		t.Errorf("one greedy descent allocates %v times, want <= %d", n, maxDescentAllocs)
	}

	if raceEnabled {
		// Under the race detector sync.Pool drops pooled items at
		// random, so a solve's scratch allocations are not reproducible.
		return
	}
	opts := Options{Budget: design.CaseStudyBudget()}
	var solveErr error
	n := testing.AllocsPerRun(20, func() {
		if _, err := Solve(d, opts); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if n > maxSolveAllocs {
		t.Errorf("one case-study Solve allocates %v times, want <= %d", n, maxSolveAllocs)
	}
}
