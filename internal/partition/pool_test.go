package partition

import (
	"context"
	"fmt"
	"math/rand"
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
	"prpart/internal/resource"
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

// wideDesign builds a design wider than the §V generator makes:
// modules of modesPer modes each, every mode covered by a configuration
// of active modules, then random configurations of active modules up
// to configs in all. Its candidate sets carry far more parts than a §V
// design's, so one set's search grows the scratch tables well past
// what the §V corpus needs.
func wideDesign(seed int64, modules, modesPer, active, configs int) *design.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &design.Design{
		Name:   fmt.Sprintf("wide-%d-%dx%d", seed, modules, modesPer),
		Static: resource.New(90, 8, 0),
	}
	for mi := 0; mi < modules; mi++ {
		m := &design.Module{Name: fmt.Sprintf("M%d", mi)}
		for k := 1; k <= modesPer; k++ {
			m.Modes = append(m.Modes, design.Mode{
				Name:      fmt.Sprint(k),
				Resources: resource.New(50+rng.Intn(1500), rng.Intn(12), rng.Intn(16)),
			})
		}
		d.Modules = append(d.Modules, m)
	}
	seen := map[string]bool{}
	// config activates module mi in mode k (mi < 0: none) plus random
	// other modules up to active in all, and keeps it unless seen.
	config := func(mi, k int) {
		c := make([]int, modules)
		n := 0
		if mi >= 0 {
			c[mi], n = k, 1
		}
		for n < active {
			if o := rng.Intn(modules); c[o] == 0 {
				c[o] = 1 + rng.Intn(modesPer)
				n++
			}
		}
		if key := fmt.Sprint(c); !seen[key] {
			seen[key] = true
			d.Configurations = append(d.Configurations, design.Configuration{Modes: c})
		}
	}
	for mi := 0; mi < modules; mi++ {
		for k := 1; k <= modesPer; k++ {
			config(mi, k)
		}
	}
	for len(d.Configurations) < configs {
		config(-1, 0)
	}
	return d
}

// TestPooledScratchIdentity pins the scratch pool's contract: a solve on
// a reused scratch — one whose pair table, dense rows, intern table,
// scan memo, descent buffers and slab tails were grown by a different
// design — returns exactly what a solve on a fresh scratch returns,
// down to every partition.* counter. The sequence runs a large design,
// then smaller ones, then the large one again: smaller solves inherit
// oversized tables, the repeated large solve inherits the smaller ones'
// state. It runs once on one explicitly reused scratch, and once
// through SolveContext, whose scratches come from scratchPool, at
// Workers 1 and 2; there the sequence straddles every retention bound
// of the pool, so some solves reuse a grown pooled scratch and others
// drop theirs (the 11-module wide design is the one whose merge table
// ends within its bound). The wide designs search two candidate sets: one set's
// search already grows their tables to full size, and two keep both
// workers busy at Workers 2.
func TestPooledScratchIdentity(t *testing.T) {
	large := wideDesign(1, 14, 4, 5, 60)
	wide := map[*design.Design]bool{large: true}
	smaller := []*design.Design{design.PaperExample(), design.VideoReceiver(), synthetic.Generate(1, 41)[40]}
	smaller = append(smaller, synthetic.Generate(4, 3)...)
	for _, d := range []*design.Design{wideDesign(1, 7, 3, 3, 24), wideDesign(1, 10, 4, 5, 40), wideDesign(1, 11, 4, 5, 45)} {
		wide[d] = true
		smaller = append(smaller, d)
	}
	seq := []*design.Design{large}
	seq = append(seq, smaller...)
	seq = append(seq, large)

	optsFor := func(d *design.Design, workers int, o *obs.Obs) Options {
		opts := Options{Budget: Modular(d).TotalResources(), Workers: workers, Obs: o}
		if wide[d] {
			opts.MaxCandidateSets = 2
		}
		return opts
	}
	fresh := make(map[*design.Design]string)
	var within, past [len(retention)]bool
	for _, d := range seq {
		if _, ok := fresh[d]; ok {
			continue
		}
		o := obs.New()
		sc := newScratch()
		res, err := solveOn(d, optsFor(d, 1, o), sc)
		fresh[d] = poolFingerprint(res, err, o)
		for i, b := range retention {
			n := b.size(sc)
			within[i] = within[i] || (n > b.max/2 && n <= b.max)
			past[i] = past[i] || n > b.max
		}
	}
	for i, b := range retention {
		if !within[i] || !past[i] {
			t.Fatalf("sequence must grow some %s within the pool's retention bound (%v) and some past it (%v)", b.name, within[i], past[i])
		}
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
