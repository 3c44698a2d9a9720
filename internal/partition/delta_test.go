package partition

import (
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// newTestSearchers builds one searcher per candidate set of a design,
// each with a fresh scratch, bypassing Solve.
func newTestSearchers(t *testing.T, d *design.Design, opts Options) []*searcher {
	t.Helper()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatalf("%s: BasePartitions: %v", d.Name, err)
	}
	sets := cover.Sets(cover.Order(parts), m)
	if len(sets) > 4 {
		sets = sets[:4]
	}
	out := make([]*searcher, len(sets))
	for i, cs := range sets {
		out[i] = newSearcher(d, m, cs, opts, newScratch())
	}
	return out
}

// checkStateAgainstOracle compares every legal move's incremental
// evaluation against the from-first-principles moveDelta, and the
// state's running aggregates against full recomputation. Merges and
// promotions go through evalMove; transfers through the move scan's own
// transfers loop — the part's dense destination row plus the shrink
// entry hoisted over all destinations of one source part slot.
func checkStateAgainstOracle(t *testing.T, label string, s *searcher, st *state, step int) {
	t.Helper()
	if got, want := st.cost, st.totalCost(); got != want {
		t.Fatalf("%s step %d: running cost %d, recomputed %d", label, step, got, want)
	}
	if got, want := st.area, st.totalArea(); got != want {
		t.Fatalf("%s step %d: running area %v, recomputed %v", label, step, got, want)
	}
	curViol := s.violation(st.area)
	rejected := func(v int64) bool {
		if curViol == 0 {
			return v > 0
		}
		return curViol-v <= 0
	}
	type eval struct {
		d    int64
		area resource.Vector
		v    int64
	}
	// scanned[i][k] holds the scan's survivors (by destination) and its
	// legal and rejected tallies for part slot k of group i.
	type slotScan struct {
		survivors        map[int]eval
		moves, rejects   int64
		wantMoves, wantR int64
	}
	scanned := map[[2]int]*slotScan{}
	s.scan.prepare(st, 1, classesFor(true, true))
	for _, mv := range s.appendAllMoves(nil, st, true, true) {
		wantD, wantArea := s.moveDelta(st, mv)
		wantV := s.violation(wantArea)
		if mv.part >= 0 {
			key := [2]int{mv.i, mv.part}
			ss := scanned[key]
			if ss == nil {
				ss = &slotScan{survivors: map[int]eval{}}
				ss.moves, ss.rejects = s.scan.transfers(s.sc, mv.i, mv.part, func(j int, d int64, area resource.Vector, v int64) {
					ss.survivors[j] = eval{d, area, v}
				})
				scanned[key] = ss
			}
			ss.wantMoves++
			got, ok := ss.survivors[mv.j]
			if rejected(wantV) {
				ss.wantR++
				if ok {
					t.Fatalf("%s step %d: scan accepted transfer %+v the oracle rejects", label, step, mv)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s step %d: scan rejected transfer %+v the oracle accepts (viol %d, cur %d)",
					label, step, mv, wantV, curViol)
			}
			if got != (eval{wantD, wantArea, wantV}) {
				t.Fatalf("%s step %d transfer %+v: scan (d=%d area=%v v=%d) != moveDelta (d=%d area=%v v=%d)",
					label, step, mv, got.d, got.area, got.v, wantD, wantArea, wantV)
			}
			continue
		}
		var gj *group
		if mv.j >= 0 {
			gj = st.groups[mv.j]
		}
		gotD, gotArea, gotV, ok := s.evalMove(s.sc, st.groups[mv.i], gj, st.area, curViol)
		if !ok {
			// The cache may only reject moves the greedy policy's
			// area rule would reject on the oracle's numbers too.
			if !rejected(wantV) {
				t.Fatalf("%s step %d: evalMove rejected move %+v the oracle accepts (viol %d, cur %d)",
					label, step, mv, wantV, curViol)
			}
			continue
		}
		if rejected(wantV) {
			t.Fatalf("%s step %d: evalMove accepted move %+v the oracle rejects", label, step, mv)
		}
		if gotD != wantD || gotArea != wantArea || gotV != wantV {
			t.Fatalf("%s step %d move %+v: evalMove (d=%d area=%v v=%d) != moveDelta (d=%d area=%v v=%d)",
				label, step, mv, gotD, gotArea, gotV, wantD, wantArea, wantV)
		}
	}
	for key, ss := range scanned {
		if ss.moves != ss.wantMoves || ss.rejects != ss.wantR {
			t.Fatalf("%s step %d: transfers from group %d slot %d tally %d legal / %d rejected, oracle %d / %d",
				label, step, key[0], key[1], ss.moves, ss.rejects, ss.wantMoves, ss.wantR)
		}
	}
}

// TestDeltaCacheMatchesMoveDelta is the delta-cache property test: for
// a corpus of designs, after arbitrary applied-move sequences (which
// leave cached entries from earlier iterations live), every cached
// evaluation still equals a fresh moveDelta and the running aggregates
// still equal full recomputation.
func TestDeltaCacheMatchesMoveDelta(t *testing.T) {
	corpus := 12
	if raceEnabled {
		corpus = 4
	}
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(4, corpus)...)
	for _, d := range designs {
		budget := Modular(d).TotalResources()
		for _, opts := range []Options{
			{Budget: budget},
			{Budget: tighten(budget, 80)},
		} {
			for si, s := range newTestSearchers(t, d, opts) {
				label := d.Name
				st := s.initial()
				for step := 0; step < 12; step++ {
					checkStateAgainstOracle(t, label, s, st, step)
					moves := s.appendAllMoves(nil, st, true, true)
					if len(moves) == 0 {
						break
					}
					// Deterministic pseudo-arbitrary choice, varied by
					// candidate set and step.
					mv := moves[(step*13+si*7+5)%len(moves)]
					s.applyMove(s.sc, st, mv)
				}
			}
		}
	}
}

// TestDeltaCacheMatchesMoveDeltaWeighted repeats the property test
// under a skewed transition-weight matrix, covering the weighted
// merge/extend/shrink cache entries.
func TestDeltaCacheMatchesMoveDeltaWeighted(t *testing.T) {
	designs := []*design.Design{design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(5, 4)...)
	for _, d := range designs {
		n := len(d.Configurations)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				if i != j {
					w[i][j] = float64((i*5+j*2)%7) + 0.25
				}
			}
		}
		opts := Options{Budget: Modular(d).TotalResources(), TransitionWeights: w}
		for si, s := range newTestSearchers(t, d, opts) {
			st := s.initial()
			for step := 0; step < 10; step++ {
				checkStateAgainstOracle(t, d.Name+"/weighted", s, st, step)
				moves := s.appendAllMoves(nil, st, true, true)
				if len(moves) == 0 {
					break
				}
				s.applyMove(s.sc, st, moves[(step*11+si*3+2)%len(moves)])
			}
		}
	}
}

// TestTransitionWeightsSymmetrised pins the documented symmetrisation:
// the searcher's integer weight for pair {i, j} is the mean of the two
// directed float entries, and transposing the matrix cannot change the
// solved scheme.
func TestTransitionWeightsSymmetrised(t *testing.T) {
	d := design.VideoReceiver()
	n := len(d.Configurations)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = float64((i*3+j)%4) + 0.5 // asymmetric on purpose
			}
		}
	}
	opts := Options{Budget: design.CaseStudyBudget(), TransitionWeights: w}
	s := newTestSearchers(t, d, opts)[0]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := int64((w[i][j] + w[j][i]) / 2 * weightScale)
			if got := s.weights[i][j]; got != want {
				t.Fatalf("weights[%d][%d] = %d, want mean-symmetrised %d", i, j, got, want)
			}
			if s.weights[i][j] != s.weights[j][i] {
				t.Fatalf("weights[%d][%d] != weights[%d][%d]: matrix not symmetric", i, j, j, i)
			}
		}
	}
	transposed := make([][]float64, n)
	for i := range transposed {
		transposed[i] = make([]float64, n)
		for j := range transposed[i] {
			transposed[i][j] = w[j][i]
		}
	}
	a, err := Solve(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(d, Options{Budget: design.CaseStudyBudget(), TransitionWeights: transposed})
	if err != nil {
		t.Fatal(err)
	}
	if af, bf := resultFingerprint(d, a), resultFingerprint(d, b); af != bf {
		t.Fatalf("transposing the weight matrix changed the result:\n--- w\n%s--- wᵀ\n%s", af, bf)
	}
}

// TestParallelSearcherReuse drives the parallel candidate-set path —
// workers pulling from the buffered job channel, each reusing one
// scratch across sets — concurrently from several goroutines, and
// requires every parallel result to match the serial one. Run under
// -race (verify.sh tier 2) this doubles as the data-race check on the
// reuse scheme.
func TestParallelSearcherReuse(t *testing.T) {
	designs := []*design.Design{design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(6, 3)...)
	for _, d := range designs {
		opts := Options{Budget: Modular(d).TotalResources()}
		serial, err := Solve(d, opts)
		if err != nil {
			t.Fatalf("%s: serial: %v", d.Name, err)
		}
		want := resultFingerprint(d, serial)
		const goroutines = 4
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				popts := opts
				popts.Workers = 4
				res, err := Solve(d, popts)
				if err != nil {
					errs <- err
					return
				}
				if got := resultFingerprint(d, res); got != want {
					errs <- errDiverged
					return
				}
				errs <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("%s: parallel solve: %v", d.Name, err)
			}
		}
	}
}

var errDiverged = errorString("parallel result diverged from serial")

type errorString string

func (e errorString) Error() string { return string(e) }
