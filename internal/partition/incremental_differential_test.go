package partition

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// resultFingerprint serialises everything observable about a result —
// scheme regions in order, static set, activation matrix, summary,
// trace, and the search-effort statistics — so the incremental engine
// and the reference oracle can be compared byte for byte.
func resultFingerprint(d *design.Design, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d worst=%d states=%d sets=%d\n",
		res.Summary.Total, res.Summary.Worst, res.States, res.CandidateSets)
	for ri, reg := range res.Scheme.Regions {
		fmt.Fprintf(&b, "region %d (%d frames):", ri, reg.Frames())
		for _, p := range reg.Parts {
			fmt.Fprintf(&b, " %s", p.Label(d))
		}
		b.WriteByte('\n')
	}
	fmt.Fprint(&b, "static:")
	for _, p := range res.Scheme.Static {
		fmt.Fprintf(&b, " %s", p.Label(d))
	}
	b.WriteByte('\n')
	for _, row := range res.Scheme.Active {
		fmt.Fprintf(&b, "%v\n", row)
	}
	for _, step := range res.Trace {
		b.WriteString(step)
		b.WriteByte('\n')
	}
	return b.String()
}

// diffCase runs both engines on one (design, options) input and fails
// on any observable divergence, including disagreeing errors.
func diffCase(t *testing.T, label string, d *design.Design, opts Options) {
	t.Helper()
	got, gerr := solveOnce(context.Background(), d, opts)
	want, werr := referenceSolve(d, opts)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: engines disagree on error: incremental=%v reference=%v", label, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: engines return different errors: incremental=%v reference=%v", label, gerr, werr)
		}
		return
	}
	gf, wf := resultFingerprint(d, got), resultFingerprint(d, want)
	if gf != wf {
		t.Fatalf("%s: incremental engine diverged from reference:\n--- reference\n%s--- incremental\n%s", label, wf, gf)
	}
}

// tighten scales a budget down to stress the infeasible descent phase
// (violation-guided move selection) and the no-scheme error path.
func tighten(v resource.Vector, pct int) resource.Vector {
	return resource.New(v.CLB*pct/100, v.BRAM*pct/100, v.DSP*pct/100)
}

// TestDifferentialIncrementalVsReference proves the tentpole's
// determinism contract: across the synthetic corpus (the same
// generator and size the prbench sweep uses) plus the paper designs,
// the incremental engine returns results byte-identical to the
// retained pre-incremental reference — same scheme, summary, state
// counts, and trace — under generous and tight budgets alike.
func TestDifferentialIncrementalVsReference(t *testing.T) {
	corpus := 100
	if raceEnabled {
		corpus = 20
	}
	if testing.Short() {
		corpus = 10
	}
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(1, corpus)...)
	for _, d := range designs {
		budget := Modular(d).TotalResources()
		diffCase(t, d.Name+"/modular", d, Options{Budget: budget})
		diffCase(t, d.Name+"/tight", d, Options{Budget: tighten(budget, 85)})
	}
	// The case-study budget exercises the documented descent on the
	// paper's design, including transfers and static promotion.
	diffCase(t, "casestudy", design.VideoReceiver(), Options{Budget: design.CaseStudyBudget()})
}

// TestDifferentialIncrementalOptions covers the ablation and tuning
// surface: every option that changes move vocabulary, ordering or
// quantisation must leave the two engines in lockstep.
func TestDifferentialIncrementalOptions(t *testing.T) {
	d := design.VideoReceiver()
	budget := design.CaseStudyBudget()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"nostatic", Options{Budget: budget, NoStatic: true}},
		{"greedyonly", Options{Budget: budget, GreedyOnly: true}},
		{"noquantize", Options{Budget: budget, NoQuantize: true}},
		{"coverdesc", Options{Budget: budget, CoverDescending: true}},
		{"maxfirst2", Options{Budget: budget, MaxFirstMoves: 2}},
		{"maxsets1", Options{Budget: budget, MaxCandidateSets: 1}},
		{"pinned", Options{Budget: budget, PinnedStatic: d.UsedModes()[:1]}},
	} {
		diffCase(t, tc.name, d, tc.opts)
	}
}

// TestDifferentialIncrementalWeighted pins the weighted objective: the
// delta cache's weighted merge/extend/shrink entries must reproduce
// the reference's per-candidate weightedDiff results.
func TestDifferentialIncrementalWeighted(t *testing.T) {
	corpus := 8
	if raceEnabled {
		corpus = 3
	}
	designs := []*design.Design{design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(2, corpus)...)
	for _, d := range designs {
		n := len(d.Configurations)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				if i != j {
					// Deterministic skew, asymmetric on purpose: the
					// searcher symmetrises to the pair mean.
					w[i][j] = float64((i*7+j*3)%5) + 0.5
				}
			}
		}
		diffCase(t, d.Name+"/weighted", d, Options{
			Budget:            Modular(d).TotalResources(),
			TransitionWeights: w,
		})
	}
}
