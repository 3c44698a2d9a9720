package multilevel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prpart/internal/check"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/partition"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// forced returns options that coarsen even the smallest corpus designs,
// so the full chain (matching, coarse solve, projection, refinement) is
// exercised where the standard engine can still be run alongside.
func forced(popts partition.Options) Options {
	return Options{Partition: popts, Seed: 1, Threshold: 1, CoarseNodes: 8, MaxConfigNodes: 4}
}

// fingerprint serialises everything observable about a partition result
// so the delegated multilevel path can be compared byte for byte with
// the engine it claims to delegate to.
func fingerprint(d *design.Design, res *partition.Result) string {
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

// verifyAgainstOracle runs the solver-independent checker over a result.
func verifyAgainstOracle(t *testing.T, label string, res *partition.Result, budget resource.Vector) {
	t.Helper()
	rep := check.Verify(check.Subject{
		Scheme: res.Scheme,
		Budget: budget,
		Total:  res.Summary.Total,
		Worst:  res.Summary.Worst,
	})
	if !rep.OK() {
		t.Fatalf("%s: oracle rejected the multilevel result:\n%s", label, rep)
	}
}

func tighten(v resource.Vector, pct int) resource.Vector {
	return resource.New(v.CLB*pct/100, v.BRAM*pct/100, v.DSP*pct/100)
}

func corpusDesigns(t testing.TB) []*design.Design {
	corpus := 100
	if raceEnabled {
		corpus = 20
	}
	if testing.Short() {
		corpus = 10
	}
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	return append(designs, synthetic.Generate(1, corpus)...)
}

// TestDifferentialMultilevelVsReference is the engine's correctness
// anchor on instances the standard engine can still enumerate. The
// reference here is partition.SolveContext: this corpus (the paper
// designs, synthetic.Generate(1, 100|20|10), modular and tight-85%
// budgets) is the partition package's own differential corpus, where
// TestDifferentialIncrementalVsReference pins SolveContext byte for
// byte to the retained pre-incremental oracle, so the chain of proof
// still ends at that oracle.
//
//   - below the coarsening threshold the multilevel engine delegates,
//     and its result is byte-identical to partition.SolveContext's
//     (scheme, summary, state counts, trace — everything);
//   - with coarsening forced, the result must cost no more than
//     SolveContext's (the chain may find a better basin; the polish
//     pass guarantees it never finds a worse one), must pass the
//     solver-independent oracle, and the engines must agree on
//     solvability;
//   - both paths are deterministic: a second run reproduces the first
//     byte for byte (the `-count=5` tier re-proves this across
//     processes).
func TestDifferentialMultilevelVsReference(t *testing.T) {
	for _, d := range corpusDesigns(t) {
		budget := partition.Modular(d).TotalResources()
		for _, bc := range []struct {
			name   string
			budget resource.Vector
		}{
			{"modular", budget},
			{"tight", tighten(budget, 85)},
		} {
			label := d.Name + "/" + bc.name
			popts := partition.Options{Budget: bc.budget}
			ref, rerr := partition.SolveContext(context.Background(), d, popts)

			// Delegated path: byte identity with the engine family.
			ml, merr := Solve(d, Options{Partition: popts, Seed: 1})
			if (merr == nil) != (rerr == nil) {
				t.Fatalf("%s: delegated multilevel and reference disagree on error: %v vs %v", label, merr, rerr)
			}
			if merr == nil {
				if !ml.Stats.Delegated {
					t.Fatalf("%s: expected delegation below threshold", label)
				}
				if got, want := fingerprint(d, ml.Partition), fingerprint(d, ref); got != want {
					t.Fatalf("%s: delegated multilevel diverged from reference:\n--- reference\n%s--- multilevel\n%s", label, want, got)
				}
			} else if merr.Error() != rerr.Error() {
				t.Fatalf("%s: delegated multilevel returns a different error: %v vs %v", label, merr, rerr)
			}

			// Forced coarsening: cost-bounded, oracle-verified.
			mlc, mcerr := Solve(d, forced(popts))
			if mcerr != nil {
				if rerr == nil {
					t.Fatalf("%s: coarsened multilevel failed (%v) where the reference succeeds (total=%d)",
						label, mcerr, ref.Summary.Total)
				}
				if mcerr.Error() != rerr.Error() {
					t.Fatalf("%s: coarsened multilevel error %q, reference error %q", label, mcerr, rerr)
				}
				continue
			}
			if mlc.Stats.Delegated {
				t.Fatalf("%s: Threshold=1 must not delegate", label)
			}
			if rerr == nil && mlc.Partition.Summary.Total > ref.Summary.Total {
				t.Fatalf("%s: coarsened multilevel total %d exceeds reference total %d",
					label, mlc.Partition.Summary.Total, ref.Summary.Total)
			}
			verifyAgainstOracle(t, label, mlc.Partition, bc.budget)

			// Determinism: same seed, same bytes.
			again, aerr := Solve(d, forced(popts))
			if aerr != nil {
				t.Fatalf("%s: rerun failed: %v", label, aerr)
			}
			if got, want := fingerprint(d, again.Partition), fingerprint(d, mlc.Partition); got != want {
				t.Fatalf("%s: coarsened multilevel is not deterministic:\n--- first\n%s--- second\n%s", label, want, got)
			}
		}
	}
}

// TestMultilevelSummaryConsistent re-derives the winning scheme's cost
// matrix and pins the reported summary to it — whichever of the chain
// or the polish produced it.
func TestMultilevelSummaryConsistent(t *testing.T) {
	for _, d := range corpusDesigns(t)[:6] {
		popts := partition.Options{Budget: partition.Modular(d).TotalResources()}
		res, err := Solve(d, forced(popts))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		m, sum := cost.Evaluate(res.Partition.Scheme)
		if sum.Total != res.Partition.Summary.Total || m.Worst() != res.Partition.Summary.Worst {
			t.Fatalf("%s: summary (total=%d worst=%d) does not match re-derived (total=%d worst=%d)",
				d.Name, res.Partition.Summary.Total, res.Partition.Summary.Worst, sum.Total, m.Worst())
		}
	}
}

// TestMultilevelRejectsUnsupported pins the documented restrictions.
func TestMultilevelRejectsUnsupported(t *testing.T) {
	d := design.VideoReceiver()
	budget := partition.Modular(d).TotalResources()
	n := len(d.Configurations)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	if _, err := Solve(d, Options{Partition: partition.Options{Budget: budget, TransitionWeights: w}}); err != ErrWeights {
		t.Fatalf("TransitionWeights: got %v, want ErrWeights", err)
	}
	pin := d.UsedModes()[:1]
	if _, err := Solve(d, Options{Partition: partition.Options{Budget: budget, PinnedStatic: pin}}); err != ErrPinned {
		t.Fatalf("PinnedStatic: got %v, want ErrPinned", err)
	}
}
