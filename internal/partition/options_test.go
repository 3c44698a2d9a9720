package partition

import (
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/resource"
)

func TestPinnedStaticHonoured(t *testing.T) {
	d := design.VideoReceiver()
	// Pin the BPSK demodulator into static logic.
	bpsk := design.ModeRef{Module: 2, Mode: 1}
	res, err := Solve(d, Options{
		Budget:       design.CaseStudyBudget(),
		PinnedStatic: []design.ModeRef{bpsk},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Scheme.StaticSet().Contains(bpsk) {
		t.Errorf("pinned mode %s not in static logic", d.ModeName(bpsk))
	}
	for ri, r := range res.Scheme.Regions {
		for _, p := range r.Parts {
			if p.Set.Contains(bpsk) {
				t.Errorf("pinned mode %s also appears in region %d", d.ModeName(bpsk), ri)
			}
		}
	}
}

func TestPinnedStaticLargeMode(t *testing.T) {
	// Pinning a large mode forces the search to spend budget on it; the
	// result must stay feasible (or the solve must fail cleanly).
	d := design.VideoReceiver()
	turbo := design.ModeRef{Module: 3, Mode: 2}
	res, err := Solve(d, Options{
		Budget:       design.CaseStudyBudget(),
		PinnedStatic: []design.ModeRef{turbo},
	})
	if err != nil {
		t.Skipf("pinning Turbo made the budget infeasible: %v", err)
	}
	if !res.Scheme.FitsIn(design.CaseStudyBudget()) {
		t.Error("pinned scheme exceeds budget")
	}
	if !res.Scheme.StaticSet().Contains(turbo) {
		t.Error("pinned Turbo not static")
	}
}

func TestPinnedStaticValidation(t *testing.T) {
	d := design.VideoReceiver()
	// R.None is unused: pin must be rejected.
	if _, err := Solve(d, Options{
		Budget:       design.CaseStudyBudget(),
		PinnedStatic: []design.ModeRef{{Module: 1, Mode: 4}},
	}); err == nil || !strings.Contains(err.Error(), "not used") {
		t.Errorf("unused pin: %v", err)
	}
	if _, err := Solve(d, Options{
		Budget:       design.CaseStudyBudget(),
		NoStatic:     true,
		PinnedStatic: []design.ModeRef{{Module: 2, Mode: 1}},
	}); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("pin + NoStatic: %v", err)
	}
}

func TestCoverDescendingAblation(t *testing.T) {
	// Reversing the covering order still yields a valid scheme but
	// (being built from whole-configuration base partitions) must not
	// beat the paper's ascending order.
	d := design.VideoReceiver()
	budget := design.CaseStudyBudget()
	asc, err := Solve(d, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := Solve(d, Options{Budget: budget, CoverDescending: true})
	if err == ErrNoScheme {
		t.Log("descending cover found no feasible scheme (ascending order essential)")
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := desc.Scheme.Validate(); err != nil {
		t.Fatal(err)
	}
	if desc.Summary.Total < asc.Summary.Total {
		t.Errorf("descending cover %d beat ascending %d", desc.Summary.Total, asc.Summary.Total)
	}
	t.Logf("cover order ablation: ascending %d, descending %d frames",
		asc.Summary.Total, desc.Summary.Total)
}

func TestParallelSolveDeterministic(t *testing.T) {
	d := design.VideoReceiver()
	budget := design.CaseStudyBudget()
	serial, err := Solve(d, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Solve(d, Options{Budget: budget, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Summary != parallel.Summary {
		t.Errorf("parallel result differs: %+v vs %+v", parallel.Summary, serial.Summary)
	}
	if len(serial.Scheme.Regions) != len(parallel.Scheme.Regions) {
		t.Error("region structure differs under parallelism")
	}
	for ri := range serial.Scheme.Regions {
		if serial.Scheme.Regions[ri].Label(d) != parallel.Scheme.Regions[ri].Label(d) {
			t.Errorf("region %d differs: %q vs %q", ri,
				serial.Scheme.Regions[ri].Label(d), parallel.Scheme.Regions[ri].Label(d))
		}
	}
}

func TestParallelSolveExplicitWorkers(t *testing.T) {
	d := design.VideoReceiverModified()
	budget := design.CaseStudyBudget()
	a, err := Solve(d, Options{Budget: budget, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(d, Options{Budget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("3-worker result %+v differs from serial %+v", a.Summary, b.Summary)
	}
}

func TestTraceRecordsMoves(t *testing.T) {
	d := design.VideoReceiver()
	res, err := Solve(d, Options{Budget: design.CaseStudyBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("constrained solve should require moves")
	}
	merges, promotes := 0, 0
	for _, step := range res.Trace {
		switch {
		case strings.HasPrefix(step, "merge "):
			merges++
		case strings.HasPrefix(step, "promote "):
			promotes++
		default:
			t.Errorf("unrecognised trace step %q", step)
		}
	}
	if merges == 0 {
		t.Error("no merges recorded for a budget-constrained solve")
	}
	if len(res.Scheme.Static) > 0 && promotes == 0 {
		t.Error("static parts present but no promote step recorded")
	}
	// Replaying determinism: same options give the same trace.
	res2, err := Solve(d, Options{Budget: design.CaseStudyBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace) != len(res.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res2.Trace), len(res.Trace))
	}
	for i := range res.Trace {
		if res.Trace[i] != res2.Trace[i] {
			t.Errorf("trace step %d differs: %q vs %q", i, res.Trace[i], res2.Trace[i])
		}
	}
}

func TestZeroTraceOnUnconstrainedSolve(t *testing.T) {
	d := design.PaperExample()
	res, err := Solve(d, Options{Budget: resource.New(1e6, 1e4, 1e4)})
	if err != nil {
		t.Fatal(err)
	}
	// All-separate is optimal: either no moves, or only cost-free
	// static promotions.
	for _, step := range res.Trace {
		if strings.HasPrefix(step, "merge ") {
			t.Errorf("unconstrained solve merged: %q", step)
		}
	}
}
