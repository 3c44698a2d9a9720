package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/experiments"
	"prpart/internal/partition"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{200, 0.95, 190, 10, true},
		{1000, 0.5, 500, 500, true},
	} {
		p, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok=%v", 100*tc.q, tc.n, err, tc.ok)
		}
		if p.Value != tc.value || p.Beyond != tc.beyond || p.N != tc.n {
			t.Errorf("p%g of %d = %+v, want value %g with %d beyond", 100*tc.q, tc.n, p, tc.value, tc.beyond)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestReportPrintsSampleCount(t *testing.T) {
	rep := newReport()
	rep.setPct(rep.e2e, "latency_p50_ms", seq(40), 0.5)
	m, ok := rep.e2e["latency_p50_ms"]
	if !ok || m.Note != "p50 of 40 samples, 20 beyond" {
		t.Fatalf("metric = %+v, %v", m, ok)
	}
	rep.setPct(rep.e2e, "short_p90_ms", seq(50), 0.9)
	if _, ok := rep.e2e["short_p90_ms"]; ok || len(rep.problems) != 1 {
		t.Fatalf("a p90 over 50 samples was reported: %v, problems %v", rep.e2e, rep.problems)
	}
}

func TestTiersNeverMix(t *testing.T) {
	tr := newTiers()
	for i := 0; i < 30; i++ {
		tr.add("hit", 300*time.Microsecond)
		tr.add("miss", 30*time.Millisecond)
	}
	tr.add("peer", time.Millisecond)
	hits, misses := tr.of("hit"), tr.of("miss")
	if len(hits) != 30 || len(misses) != 30 || tr.count("peer") != 1 || tr.count("store") != 0 {
		t.Fatalf("tier counts: hit %d miss %d peer %d", len(hits), len(misses), tr.count("peer"))
	}
	for _, v := range hits {
		if v != 0.3 {
			t.Fatalf("hit tier holds %v ms", v)
		}
	}
	p, err := percentile(misses, 0.5)
	if err != nil || p.Value != 30 {
		t.Fatalf("miss p50 = %+v, %v", p, err)
	}
}

func TestTallyCountsRefusedAndUncheckedAsFailed(t *testing.T) {
	var tl tally
	tl.op("")
	tl.op("status 429")
	tl.op("transport error")
	tl.op("body differs for its key")
	tl.op("")
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
	if tl.reasons["status 429"] != 1 || len(tl.reasons) != 3 {
		t.Fatalf("reasons = %v", tl.reasons)
	}
	// A sweep outcome that never reached its check fails too.
	rep := newReport()
	p := &sweepPass{outs: make([]*experiments.Outcome, 1), errs: []error{nil}}
	checkSweepPass([]*design.Design{design.VideoReceiver()}, p, 1, 1, rep)
	if rep.ops.attempted != 1 || rep.ops.failed != 1 {
		t.Fatalf("unchecked outcome: attempted %d failed %d", rep.ops.attempted, rep.ops.failed)
	}
}

func TestQualityIsShareOfModular(t *testing.T) {
	d := design.VideoReceiver()
	_, mod := cost.Evaluate(partition.Modular(d))
	q := &quality{}
	q.add(d, mod.Total)
	q.add(d, 0)
	if m := q.metric(); m.Value != 0.5 {
		t.Fatalf("mean share = %v, want 0.5 (%s)", m.Value, m.Note)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric
// lists this program prints, names and units alike.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	if len(listed) != len(bj.Workloads) || len(listed) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
}
