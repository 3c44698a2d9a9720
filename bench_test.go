// Package prpart's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§V). Each benchmark drives the same
// experiment code as cmd/prbench and reports the headline quantities as
// benchmark metrics, so `go test -bench=. -benchmem` reproduces the
// paper's numbers alongside the performance of the implementation itself.
//
// The synthetic sweep behind Figs. 7-9 runs once (over a corpus sized by
// PRPART_BENCH_N, default 150; the paper uses 1000 — see cmd/prbench for
// the full-scale run) and is shared by the figure benchmarks.
package prpart

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"prpart/internal/adaptive"
	"prpart/internal/basepart"
	"prpart/internal/bitstream"
	"prpart/internal/connmat"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/experiments"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/multilevel"
	"prpart/internal/partition"
	"prpart/internal/synthetic"
)

// benchCorpusSize returns the sweep corpus size.
func benchCorpusSize() int {
	if s := os.Getenv("PRPART_BENCH_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 150
}

var (
	sweepOnce sync.Once
	sweepOuts []*experiments.Outcome
	sweepErr  error
)

func sweep(b *testing.B) []*experiments.Outcome {
	b.Helper()
	sweepOnce.Do(func() {
		designs := synthetic.Generate(1, benchCorpusSize())
		sweepOuts, sweepErr = experiments.Sweep(designs, partition.Options{}, 0)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepOuts
}

// BenchmarkTable1BasePartitions regenerates Table I: the clustering of
// the worked example into 26 base partitions.
func BenchmarkTable1BasePartitions(b *testing.B) {
	d := design.PaperExample()
	var n int
	for i := 0; i < b.N; i++ {
		parts, err := basepart.BasePartitions(connmat.New(d))
		if err != nil {
			b.Fatal(err)
		}
		n = len(parts)
	}
	b.ReportMetric(float64(n), "base_partitions")
}

// BenchmarkTable2Synthesis regenerates Table II: resource estimation for
// the case-study modules via the synthesis substrate's IP library.
func BenchmarkTable2Synthesis(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table2().Rows)
	}
	b.ReportMetric(float64(rows), "modes")
}

// BenchmarkTable3CaseStudy regenerates Table III: the proposed
// partitioning of the 8-configuration video receiver.
func BenchmarkTable3CaseStudy(b *testing.B) {
	d := design.VideoReceiver()
	var total int
	for i := 0; i < b.N; i++ {
		res, err := partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
		if err != nil {
			b.Fatal(err)
		}
		total = res.Summary.Total
	}
	b.ReportMetric(float64(total), "total_frames") // paper: 235266
}

// BenchmarkTable4Schemes regenerates Table IV: the static, modular,
// single-region and proposed schemes side by side.
func BenchmarkTable4Schemes(b *testing.B) {
	d := design.VideoReceiver()
	var imp float64
	for i := 0; i < b.N; i++ {
		cs, err := experiments.RunCaseStudy(d)
		if err != nil {
			b.Fatal(err)
		}
		imp = cs.ImprovementOverModular()
	}
	b.ReportMetric(imp, "improvement_pct") // paper: ~4%
}

// BenchmarkTable5Modified regenerates Table V: the modified-configuration
// case study with static promotion.
func BenchmarkTable5Modified(b *testing.B) {
	d := design.VideoReceiverModified()
	var total, static int
	for i := 0; i < b.N; i++ {
		res, err := partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
		if err != nil {
			b.Fatal(err)
		}
		total = res.Summary.Total
		static = len(res.Scheme.Static)
	}
	b.ReportMetric(float64(total), "total_frames") // paper: 92120
	b.ReportMetric(float64(static), "static_parts")
}

// BenchmarkFig7TotalReconfig regenerates Fig. 7: per-design total
// reconfiguration times across the synthetic corpus.
func BenchmarkFig7TotalReconfig(b *testing.B) {
	outs := sweep(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.Fig7(outs)
		var prop, mod float64
		for _, row := range s.Values {
			prop += row[0]
			mod += row[1]
		}
		ratio = prop / mod
	}
	b.ReportMetric(float64(len(outs)), "designs")
	b.ReportMetric(ratio, "proposed_over_modular")
}

// BenchmarkFig8WorstReconfig regenerates Fig. 8: per-design worst-case
// reconfiguration times.
func BenchmarkFig8WorstReconfig(b *testing.B) {
	outs := sweep(b)
	var singleBeatsModular float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.Fig8(outs)
		n := 0
		for _, row := range s.Values {
			if row[2] < row[1] { // single-region worst below modular worst
				n++
			}
		}
		singleBeatsModular = 100 * float64(n) / float64(len(s.Values))
	}
	// The Fig. 8 crossover: single-region often wins on worst case.
	b.ReportMetric(singleBeatsModular, "single_beats_modular_pct")
}

// BenchmarkFig9Histograms regenerates the four Fig. 9 improvement
// profiles.
func BenchmarkFig9Histograms(b *testing.B) {
	outs := sweep(b)
	var samples int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs := experiments.Fig9(outs)
		samples = hs[0].Total()
	}
	b.ReportMetric(float64(samples), "samples_per_histogram")
}

// BenchmarkScalarClaims regenerates the §V scalar claims (73 % / 70 % /
// 87.5 % win rates, upsized and smaller-device counts).
func BenchmarkScalarClaims(b *testing.B) {
	outs := sweep(b)
	var c experiments.Claims
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = experiments.ComputeClaims(outs)
	}
	n := float64(c.Designs)
	b.ReportMetric(100*float64(c.TotalBetterThanModular)/n, "total_better_modular_pct") // paper: 73
	b.ReportMetric(100*float64(c.TotalWorseThanSingle)/n, "total_worse_single_pct")     // paper: 0
	b.ReportMetric(100*float64(c.WorstBetterThanModular)/n, "worst_better_modular_pct") // paper: 70
	b.ReportMetric(100*float64(c.WorstBetterOrEqualSingle)/n, "worst_be_single_pct")    // paper: 87.5
	b.ReportMetric(float64(c.Upsized), "upsized_designs")                               // paper: 201/1000
	b.ReportMetric(float64(c.SmallerThanModular), "smaller_than_modular")               // paper: 13/1000
}

// benchAblation solves the case study under a search variant. A variant
// that finds no multi-region scheme falls back to the single-region
// arrangement, exactly as the device-selection flow would; its (much
// larger) total is reported so the ablation cost is visible.
func benchAblation(b *testing.B, opts partition.Options) {
	b.Helper()
	d := design.VideoReceiver()
	opts.Budget = design.CaseStudyBudget()
	var total, fallback int
	for i := 0; i < b.N; i++ {
		res, err := partition.Solve(d, opts)
		switch err {
		case nil:
			total = res.Summary.Total
			fallback = 0
		case partition.ErrNoScheme:
			_, sum := cost.Evaluate(partition.SingleRegion(d))
			total = sum.Total
			fallback = 1
		default:
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total), "total_frames")
	b.ReportMetric(float64(fallback), "single_region_fallback")
}

// BenchmarkAblationFull is the reference point for the A1-A3 ablations.
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, partition.Options{}) }

// BenchmarkAblationNoStatic disables static promotion (A1).
func BenchmarkAblationNoStatic(b *testing.B) { benchAblation(b, partition.Options{NoStatic: true}) }

// BenchmarkAblationGreedyOnly disables candidate-set iteration and
// restarts (A2).
func BenchmarkAblationGreedyOnly(b *testing.B) { benchAblation(b, partition.Options{GreedyOnly: true}) }

// BenchmarkAblationNoQuantize guides the search with idealised frame
// counts (A3).
func BenchmarkAblationNoQuantize(b *testing.B) { benchAblation(b, partition.Options{NoQuantize: true}) }

// BenchmarkBackendFlow measures the post-partitioning tool-flow steps:
// floorplan, constraint generation and bitstream assembly.
func BenchmarkBackendFlow(b *testing.B) {
	d := design.VideoReceiver()
	res, err := partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := device.ByName("FX70T")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		plan, err := floorplan.Place(res.Scheme, dev)
		if err != nil {
			b.Fatal(err)
		}
		bits, err := bitstream.Assemble(res.Scheme, plan)
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, region := range bits.PerRegion {
			for _, bs := range region {
				bytes += bs.Bytes()
			}
		}
	}
	b.ReportMetric(float64(bytes), "bitstream_bytes")
}

// BenchmarkRuntimeSwitch measures one configuration switch through the
// ICAP model (the runtime the partitioner is minimising).
func BenchmarkRuntimeSwitch(b *testing.B) {
	d := design.VideoReceiver()
	res, err := partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
	if err != nil {
		b.Fatal(err)
	}
	dev, _ := device.ByName("FX70T")
	plan, err := floorplan.Place(res.Scheme, dev)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := bitstream.Assemble(res.Scheme, plan)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := adaptive.NewManager(res.Scheme, bits, icap.New(32, 100_000_000))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.SwitchTo(0); err != nil {
		b.Fatal(err)
	}
	var modelled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := mgr.SwitchTo(1 + i%7)
		if err != nil {
			b.Fatal(err)
		}
		modelled += d
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(modelled.Microseconds())/float64(b.N), "modelled_us_per_switch")
	}
}

// BenchmarkCostModel measures transition-matrix evaluation, the inner
// loop of the search.
func BenchmarkCostModel(b *testing.B) {
	d := design.VideoReceiver()
	s := partition.Modular(d)
	var total int
	for i := 0; i < b.N; i++ {
		m := cost.Transitions(s)
		total = m.Total()
	}
	b.ReportMetric(float64(total), "total_frames")
}

// benchMultilevelHuge solves one prgen huge-tier design through the
// full coarsen–partition–refine chain with the given per-level refine
// worker count. The direct engine cannot enumerate at this size at
// all, so there is no like-for-like baseline; the gate is the
// benchmark's own history (results/BENCH_pr7.json onward) plus the
// serial-vs-parallel identity contract (Workers changes wall-clock,
// never the scheme — see internal/partition/scan.go).
func benchMultilevelHuge(b *testing.B, design, workers int) {
	b.Helper()
	d := synthetic.GenerateHuge(1, design+1)[design]
	opts := multilevel.Options{
		Partition: partition.Options{
			Budget:  partition.Modular(d).TotalResources(),
			Workers: workers,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *multilevel.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = multilevel.Solve(d, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Partition.Summary.Total), "total_frames")
	b.ReportMetric(float64(res.Stats.Levels), "levels")
}

// BenchmarkMultilevelHuge is the 10³-mode tier, serial refinement.
func BenchmarkMultilevelHuge(b *testing.B) { benchMultilevelHuge(b, 0, 1) }

// BenchmarkMultilevelHugeParallel is the same solve with the per-level
// refine scan sharded over four workers; the PR 9 acceptance gate is
// ≥2× over BenchmarkMultilevelHuge with a byte-identical scheme.
func BenchmarkMultilevelHugeParallel(b *testing.B) { benchMultilevelHuge(b, 0, 4) }

// BenchmarkMultilevelHuge20K is the extended tier parallel refinement
// unlocked: 2×10⁴ modes (the last HugeSizes entry), four workers.
func BenchmarkMultilevelHuge20K(b *testing.B) {
	benchMultilevelHuge(b, len(synthetic.HugeSizes)-1, 4)
}

// BenchmarkGalleryDesigns runs the full evaluation procedure on the
// realistic gallery designs (extension experiment E14) and reports the
// proposed scheme's improvement over one-module-per-region for each.
func BenchmarkGalleryDesigns(b *testing.B) {
	var imps [3]float64
	for i := 0; i < b.N; i++ {
		for gi, d := range design.Gallery() {
			o, err := experiments.EvaluateDesign(gi, d, partition.Options{})
			if err != nil {
				b.Fatal(err)
			}
			imps[gi] = 100 * float64(o.Modular.Total-o.Proposed.Total) / float64(o.Modular.Total)
		}
	}
	b.ReportMetric(imps[0], "sdr_improvement_pct")
	b.ReportMetric(imps[1], "vision_improvement_pct")
	b.ReportMetric(imps[2], "satellite_improvement_pct")
}
