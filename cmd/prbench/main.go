// Command prbench regenerates every table and figure of the paper's
// evaluation section:
//
//	prbench -exp all                 # everything, paper-scale corpus
//	prbench -exp table1              # one artefact
//	prbench -exp fig7 -n 200 -csv out/   # smaller corpus, CSV dumps
//
// Experiments: table1, table2, table3, table4, table5, fig7, fig8, fig9,
// claims, classes, gallery, ablation, weighted, all.
//
// With -daemon the synthetic sweep runs as an HTTP client of a prpartd
// instance booted in-process (or an external one named by -daemon-url),
// driving /v1/solve/batch (-daemon-mode batch) or the async job API
// (-daemon-mode async) instead of calling the library — the end-to-end
// check that the daemon's batch and async surfaces produce the exact
// metrics of the in-process evaluation:
//
//	prbench -exp claims -n 100 -daemon
//	prbench -exp claims -n 100 -daemon -daemon-mode async
//	prbench -exp fig7 -daemon -daemon-url http://127.0.0.1:8377
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"prpart/internal/benchfmt"
	"prpart/internal/design"
	"prpart/internal/experiments"
	"prpart/internal/multilevel"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/report"
	"prpart/internal/serve"
	"prpart/internal/synthetic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prbench:", err)
		os.Exit(1)
	}
}

type env struct {
	out     io.Writer
	csvDir  string
	n       int
	seed    int64
	workers int
	md      bool
	ml      bool
	obs     *obs.Obs

	daemon     bool
	daemonURL  string
	daemonMode string

	sweepOnce bool
	sweepNs   int64
	outs      []*experiments.Outcome
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run")
	n := fs.Int("n", 1000, "synthetic corpus size (figs 7-9, claims)")
	seed := fs.Int64("seed", 1, "corpus seed")
	workers := fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "directory for CSV dumps (optional)")
	md := fs.Bool("md", false, "render tables as Markdown instead of aligned text")
	ml := fs.Bool("multilevel", false, "drive the sweep through the multilevel engine (delegates at paper scale; a coarsening A/B switch)")
	daemon := fs.Bool("daemon", false, "run the sweep as a batch/async client of a prpartd daemon (booted in-process unless -daemon-url)")
	daemonURL := fs.String("daemon-url", "", "base URL of an already-running daemon to sweep against (implies -daemon)")
	daemonMode := fs.String("daemon-mode", "batch", "daemon sweep surface: batch (/v1/solve/batch) or async (/v1/jobs)")
	ablN := fs.Int("abl-n", 100, "ablation corpus size")
	jsonOut := fs.Bool("json", false, "write a benchmark-regression report (BENCH_<rev>.json) instead of tables")
	rev := fs.String("rev", "dev", "revision label for the -json report")
	jsonPath := fs.String("o", "", "output path for the -json report (default BENCH_<rev>.json)")
	ofl := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, stopObs, err := ofl.Start(out)
	if err != nil {
		return err
	}
	e := &env{
		out: out, csvDir: *csvDir, n: *n, seed: *seed, workers: *workers,
		md: *md, ml: *ml, obs: o,
		daemon: *daemon || *daemonURL != "", daemonURL: *daemonURL, daemonMode: *daemonMode,
	}
	if e.daemon && e.daemonMode != "batch" && e.daemonMode != "async" {
		return fmt.Errorf("unknown -daemon-mode %q (want batch or async)", e.daemonMode)
	}
	if *jsonOut {
		path := *jsonPath
		if path == "" {
			path = "BENCH_" + *rev + ".json"
		}
		err := e.benchJSON(*rev, path)
		if serr := stopObs(); serr != nil && err == nil {
			err = serr
		}
		return err
	}

	runners := map[string]func() error{
		"table1":   e.table1,
		"table2":   e.table2,
		"table3":   e.table3,
		"table4":   e.table4,
		"table5":   e.table5,
		"fig7":     e.fig7,
		"fig8":     e.fig8,
		"fig9":     e.fig9,
		"claims":   e.claims,
		"classes":  e.classes,
		"gallery":  e.gallery,
		"weighted": e.weighted,
		"ablation": func() error { return e.ablation(*ablN) },
	}
	runErr := func() error {
		if *exp == "all" {
			for _, name := range []string{
				"table1", "table2", "table3", "table4", "table5",
				"fig7", "fig8", "fig9", "claims", "classes", "gallery",
				"ablation", "weighted",
			} {
				if err := runners[name](); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Fprintln(out)
			}
			return nil
		}
		r, ok := runners[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		return r()
	}()
	if serr := stopObs(); serr != nil && runErr == nil {
		runErr = serr
	}
	return runErr
}

func (e *env) sweep() ([]*experiments.Outcome, error) {
	if e.sweepOnce {
		return e.outs, nil
	}
	start := time.Now()
	designs := synthetic.Generate(e.seed, e.n)
	solve := experiments.Solver(partition.Solve)
	var cleanup func()
	if e.daemon {
		var err error
		solve, cleanup, err = e.daemonSolver()
		if err != nil {
			return nil, err
		}
	} else if e.ml {
		solve = multilevel.Solver(multilevel.Options{})
	}
	outs, err := experiments.SweepSolver(designs, partition.Options{Obs: e.obs}, e.workers, solve)
	if cleanup != nil {
		cleanup()
	}
	if err != nil {
		return nil, err
	}
	e.sweepNs = time.Since(start).Nanoseconds()
	e.outs = outs
	e.sweepOnce = true
	return outs, nil
}

// daemonSolver returns a Solver that drives the sweep over HTTP: against
// -daemon-url when set, otherwise against a prpartd serving layer booted
// in-process on a loopback port. The cleanup func tears down the batcher
// and any booted daemon after the sweep.
func (e *env) daemonSolver() (experiments.Solver, func(), error) {
	cfg := experiments.RemoteConfig{
		BaseURL:    e.daemonURL,
		Multilevel: e.ml,
	}
	var stops []func()
	if cfg.BaseURL == "" {
		srv := serve.New(serve.Config{Workers: e.workers, Obs: e.obs})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		cfg.BaseURL = "http://" + ln.Addr().String()
		stops = append(stops, func() { httpSrv.Close(); srv.Close() })
		fmt.Fprintf(e.out, "[daemon: booted in-process at %s]\n", cfg.BaseURL)
	}
	fmt.Fprintf(e.out, "[daemon: sweeping via %s against %s]\n", e.daemonMode, cfg.BaseURL)
	var solve experiments.Solver
	if e.daemonMode == "async" {
		solve = experiments.AsyncSolver(cfg)
	} else {
		b := experiments.NewBatcher(cfg)
		stops = append(stops, b.Close)
		solve = b.Solver()
	}
	return solve, func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

// benchJSON runs the headline experiments under instrumentation and
// writes a benchfmt report to path: the regression baseline that
// scripts/bench_compare.go diffs against a later run.
func (e *env) benchJSON(rev, path string) error {
	if e.obs == nil {
		e.obs = obs.New()
	}
	r := &benchfmt.Report{
		Schema:     benchfmt.Schema,
		Rev:        rev,
		GoVersion:  runtime.Version(),
		Corpus:     benchfmt.Corpus{N: e.n, Seed: e.seed},
		Metrics:    map[string]float64{},
		RuntimeNs:  map[string]int64{},
		Counters:   map[string]int64{},
		Benchmarks: map[string]benchfmt.BenchResult{},
	}

	start := time.Now()
	cs, err := experiments.RunCaseStudy(design.VideoReceiver())
	if err != nil {
		return err
	}
	r.RuntimeNs["casestudy_ns"] = time.Since(start).Nanoseconds()
	r.Metrics["casestudy_total_frames"] = float64(cs.Proposed.Summary.Total)
	r.Metrics["casestudy_worst_frames"] = float64(cs.Proposed.Summary.Worst)
	r.Metrics["casestudy_regions"] = float64(len(cs.Proposed.Scheme.Regions))
	r.Metrics["casestudy_improvement_pct"] = cs.ImprovementOverModular()

	start = time.Now()
	csm, err := experiments.RunCaseStudy(design.VideoReceiverModified())
	if err != nil {
		return err
	}
	r.RuntimeNs["casestudy_modified_ns"] = time.Since(start).Nanoseconds()
	r.Metrics["casestudy_modified_total_frames"] = float64(csm.Proposed.Summary.Total)
	r.Metrics["casestudy_modified_improvement_pct"] = csm.ImprovementOverModular()

	outs, err := e.sweep()
	if err != nil {
		return err
	}
	r.RuntimeNs["sweep_ns"] = e.sweepNs
	c := experiments.ComputeClaims(outs)
	r.Metrics["sweep_designs"] = float64(c.Designs)
	r.Metrics["sweep_total_better_than_modular"] = float64(c.TotalBetterThanModular)
	r.Metrics["sweep_total_equal_modular"] = float64(c.TotalEqualModular)
	r.Metrics["sweep_total_worse_than_single"] = float64(c.TotalWorseThanSingle)
	r.Metrics["sweep_worst_better_than_modular"] = float64(c.WorstBetterThanModular)
	r.Metrics["sweep_worst_worse_than_modular"] = float64(c.WorstWorseThanModular)
	var upsized, fallback, smaller int
	for _, o := range outs {
		if o.Upsized {
			upsized++
		}
		if o.FallbackSingle {
			fallback++
		}
		if o.SmallerThanModular {
			smaller++
		}
	}
	r.Metrics["sweep_upsized"] = float64(upsized)
	r.Metrics["sweep_fallback_single"] = float64(fallback)
	r.Metrics["sweep_smaller_than_modular"] = float64(smaller)

	if err := e.microBenchmarks(r); err != nil {
		return err
	}

	snap := e.obs.Snapshot()
	for k, v := range snap.Counters {
		r.Counters[k] = v
	}
	for k, v := range snap.Gauges {
		r.Counters[k] = v
	}
	for k, ts := range snap.Timers {
		r.RuntimeNs[k+"_ns"] = ts.Total.Nanoseconds()
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "[bench: wrote %s (%d metrics, %d counters, %d benchmarks)]\n",
		path, len(r.Metrics), len(r.Counters), len(r.Benchmarks))
	return nil
}

// microBenchmarks measures the solver's per-operation wall time and
// allocation profile with the testing harness and records the results
// in the report's benchmarks section, where bench_compare gates ns/op
// and allocs/op under the runtime tolerance. The benchmarked solves
// run without the report's Obs so they cannot perturb its counters.
func (e *env) microBenchmarks(r *benchfmt.Report) error {
	record := func(name string, fn func(b *testing.B)) error {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			return fmt.Errorf("benchmark %s failed", name)
		}
		r.Benchmarks[name] = benchfmt.BenchResult{
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		return nil
	}
	caseStudy := design.VideoReceiver()
	caseOpts := partition.Options{Budget: design.CaseStudyBudget()}
	if err := record("solve_case_study", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := partition.Solve(caseStudy, caseOpts); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return err
	}
	medianDesigns := synthetic.Generate(1, 8)
	medianOpts := make([]partition.Options, len(medianDesigns))
	for i, d := range medianDesigns {
		medianOpts[i] = partition.Options{Budget: partition.Modular(d).TotalResources()}
	}
	if err := record("solve_synthetic_median", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := medianDesigns[i%len(medianDesigns)]
			if _, err := partition.Solve(d, medianOpts[i%len(medianDesigns)]); err != nil &&
				err != partition.ErrNoScheme && err != partition.ErrInfeasible {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return err
	}
	// The closest external proxy for one descent: a single candidate
	// set explored greedy-only (no restarts, no seeding).
	greedyOpts := partition.Options{Budget: design.CaseStudyBudget(), GreedyOnly: true}
	if err := record("greedy_descent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := partition.Solve(caseStudy, greedyOpts); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return err
	}
	// The scale tier: one 10³-mode design through the full multilevel
	// chain (coarsen, coarse solve, refine at every level).
	huge := synthetic.GenerateHuge(1, 1)[0]
	hugeOpts := multilevel.Options{
		Partition: partition.Options{Budget: partition.Modular(huge).TotalResources()},
	}
	if err := record("multilevel_huge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilevel.Solve(huge, hugeOpts); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return err
	}
	// The same solve with the per-level refine scan sharded over four
	// workers (capped at the machine's cores; results are byte-identical
	// to the serial run, only wall clock may differ).
	hugeP4 := hugeOpts
	hugeP4.Partition.Workers = 4
	return record("multilevel_huge_p4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilevel.Solve(huge, hugeP4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// render writes a table in the selected format.
func (e *env) render(t *report.Table) error {
	if e.md {
		return t.WriteMarkdown(e.out)
	}
	return t.Render(e.out)
}

func (e *env) dumpCSV(name string, w interface{ WriteCSV(io.Writer) error }) error {
	if e.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return w.WriteCSV(f)
}

func (e *env) table1() error {
	t, err := experiments.Table1()
	if err != nil {
		return err
	}
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("table1.csv", t)
}

func (e *env) table2() error {
	t := experiments.Table2()
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("table2.csv", t)
}

func (e *env) table3() error {
	cs, err := experiments.RunCaseStudy(design.VideoReceiver())
	if err != nil {
		return err
	}
	t := cs.PartitionTable("Table III: partitions determined by algorithm")
	if err := e.render(t); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "improvement over one-module-per-region: %.1f%% (paper: 4%%)\n",
		cs.ImprovementOverModular())
	return e.dumpCSV("table3.csv", t)
}

func (e *env) table4() error {
	cs, err := experiments.RunCaseStudy(design.VideoReceiver())
	if err != nil {
		return err
	}
	t := cs.SchemeTable()
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("table4.csv", t)
}

func (e *env) table5() error {
	cs, err := experiments.RunCaseStudy(design.VideoReceiverModified())
	if err != nil {
		return err
	}
	t := cs.PartitionTable("Table V: partitions for modified configurations")
	if err := e.render(t); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "total reconfiguration time: %d frames (paper: 92120), %.1f%% below modular (paper: 6%%)\n",
		cs.Proposed.Summary.Total, cs.ImprovementOverModular())
	return e.dumpCSV("table5.csv", t)
}

func (e *env) fig7() error {
	outs, err := e.sweep()
	if err != nil {
		return err
	}
	if err := e.render(experiments.DeviceBuckets(outs)); err != nil {
		return err
	}
	return e.dumpCSV("fig7.csv", experiments.Fig7(outs))
}

func (e *env) fig8() error {
	outs, err := e.sweep()
	if err != nil {
		return err
	}
	// The bucket table covers both figures; dump the per-design series.
	return e.dumpCSV("fig8.csv", experiments.Fig8(outs))
}

func (e *env) fig9() error {
	outs, err := e.sweep()
	if err != nil {
		return err
	}
	for _, h := range experiments.Fig9(outs) {
		if err := h.Render(e.out); err != nil {
			return err
		}
		fmt.Fprintln(e.out)
	}
	return nil
}

func (e *env) claims() error {
	outs, err := e.sweep()
	if err != nil {
		return err
	}
	t := experiments.ComputeClaims(outs).Table()
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("claims.csv", t)
}

func (e *env) classes() error {
	outs, err := e.sweep()
	if err != nil {
		return err
	}
	t := experiments.ClassTable(outs)
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("classes.csv", t)
}

func (e *env) gallery() error {
	t, err := experiments.GalleryTable()
	if err != nil {
		return err
	}
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("gallery.csv", t)
}

func (e *env) ablation(n int) error {
	designs := synthetic.Generate(e.seed, n)
	t, err := experiments.Ablation(designs, e.workers)
	if err != nil {
		return err
	}
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("ablation.csv", t)
}

func (e *env) weighted() error {
	t, err := experiments.WeightedCaseStudy(e.seed)
	if err != nil {
		return err
	}
	if err := e.render(t); err != nil {
		return err
	}
	return e.dumpCSV("weighted.csv", t)
}

// report.Table and report.Series both satisfy the dumpCSV constraint.
var (
	_ interface{ WriteCSV(io.Writer) error } = (*report.Table)(nil)
	_ interface{ WriteCSV(io.Writer) error } = (*report.Series)(nil)
)
