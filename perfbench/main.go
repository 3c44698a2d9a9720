// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every output, and prints one JSON line
// of metrics as its last line of standard output:
//
//	perfbench --workload sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the workload untraced and prints the
// end-to-end metrics. With --trace 1 it runs the workload untraced and
// then traced, times each layer by calling that layer's public functions
// from this package, writes the spans under .bench_build/perfbench/, and
// prints the per-layer metrics. NOTES.md explains the choices.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the end-to-end metrics every workload prints with
// --trace 0, in BENCHMARK.json's order. Each is meaningful on every
// workload; every time among them is process CPU time (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"frames_vs_modular", "ratio"},
}

// perLayer lists the per-layer metrics every workload prints with
// --trace 1, in BENCHMARK.json's order. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// sweep: the cluster phase split, the search, the evaluation.
	{"connmat.new_ms", "ms"},
	{"basepart.partitions_ms", "ms"},
	{"cover.order_ms", "ms"},
	{"cover.sets_ms", "ms"},
	{"partition.cluster_ms", "ms"},
	{"partition.search_ms", "ms"},
	{"partition.solve_ms", "ms"},
	{"experiments.evaluate_ms", "ms"},
	{"experiments.evaluate_p50_ms", "ms"},
	{"experiments.evaluate_self_ms", "ms"},
	{"experiments.evaluate_p90_ms", "ms"},
	{"basepart.partitions", "count"},
	{"cover.sets_built", "count"},
	{"partition.candidate_sets", "count"},
	{"partition.moves_evaluated", "count"},
	{"partition.states", "count"},
	{"cover.sets_used_ratio", "ratio"},
	{"partition.delta_cache_hit_ratio", "ratio"},
	{"experiments.solves_per_design", "ratio"},
	// serve: the request path, by tier and by layer.
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p95_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.peer_p50_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.solve_ms", "ms"},
	{"jobs.wait_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"cluster.fetch_ms", "ms"},
	{"cluster.replicate_ms", "ms"},
	{"cluster.peer_hit_ratio", "ratio"},
	// every workload: wall-clock speed, and what tracing itself cost.
	{"run.throughput_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// exactCounts are the counts that must repeat exactly for a seed: a
// later change may rest a count-based claim on them. A run whose value
// differs from an earlier run of the same seed in the same checkout
// fails.
var exactCounts = []string{
	"frames_total",
	"basepart.partitions",
	"cover.sets_built",
	"partition.candidate_sets",
	"partition.moves_evaluated",
	"partition.states",
}

// metric is one measured value; note says what it was taken over (for
// a percentile, the sample count and how many lie beyond it).
type metric struct {
	Value float64
	Note  string
}

// report is what a workload run produced.
type report struct {
	e2e      map[string]metric
	layers   map[string]metric
	counts   map[string]int64
	ops      tally
	problems []string // failed checks that are not tied to a single op
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, counts: map[string]int64{}}
}

// problem records a failed check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setPct records a percentile metric, or a problem when the rule of ten
// samples beyond it is not met.
func (r *report) setPct(into map[string]metric, name string, xs []float64, q float64) {
	p, err := percentile(xs, q)
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	into[name] = metric{p.Value, fmt.Sprintf("p%g of %d samples, %d beyond", 100*q, p.N, p.Beyond)}
}

// config is what every workload receives.
type config struct {
	Seed    int64
	Seconds int
	Trace   bool
	Workers int    // nproc: sweep workers, serve clients
	OutDir  string // .bench_build/perfbench in the checkout
}

// workloads maps each workload BENCHMARK.json names to the code that
// runs it.
var workloads = map[string]func(config) (*report, error){
	"sweep": runSweep,
	"serve": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "run length; sizes the fixed op set")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		Seed:    *seed,
		Seconds: *seconds,
		Trace:   *trace == 1,
		Workers: runtime.NumCPU(),
		OutDir:  filepath.Join(".bench_build", "perfbench"),
	}
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "# run workload=%s seed=%d seconds=%d trace=%d\n", *name, cfg.Seed, cfg.Seconds, *trace)

	busy0, steal0, statErr := hostCPU()
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	// Steal is how much of the run the hypervisor gave the CPUs to
	// other guests; a run with a large share read slow for that reason.
	if busy1, steal1, err := hostCPU(); statErr == nil && err == nil && busy1+steal1 > busy0+steal0 {
		fmt.Fprintf(stdout, "# host steal %.1f%% of busy CPU time during the run\n",
			100*float64(steal1-steal0)/float64(busy1-busy0+steal1-steal0))
	}
	build, err := buildID()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	countsPath := filepath.Join(cfg.OutDir, "counts", build, fmt.Sprintf("%s-seed%d-s%d-trace%d-ops%d.json", *name, cfg.Seed, cfg.Seconds, *trace, rep.ops.attempted))
	if err := checkCounts(countsPath, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	defs, got := endToEnd, rep.e2e
	if cfg.Trace {
		defs, got = perLayer, rep.layers
	}
	out := map[string]any{}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			if !cfg.Trace {
				rep.problem("metric %s was not measured", d.Name)
				continue
			}
			m = metric{0, "not measured: layer not exercised here, or its check failed"}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.problem("metric %s is %v", d.Name, m.Value)
			continue
		}
		fmt.Fprintf(stdout, "# metric %-32s %14.6f %-6s %s\n", d.Name, m.Value, d.Unit, m.Note)
		out[d.Name] = map[string]any{"value": m.Value, "unit": d.Unit}
	}
	for _, k := range sortedKeys(rep.counts) {
		fmt.Fprintf(stdout, "# count %s = %d\n", k, rep.counts[k])
	}
	for _, k := range sortedKeys(rep.ops.reasons) {
		fmt.Fprintf(stdout, "# failed op: %s x%d\n", k, rep.ops.reasons[k])
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "# check failed: %s\n", p)
	}
	share := 0.0
	if rep.ops.attempted > 0 {
		share = float64(rep.ops.failed) / float64(rep.ops.attempted)
	}
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d failed_share=%.6f\n", rep.ops.attempted, rep.ops.failed, share)
	correct := rep.ops.failed == 0 && len(rep.problems) == 0 && rep.ops.attempted > 0
	attempted := rep.ops.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    rep.ops.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildID names the code under test: the SHA-256 of this binary, which
// is built from the checkout's sources. Exact-repeat counts are kept per
// build, so only reruns of the same code are compared and a change that
// legitimately moves a count starts a record of its own.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkCounts compares the run's exact-repeat counts with those an
// earlier run of the same build, workload, seed, length, trace mode and
// op count (a run on a slow host may stop early; see timeUp) recorded in
// this checkout, records any new ones, and turns a mismatch into a
// problem.
func checkCounts(path string, rep *report) error {
	prev := map[string]int64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	merged := map[string]int64{}
	for k, v := range prev {
		merged[k] = v
	}
	var diffs []string
	for _, k := range exactCounts {
		v, ok := rep.counts[k]
		if !ok {
			continue
		}
		if p, seen := prev[k]; seen && p != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d, earlier run %d", k, v, p))
		}
		merged[k] = v
	}
	if len(diffs) > 0 {
		rep.problem("counts differ from an earlier run with the same seed: %s", strings.Join(diffs, "; "))
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// setupCPU runs a set-up and returns the process CPU time it took. Set-up
// is timed in CPU time, like every gated metric: the hypervisor steals a
// varying share of a shared host's CPUs, and between two runs minutes
// apart the wall time of the same work moved 2.5x where its CPU time
// moved 1.3x.
func setupCPU(fn func() error) (time.Duration, error) {
	c0 := cpuTime()
	err := fn()
	return cpuTime() - c0, err
}
