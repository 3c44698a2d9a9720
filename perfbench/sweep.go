package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"prpart/internal/basepart"
	"prpart/internal/check"
	"prpart/internal/connmat"
	"prpart/internal/cost"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/experiments"
	"prpart/internal/obs"
	"prpart/internal/partition"
)

// setupRepeats is how many warm-up evaluations make one set-up sample.
// One takes tens of milliseconds, too short to time alone on a host
// whose speed drifts.
const setupRepeats = 3

// warmDesign is the set-up input of the sweep workload: the paper's
// case-study design, the same for every seed so set-up time compares
// like with like.
func warmDesign() *design.Design { return design.VideoReceiver() }

// warmUp is the sweep's set-up: setupRepeats evaluations of the
// case-study design, outside the timed chunks.
func warmUp() error {
	warm := warmDesign()
	for i := 0; i < setupRepeats; i++ {
		if _, err := experiments.EvaluateDesign(0, warm, partition.Options{Workers: 1}); err != nil {
			return err
		}
	}
	return nil
}

// sweepPass is one timed pass over a set of designs.
type sweepPass struct {
	outs     []*experiments.Outcome
	errs     []error
	lat      []float64 // per-design evaluation latency, ms
	attempts []int     // solve calls per design (device escalation)
	elapsed  time.Duration
	cpu      time.Duration
}

// runSweepPass evaluates every design the way prbench does: through
// experiments.EvaluateDesignSolver with device escalation over the sweep
// catalog, `workers` designs at a time, one search worker per solve.
// With tr set, each evaluation and each solve call is a span; with o
// set, the program's own counters and phase timers record into it.
func runSweepPass(designs []*design.Design, workers int, tr *tracer, o *obs.Obs) *sweepPass {
	p := &sweepPass{
		outs:     make([]*experiments.Outcome, len(designs)),
		errs:     make([]error, len(designs)),
		lat:      make([]float64, len(designs)),
		attempts: make([]int, len(designs)),
	}
	cpu0, start := cpuTime(), time.Now()
	parallel(len(designs), workers, func(i int) {
		op := int64(i + 1)
		evalID, endEval := tr.begin("experiments.evaluate", 0, op)
		solve := func(d *design.Design, opts partition.Options) (*partition.Result, error) {
			p.attempts[i]++
			_, end := tr.begin("partition.solve", evalID, op)
			defer end()
			return partition.SolveContext(context.Background(), d, opts)
		}
		t0 := time.Now()
		p.outs[i], p.errs[i] = experiments.EvaluateDesignSolver(i, designs[i], partition.Options{Workers: 1, Obs: o}, solve)
		p.lat[i] = ms(time.Since(t0))
		endEval()
	})
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpu0
	return p
}

// replayEvery sets the share of sweep outcomes the checker also replays
// on their device (one in replayEvery, chosen by the seed). The device
// replay floorplans the scheme and replays every transition through the
// configuration-port model; it costs about as much as the solve itself,
// so replaying every outcome would double the run.
const replayEvery = 8

// checkSweepPass verifies every outcome outside the timed region, with
// `workers` checkers. Every scheme must pass check.Verify against its
// device's capacity as budget (feasibility by the checker's own
// geometry, and activation semantics), and its reported Total and
// Worst must match the cost of the scheme it returned. The seeded
// sample also gets the device replay. It returns the summed frames of
// the verified proposed schemes and their mean share of the modular
// scheme's frames.
func checkSweepPass(designs []*design.Design, p *sweepPass, seed int64, workers int, rep *report) (int64, metric) {
	reasons := make([]string, len(p.outs))
	placed := make([]bool, len(p.outs))
	replay := make([]bool, len(p.outs))
	rng := rand.New(rand.NewSource(seed))
	for i := range replay {
		replay[i] = rng.Intn(replayEvery) == 0
	}
	parallel(len(p.outs), workers, func(i int) {
		reasons[i], placed[i] = verifyOutcome(p.outs[i], p.errs[i], replay[i])
	})
	var frames, unplaceable int64
	q := &quality{}
	for i, reason := range reasons {
		rep.ops.op(reason)
		if reason == "" {
			frames += int64(p.outs[i].Proposed.Total)
			q.add(designs[i], p.outs[i].Proposed.Total)
		}
		if !placed[i] {
			unplaceable++
		}
	}
	rep.counts["check.unplaceable_in_replay"] = unplaceable
	return frames, q.metric()
}

// checkSameOutcomes checks a repeated pass against the verified first
// pass: the engine is deterministic, so every design must come back
// with the same device, costs and scheme.
func checkSameOutcomes(first, p *sweepPass, rep *report) {
	for i, out := range p.outs {
		want := first.outs[i]
		switch {
		case p.errs[i] != nil || out == nil || out.ProposedScheme == nil:
			rep.ops.op("evaluate error")
		case want == nil || want.ProposedScheme == nil:
			rep.ops.op("first pass failed")
		case out.ProposedDev != want.ProposedDev || out.Proposed != want.Proposed ||
			check.Fingerprint(out.ProposedScheme) != check.Fingerprint(want.ProposedScheme):
			rep.ops.op("outcome differs from the first pass")
		default:
			rep.ops.op("")
		}
	}
}

// verifyOutcome checks one sweep outcome; reason is "" when it passes.
//
// With replay set the checker also gets the device, floorplans the
// scheme and replays its cost frame by frame. The §V sweep chooses a
// device by resource count alone and claims no placement, and a few
// schemes per hundred fit by count but place on no catalog device:
// placed is false for those, the run prints how many, and the cost
// comparison stands in for the replay. Every other finding fails the op.
func verifyOutcome(out *experiments.Outcome, err error, replay bool) (reason string, placed bool) {
	if err != nil || out == nil || out.ProposedScheme == nil {
		return "evaluate error", true
	}
	dev, err := device.ByName(out.ProposedDev)
	if err != nil {
		return "unknown device", true
	}
	s, total, worst := out.ProposedScheme, out.Proposed.Total, out.Proposed.Worst
	if _, sum := cost.Evaluate(s); sum.Total != total || sum.Worst != worst {
		return "reported cost differs from the scheme's", true
	}
	sub := check.Subject{Scheme: s, Budget: dev.Capacity, Total: total, Worst: worst}
	if replay {
		sub.Device = dev
	}
	placed = true
	for _, v := range check.Verify(sub).Violations {
		if v.Rule != "cost.floorplan" {
			return "check.Verify: " + v.String(), placed
		}
		placed = false
	}
	return "", placed
}

// sweepWorkers is how many designs the sweep evaluates at a time. The
// host has two CPUs; with a design on each, the CPU time per design
// swung by 12% from pass to pass, against 4% with one (the two virtual
// CPUs contend for one core's caches or memory, and not always equally).
const sweepWorkers = 1

// sweepChunks is how many chunks the sweep corpus is dealt into, and
// minChunks how many a run makes at least. Each chunk is preceded by a
// set-up, so set-up samples are spread over the run and average the
// same drift as the timed work.
const (
	sweepChunks = 5
	minChunks   = 3
)

func runSweep(cfg config) (*report, error) {
	rep := newReport()
	chunks := dealChunks(stratifiedCorpus(subSeed(cfg.Seed, seedSweep), cfg.Seconds*sweepDesignsPerSecond), sweepChunks, cfg.Seed)
	if cfg.Trace {
		chunks = chunks[:tracedRounds]
	}
	var ps []*sweepPass
	var setups, rss []float64
	start := time.Now()
	for k, chunk := range chunks {
		if timeUp(cfg, k, minChunks, start) {
			break
		}
		d, err := setupCPU(warmUp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		ps = append(ps, runSweepPass(chunk, sweepWorkers, nil, nil))
		mb, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	var frames int64
	var n int
	var cpu, elapsed time.Duration
	var lat []float64
	for k, p := range ps {
		f, _ := checkSweepPass(chunks[k], p, cfg.Seed+int64(k), cfg.Workers, rep)
		frames += f
		n += len(chunks[k])
		cpu += p.cpu
		elapsed += p.elapsed
		lat = append(lat, p.lat...)
		fmt.Printf("# chunk %d: %d designs, %.2f designs/s, %.2f CPU ms per design, set-up %.3f CPU s\n",
			k, len(chunks[k]), float64(len(chunks[k]))/p.elapsed.Seconds(), ms(p.cpu)/float64(len(chunks[k])), setups[k])
	}
	rep.counts["frames_total"] = frames
	// Quality is taken over the fixed corpus, evaluated the same way
	// after the timed chunks.
	fixed := fixedCorpus()
	_, quality := checkSweepPass(fixed, runSweepPass(fixed, cfg.Workers, nil, nil), cfg.Seed, cfg.Workers, rep)
	rep.e2e["setup_s"] = metric{median(setups), fmt.Sprintf("process CPU, median of %d set-ups, one before each chunk, of %d case-study evaluations", len(setups), setupRepeats)}
	rep.e2e["cpu_ms_per_op"] = metric{ms(cpu) / float64(n), fmt.Sprintf("process CPU per design over %d designs in %d chunks, %d worker", n, len(ps), sweepWorkers)}
	rep.e2e["peak_rss_mb"] = metric{median(rss), "peak RSS (VmHWM) of each chunk, median of chunks"}
	rep.e2e["frames_vs_modular"] = quality
	if !cfg.Trace {
		return rep, nil
	}

	L := rep.layers
	L["run.throughput_per_s"] = metric{float64(n) / elapsed.Seconds(), fmt.Sprintf("designs per wall second over %d untraced chunks, %d worker", len(ps), sweepWorkers)}
	rep.setPct(L, "experiments.evaluate_p50_ms", lat, 0.5)
	rep.setPct(L, "experiments.evaluate_p90_ms", lat, 0.9)

	// Traced pass: the first chunk again, with spans and the program's
	// obs.
	designs := chunks[0]
	tr, o := newTracer(), obs.New()
	traced := runSweepPass(designs, sweepWorkers, tr, o)
	checkSameOutcomes(ps[0], traced, rep)
	probeClusterPhase(designs, traced.attempts, sweepWorkers, tr, rep)
	dn := float64(len(designs))
	spans := tr.snapshot()
	if err := writeSpans(spanPath(cfg, "sweep"), spans); err != nil {
		return nil, err
	}
	lt := summarize(spans)
	spanMS := func(name string) float64 { return ms(lt.Total[name]) / dn }
	snap := o.Snapshot()
	for _, name := range []string{"connmat.new", "basepart.partitions", "cover.order", "cover.sets"} {
		L[name+"_ms"] = metric{spanMS(name), fmt.Sprintf("per design, %d calls", lt.Count[name])}
	}
	L["partition.cluster_ms"] = metric{ms(snap.Timers["partition.phase.cluster"].Total) / dn, "per design, program timer partition.phase.cluster"}
	L["partition.search_ms"] = metric{ms(snap.Timers["partition.phase.search"].Total) / dn, "per design, program timer partition.phase.search"}
	L["partition.solve_ms"] = metric{spanMS("partition.solve"), fmt.Sprintf("per design, %d solve calls", lt.Count["partition.solve"])}
	L["experiments.evaluate_ms"] = metric{spanMS("experiments.evaluate"), "per design"}
	L["experiments.evaluate_self_ms"] = metric{ms(lt.Self["experiments.evaluate"]) / dn, "per design, evaluate minus its solve spans"}
	c := snap.Counters
	for _, k := range []string{"partition.candidate_sets", "partition.moves_evaluated", "partition.states"} {
		rep.counts[k] = c[k]
		L[k] = metric{float64(c[k]), "whole corpus"}
	}
	L["basepart.partitions"] = metric{float64(rep.counts["basepart.partitions"]), "whole corpus, all solve attempts"}
	L["cover.sets_built"] = metric{float64(rep.counts["cover.sets_built"]), "whole corpus, all solve attempts"}
	L["cover.sets_used_ratio"] = metric{ratio(c["partition.candidate_sets"], rep.counts["cover.sets_built"]), "candidate sets searched / built"}
	L["partition.delta_cache_hit_ratio"] = metric{ratio(c["partition.delta_cache_hits"], c["partition.delta_cache_hits"]+c["partition.delta_cache_misses"]), "hits / lookups"}
	L["experiments.solves_per_design"] = metric{float64(lt.Count["partition.solve"]) / dn, "device-escalation attempts"}
	L["trace.overhead_share"] = metric{overhead(ps[0].elapsed.Seconds(), traced.elapsed.Seconds()), "traced pass time / the same chunk untraced - 1"}

	sum := L["connmat.new_ms"].Value + L["basepart.partitions_ms"].Value + L["cover.order_ms"].Value +
		L["cover.sets_ms"].Value + L["partition.search_ms"].Value
	fmt.Printf("# accounting: connmat+basepart+cover+search = %.3f ms/design, partition.solve = %.3f ms/design (%.1f%%)\n",
		sum, L["partition.solve_ms"].Value, 100*sum/L["partition.solve_ms"].Value)
	return rep, nil
}

// probeClusterPhase times the cluster phase layer by layer: for every
// solve attempt the traced pass made on a design, it calls connmat.New,
// basepart.BasePartitions, cover.Order and cover.Sets on that design,
// each call a span under one probe root. It runs after the traced pass
// with the same parallelism, so it splits the program's single
// partition.phase.cluster timer without adding to the pass's time.
func probeClusterPhase(designs []*design.Design, attempts []int, workers int, tr *tracer, rep *report) {
	var parts, sets, failed atomic.Int64
	parallel(len(designs), workers, func(i int) {
		op := int64(i + 1)
		for a := 0; a < attempts[i]; a++ {
			root, endRoot := tr.begin("cluster.probe", 0, op)
			_, end := tr.begin("connmat.new", root, op)
			m := connmat.New(designs[i])
			end()
			_, end = tr.begin("basepart.partitions", root, op)
			bp, err := basepart.BasePartitions(m)
			end()
			if err != nil {
				failed.Add(1)
				endRoot()
				continue
			}
			_, end = tr.begin("cover.order", root, op)
			ordered := cover.Order(bp)
			end()
			_, end = tr.begin("cover.sets", root, op)
			cs := cover.Sets(ordered, m)
			end()
			endRoot()
			parts.Add(int64(len(bp)))
			sets.Add(int64(len(cs)))
		}
	})
	if f := failed.Load(); f > 0 {
		rep.problem("basepart.BasePartitions failed on %d probe calls", f)
	}
	rep.counts["basepart.partitions"] = parts.Load()
	rep.counts["cover.sets_built"] = sets.Load()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overhead is the traced pass's extra time as a share of the untraced
// pass's, both in seconds.
func overhead(plain, traced float64) float64 {
	if plain <= 0 {
		return 0
	}
	return traced/plain - 1
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config, workload string) string {
	return fmt.Sprintf("%s/spans/%s-seed%d-s%d.jsonl", cfg.OutDir, workload, cfg.Seed, cfg.Seconds)
}
