// Command prsim deploys a partitioned design on the simulated fabric and
// replays an environment workload, reporting realised reconfiguration
// cost per partitioning scheme — the runtime counterpart of prpart:
//
//	prsim -in design.xml -events 2000 [-workload walk|markov] [-seed 7]
//	      [-storage none|ddr2|cf] [-width 32] [-prefetch]
//	      [-fault-rate 1e-5] [-fault-seed 1] [-retries 3] [-scrub]
//
// The proposed scheme is compared against the one-module-per-region and
// single-region baselines on the same event sequence. A nonzero
// -fault-rate turns on deterministic fault injection: loads suffer
// seeded bit flips, truncated transfers, fetch failures and
// configuration upsets, the manager recovers with bounded retries,
// readback scrubbing and a safe-configuration fallback, and a second
// table reports the injected faults and the recovery work per scheme.
// Runs with the same -fault-seed are exactly reproducible.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"prpart/internal/adaptive"
	"prpart/internal/bitstream"
	"prpart/internal/core"
	"prpart/internal/faults"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/report"
	"prpart/internal/scheme"
	"prpart/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("prsim", flag.ContinueOnError)
	in := fs.String("in", "", "design description (.xml or .json)")
	dev := fs.String("device", "", "target device (empty: smallest feasible)")
	events := fs.Int("events", 2000, "workload length")
	seed := fs.Int64("seed", 7, "workload seed")
	workload := fs.String("workload", "walk", "workload model: walk or markov")
	storage := fs.String("storage", "none", "bitstream storage: none, ddr2 or cf")
	width := fs.Int("width", 32, "ICAP width in bits (8, 16 or 32)")
	prefetch := fs.Bool("prefetch", false, "prefetch don't-care regions before each switch")
	faultRate := fs.Float64("fault-rate", 0, "word-error rate for fault injection (0 disables)")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection seed (reproducible per seed)")
	retries := fs.Int("retries", 3, "reload attempts per region before giving up")
	scrub := fs.Bool("scrub", true, "readback-verify loads and scrub on mismatch (fault mode only)")
	ofl := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultRate < 0 {
		return fmt.Errorf("negative -fault-rate %g", *faultRate)
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	o, stopObs, err := ofl.Start(out)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopObs(); serr != nil && err == nil {
			err = serr
		}
	}()
	d, con, err := spec.Load(*in)
	if err != nil {
		return err
	}
	opts := core.Options{
		Device: con.Device, Budget: con.Budget, ClockMHz: con.ClockMHz,
		Partition: partition.Options{Obs: o},
	}
	if *dev != "" {
		opts.Device = *dev
	}
	res, err := core.Run(d, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "design %q on %s; workload: %s, %d events, seed %d\n",
		d.Name, res.Device.Name, *workload, *events, *seed)

	seq, err := sequence(*workload, *seed, *events, len(d.Configurations))
	if err != nil {
		return err
	}

	opt := simOptions{
		width: *width, storage: *storage, prefetch: *prefetch,
		faultRate: *faultRate, faultSeed: *faultSeed,
		retries: *retries, scrub: *scrub, obs: o,
	}
	if opt.faultRate > 0 {
		fmt.Fprintf(out, "fault injection: word-error rate %g, seed %d, %d retries, scrub %v, safe config 0\n",
			opt.faultRate, opt.faultSeed, opt.retries, opt.scrub)
	}

	t := report.NewTable("Realised reconfiguration cost",
		"Scheme", "Switches", "Region loads", "Frames", "Reconfig time", "Prefetch time")
	var faultRows []report.FaultRow
	schemes := []*scheme.Scheme{res.Scheme, partition.Modular(d), partition.SingleRegion(d)}
	for _, s := range schemes {
		rr, err := replay(s, res, opt, seq)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		st := rr.mgr
		t.AddRowf(s.Name, st.Switches, st.RegionLoads, st.Frames,
			st.ReconfigTime.Round(time.Microsecond), st.PrefetchTime.Round(time.Microsecond))
		faultRows = append(faultRows, report.FaultRow{
			Scheme: s.Name, Injected: rr.inj.Total(),
			CRC: rr.port.CRCErrors, Fetch: rr.port.FetchErrors,
			Format: rr.port.FormatErrors + rr.port.RangeErrors, Verify: rr.port.VerifyErrors,
			Retries: st.Retries, Scrubs: st.Scrubs, Fallbacks: st.Fallbacks,
			RetryTime: st.RetryTime, ScrubTime: st.ScrubTime,
		})
	}
	if err := t.Render(out); err != nil {
		return err
	}
	if opt.faultRate > 0 {
		fmt.Fprintln(out)
		return report.FaultRecoveryTable(faultRows...).Render(out)
	}
	return nil
}

// sequence produces the configuration sequence for the chosen workload.
func sequence(model string, seed int64, n, configs int) ([]int, error) {
	switch model {
	case "walk":
		events := adaptive.RandomWalkEvents(seed, n, time.Millisecond)
		policy := adaptive.ThresholdPolicy(configs)
		seq := make([]int, n)
		for i, ev := range events {
			seq[i] = policy(ev)
		}
		return seq, nil
	case "markov":
		// A mildly skewed chain: adjacent configurations are favoured.
		p := make([][]float64, configs)
		for i := range p {
			p[i] = make([]float64, configs)
			sum := 0.0
			for j := range p[i] {
				if i == j {
					continue
				}
				w := 1.0
				if j == (i+1)%configs || (j+1)%configs == i {
					w = 4.0
				}
				p[i][j] = w
				sum += w
			}
			for j := range p[i] {
				p[i][j] /= sum
			}
		}
		return adaptive.MarkovSequence(seed, p, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want walk or markov)", model)
}

// simOptions bundles the runtime knobs of one replay.
type simOptions struct {
	width     int
	storage   string
	prefetch  bool
	faultRate float64
	faultSeed int64
	retries   int
	scrub     bool
	obs       *obs.Obs
}

// replayResult collects the three stat views of one scheme's run.
type replayResult struct {
	mgr  adaptive.Stats
	port icap.Stats
	inj  faults.Stats
}

// replay floorplans a scheme on the flow's device, assembles bitstreams
// and replays the sequence. With a nonzero fault rate it attaches a
// fresh injector seeded with opt.faultSeed — every scheme sees the same
// fault process — and enables the manager's recovery policy with
// configuration 0 as the safe fallback.
func replay(s *scheme.Scheme, res *core.Result, opt simOptions, seq []int) (replayResult, error) {
	plan, err := floorplan.Place(s, res.Device)
	if err != nil {
		return replayResult{}, err
	}
	bits, err := bitstream.Assemble(s, plan)
	if err != nil {
		return replayResult{}, err
	}
	port := icap.New(opt.width, 100_000_000)
	port.AttachObs(opt.obs)
	port.RestrictToPlan(plan)
	switch opt.storage {
	case "none":
	case "ddr2":
		port.AttachStorage(icap.DDR2())
	case "cf":
		port.AttachStorage(icap.CompactFlash())
	default:
		return replayResult{}, fmt.Errorf("unknown storage %q (want none, ddr2 or cf)", opt.storage)
	}
	var inj *faults.Injector
	mgr, err := adaptive.NewManager(s, bits, port)
	if err != nil {
		return replayResult{}, err
	}
	mgr.AttachObs(opt.obs)
	if opt.faultRate > 0 {
		inj = faults.New(opt.faultSeed, faults.Uniform(opt.faultRate))
		port.AttachInjector(inj)
		mgr.SetRecovery(adaptive.Recovery{
			MaxRetries: opt.retries, Scrub: opt.scrub, SafeConfig: 0,
		})
	}
	result := func() replayResult {
		rr := replayResult{mgr: mgr.Stats(), port: port.Stats()}
		if inj != nil {
			rr.inj = inj.Stats()
		}
		return rr
	}
	for i, c := range seq {
		if _, err := mgr.SwitchTo(c); err != nil {
			return result(), err
		}
		if opt.prefetch && i+1 < len(seq) && seq[i+1] != c {
			// An oracle prefetcher: while resident in c, it loads the
			// next configuration's don't-care regions in the background.
			if _, err := mgr.Prefetch(seq[i+1]); err != nil {
				return result(), err
			}
		}
	}
	return result(), nil
}
