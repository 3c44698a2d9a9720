// Package core orchestrates the complete automated PR tool flow of the
// paper's Fig. 2: resource estimation in, then partitioning (the paper's
// contribution), wrapper generation, floorplanning, constraint
// generation and partial-bitstream assembly. It is the high-level entry
// point the command-line tools and examples use.
//
// The floorplanner feedback the paper describes as future work (§VI) is
// implemented here: when a scheme that fits on paper cannot be
// floorplanned, Run escalates to the next larger device (or reports the
// failure when the device was pinned).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"prpart/internal/adaptive"
	"prpart/internal/bitstream"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/multilevel"
	"prpart/internal/partition"
	"prpart/internal/resource"
	"prpart/internal/scheme"
	"prpart/internal/ucf"
	"prpart/internal/wrapper"
)

// Options configures a flow run. The zero value selects the smallest
// feasible device automatically and runs the full algorithm.
type Options struct {
	// Device pins the target FPGA by name ("FX70T" or "XC5VFX70T").
	// Empty means: try catalog devices smallest-first.
	Device string
	// Budget caps the resources the PR design may use. Zero means the
	// full device capacity.
	Budget resource.Vector
	// ClockMHz is the timing constraint written into the UCF.
	ClockMHz float64
	// Library overrides the built-in device catalog (see
	// device.LoadLibrary); the named Device, or the smallest-first
	// candidate order, is resolved against it.
	Library []*device.Device
	// Partition tunes the search (Budget inside it is overwritten).
	Partition partition.Options
	// Multilevel routes partitioning through the coarsen–partition–refine
	// engine (internal/multilevel) instead of calling the search engine
	// directly — the scale path for designs far beyond the direct
	// engine's enumeration limits. Designs at or under the threshold
	// still delegate to the standard engine, byte for byte.
	Multilevel bool
	// MultilevelSeed drives the coarsening tie-breaks (default 0).
	MultilevelSeed int64
	// MultilevelThreshold overrides the delegation cutoff in modes
	// (default multilevel.DefaultThreshold).
	MultilevelThreshold int
	// SkipBackend stops after partitioning (no floorplan, wrappers or
	// bitstreams) — what the evaluation sweeps use.
	SkipBackend bool
}

// Result is the complete flow output.
type Result struct {
	Design *design.Design
	Device *device.Device
	Budget resource.Vector

	// Scheme is the proposed partitioning with its metrics.
	Scheme  *scheme.Scheme
	Summary cost.Summary
	// Search carries statistics from the partitioning search.
	Search *partition.Result

	// Baselines holds the metrics of the comparison schemes.
	Baselines map[string]cost.Summary

	// Back-end artefacts (nil when SkipBackend).
	Plan       *floorplan.Plan
	Wrappers   *wrapper.Set
	Bitstreams *bitstream.Set
	UCF        string
}

// Run executes the flow for a design.
func Run(d *design.Design, opts Options) (*Result, error) {
	return RunContext(context.Background(), d, opts)
}

// RunContext is Run with cancellation: the context is passed down into
// the partitioning search (see partition.SolveContext) and additionally
// checked between device-escalation attempts, so a cancelled request
// stops before trying the next larger device.
func RunContext(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid design: %w", err)
	}
	var candidates []*device.Device
	switch {
	case opts.Device != "" && opts.Library != nil:
		found := false
		for _, dev := range opts.Library {
			if dev.Name == opts.Device {
				candidates = []*device.Device{dev}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: device %q not in the supplied library", opts.Device)
		}
	case opts.Device != "":
		dev, err := device.ByName(opts.Device)
		if err != nil {
			return nil, err
		}
		candidates = []*device.Device{dev}
	case opts.Library != nil:
		candidates = opts.Library
	default:
		candidates = device.Catalog()
	}

	var lastErr error
	for _, dev := range candidates {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("core: cancelled: %w", err)
			}
			break
		}
		budget := opts.Budget
		if budget.IsZero() {
			budget = dev.Capacity
		}
		popts := opts.Partition
		popts.Budget = budget
		res, err := solve(ctx, d, popts, opts)
		if err != nil {
			lastErr = fmt.Errorf("core: %s: %w", dev.Name, err)
			continue
		}
		out := &Result{
			Design:  d,
			Device:  dev,
			Budget:  budget,
			Scheme:  res.Scheme,
			Summary: res.Summary,
			Search:  res,
		}
		out.Baselines = map[string]cost.Summary{}
		for _, base := range []*scheme.Scheme{
			partition.Modular(d), partition.SingleRegion(d), partition.FullyStatic(d),
		} {
			_, sum := cost.Evaluate(base)
			out.Baselines[base.Name] = sum
		}
		if opts.SkipBackend {
			return out, nil
		}
		if err := out.backend(opts); err != nil {
			// Floorplan feedback: try the next device when free to.
			lastErr = fmt.Errorf("core: %s: %w", dev.Name, err)
			continue
		}
		return out, nil
	}
	if lastErr == nil {
		lastErr = errors.New("core: no candidate devices")
	}
	return nil, lastErr
}

// solve dispatches partitioning to the engine the options select: the
// direct search engine, or the multilevel coarsen–partition–refine
// chain when opts.Multilevel is set.
func solve(ctx context.Context, d *design.Design, popts partition.Options, opts Options) (*partition.Result, error) {
	if !opts.Multilevel {
		return partition.SolveContext(ctx, d, popts)
	}
	mres, err := multilevel.SolveContext(ctx, d, multilevel.Options{
		Partition: popts,
		Seed:      opts.MultilevelSeed,
		Threshold: opts.MultilevelThreshold,
	})
	if err != nil {
		return nil, err
	}
	return mres.Partition, nil
}

// backend runs floorplanning, wrapper generation, UCF generation and
// bitstream assembly for an already partitioned result.
func (r *Result) backend(opts Options) error {
	plan, err := floorplan.Place(r.Scheme, r.Device)
	if err != nil {
		return err
	}
	r.Plan = plan
	wraps, err := wrapper.Generate(r.Scheme)
	if err != nil {
		return err
	}
	r.Wrappers = wraps
	var b strings.Builder
	err = ucf.Generate(&b, r.Scheme, plan, ucf.Constraints{
		ClockName: "clk",
		ClockMHz:  opts.ClockMHz,
	})
	if err != nil {
		return err
	}
	r.UCF = b.String()
	bits, err := bitstream.Assemble(r.Scheme, plan)
	if err != nil {
		return err
	}
	r.Bitstreams = bits
	return nil
}

// NewManager builds the runtime configuration manager for the flow's
// scheme and bitstreams. The port may be nil for the default 32-bit
// 100 MHz ICAP.
func (r *Result) NewManager(port *icap.Port) (*adaptive.Manager, error) {
	if r.Bitstreams == nil {
		return nil, errors.New("core: flow ran with SkipBackend; no bitstreams")
	}
	if port == nil {
		port = icap.New(0, 0)
	}
	return adaptive.NewManager(r.Scheme, r.Bitstreams, port)
}

// Report renders a human-readable summary of the run.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %q on %s (budget %v)\n", r.Design.Name, r.Device.Name, r.Budget)
	fmt.Fprintf(&b, "proposed: %d regions, %d static parts, resources %v\n",
		len(r.Scheme.Regions), len(r.Scheme.Static), r.Scheme.TotalResources())
	fmt.Fprintf(&b, "  total reconfiguration: %d frames, worst case: %d frames\n",
		r.Summary.Total, r.Summary.Worst)
	if len(r.Scheme.Static) > 0 {
		labels := make([]string, len(r.Scheme.Static))
		for i, p := range r.Scheme.Static {
			labels[i] = p.Label(r.Design)
		}
		fmt.Fprintf(&b, "  static: %s\n", strings.Join(labels, ", "))
	}
	for i := range r.Scheme.Regions {
		reg := &r.Scheme.Regions[i]
		fmt.Fprintf(&b, "  PRR%d (%d frames): %s\n", i+1, reg.Frames(), reg.Label(r.Design))
	}
	for _, name := range []string{"modular", "single-region", "static"} {
		if sum, ok := r.Baselines[name]; ok {
			fmt.Fprintf(&b, "baseline %-13s total %10d  worst %8d\n", name, sum.Total, sum.Worst)
		}
	}
	if r.Plan != nil {
		fmt.Fprintf(&b, "floorplan utilisation: %.1f%%\n", 100*r.Plan.Utilisation())
	}
	if r.Bitstreams != nil {
		total := 0
		for _, region := range r.Bitstreams.PerRegion {
			for _, bs := range region {
				total += bs.Bytes()
			}
		}
		fmt.Fprintf(&b, "partial bitstreams: %d files, %d bytes total\n",
			r.Bitstreams.Total(), total)
	}
	return b.String()
}
