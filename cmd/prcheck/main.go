// Command prcheck verifies partitioning results with the independent
// oracle in internal/check: feasibility, semantic validity and cost are
// re-derived from first principles (the cost by replaying every
// configuration transition through the icap frame model) and compared
// against what the solver reported.
//
// Usage:
//
//	prcheck -in design.json [-device FX70T] [-budget clb,bram,dsp]
//	    solve the design through the full flow and verify the result
//
//	prcheck -soak -seed 1 -n 200 [-artifacts DIR]
//	    generate synthetic designs, solve each, verify, run the
//	    metamorphic relations and the differential pass against the
//	    exact solver on small instances; write failing designs to DIR
//
// Output for a fixed seed is deterministic. Exit status 1 means at
// least one violation was found.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prpart/internal/check"
	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/exact"
	"prpart/internal/partition"
	"prpart/internal/spec"
	"prpart/internal/synthetic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prcheck", flag.ContinueOnError)
	in := fs.String("in", "", "design description to solve and verify (.xml or .json)")
	dev := fs.String("device", "", "target device (empty: smallest feasible)")
	budget := fs.String("budget", "", "resource budget as clb,bram,dsp (empty: device capacity)")
	soak := fs.Bool("soak", false, "seeded soak: generate, solve, verify, metamorph")
	seed := fs.Int64("seed", 1, "soak generator seed")
	n := fs.Int("n", 100, "soak iteration count")
	artifacts := fs.String("artifacts", "", "directory for failing-design JSON (soak mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *soak:
		return runSoak(out, *seed, *n, *artifacts)
	case *in != "":
		return runOne(out, *in, *dev, *budget)
	}
	fs.Usage()
	return errors.New("need -in or -soak")
}

// runOne solves a single design through the full flow and verifies the
// complete result, back-end artifacts included.
func runOne(out io.Writer, path, dev, budget string) error {
	d, con, err := spec.Load(path)
	if err != nil {
		return err
	}
	opts := core.Options{Device: con.Device, Budget: con.Budget, ClockMHz: con.ClockMHz}
	if dev != "" {
		opts.Device = dev
	}
	if budget != "" {
		if opts.Budget, err = spec.ParseBudget(budget); err != nil {
			return err
		}
	}
	res, err := core.Run(d, opts)
	if err != nil {
		return err
	}
	rep := check.Verify(subjectOf(res))
	fmt.Fprintln(out, rep)
	if rep.Replayed {
		fmt.Fprintf(out, "replayed: total=%d worst=%d frames\n", rep.ReplayedTotal, rep.ReplayedWorst)
	}
	if !rep.OK() {
		return fmt.Errorf("%d violation(s)", len(rep.Violations))
	}
	return nil
}

// runSoak is the generate→solve→check→metamorph loop.
func runSoak(out io.Writer, seed int64, n int, artifacts string) error {
	designs := synthetic.Generate(seed, n)
	solved, skipped, metamorphed, differential := 0, 0, 0, 0
	var failures int
	for i, d := range designs {
		res, err := core.Run(d, core.Options{})
		if err != nil {
			// Synthetic designs can exceed every catalog device; that is
			// the generator's business, not a solver defect.
			skipped++
			continue
		}
		solved++
		var vs []check.Violation
		vs = append(vs, check.Verify(subjectOf(res)).Violations...)
		frames := check.RegionFrames(res.Scheme)
		for r := range res.Scheme.Active {
			vs = append(vs, check.DuplicateRowInvariance(res.Scheme, frames, r)...)
		}
		// The metamorphic relations re-solve the design several times;
		// run them on a deterministic subsample to keep the soak fast.
		if i%metamorphEvery == 0 {
			metamorphed++
			vs = append(vs, runMetamorph(d, res, seed+int64(i))...)
		}
		if len(d.Configurations) <= exact.ExactLimit {
			differential++
			vs = append(vs, runDifferential(d, res)...)
		}
		if len(vs) > 0 {
			failures++
			fmt.Fprintf(out, "FAIL %s:\n", d.Name)
			for _, v := range vs {
				fmt.Fprintf(out, "  %s\n", v)
			}
			if artifacts != "" {
				if err := dumpDesign(artifacts, d); err != nil {
					return err
				}
			}
		}
	}
	fmt.Fprintf(out, "soak: seed=%d n=%d solved=%d skipped=%d metamorphed=%d differential=%d failing=%d\n",
		seed, n, solved, skipped, metamorphed, differential, failures)
	if failures > 0 {
		return fmt.Errorf("%d design(s) failed verification", failures)
	}
	return nil
}

// metamorphEvery subsamples the metamorphic relations: each one costs
// several extra full solves per design.
const metamorphEvery = 5

// runMetamorph wires the injected solver for the metamorphic relations:
// transformed designs are re-solved on the same device and budget as the
// base result (backend skipped — the relations compare cost and scheme
// shape, and the oracle already verified the base artifacts).
func runMetamorph(d *design.Design, res *core.Result, seed int64) []check.Violation {
	solve := func(td *design.Design) (*check.Outcome, error) {
		r, err := core.Run(td, core.Options{Device: res.Device.Name, Budget: res.Budget, SkipBackend: true})
		if err != nil {
			return nil, err
		}
		return &check.Outcome{Scheme: r.Scheme, Total: r.Summary.Total, Worst: r.Summary.Worst}, nil
	}
	base := &check.Outcome{Scheme: res.Scheme, Total: res.Summary.Total, Worst: res.Summary.Worst}
	vs := check.Metamorph(d, base, solve, seed)
	// Budget upgrade: doubling the cap must not make the result worse.
	up, err := core.Run(d, core.Options{Device: res.Device.Name, Budget: res.Budget.Scale(2), SkipBackend: true})
	if err != nil {
		vs = append(vs, check.Violation{Rule: "meta.upgrade-budget",
			Detail: fmt.Sprintf("doubled budget failed to solve: %v", err)})
	} else {
		vs = append(vs, check.UpgradeBudget(base,
			&check.Outcome{Scheme: up.Scheme, Total: up.Summary.Total, Worst: up.Summary.Worst})...)
	}
	return vs
}

// runDifferential compares the greedy descent restricted to the first
// candidate set against the exact solver on the same set: the exact
// optimum is a lower bound the heuristic must never beat (beating it
// means the two disagree about cost or feasibility).
func runDifferential(d *design.Design, res *core.Result) []check.Violation {
	ex, err := exact.Solve(d, exact.Options{Budget: res.Budget})
	if errors.Is(err, exact.ErrTooLarge) {
		return nil
	}
	greedy, gerr := partition.Solve(d, partition.Options{Budget: res.Budget, MaxCandidateSets: 1})
	if err != nil {
		if gerr == nil {
			return []check.Violation{{Rule: "diff.exact", Detail: fmt.Sprintf(
				"exact solver failed (%v) on an instance the restricted greedy solves", err)}}
		}
		return nil
	}
	var vs []check.Violation
	if rep := check.Verify(check.Subject{
		Scheme: ex.Scheme, Device: res.Device, Budget: res.Budget,
		Total: ex.Summary.Total, Worst: ex.Summary.Worst,
	}); !rep.OK() {
		for _, v := range rep.Violations {
			// The exact solver optimises over the resource model only; it
			// has no floorplan feedback, so a budget-feasible scheme that
			// cannot be placed on this particular device is outside its
			// contract and not a finding.
			if v.Rule == "cost.floorplan" {
				continue
			}
			vs = append(vs, check.Violation{Rule: "diff." + v.Rule, Detail: "exact scheme: " + v.Detail})
		}
	}
	if gerr != nil {
		return append(vs, check.Violation{Rule: "diff.greedy", Detail: fmt.Sprintf(
			"restricted greedy failed (%v) on an instance the exact solver finds feasible", gerr)})
	}
	if greedy.Summary.Total < ex.Summary.Total {
		vs = append(vs, check.Violation{Rule: "diff.bound", Detail: fmt.Sprintf(
			"restricted greedy reports %d total frames, below the exact optimum %d over the same candidate set",
			greedy.Summary.Total, ex.Summary.Total)})
	}
	return vs
}

// subjectOf converts a flow result into the oracle's subject.
func subjectOf(res *core.Result) check.Subject {
	return check.Subject{
		Scheme:     res.Scheme,
		Device:     res.Device,
		Budget:     res.Budget,
		Total:      res.Summary.Total,
		Worst:      res.Summary.Worst,
		Plan:       res.Plan,
		Wrappers:   res.Wrappers,
		Bitstreams: res.Bitstreams,
		UCF:        res.UCF,
	}
}

func dumpDesign(dir string, d *design.Design) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, d.Name+".json"))
	if err != nil {
		return err
	}
	if err := design.EncodeJSON(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
