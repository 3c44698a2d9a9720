// Command prpart runs the automated partitioning algorithm on a PR design
// description and reports the proposed region allocation next to the
// conventional schemes.
//
// Usage:
//
//	prpart -in design.xml [-device FX70T] [-budget clb,bram,dsp]
//	       [-no-static] [-greedy] [-json]
//
// The input is the tool flow's XML design description (see internal/spec)
// or the JSON schema (see internal/design) selected by file extension.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prpart/internal/check"
	"prpart/internal/core"
	"prpart/internal/device"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prpart:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("prpart", flag.ContinueOnError)
	in := fs.String("in", "", "design description (.xml or .json)")
	dev := fs.String("device", "", "target device (empty: smallest feasible)")
	budget := fs.String("budget", "", "resource budget as clb,bram,dsp (empty: device capacity)")
	noStatic := fs.Bool("no-static", false, "disable static promotion (ablation A1)")
	greedy := fs.Bool("greedy", false, "single greedy descent (ablation A2)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of the report")
	devices := fs.String("devices", "", "custom device library (JSON, see internal/device.LoadLibrary)")
	pin := fs.String("pin", "", "comma-separated Module.Mode names to pin into static logic")
	explain := fs.Bool("explain", false, "print the search moves that produced the scheme")
	doCheck := fs.Bool("check", false, "verify the result with the independent oracle (internal/check)")
	keyOnly := fs.Bool("key", false, "print the content-addressed solve key (as prpartd computes it) and exit")
	multilevel := fs.Bool("multilevel", false, "solve through the coarsen-partition-refine engine (for very large designs)")
	mlSeed := fs.Int64("ml-seed", 0, "multilevel coarsening seed")
	mlThreshold := fs.Int("ml-threshold", 0, "multilevel delegation cutoff in modes (0: engine default)")
	workers := fs.Int("workers", 0, "solve workers: candidate-set search and per-level refine scan (0/1: serial, negative: all CPUs; identical results at any count)")
	ofl := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
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
	// The canonical request: shared with prpartd so the CLI and the
	// daemon derive identical cache keys and result bytes.
	sspec := &serve.SolveSpec{
		Design:              d,
		Device:              con.Device,
		Budget:              con.Budget,
		NoStatic:            *noStatic,
		Greedy:              *greedy,
		Multilevel:          *multilevel,
		MultilevelSeed:      *mlSeed,
		MultilevelThreshold: *mlThreshold,
		Workers:             *workers,
	}
	if !*multilevel && (*mlSeed != 0 || *mlThreshold != 0) {
		return fmt.Errorf("-ml-seed/-ml-threshold require -multilevel")
	}
	if *multilevel && *pin != "" {
		return fmt.Errorf("-multilevel does not support -pin")
	}
	if *dev != "" {
		sspec.Device = *dev
	}
	if *budget != "" {
		v, err := spec.ParseBudget(*budget)
		if err != nil {
			return err
		}
		sspec.Budget = v
	}
	if *pin != "" {
		for _, name := range strings.Split(*pin, ",") {
			r, err := d.FindMode(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			sspec.Pinned = append(sspec.Pinned, r)
		}
	}
	if *keyOnly {
		key, err := sspec.Key()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, key)
		return err
	}
	opts := sspec.CoreOptions(0, o)
	opts.ClockMHz = con.ClockMHz
	if *devices != "" {
		f, err := os.Open(*devices)
		if err != nil {
			return err
		}
		opts.Library, err = device.LoadLibrary(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	res, err := core.Run(d, opts)
	if err != nil {
		return err
	}
	if *doCheck {
		rep := check.Verify(check.Subject{
			Scheme: res.Scheme,
			Device: res.Device,
			Budget: res.Budget,
			Total:  res.Summary.Total,
			Worst:  res.Summary.Worst,
		})
		fmt.Fprintln(out, rep)
		if !rep.OK() {
			return fmt.Errorf("result failed verification with %d violation(s)", len(rep.Violations))
		}
	}
	if *asJSON {
		return serve.WriteResult(out, serve.BuildResult(res, res.Plan))
	}
	if _, err := fmt.Fprint(out, res.Report()); err != nil {
		return err
	}
	if *explain && res.Search != nil {
		fmt.Fprintf(out, "search: %d states over %d candidate sets; moves to the chosen scheme:\n",
			res.Search.States, res.Search.CandidateSets)
		if len(res.Search.Trace) == 0 {
			fmt.Fprintln(out, "  (none: the all-separate start was already optimal)")
		}
		for i, step := range res.Search.Trace {
			fmt.Fprintf(out, "  %2d. %s\n", i+1, step)
		}
	}
	return nil
}
