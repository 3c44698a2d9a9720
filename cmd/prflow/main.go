// Command prflow runs the complete automated tool flow of the paper's
// Fig. 2 — partitioning, wrapper generation, floorplanning, UCF
// generation and partial-bitstream assembly — and writes every artefact
// into an output directory:
//
//	prflow -in design.xml -out build/ [-device FX70T] [-budget clb,bram,dsp]
//
// The output directory receives report.txt, design.ucf, floorplan.txt,
// Graphviz views of the co-occurrence graph and the chosen partitioning,
// one Verilog file per wrapper/black-box, and one .bit file per partial
// bitstream.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"prpart/internal/core"
	"prpart/internal/spec"
	"prpart/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prflow:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prflow", flag.ContinueOnError)
	in := fs.String("in", "", "design description (.xml or .json)")
	outDir := fs.String("out", "", "output directory")
	dev := fs.String("device", "", "target device (empty: smallest feasible)")
	budget := fs.String("budget", "", "resource budget as clb,bram,dsp")
	clock := fs.Float64("clock", 100, "clock constraint in MHz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outDir == "" {
		fs.Usage()
		return fmt.Errorf("missing -in or -out")
	}
	d, con, err := spec.Load(*in)
	if err != nil {
		return err
	}
	opts := core.Options{Device: con.Device, Budget: con.Budget, ClockMHz: *clock}
	if con.ClockMHz != 0 {
		opts.ClockMHz = con.ClockMHz
	}
	if *dev != "" {
		opts.Device = *dev
	}
	if *budget != "" {
		if opts.Budget, err = spec.ParseBudget(*budget); err != nil {
			return err
		}
	}
	res, err := core.Run(d, opts)
	if err != nil {
		return err
	}
	return write(*outDir, res)
}

func write(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	put := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	if err := put("report.txt", res.Report()); err != nil {
		return err
	}
	if err := put("design.ucf", res.UCF); err != nil {
		return err
	}
	if err := put("floorplan.txt", res.Plan.String()); err != nil {
		return err
	}
	if err := put("connectivity.dot", viz.ConnectivityDOT(res.Design)); err != nil {
		return err
	}
	if err := put("partitioning.dot", viz.SchemeDOT(res.Scheme)); err != nil {
		return err
	}
	if err := put("activation.dot", viz.ActivationDOT(res.Scheme)); err != nil {
		return err
	}
	for name, src := range res.Wrappers.Verilog() {
		if err := put(name+".v", src); err != nil {
			return err
		}
	}
	for _, region := range res.Bitstreams.PerRegion {
		for _, bs := range region {
			buf := make([]byte, 4*len(bs.Words))
			for i, w := range bs.Words {
				binary.BigEndian.PutUint32(buf[4*i:], w)
			}
			if err := os.WriteFile(filepath.Join(dir, bs.Name), buf, 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("prflow: wrote %d bitstreams and %d wrapper files to %s\n",
		res.Bitstreams.Total(), len(res.Wrappers.Verilog()), dir)
	return nil
}
