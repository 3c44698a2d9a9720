// Package e2e_test drives the complete pipeline — partitioning,
// floorplanning, constraint and bitstream generation, and the simulated
// runtime — over a corpus of synthetic designs, checking the invariants
// that tie the modules together. These are the integration tests of the
// repository; per-module behaviour lives in each package's own tests.
package e2e_test

import (
	"strings"
	"testing"
	"time"

	"prpart/internal/adaptive"
	"prpart/internal/bitstream"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/partition"
	"prpart/internal/scheme"
	"prpart/internal/synthetic"
	"prpart/internal/ucf"
	"prpart/internal/wrapper"
)

// pipeline runs everything after partitioning for a scheme on a device
// and returns the bitstream set.
func pipeline(t *testing.T, s *scheme.Scheme, dev *device.Device) *bitstream.Set {
	t.Helper()
	plan, err := floorplan.Place(s, dev)
	if err != nil {
		t.Fatalf("floorplan: %v", err)
	}
	if err := plan.Validate(s); err != nil {
		t.Fatalf("floorplan validate: %v", err)
	}
	var u strings.Builder
	if err := ucf.Generate(&u, s, plan, ucf.Constraints{ClockName: "clk", ClockMHz: 100}); err != nil {
		t.Fatalf("ucf: %v", err)
	}
	ws, err := wrapper.Generate(s)
	if err != nil {
		t.Fatalf("wrapper: %v", err)
	}
	if _, err := ws.Netlist(); err != nil {
		t.Fatalf("wrapper netlist: %v", err)
	}
	bits, err := bitstream.Assemble(s, plan)
	if err != nil {
		t.Fatalf("bitstream: %v", err)
	}
	return bits
}

func TestFullPipelineOverSyntheticCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	designs := synthetic.Generate(31, 30)
	solved := 0
	for _, d := range designs {
		// Fit the design the way the evaluation flow does.
		single := partition.SingleRegion(d)
		dev, err := smallest(single)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var res *partition.Result
		for {
			res, err = partition.Solve(d, partition.Options{Budget: dev.Capacity})
			if err == nil {
				break
			}
			if dev, err = device.NextLarger(dev); err != nil {
				res = nil
				break
			}
		}
		if res == nil {
			continue // no multi-region scheme on any device: covered elsewhere
		}
		solved++

		// Invariant: the scheme validates, fits, and its cost model is
		// internally consistent.
		if err := res.Scheme.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !res.Scheme.FitsIn(dev.Capacity) {
			t.Fatalf("%s: scheme exceeds %s", d.Name, dev.Name)
		}
		m, sum := cost.Evaluate(res.Scheme)
		if sum.Total != res.Summary.Total {
			t.Fatalf("%s: summary total %d != re-evaluated %d", d.Name, res.Summary.Total, sum.Total)
		}
		_, ss := cost.Evaluate(partition.SingleRegion(d))
		if sum.Total > ss.Total {
			t.Errorf("%s: proposed %d worse than single-region %d", d.Name, sum.Total, ss.Total)
		}

		// Back-end: floorplan, constraints, wrappers, bitstreams. The
		// floorplan may legitimately fail on a tightly packed device;
		// retry on the next larger one like the core flow does.
		bits := (*bitstream.Set)(nil)
		for fpDev := dev; ; {
			plan, err := floorplan.Place(res.Scheme, fpDev)
			if err == nil {
				if err := plan.Validate(res.Scheme); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				bits, err = bitstream.Assemble(res.Scheme, plan)
				if err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				break
			}
			if fpDev, err = device.NextLarger(fpDev); err != nil {
				break
			}
		}
		if bits == nil {
			continue
		}

		// Runtime: replay a random walk; realised frame counts must never
		// undercut the pairwise cost model, and must match it exactly on
		// always-active transitions.
		mgr, err := adaptive.NewManager(res.Scheme, bits, icap.New(32, 100_000_000))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		events := adaptive.RandomWalkEvents(int64(solved), 60, time.Millisecond)
		policy := adaptive.ThresholdPolicy(len(d.Configurations))
		prev := -1
		for _, ev := range events {
			target := policy(ev)
			if target == mgr.Current() {
				continue
			}
			before := mgr.Stats().Frames
			if _, err := mgr.SwitchTo(target); err != nil {
				t.Fatalf("%s: switch: %v", d.Name, err)
			}
			realised := mgr.Stats().Frames - before
			if prev >= 0 {
				if want := m[prev][target]; realised < want {
					t.Errorf("%s: transition %d->%d realised %d < predicted %d",
						d.Name, prev, target, realised, want)
				}
				if realised > 0 && m[prev][target] == 0 && allActive(res.Scheme, prev, target) {
					t.Errorf("%s: cost model says free but %d frames moved", d.Name, realised)
				}
			}
			prev = target
		}
	}
	if solved < 20 {
		t.Fatalf("only %d/30 designs completed the pipeline", solved)
	}
}

// allActive reports whether every region is active in both configs.
func allActive(s *scheme.Scheme, a, b int) bool {
	for ri := range s.Regions {
		if s.Active[a][ri] == scheme.Inactive || s.Active[b][ri] == scheme.Inactive {
			return false
		}
	}
	return true
}

func smallest(s *scheme.Scheme) (*device.Device, error) {
	return device.Smallest(s.TotalResources())
}

func TestCaseStudyPipelineAllSchemes(t *testing.T) {
	d := design.VideoReceiver()
	dev, err := device.ByName("FX70T")
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*scheme.Scheme{
		res.Scheme, partition.Modular(d), partition.SingleRegion(d),
	} {
		bits := pipeline(t, s, dev)
		if bits.Total() == 0 {
			t.Errorf("%s: no bitstreams", s.Name)
		}
	}
}

func TestBitstreamSizesAgreeWithCostModel(t *testing.T) {
	// The frames written by a transition (sum of reloaded bitstream
	// frame counts) must equal the cost matrix entry for always-active
	// schemes — the chain design->cost->bitstream->icap is consistent.
	d := design.VideoReceiver()
	dev, _ := device.ByName("FX70T")
	s := partition.Modular(d)
	bits := pipeline(t, s, dev)
	m := cost.Transitions(s)
	mgr, err := adaptive.NewManager(s, bits, icap.New(32, 100_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	cur := 0
	for next := 1; next < len(d.Configurations); next++ {
		before := mgr.Stats().Frames
		if _, err := mgr.SwitchTo(next); err != nil {
			t.Fatal(err)
		}
		if got := mgr.Stats().Frames - before; got != m[cur][next] {
			t.Errorf("transition %d->%d: %d frames via bitstreams, %d in cost model",
				cur, next, got, m[cur][next])
		}
		cur = next
	}
}
