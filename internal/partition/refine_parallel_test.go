package partition

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/obs"
	"prpart/internal/synthetic"
)

// refineWarmStart builds a refinement problem with one singleton part
// per used mode, every part its own group, nothing static — exactly the
// finest-level warm start the multilevel chain hands to Refine, built
// without the clustering pipeline so it works at any mode count.
func refineWarmStart(d *design.Design) WarmStart {
	used := d.UsedModes()
	ws := WarmStart{
		Parts:  make([]basepart.BasePartition, len(used)),
		Active: make([][]bool, len(d.Configurations)),
		Groups: make([][]int, len(used)),
	}
	index := map[design.ModeRef]int{}
	for i, r := range used {
		ws.Parts[i] = basepart.BasePartition{Set: modeset.New(r), FreqWeight: 1, Resources: d.ModeResources(r)}
		ws.Groups[i] = []int{i}
		index[r] = i
	}
	for ci, c := range d.Configurations {
		row := make([]bool, len(used))
		for mi, k := range c.Modes {
			if k != 0 {
				row[index[design.ModeRef{Module: mi, Mode: k}]] = true
			}
		}
		ws.Active[ci] = row
	}
	return ws
}

// refineFingerprint serialises everything observable about a refine
// outcome so runs at different worker counts can be compared byte for
// byte.
func refineFingerprint(out *RefineOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d feasible=%v\ngroups=%v\nstatic=%v\n", out.States, out.Feasible, out.Groups, out.Static)
	if out.Result != nil {
		fmt.Fprintf(&b, "total=%d worst=%d\n", out.Result.Summary.Total, out.Result.Summary.Worst)
		for _, step := range out.Result.Trace {
			b.WriteString(step)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// refineDiffCounters reports counters that differ between two obs
// snapshots (gauges and timers are excluded: worker gauges and wall
// clocks legitimately vary with the worker setting, counters must not).
func refineDiffCounters(a, b map[string]int64) string {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s: %d vs %d", k, a[k], b[k]))
		}
	}
	return strings.Join(out, "; ")
}

// TestRefineWorkersDeterminism pins the parallel scan's contract at the
// Refine surface itself: for designs small and large — including one
// big enough to cross the parWorthwhile thresholds, so the sharded path
// actually runs — Workers∈{2,8} must reproduce the Workers=1 outcome
// byte for byte (grouping, scheme summary, trace, state count) with
// identical obs counters, and a second Workers=8 run must reproduce the
// first (seed stability; the -count=5 tier re-proves this across
// processes).
func TestRefineWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver(),
		synthetic.HugeOne(rng, synthetic.Logic, "refine-par-150", 150)}
	designs = append(designs, synthetic.Generate(5, 6)...)
	for _, d := range designs {
		ws := refineWarmStart(d)
		run := func(workers int) (string, map[string]int64) {
			ob := obs.New()
			out, err := Refine(d, ws, Options{Budget: Modular(d).TotalResources(), Workers: workers, Obs: ob})
			if err != nil {
				t.Fatalf("%s: refine workers=%d: %v", d.Name, workers, err)
			}
			return refineFingerprint(out), ob.Snapshot().Counters
		}
		base, baseC := run(1)
		for _, w := range []int{2, 8, 8} {
			got, gotC := run(w)
			if got != base {
				t.Fatalf("%s: workers=%d outcome diverges from serial:\n--- serial\n%s--- workers=%d\n%s",
					d.Name, w, base, w, got)
			}
			if diff := refineDiffCounters(baseC, gotC); diff != "" {
				t.Fatalf("%s: workers=%d counters diverge from serial: %s", d.Name, w, diff)
			}
		}
	}
}

// Refine runs a warm-started greedy refinement. See RefineContext.
func Refine(d *design.Design, ws WarmStart, opts Options) (*RefineOutcome, error) {
	return RefineContext(context.Background(), d, ws, opts)
}
