package adaptive

import (
	"math"
	"strings"
	"testing"

	"prpart/internal/bitstream"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/partition"
)

func hotPair(n, a, b int, p float64) [][]float64 {
	m := make([][]float64, n)
	rest := (1 - p) / float64(n-1)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			m[i][j] = rest
		}
	}
	// Concentrate mass on the a<->b cycle.
	for i := range m {
		for j := range m[i] {
			if i != j {
				m[i][j] = rest / 2
			}
		}
		m[i][i] = 0
	}
	m[a][b], m[b][a] = p, p
	// Normalise rows.
	for i := range m {
		sum := 0.0
		for _, v := range m[i] {
			sum += v
		}
		for j := range m[i] {
			m[i][j] /= sum
		}
	}
	return m
}

func TestMarkovSequenceValidAndDeterministic(t *testing.T) {
	p := hotPair(4, 0, 1, 0.9)
	a, err := MarkovSequence(5, p, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MarkovSequence(5, p, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sequence not deterministic")
		}
		if a[i] < 0 || a[i] >= 4 {
			t.Fatalf("state %d out of range", a[i])
		}
	}
	// The hot pair must dominate the observed switches.
	hot, total := 0, 0
	for i := 1; i < len(a); i++ {
		if a[i] == a[i-1] {
			continue
		}
		total++
		if (a[i-1] == 0 && a[i] == 1) || (a[i-1] == 1 && a[i] == 0) {
			hot++
		}
	}
	if total == 0 || float64(hot)/float64(total) < 0.5 {
		t.Errorf("hot pair share = %d/%d, want majority", hot, total)
	}
}

func TestMarkovSequenceRejectsBadMatrix(t *testing.T) {
	if _, err := MarkovSequence(1, nil, 10); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := MarkovSequence(1, [][]float64{{0.5}}, 10); err == nil {
		t.Error("non-stochastic row accepted")
	}
	if _, err := MarkovSequence(1, [][]float64{{1, 0}, {0.5}}, 10); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := MarkovSequence(1, [][]float64{{-1, 2}, {0.5, 0.5}}, 10); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestEstimateWeights(t *testing.T) {
	seq := []int{0, 1, 0, 1, 2, 2, 0}
	w, err := EstimateWeights(seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Switches: 0->1 (x2), 1->0, 1->2, 2->0 — 5 total; 2->2 ignored.
	if math.Abs(w[0][1]-0.4) > 1e-9 || math.Abs(w[1][0]-0.2) > 1e-9 ||
		math.Abs(w[1][2]-0.2) > 1e-9 || math.Abs(w[2][0]-0.2) > 1e-9 {
		t.Errorf("weights = %v", w)
	}
	if _, err := EstimateWeights([]int{0, 9}, 3); err == nil {
		t.Error("out-of-range sequence accepted")
	}
	empty, err := EstimateWeights([]int{1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range empty {
		for j := range empty[i] {
			if empty[i][j] != 0 {
				t.Error("no-switch sequence should give zero weights")
			}
		}
	}
}

func TestClosedLoopAdaptation(t *testing.T) {
	// The full future-work loop: deploy with the uniform-objective
	// scheme, observe the real (skewed) switching pattern, estimate its
	// distribution, re-partition with the weighted objective, and verify
	// the new scheme is no worse on the same workload.
	d := design.VideoReceiver()
	budget := design.CaseStudyBudget()
	n := len(d.Configurations)

	// A workload that lives almost entirely on configurations 0 and 3
	// (the demodulator/decoder switch).
	p := hotPair(n, 0, 3, 0.92)
	seq, err := MarkovSequence(17, p, 4000)
	if err != nil {
		t.Fatal(err)
	}

	uniform, err := partition.Solve(d, partition.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	w, err := EstimateWeights(seq, n)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := partition.Solve(d, partition.Options{Budget: budget, TransitionWeights: w})
	if err != nil {
		t.Fatal(err)
	}

	framesOn := func(r *partition.Result) int {
		m := cost.Transitions(r.Scheme)
		total := 0
		for k := 1; k < len(seq); k++ {
			total += m[seq[k-1]][seq[k]]
		}
		return total
	}
	fu, fw := framesOn(uniform), framesOn(weighted)
	if fw > fu {
		t.Errorf("re-partitioned scheme (%d frames) worse than original (%d) on the observed workload", fw, fu)
	}
	t.Logf("closed loop: uniform scheme %d frames, workload-adapted scheme %d frames over %d steps",
		fu, fw, len(seq))
}

func TestReplay(t *testing.T) {
	mod, _ := fixtures(t)
	m := manager(t, mod)
	st, err := Replay(m, []int{0, 1, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// 4 distinct switches (the repeated 1 is free).
	if st.Switches != 4 {
		t.Errorf("switches = %d, want 4", st.Switches)
	}
	if _, err := Replay(m, []int{99}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad sequence: %v", err)
	}
}

func TestPrefetchHidesDontCareLoads(t *testing.T) {
	// The single-mode example's two configurations use disjoint region
	// sets under the modular scheme: prefetching the other configuration
	// during operation makes the eventual switch free.
	d := design.SingleModeExample()
	s := partition.Modular(d)
	dev, err := device.ByName("FX30T")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := floorplan.Place(s, dev)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := bitstream.Assemble(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(s, bits, icap.New(32, 100_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	// Without prefetch the 0->1 switch pays for config 1's regions.
	pf, err := m.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if pf == 0 {
		t.Fatal("prefetch loaded nothing; expected config 1's regions")
	}
	d01, err := m.SwitchTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if d01 != 0 {
		t.Errorf("switch after prefetch cost %v, want 0", d01)
	}
	st := m.Stats()
	if st.PrefetchTime != pf {
		t.Errorf("PrefetchTime = %v, want %v", st.PrefetchTime, pf)
	}
	if st.ReconfigTime == 0 {
		t.Error("boot should have cost critical-path time")
	}
}

func TestPrefetchNeverTouchesLiveRegions(t *testing.T) {
	// On the modular video receiver every region is live in every
	// configuration: prefetch must be a no-op.
	mod, _ := fixtures(t)
	m := manager(t, mod)
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	pf, err := m.Prefetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if pf != 0 {
		t.Errorf("prefetch on fully live scheme cost %v, want 0", pf)
	}
	if _, err := m.Prefetch(-2); err == nil {
		t.Error("out-of-range prefetch accepted")
	}
}

// Replay drives the manager through an explicit configuration sequence,
// returning the cumulative statistics. Consecutive repeats cost nothing.
func Replay(m *Manager, seq []int) (Stats, error) {
	for _, c := range seq {
		if _, err := m.SwitchTo(c); err != nil {
			return m.Stats(), err
		}
	}
	return m.Stats(), nil
}
