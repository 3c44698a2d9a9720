package faults

import (
	"fmt"
	"reflect"
	"testing"
)

func TestFaultDeterminism(t *testing.T) {
	// Two injectors with the same seed and the same load sequence must
	// produce identical decisions and identical statistics.
	sizes := []int{41, 4100, 820, 41, 12300, 41, 41, 2050}
	plan := func() ([]Decision, Stats) {
		in := New(7, Uniform(1e-3))
		var out []Decision
		for i := 0; i < 500; i++ {
			out = append(out, in.PlanLoad(sizes[i%len(sizes)]))
		}
		return out, in.Stats()
	}
	d1, s1 := plan()
	d2, s2 := plan()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced different decision sequences")
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if s1.Total() == 0 {
		t.Error("1e-3 word-error rate over 500 loads injected nothing")
	}
	if s1.Loads != 500 {
		t.Errorf("Loads = %d, want 500", s1.Loads)
	}
}

func TestFaultSeedsDiffer(t *testing.T) {
	a, b := New(1, Uniform(1e-3)), New(2, Uniform(1e-3))
	same := true
	for i := 0; i < 200; i++ {
		if a.PlanLoad(4100) != b.PlanLoad(4100) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
}

func TestFaultZeroRateIsSilent(t *testing.T) {
	in := New(3, Rates{})
	for i := 0; i < 100; i++ {
		if d := in.PlanLoad(1000); d.Kind != None {
			t.Fatalf("load %d: zero rates injected %v", i, d.Kind)
		}
	}
	if got := in.Stats().Total(); got != 0 {
		t.Errorf("Total = %d, want 0", got)
	}
	if !(Rates{}).Zero() || (Uniform(1e-5)).Zero() {
		t.Error("Rates.Zero misclassifies")
	}
}

func TestFaultSchedule(t *testing.T) {
	in := New(9, Rates{}) // no probabilistic faults: only the schedule fires
	in.ScheduleAt(2, BitFlip)
	in.ScheduleAt(4, FetchFail)
	in.ScheduleAt(5, Truncate)
	in.ScheduleAt(6, SEU)
	want := []Kind{None, None, BitFlip, None, FetchFail, Truncate, SEU, None}
	for i, k := range want {
		d := in.PlanLoad(410)
		if d.Kind != k {
			t.Errorf("load %d: kind = %v, want %v", i, d.Kind, k)
		}
		switch k {
		case BitFlip, SEU:
			if d.Word < 0 || d.Word >= 410 || d.Bit < 0 || d.Bit >= 32 {
				t.Errorf("load %d: fault location (%d, %d) out of range", i, d.Word, d.Bit)
			}
		case Truncate:
			if d.Word < 2 {
				t.Errorf("load %d: truncation at %d keeps no header", i, d.Word)
			}
		}
	}
	st := in.Stats()
	if st.BitFlips != 1 || st.FetchFails != 1 || st.Truncations != 1 || st.SEUs != 1 {
		t.Errorf("stats %+v, want one of each", st)
	}
}

func TestFaultScheduleOverridesRates(t *testing.T) {
	// A scheduled None suppresses even a certain probabilistic fault.
	in := New(11, Rates{WordError: 1})
	in.ScheduleAt(0, None)
	if d := in.PlanLoad(100); d.Kind != None {
		t.Errorf("scheduled None overridden by rates: %v", d.Kind)
	}
	if d := in.PlanLoad(100); d.Kind != BitFlip {
		t.Errorf("WordError=1 should always flip, got %v", d.Kind)
	}
}

func TestFaultPrecedence(t *testing.T) {
	// When every class would fire, the earliest pipeline stage wins.
	in := New(5, Rates{WordError: 1, Truncate: 1, FetchFail: 1, SEU: 1})
	if d := in.PlanLoad(100); d.Kind != FetchFail {
		t.Errorf("kind = %v, want FetchFail", d.Kind)
	}
	in2 := New(5, Rates{WordError: 1, Truncate: 1, SEU: 1})
	if d := in2.PlanLoad(100); d.Kind != Truncate {
		t.Errorf("kind = %v, want Truncate", d.Kind)
	}
	in3 := New(5, Rates{WordError: 1, SEU: 1})
	if d := in3.PlanLoad(100); d.Kind != BitFlip {
		t.Errorf("kind = %v, want BitFlip", d.Kind)
	}
	in4 := New(5, Rates{SEU: 1})
	if d := in4.PlanLoad(100); d.Kind != SEU {
		t.Errorf("kind = %v, want SEU", d.Kind)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", BitFlip: "bit-flip", Truncate: "truncate",
		FetchFail: "fetch-fail", SEU: "seu", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestFaultHitDistribution(t *testing.T) {
	// The geometric shortcut must hit roughly n*p of n trials and always
	// stay in range.
	in := New(17, Rates{})
	hits := 0
	const n, p, rounds = 1000, 0.002, 5000
	for i := 0; i < rounds; i++ {
		if h := in.hit(n, p); h >= 0 {
			if h >= n {
				t.Fatalf("hit %d out of range", h)
			}
			hits++
		}
	}
	// Expected per-round hit probability: 1-(1-p)^n ≈ 0.865.
	frac := float64(hits) / rounds
	if frac < 0.80 || frac > 0.93 {
		t.Errorf("hit fraction %.3f outside [0.80, 0.93]", frac)
	}
	if in.hit(10, 0) != -1 {
		t.Error("p=0 must never hit")
	}
	if in.hit(10, 1) != 0 {
		t.Error("p=1 must hit the first word")
	}
}

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case BitFlip:
		return "bit-flip"
	case Truncate:
		return "truncate"
	case FetchFail:
		return "fetch-fail"
	case SEU:
		return "seu"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}
