package adaptive

import (
	"errors"
	"sync"
	"testing"
	"time"

	"prpart/internal/bitstream"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/icap"
	"prpart/internal/partition"
	"prpart/internal/scheme"
)

type fixture struct {
	sch  *scheme.Scheme
	bits *bitstream.Set
}

var (
	fixOnce         sync.Once
	modFix, propFix *fixture
	fixErr          error
)

func build(s *scheme.Scheme) (*fixture, error) {
	dev, err := device.ByName("FX70T")
	if err != nil {
		return nil, err
	}
	plan, err := floorplan.Place(s, dev)
	if err != nil {
		return nil, err
	}
	bits, err := bitstream.Assemble(s, plan)
	if err != nil {
		return nil, err
	}
	return &fixture{sch: s, bits: bits}, nil
}

func fixtures(t *testing.T) (modular, proposed *fixture) {
	t.Helper()
	fixOnce.Do(func() {
		d := design.VideoReceiver()
		modFix, fixErr = build(partition.Modular(d))
		if fixErr != nil {
			return
		}
		var res *partition.Result
		res, fixErr = partition.Solve(d, partition.Options{Budget: design.CaseStudyBudget()})
		if fixErr != nil {
			return
		}
		propFix, fixErr = build(res.Scheme)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return modFix, propFix
}

func manager(t *testing.T, f *fixture) *Manager {
	t.Helper()
	m, err := NewManager(f.sch, f.bits, icap.New(32, 100_000_000))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSwitchMatchesCostModelOnModular(t *testing.T) {
	// The modular case-study scheme activates every region in every
	// configuration, so realised switch costs equal the pairwise cost
	// model exactly once the system is booted.
	mod, _ := fixtures(t)
	m := manager(t, mod)
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	tm := cost.Transitions(mod.sch)
	cur := 0
	for _, next := range []int{1, 4, 7, 2, 3, 6, 5, 0, 7} {
		before := m.Stats().Frames
		if _, err := m.SwitchTo(next); err != nil {
			t.Fatal(err)
		}
		got := m.Stats().Frames - before
		if got != tm[cur][next] {
			t.Errorf("switch %d->%d: realised %d frames, cost model %d", cur, next, got, tm[cur][next])
		}
		cur = next
	}
}

func TestRealisedNeverBelowPrediction(t *testing.T) {
	// With don't-care regions (the proposed scheme has a region inactive
	// in one configuration) realised cost can exceed the pairwise model
	// but never undercut it.
	_, prop := fixtures(t)
	m := manager(t, prop)
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	tm := cost.Transitions(prop.sch)
	cur := 0
	for _, next := range []int{3, 0, 3, 1, 3, 5, 3, 2} {
		before := m.Stats().Frames
		if _, err := m.SwitchTo(next); err != nil {
			t.Fatal(err)
		}
		got := m.Stats().Frames - before
		if want := tm[cur][next]; got < want {
			t.Errorf("switch %d->%d: realised %d below prediction %d", cur, next, got, want)
		}
		cur = next
	}
}

func TestSwitchToSameConfigIsFree(t *testing.T) {
	mod, _ := fixtures(t)
	m := manager(t, mod)
	if _, err := m.SwitchTo(2); err != nil {
		t.Fatal(err)
	}
	d, err := m.SwitchTo(2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("re-entering current configuration cost %v", d)
	}
}

func TestBootLoadsOnlyActiveRegions(t *testing.T) {
	mod, _ := fixtures(t)
	m := manager(t, mod)
	if m.Current() != -1 {
		t.Error("manager should start unbooted")
	}
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.RegionLoads != len(mod.sch.Regions) {
		t.Errorf("boot loaded %d regions, want %d (all active in config 0)",
			st.RegionLoads, len(mod.sch.Regions))
	}
	for ri := range mod.sch.Regions {
		if m.Loaded(ri) != mod.sch.Active[0][ri] {
			t.Errorf("region %d holds %d, want %d", ri, m.Loaded(ri), mod.sch.Active[0][ri])
		}
	}
}

func TestSwitchToOutOfRange(t *testing.T) {
	mod, _ := fixtures(t)
	m := manager(t, mod)
	if _, err := m.SwitchTo(99); !errors.Is(err, ErrNoConfig) {
		t.Errorf("err = %v, want ErrNoConfig", err)
	}
	if _, err := m.SwitchTo(-1); !errors.Is(err, ErrNoConfig) {
		t.Errorf("err = %v, want ErrNoConfig", err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	mod, _ := fixtures(t)
	bad := *mod.bits
	bad.PerRegion = bad.PerRegion[:1]
	if _, err := NewManager(mod.sch, &bad, icap.New(0, 0)); err == nil {
		t.Error("mismatched bitstream set accepted")
	}
	badScheme := *mod.sch
	badScheme.Active = badScheme.Active[:1]
	if _, err := NewManager(&badScheme, mod.bits, icap.New(0, 0)); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestSimulateRandomWalk(t *testing.T) {
	mod, _ := fixtures(t)
	m := manager(t, mod)
	events := RandomWalkEvents(42, 200, time.Millisecond)
	if len(events) != 200 {
		t.Fatalf("events = %d", len(events))
	}
	policy := ThresholdPolicy(len(mod.sch.Design.Configurations))
	traces, err := Simulate(m, events, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(events) {
		t.Fatalf("traces = %d, want %d", len(traces), len(events))
	}
	st := m.Stats()
	if st.Switches == 0 || st.ReconfigTime == 0 {
		t.Errorf("simulation did nothing: %+v", st)
	}
	// Trace bookkeeping: switched steps carry cost, unswitched are free;
	// the first step boots the system.
	if !traces[0].Switched {
		t.Error("first event must boot the system")
	}
	var sum time.Duration
	switched := 0
	for _, tr := range traces {
		if tr.Switched {
			switched++
			sum += tr.Cost
		} else if tr.Cost != 0 {
			t.Error("unswitched step carries cost")
		}
	}
	if switched != st.Switches {
		t.Errorf("trace switches %d != stats %d", switched, st.Switches)
	}
	if sum != st.ReconfigTime {
		t.Errorf("trace cost %v != stats %v", sum, st.ReconfigTime)
	}
}

func TestRandomWalkDeterministicAndBounded(t *testing.T) {
	a := RandomWalkEvents(7, 100, time.Millisecond)
	b := RandomWalkEvents(7, 100, time.Millisecond)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("event stream not deterministic")
		}
		if a[i].Value < 0 || a[i].Value >= 1 {
			t.Fatalf("event %d value %g out of [0,1)", i, a[i].Value)
		}
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy(4)
	cases := map[float64]int{0: 0, 0.24: 0, 0.25: 1, 0.5: 2, 0.99: 3}
	for v, want := range cases {
		if got := p(Event{Value: v}); got != want {
			t.Errorf("policy(%g) = %d, want %d", v, got, want)
		}
	}
	if p(Event{Value: 5}) != 3 {
		t.Error("overflow not clamped")
	}
	if p(Event{Value: -1}) != 0 {
		t.Error("underflow not clamped")
	}
}

func TestProposedBeatsModularAtRuntime(t *testing.T) {
	// The end-to-end payoff: on the same event stream, the proposed
	// scheme's cumulative reconfiguration time is below the modular
	// scheme's (matching the static cost-model comparison).
	mod, prop := fixtures(t)
	events := RandomWalkEvents(11, 500, time.Millisecond)
	run := func(f *fixture) time.Duration {
		m := manager(t, f)
		policy := ThresholdPolicy(len(f.sch.Design.Configurations))
		if _, err := Simulate(m, events, policy); err != nil {
			t.Fatal(err)
		}
		return m.Stats().ReconfigTime
	}
	mt := run(mod)
	pt := run(prop)
	if pt >= mt {
		t.Errorf("proposed runtime %v not below modular %v", pt, mt)
	}
	t.Logf("runtime over %d events: proposed %v, modular %v", len(events), pt, mt)
}

func TestSwitchFailureLeavesConsistentState(t *testing.T) {
	// Failure injection: corrupt one region's partial bitstream. A switch
	// that needs it must fail, but regions loaded before the failure keep
	// their new contents and the manager stays usable.
	mod, _ := fixtures(t)
	// Deep-copy the bitstream set so other tests are unaffected.
	bad := &bitstream.Set{}
	for _, region := range mod.bits.PerRegion {
		var parts []*bitstream.Bitstream
		for _, bs := range region {
			cp := *bs
			cp.Words = append([]uint32(nil), bs.Words...)
			parts = append(parts, &cp)
		}
		bad.PerRegion = append(bad.PerRegion, parts)
	}
	m, err := NewManager(mod.sch, bad, icap.New(32, 100_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	// Corrupt a part that switching to config 3 must reload.
	ri, want := -1, scheme.Inactive
	for r := range mod.sch.Regions {
		w := mod.sch.Active[3][r]
		if w != scheme.Inactive && w != m.Loaded(r) {
			ri, want = r, w
			break
		}
	}
	if ri < 0 {
		t.Fatal("no region changes between configs 0 and 3")
	}
	bad.PerRegion[ri][want].Words[10]++ // break the CRC
	before := m.Current()
	_, err = m.SwitchTo(3)
	if err == nil {
		t.Fatal("switch with corrupted bitstream succeeded")
	}
	if !errors.Is(err, icap.ErrCRC) {
		t.Errorf("err = %v, want CRC failure", err)
	}
	if m.Current() != before {
		t.Errorf("failed switch changed Current to %d", m.Current())
	}
	// The corrupted region must not report the new part as loaded.
	if m.Loaded(ri) == want {
		t.Error("corrupted load marked as present")
	}
	// Recovery: repairing the bitstream lets the same switch succeed.
	bad.PerRegion[ri][want].Words[10]--
	if _, err := m.SwitchTo(3); err != nil {
		t.Fatalf("repaired switch failed: %v", err)
	}
	if m.Current() != 3 {
		t.Error("manager did not recover")
	}
}

// Loaded returns the part currently held by region ri (-1 if unknown).
func (m *Manager) Loaded(ri int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loaded[ri]
}
