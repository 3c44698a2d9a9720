package adaptive

import (
	"errors"
	"testing"
	"time"

	"prpart/internal/faults"
	"prpart/internal/icap"
	"prpart/internal/scheme"
)

// faultManager builds a manager over the modular fixture whose port
// carries the given injector and recovery policy.
func faultManager(t *testing.T, inj *faults.Injector, rec Recovery) (*Manager, *icap.Port) {
	t.Helper()
	mod, _ := fixtures(t)
	port := icap.New(32, 100_000_000)
	port.AttachInjector(inj)
	m, err := NewManager(mod.sch, mod.bits, port)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecovery(rec)
	return m, port
}

// changedRegion returns the first region a switch to config b must
// reload — the region whose loads a schedule can poison.
func changedRegion(m *Manager, b int) int {
	for r := range m.sch.Regions {
		want := m.sch.Active[b][r]
		if want == scheme.Inactive || m.Loaded(r) == want {
			continue
		}
		return r
	}
	return -1
}

func TestFaultRetryThenSucceed(t *testing.T) {
	// One CRC-corrupting fault on the very first load: with a retry
	// budget the boot switch must recover and complete.
	for _, tc := range []struct {
		name string
		kind faults.Kind
	}{
		{"bit flip", faults.BitFlip},
		{"truncation", faults.Truncate},
		{"fetch failure", faults.FetchFail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(1, faults.Rates{})
			inj.ScheduleAt(0, tc.kind)
			m, port := faultManager(t, inj, Recovery{MaxRetries: 2, SafeConfig: -1})
			d, err := m.SwitchTo(0)
			if err != nil {
				t.Fatalf("switch did not recover: %v", err)
			}
			st := m.Stats()
			if st.Retries != 1 {
				t.Errorf("Retries = %d, want 1", st.Retries)
			}
			if st.RetryTime <= 0 || st.RetryTime >= d {
				t.Errorf("RetryTime = %v, want in (0, %v)", st.RetryTime, d)
			}
			if m.Current() != 0 || m.Degraded() {
				t.Errorf("manager state: current %d degraded %v", m.Current(), m.Degraded())
			}
			if port.Stats().FailedLoads != 1 {
				t.Errorf("port failed loads = %d, want 1", port.Stats().FailedLoads)
			}
			// The realised time must include the wasted attempt.
			if d <= st.ReconfigTime-st.RetryTime-time.Nanosecond {
				t.Errorf("switch time %v does not cover retry time %v", d, st.RetryTime)
			}
		})
	}
}

func TestFaultRetryExhaustionFallsBack(t *testing.T) {
	// Boot cleanly into config 0, then poison every attempt of the first
	// region switching to config 3 reloads. The switch must abandon the
	// target and fall back to the safe configuration without an error.
	const maxRetries = 1
	inj := faults.New(2, faults.Rates{})
	m, _ := faultManager(t, inj, Recovery{MaxRetries: maxRetries, SafeConfig: 0})
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	ri := changedRegion(m, 3)
	if ri < 0 {
		t.Fatal("no region changes between configs 0 and 3")
	}
	base := inj.Stats().Loads
	for a := 0; a <= maxRetries; a++ {
		inj.ScheduleAt(base+a, faults.BitFlip)
	}
	d, err := m.SwitchTo(3)
	if err != nil {
		t.Fatalf("fallback surfaced as error: %v", err)
	}
	if d <= 0 {
		t.Error("fallback switch cost no time")
	}
	st := m.Stats()
	if st.Fallbacks != 1 || st.LoadFailures != 1 || st.Retries != maxRetries {
		t.Errorf("stats %+v: want 1 fallback, 1 load failure, %d retries", st, maxRetries)
	}
	if !m.Degraded() {
		t.Error("manager not in degraded mode after fallback")
	}
	if m.Current() != 0 {
		t.Errorf("current = %d, want safe config 0", m.Current())
	}
	if m.Loaded(ri) != m.sch.Active[0][ri] {
		t.Errorf("region %d holds %d after fallback, want %d", ri, m.Loaded(ri), m.sch.Active[0][ri])
	}
	// A later clean switch leaves degraded mode.
	if _, err := m.SwitchTo(3); err != nil {
		t.Fatal(err)
	}
	if m.Degraded() || m.Current() != 3 {
		t.Errorf("recovery switch: current %d degraded %v", m.Current(), m.Degraded())
	}
}

func TestFaultExhaustionWithoutSafeConfigFails(t *testing.T) {
	// Satellite check: with no fallback the error propagates, and the
	// failed region is marked unloaded, never left stale.
	const maxRetries = 1
	inj := faults.New(3, faults.Rates{})
	m, _ := faultManager(t, inj, Recovery{MaxRetries: maxRetries, SafeConfig: -1})
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	ri := changedRegion(m, 3)
	if ri < 0 {
		t.Fatal("no region changes between configs 0 and 3")
	}
	was := m.Loaded(ri)
	base := inj.Stats().Loads
	for a := 0; a <= maxRetries; a++ {
		inj.ScheduleAt(base+a, faults.BitFlip)
	}
	_, err := m.SwitchTo(3)
	if !errors.Is(err, icap.ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
	if m.Current() != 0 {
		t.Errorf("failed switch moved current to %d", m.Current())
	}
	if got := m.Loaded(ri); got != -1 {
		t.Errorf("failed region reports part %d loaded (was %d), want -1 (unloaded)", got, was)
	}
	// Because the region is unloaded, the next clean switch reloads it.
	loadsBefore := m.Stats().RegionLoads
	if _, err := m.SwitchTo(3); err != nil {
		t.Fatal(err)
	}
	if m.Stats().RegionLoads == loadsBefore {
		t.Error("recovered switch did not reload the poisoned region")
	}
}

func TestFaultScrubRepairsUpset(t *testing.T) {
	// An SEU passes the load-time CRC; only readback verification (Scrub)
	// catches it, and the scrub reload repairs the region.
	inj := faults.New(4, faults.Rates{})
	inj.ScheduleAt(0, faults.SEU)
	m, port := faultManager(t, inj, Recovery{MaxRetries: 2, Scrub: true, SafeConfig: -1})
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatalf("scrub did not repair the upset: %v", err)
	}
	st := m.Stats()
	if st.Scrubs != 1 || st.ScrubTime <= 0 {
		t.Errorf("Scrubs = %d, ScrubTime = %v; want 1 scrub with time", st.Scrubs, st.ScrubTime)
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (upsets are scrubs, not retries)", st.Retries)
	}
	ps := port.Stats()
	if ps.VerifyErrors != 1 {
		t.Errorf("port verify errors = %d, want 1", ps.VerifyErrors)
	}
	// Every successful load was verified: readbacks >= region loads.
	if ps.Readbacks < st.RegionLoads {
		t.Errorf("readbacks %d < region loads %d with scrub on", ps.Readbacks, st.RegionLoads)
	}
}

func TestFaultScrubDisabledMissesUpset(t *testing.T) {
	// Without scrubbing the upset goes unnoticed: the switch succeeds and
	// the corruption stays in configuration memory.
	inj := faults.New(5, faults.Rates{})
	inj.ScheduleAt(0, faults.SEU)
	m, port := faultManager(t, inj, Recovery{MaxRetries: 2, SafeConfig: -1})
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Scrubs != 0 {
		t.Errorf("Scrubs = %d without scrub mode", st.Scrubs)
	}
	// The first loaded region's contents no longer verify.
	mod, _ := fixtures(t)
	bad := 0
	for ri := range mod.sch.Regions {
		want := mod.sch.Active[0][ri]
		if want == scheme.Inactive {
			continue
		}
		if _, err := port.Verify(mod.bits.PerRegion[ri][want]); err != nil {
			bad++
		}
	}
	if bad != 1 {
		t.Errorf("%d regions fail verification, want exactly the upset one", bad)
	}
}

func TestFaultPrefetchSkipsFailedRegion(t *testing.T) {
	// Prefetch is opportunistic: persistent faults on a prefetched region
	// leave it unloaded without failing the call.
	mod, _ := fixtures(t)
	// Find a region config 1 needs that config 0 leaves don't-care.
	target := -1
	for ri := range mod.sch.Regions {
		if mod.sch.Active[0][ri] == scheme.Inactive && mod.sch.Active[1][ri] != scheme.Inactive {
			target = ri
			break
		}
	}
	if target < 0 {
		t.Skip("no don't-care region between configs 0 and 1")
	}
	inj := faults.New(6, faults.Rates{})
	m, _ := faultManager(t, inj, Recovery{MaxRetries: 1, SafeConfig: -1})
	if _, err := m.SwitchTo(0); err != nil {
		t.Fatal(err)
	}
	base := inj.Stats().Loads
	for a := 0; a < 2; a++ {
		inj.ScheduleAt(base+a, faults.BitFlip)
	}
	if _, err := m.Prefetch(1); err != nil {
		t.Fatalf("opportunistic prefetch returned error: %v", err)
	}
	if got := m.Loaded(target); got != -1 {
		t.Errorf("failed prefetch region holds %d, want -1", got)
	}
	if m.Stats().LoadFailures != 1 {
		t.Errorf("LoadFailures = %d, want 1", m.Stats().LoadFailures)
	}
}

func TestFaultRecoveryReproducible(t *testing.T) {
	// The whole stack — injector, port, manager — must replay identically
	// under the same seed, fault statistics included.
	mod, _ := fixtures(t)
	seq := make([]int, 120)
	for i := range seq {
		seq[i] = (i * 7) % len(mod.sch.Design.Configurations)
	}
	run := func(seed int64) (Stats, icap.Stats, faults.Stats) {
		inj := faults.New(seed, faults.Uniform(5e-5))
		m, port := faultManager(t, inj, Recovery{MaxRetries: 3, Scrub: true, SafeConfig: 0})
		for _, c := range seq {
			if _, err := m.SwitchTo(c); err != nil {
				t.Fatalf("workload aborted: %v", err)
			}
		}
		return m.Stats(), port.Stats(), inj.Stats()
	}
	m1, p1, i1 := run(99)
	m2, p2, i2 := run(99)
	if m1 != m2 {
		t.Errorf("manager stats diverged:\n%+v\n%+v", m1, m2)
	}
	if p1 != p2 {
		t.Errorf("port stats diverged:\n%+v\n%+v", p1, p2)
	}
	if i1 != i2 {
		t.Errorf("injector stats diverged:\n%+v\n%+v", i1, i2)
	}
	if i1.Total() == 0 || m1.Retries+m1.Scrubs == 0 {
		t.Errorf("fault process too quiet to test recovery: injected %d, retries %d, scrubs %d",
			i1.Total(), m1.Retries, m1.Scrubs)
	}
	m3, _, i3 := run(100)
	if i1 == i3 && m1 == m3 {
		t.Error("different seeds produced identical fault statistics")
	}
}
