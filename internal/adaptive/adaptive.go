// Package adaptive simulates the runtime half of an adaptive PR system:
// the configuration-management software the paper places on the embedded
// processor (§III-A). A Manager owns a partitioning scheme, its partial
// bitstreams and an ICAP port; it tracks what every region currently
// holds, loads exactly the regions a configuration switch requires, and
// accounts realised reconfiguration time — the quantity the partitioning
// algorithm minimises in expectation.
package adaptive

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"prpart/internal/bitstream"
	"prpart/internal/icap"
	"prpart/internal/obs"
	"prpart/internal/scheme"
)

// ErrNoConfig reports a configuration index out of range.
var ErrNoConfig = errors.New("adaptive: configuration index out of range")

// unloaded marks a region whose contents are still unknown (never
// configured since power-up).
const unloaded = -1

// Manager is the runtime configuration manager. Its public methods are
// safe for concurrent use: one coarse mutex serialises every operation,
// matching the hardware it models — there is a single ICAP port, so
// reconfigurations are inherently sequential. A Prefetch and a SwitchTo
// racing each other therefore interleave at method granularity, never
// mid-reconfiguration.
type Manager struct {
	mu   sync.Mutex
	sch  *scheme.Scheme
	bits *bitstream.Set
	port *icap.Port

	current int   // current configuration, -1 before Boot
	loaded  []int // per region: part index currently in the fabric

	rec      Recovery
	degraded bool

	stats Stats

	// prefetched[ri] marks that region ri's current contents were loaded
	// by Prefetch; a later SwitchTo that finds the region already correct
	// counts it as a prefetch hit. Purely observational.
	prefetched []bool
	obs        mgrObs
}

// mgrObs holds the manager's observability instruments (nil when off).
type mgrObs struct {
	o                            *obs.Obs
	switches, loads, frames      *obs.Counter
	retries, scrubs, fallbacks   *obs.Counter
	prefetchLoads, prefetchHits  *obs.Counter
	reconfig, prefetch, recovery *obs.Timer
}

// AttachObs mirrors the manager's runtime activity into the registry:
// counters adaptive.switches, adaptive.region_loads, adaptive.frames,
// adaptive.retries, adaptive.scrubs, adaptive.fallbacks,
// adaptive.prefetch_loads and adaptive.prefetch_hits (regions a switch
// found already loaded thanks to an earlier Prefetch); timers
// adaptive.reconfig, adaptive.prefetch and adaptive.recovery (time spent
// on retries and scrubs). One "switch" trace event is emitted per
// completed SwitchTo. Nil detaches.
func (m *Manager) AttachObs(o *obs.Obs) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o == nil {
		m.obs = mgrObs{}
		return
	}
	m.obs = mgrObs{
		o:             o,
		switches:      o.Counter("adaptive.switches"),
		loads:         o.Counter("adaptive.region_loads"),
		frames:        o.Counter("adaptive.frames"),
		retries:       o.Counter("adaptive.retries"),
		scrubs:        o.Counter("adaptive.scrubs"),
		fallbacks:     o.Counter("adaptive.fallbacks"),
		prefetchLoads: o.Counter("adaptive.prefetch_loads"),
		prefetchHits:  o.Counter("adaptive.prefetch_hits"),
		reconfig:      o.Timer("adaptive.reconfig"),
		prefetch:      o.Timer("adaptive.prefetch"),
		recovery:      o.Timer("adaptive.recovery"),
	}
}

// Recovery configures how the manager survives failed loads. The policy
// NewManager installs (no retries, no scrubbing, SafeConfig -1) is
// fail-fast: any load error aborts the switch with that error.
type Recovery struct {
	// MaxRetries is how many times a failed region load is re-attempted
	// before the switch gives up on the region.
	MaxRetries int
	// Scrub enables readback verification after every load; a mismatch
	// (e.g. a configuration upset) triggers a scrub — reloading the
	// bitstream — charged against the same retry budget.
	Scrub bool
	// SafeConfig designates the degraded-mode fallback: when a switch
	// exhausts its retries, the manager abandons the target and drives
	// the fabric toward this configuration instead of failing. Negative
	// disables the fallback.
	SafeConfig int
}

// Stats accumulates runtime behaviour.
type Stats struct {
	// Switches counts configuration changes completed (including Boot and
	// successful degraded-mode fallbacks).
	Switches int
	// RegionLoads counts partial bitstreams loaded.
	RegionLoads int
	// Frames counts configuration frames written.
	Frames int
	// ReconfigTime is the cumulative time spent reconfiguring on the
	// critical path (SwitchTo), including failed attempts, retries,
	// readback verification and fallback loads.
	ReconfigTime time.Duration
	// PrefetchTime is the cumulative background loading time (Prefetch).
	PrefetchTime time.Duration

	// Retries counts re-attempted loads after transfer errors; RetryTime
	// is the port time the failed attempts wasted.
	Retries   int
	RetryTime time.Duration
	// Scrubs counts reloads forced by readback-verification mismatches;
	// ScrubTime is the time lost to the upset loads and the readbacks
	// that caught them.
	Scrubs    int
	ScrubTime time.Duration
	// Fallbacks counts degraded-mode entries: switches that exhausted
	// their retries and fell back to the safe configuration.
	Fallbacks int
	// LoadFailures counts region loads abandoned after the retry budget.
	LoadFailures int
}

// NewManager validates the inputs and returns a manager with all regions
// unloaded.
func NewManager(s *scheme.Scheme, bits *bitstream.Set, port *icap.Port) (*Manager, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("adaptive: scheme invalid: %w", err)
	}
	if len(bits.PerRegion) != len(s.Regions) {
		return nil, fmt.Errorf("adaptive: %d bitstream regions for %d scheme regions",
			len(bits.PerRegion), len(s.Regions))
	}
	for ri := range s.Regions {
		if len(bits.PerRegion[ri]) != len(s.Regions[ri].Parts) {
			return nil, fmt.Errorf("adaptive: region %d has %d bitstreams for %d parts",
				ri, len(bits.PerRegion[ri]), len(s.Regions[ri].Parts))
		}
	}
	loaded := make([]int, len(s.Regions))
	for i := range loaded {
		loaded[i] = unloaded
	}
	return &Manager{
		sch: s, bits: bits, port: port,
		current: -1, loaded: loaded,
		rec:        Recovery{SafeConfig: -1},
		prefetched: make([]bool, len(s.Regions)),
	}, nil
}

// SetRecovery installs the fault-recovery policy.
func (m *Manager) SetRecovery(r Recovery) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec = r
}

// Degraded reports whether the manager is in degraded mode: the last
// requested switch exhausted its retries and fell back to the safe
// configuration. The next fully successful switch clears it.
func (m *Manager) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// Current returns the active configuration index, or -1 before Boot.
func (m *Manager) Current() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// SwitchTo reconfigures the system into the target configuration: every
// region the configuration activates with a part other than its current
// contents is reloaded; don't-care regions are left untouched. It returns
// the realised reconfiguration time of this switch, including any failed
// attempts, retries, scrubs and fallback loads the recovery policy spent.
//
// When a region load exhausts the retry budget and Recovery.SafeConfig is
// set, the manager enters degraded mode: the target is abandoned and the
// fabric is driven toward the safe configuration instead, without
// returning an error. Without a safe configuration the error propagates
// and the failed region is left marked unloaded, so a later switch
// reloads it rather than trusting corrupt fabric state.
func (m *Manager) SwitchTo(config int) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if config < 0 || config >= len(m.sch.Design.Configurations) {
		return 0, fmt.Errorf("%w: %d", ErrNoConfig, config)
	}
	if config == m.current {
		return 0, nil
	}
	total, err := m.configure(config)
	m.stats.ReconfigTime += total
	m.obs.reconfig.Observe(total)
	if err == nil {
		m.current = config
		m.degraded = false
		m.stats.Switches++
		m.obs.switches.Inc()
		if m.obs.o != nil {
			m.obs.o.Emit("adaptive", "switch",
				slog.Int("config", config), slog.Duration("cost", total))
		}
		return total, nil
	}
	if m.rec.SafeConfig < 0 {
		return total, err
	}
	// Degraded mode: abandon the target, drive toward the safe
	// configuration best-effort.
	m.stats.Fallbacks++
	m.obs.fallbacks.Inc()
	m.degraded = true
	ft := m.fallback(m.rec.SafeConfig)
	m.stats.ReconfigTime += ft
	m.obs.reconfig.Observe(ft)
	if m.obs.o != nil {
		m.obs.o.Emit("adaptive", "switch.fallback",
			slog.Int("target", config), slog.Int("safe", m.rec.SafeConfig),
			slog.Duration("cost", total+ft))
	}
	return total + ft, nil
}

// configure loads every region the target activates with a part other
// than its current contents, stopping at the first region that exhausts
// its retry budget.
func (m *Manager) configure(config int) (time.Duration, error) {
	var total time.Duration
	for ri := range m.sch.Regions {
		want := m.sch.Active[config][ri]
		if want == scheme.Inactive || m.loaded[ri] == want {
			if want != scheme.Inactive && m.prefetched[ri] {
				// The region is already correct because Prefetch loaded it.
				m.obs.prefetchHits.Inc()
				m.prefetched[ri] = false
			}
			continue
		}
		d, err := m.loadRegion(ri, want)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// fallback drives the fabric toward the safe configuration without ever
// failing: a region that still cannot be loaded is left unloaded for a
// later switch to repair. When every region lands the safe configuration
// becomes current; otherwise the current configuration is unknown (-1)
// and the next SwitchTo rebuilds from the per-region truth in loaded.
func (m *Manager) fallback(safe int) time.Duration {
	var total time.Duration
	ok := true
	for ri := range m.sch.Regions {
		want := m.sch.Active[safe][ri]
		if want == scheme.Inactive || m.loaded[ri] == want {
			continue
		}
		d, err := m.loadRegion(ri, want)
		total += d
		if err != nil {
			ok = false
		}
	}
	if ok {
		m.current = safe
		m.stats.Switches++
	} else {
		m.current = -1
	}
	return total
}

// loadRegion loads part want into region ri under the recovery policy and
// returns the realised time: failed attempts, retries, scrub reloads and
// readback verification all included. On any failure the region is marked
// unloaded — the fabric may hold a partial or upset write — so that a
// retry or a later switch rewrites it instead of trusting stale state.
func (m *Manager) loadRegion(ri, want int) (time.Duration, error) {
	bs := m.bits.PerRegion[ri][want]
	var total time.Duration
	for attempt := 0; ; attempt++ {
		d, err := m.port.Load(bs)
		attemptTime := d
		scrub := false
		if err == nil && m.rec.Scrub {
			vd, verr := m.port.Verify(bs)
			attemptTime += vd
			if verr != nil {
				err = verr
				scrub = true
			}
		}
		total += attemptTime
		if err == nil {
			m.loaded[ri] = want
			m.prefetched[ri] = false
			m.stats.RegionLoads++
			m.stats.Frames += bs.Frames
			m.obs.loads.Inc()
			m.obs.frames.Add(int64(bs.Frames))
			return total, nil
		}
		m.loaded[ri] = unloaded
		if attempt >= m.rec.MaxRetries {
			m.stats.LoadFailures++
			return total, fmt.Errorf("adaptive: loading %s: %w (gave up after %d attempts)",
				bs.Name, err, attempt+1)
		}
		if scrub {
			m.stats.Scrubs++
			m.stats.ScrubTime += attemptTime
			m.obs.scrubs.Inc()
		} else {
			m.stats.Retries++
			m.stats.RetryTime += attemptTime
			m.obs.retries.Inc()
		}
		m.obs.recovery.Observe(attemptTime)
	}
}

// Prefetch loads, ahead of time, every region that the anticipated
// configuration needs but the current configuration leaves don't-care —
// the configuration-prefetching idea of the paper's related work [4],
// applicable here exactly where the pairwise cost model has slack. The
// returned duration is the background loading time; a later SwitchTo to
// the anticipated configuration then skips those regions. Regions the
// current configuration actively uses are never touched.
//
// Prefetching is opportunistic: a region whose load fails even after the
// recovery policy's retries is simply left unloaded for the critical-path
// switch to (re)try, not reported as an error.
func (m *Manager) Prefetch(config int) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if config < 0 || config >= len(m.sch.Design.Configurations) {
		return 0, fmt.Errorf("%w: %d", ErrNoConfig, config)
	}
	var total time.Duration
	for ri := range m.sch.Regions {
		want := m.sch.Active[config][ri]
		if want == scheme.Inactive || m.loaded[ri] == want {
			continue
		}
		if m.current >= 0 && m.sch.Active[m.current][ri] != scheme.Inactive {
			continue // region is live; cannot be reconfigured underneath
		}
		d, err := m.loadRegion(ri, want)
		m.stats.PrefetchTime += d
		total += d
		if err == nil {
			m.prefetched[ri] = true
			m.obs.prefetchLoads.Inc()
		}
	}
	m.obs.prefetch.Observe(total)
	return total, nil
}

// Event is one environmental observation driving adaptation.
type Event struct {
	// Time is the observation timestamp (informational).
	Time time.Duration
	// Value is the observed quantity (e.g. SNR, channel index).
	Value float64
}

// Policy maps an environmental event to the configuration the system
// should adopt.
type Policy func(Event) int

// Trace records one step of a simulation.
type Trace struct {
	Event    Event
	Config   int
	Switched bool
	Cost     time.Duration
}

// Simulate boots the manager into the policy's response to the first
// event, then feeds the remaining events in order, switching whenever the
// policy output changes. It returns the per-step trace.
func Simulate(m *Manager, events []Event, policy Policy) ([]Trace, error) {
	traces := make([]Trace, 0, len(events))
	for _, ev := range events {
		target := policy(ev)
		tr := Trace{Event: ev, Config: target}
		if target != m.Current() {
			d, err := m.SwitchTo(target)
			if err != nil {
				return traces, err
			}
			tr.Switched = true
			tr.Cost = d
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// RandomWalkEvents generates a deterministic event stream whose values
// wander in [0, 1) — a stand-in for a measured channel condition.
func RandomWalkEvents(seed int64, n int, step time.Duration) []Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, n)
	v := rng.Float64()
	for i := range out {
		v += (rng.Float64() - 0.5) * 0.2
		switch {
		case v < 0:
			v = -v
		case v >= 1:
			v = 2 - v - 1e-9
		}
		out[i] = Event{Time: time.Duration(i) * step, Value: v}
	}
	return out
}

// ThresholdPolicy maps [0,1) values onto configuration indices by equal
// bands: a simple "adapt to channel quality" rule.
func ThresholdPolicy(numConfigs int) Policy {
	return func(ev Event) int {
		c := int(ev.Value * float64(numConfigs))
		if c < 0 {
			c = 0
		}
		if c >= numConfigs {
			c = numConfigs - 1
		}
		return c
	}
}
