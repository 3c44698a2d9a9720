// Package obs is the repo's zero-dependency observability layer: typed
// counters, max-gauges and timers behind a named registry, plus
// structured trace events written through a log/slog logger.
//
// Instrumentation is strictly passive — it never influences what the
// search or the runtime simulator computes — and is near-free when
// disabled: every instrument is nil-safe, so code holds a possibly-nil
// *Counter/*Timer resolved once up front and the disabled path is a
// single nil check per operation (no map lookup, no clock read, no
// allocation). All instruments are safe for concurrent use and counters
// only ever move forward, so observed values are monotonic even while a
// parallel search is mid-flight.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer instrument. The nil
// Counter is valid and ignores all updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored, preserving
// monotonicity).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge records the maximum value observed. The nil Gauge is valid and
// ignores all updates.
type Gauge struct{ v atomic.Int64 }

// Observe records v if it exceeds the current maximum.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed so far (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Level tracks a quantity that moves both ways — queue depth, in-flight
// requests — recording the current value and its maximum watermark. The
// nil Level is valid and ignores all updates.
type Level struct{ cur, max atomic.Int64 }

// Add moves the level by delta (negative to decrease) and returns the
// new current value. The watermark follows increases.
func (l *Level) Add(delta int64) int64 {
	if l == nil {
		return 0
	}
	v := l.cur.Add(delta)
	if delta > 0 {
		for {
			m := l.max.Load()
			if v <= m || l.max.CompareAndSwap(m, v) {
				break
			}
		}
	}
	return v
}

// Inc raises the level by one.
func (l *Level) Inc() { l.Add(1) }

// Dec lowers the level by one.
func (l *Level) Dec() { l.Add(-1) }

// Value returns the current level (0 for the nil Level).
func (l *Level) Value() int64 {
	if l == nil {
		return 0
	}
	return l.cur.Load()
}

// Max returns the highest level observed (0 for the nil Level).
func (l *Level) Max() int64 {
	if l == nil {
		return 0
	}
	return l.max.Load()
}

// Timer accumulates durations. The nil Timer is valid, ignores all
// updates, and — through Time — avoids even reading the clock.
type Timer struct{ ns, n atomic.Int64 }

// Observe adds one measured duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	if d > 0 {
		t.ns.Add(int64(d))
	}
	t.n.Add(1)
}

var nopStop = func() {}

// Time starts a measurement and returns the function that stops it:
//
//	defer tm.Time()()
//
// On the nil Timer no clock is read and the returned stop is a shared
// no-op, keeping the disabled path allocation-free.
func (t *Timer) Time() (stop func()) {
	if t == nil {
		return nopStop
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Total returns the accumulated duration (0 for the nil Timer).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns the number of observations (0 for the nil Timer).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// histogramBounds are the shared duration bucket upper bounds (a 1-2-5
// decade ladder from 1 ms to 60 s). One fixed layout for every
// histogram keeps /metrics lines comparable across instruments and
// avoids per-instrument configuration in hot paths.
var histogramBounds = [numHistogramBounds]time.Duration{
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second, 30 * time.Second, 60 * time.Second,
}

const numHistogramBounds = 15

// Histogram accumulates duration observations into fixed exponential
// buckets (histogramBounds plus an overflow bucket), tracking count and
// sum exactly. Quantiles are read back as the upper bound of the bucket
// the quantile falls in — coarse, but monotone and allocation-free. The
// nil Histogram is valid and ignores all updates.
type Histogram struct {
	counts [numHistogramBounds + 1]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(histogramBounds) && d > histogramBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations (0 for the nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the exact accumulated duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of
// the observed durations: the bucket boundary at or above the point
// where the cumulative count crosses q. Returns 0 with no observations;
// observations beyond the last bound report that bound (the histogram
// cannot resolve further).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(histogramBounds) {
				return histogramBounds[i]
			}
			return histogramBounds[len(histogramBounds)-1]
		}
	}
	return histogramBounds[len(histogramBounds)-1]
}

// Obs is a registry of named instruments plus an optional trace logger.
// The nil *Obs disables everything: instrument lookups return nil
// instruments and Emit is a no-op, so a single nil propagates "off"
// through an entire call tree.
type Obs struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	levels     map[string]*Level
	timers     map[string]*Timer
	histograms map[string]*Histogram
	trace      atomic.Pointer[slog.Logger]
}

// New returns an empty enabled registry with no trace logger attached.
func New() *Obs {
	return &Obs{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		levels:     map[string]*Level{},
		timers:     map[string]*Timer{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the disabled counter) when o is nil.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.counters[name]
	if !ok {
		c = &Counter{}
		o.counters[name] = c
	}
	return c
}

// Gauge returns the named max-gauge, creating it on first use.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.gauges[name]
	if !ok {
		g = &Gauge{}
		o.gauges[name] = g
	}
	return g
}

// Level returns the named up/down level, creating it on first use.
func (o *Obs) Level(name string) *Level {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	l, ok := o.levels[name]
	if !ok {
		l = &Level{}
		o.levels[name] = l
	}
	return l
}

// Timer returns the named timer, creating it on first use.
func (o *Obs) Timer(name string) *Timer {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.timers[name]
	if !ok {
		t = &Timer{}
		o.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.histograms[name]
	if !ok {
		h = &Histogram{}
		o.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument's value.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Levels     map[string]LevelStat
	Timers     map[string]TimerStat
	Histograms map[string]HistogramStat
}

// TimerStat is one timer's accumulated state.
type TimerStat struct {
	Total time.Duration
	Count int64
}

// LevelStat is one level's current value and watermark.
type LevelStat struct {
	Current int64
	Max     int64
}

// HistogramStat is one histogram's accumulated state: exact count and
// sum plus the bucketed p50/p99 upper bounds.
type HistogramStat struct {
	Count int64
	Sum   time.Duration
	P50   time.Duration
	P99   time.Duration
}

// Snapshot copies all instrument values. The nil Obs yields empty maps.
func (o *Obs) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Levels:     map[string]LevelStat{},
		Timers:     map[string]TimerStat{},
		Histograms: map[string]HistogramStat{},
	}
	if o == nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range o.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, l := range o.levels {
		s.Levels[name] = LevelStat{Current: l.Value(), Max: l.Max()}
	}
	for name, t := range o.timers {
		s.Timers[name] = TimerStat{Total: t.Total(), Count: t.Count()}
	}
	for name, h := range o.histograms {
		s.Histograms[name] = HistogramStat{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
	}
	return s
}

// Flat returns every instrument as name → integer value: counters and
// gauges verbatim, levels as two entries (<name> and <name>_max), timers
// as two entries (<name>_ns and <name>_count), histograms as four
// (<name>_count, <name>_sum_ns, <name>_p50_ns, <name>_p99_ns). This is
// the shape the bench JSON and the -metrics dump share.
func (s Snapshot) Flat() map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+2*len(s.Levels)+2*len(s.Timers))
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	for name, l := range s.Levels {
		out[name] = l.Current
		out[name+"_max"] = l.Max
	}
	for name, t := range s.Timers {
		out[name+"_ns"] = int64(t.Total)
		out[name+"_count"] = t.Count
	}
	for name, h := range s.Histograms {
		out[name+"_count"] = h.Count
		out[name+"_sum_ns"] = int64(h.Sum)
		out[name+"_p50_ns"] = int64(h.P50)
		out[name+"_p99_ns"] = int64(h.P99)
	}
	return out
}

// WriteMetrics writes the snapshot as sorted "name value" lines — the
// -metrics dump of the CLI tools.
func (o *Obs) WriteMetrics(w io.Writer) error {
	flat := o.Snapshot().Flat()
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, flat[name]); err != nil {
			return err
		}
	}
	return nil
}
