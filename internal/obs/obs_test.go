package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreSafe(t *testing.T) {
	var o *Obs
	c := o.Counter("x")
	g := o.Gauge("x")
	l := o.Level("x")
	tm := o.Timer("x")
	if c != nil || g != nil || l != nil || tm != nil {
		t.Fatal("nil Obs must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Observe(7)
	l.Inc()
	l.Dec()
	if l.Add(3) != 0 {
		t.Fatal("nil Level Add must return 0")
	}
	tm.Observe(time.Second)
	tm.Time()()
	o.Emit("scope", "name", Int("k", 1))
	o.SetTracer(NewTracer(4))
	if c.Value() != 0 || g.Value() != 0 || l.Value() != 0 || l.Max() != 0 ||
		tm.Total() != 0 || tm.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := o.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Levels)+len(snap.Timers) != 0 {
		t.Fatal("nil Obs snapshot must be empty")
	}
	var tr *Tracer
	tr.Emit("s", "n")
	if tr.Events() != nil || tr.Total() != 0 || tr.Dropped() != 0 || tr.SinkErr() != nil {
		t.Fatal("nil Tracer must read empty")
	}
}

func TestCountersGaugesTimers(t *testing.T) {
	o := New()
	c := o.Counter("hits")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if o.Counter("hits") != c {
		t.Fatal("same name must return the same counter")
	}
	g := o.Gauge("depth")
	g.Observe(3)
	g.Observe(9)
	g.Observe(6)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want max 9", got)
	}
	tm := o.Timer("phase")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(3 * time.Millisecond)
	if tm.Total() != 5*time.Millisecond || tm.Count() != 2 {
		t.Fatalf("timer = (%v, %d), want (5ms, 2)", tm.Total(), tm.Count())
	}

	snap := o.Snapshot()
	if snap.Counters["hits"] != 5 || snap.Gauges["depth"] != 9 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	flat := snap.Flat()
	if flat["phase_ns"] != int64(5*time.Millisecond) || flat["phase_count"] != 2 {
		t.Fatalf("flat timer entries wrong: %v", flat)
	}

	var b strings.Builder
	if err := o.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hits 5\n", "depth 9\n", "phase_count 2\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
	// Sorted output: depth < hits < phase*.
	if strings.Index(out, "depth") > strings.Index(out, "hits") {
		t.Errorf("metrics dump not sorted:\n%s", out)
	}
}

func TestLevel(t *testing.T) {
	o := New()
	l := o.Level("inflight")
	if o.Level("inflight") != l {
		t.Fatal("same name must return the same level")
	}
	l.Inc()
	l.Inc()
	l.Inc()
	l.Dec()
	if l.Value() != 2 || l.Max() != 3 {
		t.Fatalf("level = (%d, max %d), want (2, 3)", l.Value(), l.Max())
	}
	if got := l.Add(-5); got != -3 {
		t.Fatalf("Add(-5) returned %d, want -3", got)
	}
	if l.Max() != 3 {
		t.Fatalf("watermark moved on decrease: %d", l.Max())
	}

	snap := o.Snapshot()
	if st := snap.Levels["inflight"]; st.Current != -3 || st.Max != 3 {
		t.Fatalf("snapshot level = %+v, want {-3 3}", st)
	}
	flat := snap.Flat()
	if flat["inflight"] != -3 || flat["inflight_max"] != 3 {
		t.Fatalf("flat level entries wrong: %v", flat)
	}
	var b strings.Builder
	if err := o.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inflight -3\n", "inflight_max 3\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, b.String())
		}
	}
}

func TestLevelConcurrent(t *testing.T) {
	o := New()
	l := o.Level("depth")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Inc()
				l.Dec()
			}
		}()
	}
	wg.Wait()
	if l.Value() != 0 {
		t.Fatalf("level = %d after balanced inc/dec, want 0", l.Value())
	}
	if l.Max() < 1 || l.Max() > 8 {
		t.Fatalf("watermark = %d, want within [1, 8]", l.Max())
	}
}

func TestCountersConcurrent(t *testing.T) {
	o := New()
	c := o.Counter("n")
	g := o.Gauge("max")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Fatalf("gauge = %d, want 7999", g.Value())
	}
}

func TestTracerRingAndOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit("test", "ev", Int("i", int64(i)))
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for k, ev := range evs {
		if want := uint64(6 + k); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", k, ev.Seq, want)
		}
	}
}

func TestTracerJSONLSink(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(0)
	tr.SetSink(&b)
	tr.Emit("icap", "load", Int("frames", 42), Str("region", "prr1"), Dur("took", time.Microsecond))
	tr.Emit("icap", "load", Int("frames", 7))
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	n := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", n, err)
		}
		if ev.Scope != "icap" || ev.Name != "load" {
			t.Fatalf("line %d decoded wrong: %+v", n, ev)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("sink holds %d lines, want 2", n)
	}
}

func TestCLIFlagsDisabledIsNil(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	o, stop, err := f.Start(&b)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatal("no flags set must yield a nil (disabled) Obs")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("disabled stop wrote output: %q", b.String())
	}
}

func TestCLIFlagsTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-trace", trace, "-metrics"}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	o, stop, err := f.Start(&b)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("enabled flags must yield a live Obs")
	}
	o.Counter("demo").Add(3)
	o.Emit("demo", "event", Int("v", 1))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "demo 3") {
		t.Errorf("metrics dump missing counter:\n%s", b.String())
	}
	data := readFile(t, trace)
	if !strings.Contains(data, `"scope":"demo"`) {
		t.Errorf("trace file missing event: %q", data)
	}
}

// Events returns the buffered events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.total <= uint64(cap(t.ring)) {
		return append(out, t.ring...)
	}
	first := int(t.total) % cap(t.ring)
	out = append(out, t.ring[first:]...)
	return append(out, t.ring[:first]...)
}

// Total returns the number of events ever emitted, including those the
// ring has dropped.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events fell out of the ring buffer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(cap(t.ring)) {
		return 0
	}
	return t.total - uint64(cap(t.ring))
}
