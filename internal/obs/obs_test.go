package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
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
	o.Emit("scope", "name", slog.Int("k", 1))
	o.SetTrace(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	if c.Value() != 0 || g.Value() != 0 || l.Value() != 0 || l.Max() != 0 ||
		tm.Total() != 0 || tm.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := o.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Levels)+len(snap.Timers) != 0 {
		t.Fatal("nil Obs snapshot must be empty")
	}
	New().Emit("s", "n") // no trace logger attached: dropped
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

func TestTracerJSONLSink(t *testing.T) {
	var b strings.Builder
	o := New()
	o.SetTrace(slog.New(slog.NewJSONHandler(&b, nil)))
	o.Emit("icap", "load", slog.Int("frames", 42), slog.String("region", "prr1"), slog.Duration("took", time.Microsecond))
	o.Emit("icap", "load", slog.Int("frames", 7))
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	n := 0
	for sc.Scan() {
		var ev struct {
			Msg, Scope string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", n, err)
		}
		if ev.Scope != "icap" || ev.Msg != "load" {
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
	o.Emit("demo", "event", slog.Int("v", 1))
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

// failSecond is a trace sink whose first write succeeds and whose later
// writes fail; it counts every call.
type failSecond struct{ calls int }

func (f *failSecond) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (f *failSecond) Close() error { return nil }

// TestCLITraceSinkErrorIsKept: once the -trace sink fails, it is not
// written again, Emit from several goroutines keeps returning, and the
// stop function reports the first failure.
func TestCLITraceSinkErrorIsKept(t *testing.T) {
	sink := &failSecond{}
	orig := createTrace
	createTrace = func(string) (io.WriteCloser, error) { return sink, nil }
	defer func() { createTrace = orig }()

	o, stop, err := (&Flags{Trace: "t.jsonl"}).Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				o.Emit("test", "ev", slog.Int("i", i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked after the sink failed")
	}
	if sink.calls != 2 {
		t.Errorf("sink written %d times, want 2 (no write after the failure)", sink.calls)
	}
	err = stop()
	if err == nil || !strings.Contains(err.Error(), "obs: trace sink: disk full") {
		t.Fatalf("stop = %v, want the obs: trace sink error", err)
	}
}
