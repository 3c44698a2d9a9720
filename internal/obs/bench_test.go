package obs

import (
	"io"
	"log/slog"
	"os"
	"testing"
	"time"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// BenchmarkDisabledCounter measures the nil fast path an instrumented hot
// loop pays when observability is off: a single nil check.
func BenchmarkDisabledCounter(b *testing.B) {
	var o *Obs
	c := o.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkDisabledTimer verifies the disabled timer never touches the
// clock or allocates.
func BenchmarkDisabledTimer(b *testing.B) {
	var o *Obs
	tm := o.Timer("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Time()()
	}
}

// BenchmarkDisabledEmit measures dropped events on the nil Obs.
func BenchmarkDisabledEmit(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit("scope", "name")
	}
}

// BenchmarkEnabledCounter is the enabled counterpart, for the overhead
// table in DESIGN.md §7.
func BenchmarkEnabledCounter(b *testing.B) {
	c := New().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledTimer measures one observed interval per iteration.
func BenchmarkEnabledTimer(b *testing.B) {
	tm := New().Timer("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Observe(time.Nanosecond)
	}
}

// BenchmarkEnabledEmit measures one event through the slog JSON
// handler into a discarding sink.
func BenchmarkEnabledEmit(b *testing.B) {
	o := New()
	o.SetTrace(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit("scope", "name", slog.Int("i", i))
	}
}
