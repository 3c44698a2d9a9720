package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer: its name, its
// interval relative to the tracer's start, the span that caused it (0 at
// the root) and the id of the workload op it belongs to.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, op int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes is the per-name sum of span durations and of span self
// times, plus how many spans each name closed.
type layerTimes struct {
	Total map[string]time.Duration
	Self  map[string]time.Duration
	Count map[string]int
}

// summarize computes per-name totals and self times. A span's self time
// is its duration minus the part of its interval that its children
// cover; overlapping children (parallel calls) are merged first so the
// covered time is never counted twice, and a child running past its
// parent only covers up to the parent's end.
func summarize(spans []span) layerTimes {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{Total: map[string]time.Duration{}, Self: map[string]time.Duration{}, Count: map[string]int{}}
	for _, s := range spans {
		d := s.End - s.Start
		lt.Total[s.Name] += d
		lt.Self[s.Name] += d - covered(s, children[s.ID])
		lt.Count[s.Name]++
	}
	return lt
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// writeSpans writes the spans as JSON lines, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
