package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one key/value attribute on a trace event.
type Attr struct {
	Key   string
	Value interface{}
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Value: v} }

// Dur builds a duration attribute (recorded in nanoseconds).
func Dur(key string, d time.Duration) Attr { return Attr{Key: key, Value: int64(d)} }

// Event is one structured trace event.
type Event struct {
	// Seq is the emission sequence number, starting at 0.
	Seq uint64 `json:"seq"`
	// T is the time since the tracer was created.
	T time.Duration `json:"t_ns"`
	// Scope names the emitting subsystem ("partition", "icap", ...).
	Scope string `json:"scope"`
	// Name is the event name within the scope ("search.done", "load", ...).
	Name string `json:"name"`
	// Attrs carries the event's attributes.
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

// DefaultTraceCap is the ring-buffer capacity NewTracer uses for
// capacities <= 0.
const DefaultTraceCap = 1024

// Tracer records structured events into a bounded ring buffer and,
// optionally, streams every event to a JSONL sink. The nil Tracer is
// valid and drops everything. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	ring    []Event
	total   uint64
	sink    *json.Encoder
	sinkErr error
}

// NewTracer returns a tracer whose ring buffer keeps the most recent
// `capacity` events (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), ring: make([]Event, 0, capacity)}
}

// SetSink streams every subsequent event to w as one JSON object per
// line. Nil detaches the sink. Sink write errors are sticky and exposed
// via SinkErr; they never disturb the traced code.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w == nil {
		t.sink = nil
		return
	}
	t.sink = json.NewEncoder(w)
}

// Emit records one event. The nil Tracer drops it.
func (t *Tracer) Emit(scope, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	var m map[string]interface{}
	if len(attrs) > 0 {
		m = make(map[string]interface{}, len(attrs))
		for _, a := range attrs {
			m[a.Key] = a.Value
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := Event{Seq: t.total, T: time.Since(t.start), Scope: scope, Name: name, Attrs: m}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[int(ev.Seq)%cap(t.ring)] = ev
	}
	if t.sink != nil && t.sinkErr == nil {
		t.sinkErr = t.sink.Encode(ev)
	}
}

// SinkErr returns the first sink write error, if any.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}
