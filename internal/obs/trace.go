package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
)

// SetTrace sends every subsequent Emit to l (nil detaches).
func (o *Obs) SetTrace(l *slog.Logger) {
	if o == nil {
		return
	}
	o.trace.Store(l)
}

// Emit logs one structured trace event: an info record whose message is
// name, with scope as its first attribute and attrs after it. The nil
// Obs, and an Obs with no trace logger, drop it.
func (o *Obs) Emit(scope, name string, attrs ...slog.Attr) {
	if o == nil {
		return
	}
	l := o.trace.Load()
	if l == nil {
		return
	}
	l.LogAttrs(context.Background(), slog.LevelInfo, name,
		append([]slog.Attr{slog.String("scope", scope)}, attrs...)...)
}

// sinkWriter forwards writes to w until the first error, which it
// keeps; later writes are dropped without calling w, so a broken trace
// sink never disturbs or blocks the traced code.
type sinkWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

func (s *sinkWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	s.err = err
	return n, err
}

// Err returns the first write error, if any.
func (s *sinkWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
