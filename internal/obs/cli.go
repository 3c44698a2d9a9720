package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/pprof"
)

// Flags bundles the standard observability command-line flags shared by
// prpart, prsim, prbench and prpartd:
//
//	-trace file.jsonl   write trace events as log/slog JSON lines
//	-pprof file.pprof   write a CPU profile for the run
//	-metrics            dump all counters/timers at exit
type Flags struct {
	Trace   string
	Pprof   string
	Metrics bool
}

// AddFlags registers the observability flags on a FlagSet.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write structured trace events to this JSONL file")
	fs.StringVar(&f.Pprof, "pprof", "", "write a CPU profile to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "dump observability counters and timers at exit")
	return f
}

// Enabled reports whether any observability output was requested.
func (f *Flags) Enabled() bool {
	return f.Trace != "" || f.Pprof != "" || f.Metrics
}

// createTrace opens the -trace file; tests substitute a failing writer.
var createTrace = func(name string) (io.WriteCloser, error) { return os.Create(name) }

// Start materialises the requested observability: it returns the Obs to
// thread through the run (nil when nothing was requested, keeping the
// fast path) and a stop function that flushes and closes everything,
// writing the -metrics dump to w. Stop is safe to call exactly once.
func (f *Flags) Start(w io.Writer) (*Obs, func() error, error) {
	if !f.Enabled() {
		return nil, func() error { return nil }, nil
	}
	o := New()
	var traceFile io.WriteCloser
	var sink *sinkWriter
	if f.Trace != "" {
		tf, err := createTrace(f.Trace)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: creating trace file: %w", err)
		}
		traceFile = tf
		sink = &sinkWriter{w: tf}
		o.SetTrace(slog.New(slog.NewJSONHandler(sink, nil)))
	}
	var pprofFile *os.File
	if f.Pprof != "" {
		pf, err := os.Create(f.Pprof)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, nil, fmt.Errorf("obs: creating pprof file: %w", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, nil, fmt.Errorf("obs: starting CPU profile: %w", err)
		}
		pprofFile = pf
	}
	stop := func() error {
		var firstErr error
		if pprofFile != nil {
			pprof.StopCPUProfile()
			if err := pprofFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if traceFile != nil {
			if err := sink.Err(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: trace sink: %w", err)
			}
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if f.Metrics {
			if _, err := fmt.Fprintln(w, "-- metrics --"); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := o.WriteMetrics(w); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return o, stop, nil
}
