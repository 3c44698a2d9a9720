package partition_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"testing"

	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/synthetic"
)

// TestSolveContextBackgroundMatchesSolve checks the delegation contract:
// SolveContext under a background context returns byte-identical schemes
// to plain Solve, serial and parallel.
func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(7, 4)...)
	for _, d := range designs {
		budget := partition.Modular(d).TotalResources()
		for _, workers := range []int{1, -1} {
			opts := partition.Options{Budget: budget, Workers: workers}
			plain, err := partition.Solve(d, opts)
			if err != nil {
				t.Fatalf("%s: Solve: %v", d.Name, err)
			}
			ctxed, err := partition.SolveContext(context.Background(), d, opts)
			if err != nil {
				t.Fatalf("%s: SolveContext: %v", d.Name, err)
			}
			if got, want := fingerprint(d, ctxed), fingerprint(d, plain); got != want {
				t.Fatalf("%s workers %d: SolveContext diverged from Solve:\n--- Solve\n%s--- SolveContext\n%s",
					d.Name, workers, want, got)
			}
		}
	}
}

// TestSolveContextNilContext treats a nil context like background rather
// than panicking, matching the stdlib's lenient handling.
func TestSolveContextNilContext(t *testing.T) {
	d := design.PaperExample()
	var nilCtx context.Context
	if _, err := partition.SolveContext(nilCtx, d, partition.Options{
		Budget: partition.Modular(d).TotalResources(),
	}); err != nil {
		t.Fatalf("nil context: %v", err)
	}
}

// TestSolveContextCancelled submits an already-cancelled context and
// requires the search to stop at the first candidate-set boundary: no
// result, an error wrapping context.Canceled, and a state count of zero
// work (the run must not have explored any sets).
func TestSolveContextCancelled(t *testing.T) {
	d := design.VideoReceiver()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, -1} {
		res, err := partition.SolveContext(ctx, d, partition.Options{
			Budget:  design.CaseStudyBudget(),
			Workers: workers,
		})
		if err == nil {
			t.Fatalf("workers %d: cancelled solve returned %v, want error", workers, res)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: error %v does not wrap context.Canceled", workers, err)
		}
	}
}

// TestSolveContextDeadline checks the deadline path the daemon relies
// on: an expired deadline surfaces context.DeadlineExceeded.
func TestSolveContextDeadline(t *testing.T) {
	d := design.VideoReceiver()
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := partition.SolveContext(ctx, d, partition.Options{Budget: design.CaseStudyBudget()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestSolveContextCancelledWeighted covers the weighted double-descent
// path: cancellation must stop before the second (uniform) run too.
func TestSolveContextCancelledWeighted(t *testing.T) {
	d := design.VideoReceiver()
	n := len(d.Configurations)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := partition.SolveContext(ctx, d, partition.Options{
		Budget:            design.CaseStudyBudget(),
		TransitionWeights: w,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// writerFunc adapts a function to io.Writer for tracer-sink test hooks.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSolveContextCancelMidUniform cancels in the window between the
// weighted descent (which completes) and the uniform descent: the
// tracer sink fires on the uniform run's search.start event. The
// weighted-only result must not be surfaced as success — the uniform
// candidate could win an uncancelled run, so doing so would make the
// result depend on cancellation timing and poison content-addressed
// caches keyed on the request.
func TestSolveContextCancelMidUniform(t *testing.T) {
	d := design.VideoReceiver()
	n := len(d.Configurations)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := obs.New()
	starts := 0
	o.SetTrace(slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		if bytes.Contains(p, []byte("search.start")) {
			starts++
			if starts == 2 {
				cancel()
			}
		}
		return len(p), nil
	}), nil)))
	res, err := partition.SolveContext(ctx, d, partition.Options{
		Budget:            design.CaseStudyBudget(),
		TransitionWeights: w,
		Obs:               o,
	})
	if starts < 2 {
		t.Fatalf("saw %d search.start events, want 2 (weighted then uniform)", starts)
	}
	if err == nil {
		t.Fatalf("uniform run cancelled mid-solve returned %v, want error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
