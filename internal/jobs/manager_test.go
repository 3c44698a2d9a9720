package jobs

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestManager(t *testing.T, workers int) (*Manager, *Scheduler) {
	t.Helper()
	s := NewScheduler(SchedConfig{Workers: workers})
	t.Cleanup(s.Close)
	return NewManager(ManagerConfig{Sched: s}), s
}

func TestJobLifecycleDone(t *testing.T) {
	m, _ := newTestManager(t, 1)
	j, err := m.Submit(context.Background(), "k1", Bulk, func(ctx context.Context) ([]byte, int, error) {
		return []byte("result"), http.StatusOK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID(), "j-") || len(j.ID()) != 18 {
		t.Fatalf("job id %q has the wrong shape", j.ID())
	}
	<-j.Done()
	rec := j.Record()
	if rec.State != StateDone || rec.HTTPStatus != http.StatusOK || rec.Key != "k1" || rec.Tier != "bulk" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.CreatedMs == 0 || rec.StartedMs == 0 || rec.FinishedMs == 0 {
		t.Fatalf("record missing timestamps: %+v", rec)
	}
	if string(j.Body()) != "result" {
		t.Fatalf("body = %q", j.Body())
	}
	got, rec2, ok := m.Get(j.ID())
	if !ok || got != j || rec2.State != StateDone {
		t.Fatal("Get lost the finished job")
	}
}

func TestJobLifecycleFailed(t *testing.T) {
	m, _ := newTestManager(t, 1)
	j, _ := m.Submit(context.Background(), "k", Bulk, func(ctx context.Context) ([]byte, int, error) {
		return nil, http.StatusUnprocessableEntity, errors.New("infeasible")
	})
	<-j.Done()
	rec := j.Record()
	if rec.State != StateFailed || rec.HTTPStatus != 422 || rec.Error != "infeasible" {
		t.Fatalf("record = %+v", rec)
	}
	if j.Body() != nil {
		t.Fatal("failed job retained a body")
	}
}

// TestJobCancelWhileQueued: cancelling a job that has not been
// dispatched withdraws it — its RunFunc never executes.
func TestJobCancelWhileQueued(t *testing.T) {
	m, _ := newTestManager(t, 1)
	block := make(chan struct{})
	defer close(block)
	m.Submit(context.Background(), "blocker", Bulk, func(ctx context.Context) ([]byte, int, error) {
		<-block
		return nil, 200, nil
	})
	ran := make(chan struct{})
	j, _ := m.Submit(context.Background(), "victim", Bulk, func(ctx context.Context) ([]byte, int, error) {
		close(ran)
		return nil, 200, nil
	})
	// Wait until the blocker occupies the worker so the victim is
	// genuinely queued.
	waitFor(t, func() bool { return j.State() == StateQueued && m.cfg.Sched.QueueLen(Bulk) == 1 })

	rec, err := m.Cancel(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCanceled {
		t.Fatalf("state after queued-cancel = %s, want canceled", rec.State)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed for a queued-cancelled job")
	}
	select {
	case <-ran:
		t.Fatal("cancelled-while-queued job still ran")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestJobCancelMidSolve: cancelling a running job cancels its context
// with cause ErrCanceled; the job finishes as canceled when the RunFunc
// returns.
func TestJobCancelMidSolve(t *testing.T) {
	m, _ := newTestManager(t, 1)
	entered := make(chan struct{})
	j, _ := m.Submit(context.Background(), "k", Bulk, func(ctx context.Context) ([]byte, int, error) {
		close(entered)
		<-ctx.Done()
		return nil, http.StatusServiceUnavailable, ctx.Err()
	})
	<-entered
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	rec := j.Record()
	if rec.State != StateCanceled {
		t.Fatalf("state after mid-solve cancel = %s, want canceled", rec.State)
	}
	// Cancelling a terminal job is a no-op, not an error.
	rec2, err := m.Cancel(j.ID())
	if err != nil || rec2.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", rec2, err)
	}
}

func TestJobCancelUnknown(t *testing.T) {
	m, _ := newTestManager(t, 1)
	if _, err := m.Cancel("j-0000000000000000"); err != ErrNotFound {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
	if _, _, ok := m.Get("j-0000000000000000"); ok {
		t.Fatal("Get found a job that does not exist")
	}
}

// TestJobPersistAndLoad: terminal transitions call Persist; ids that
// fell out of memory resolve through Load — the restart-survival seam.
func TestJobPersistAndLoad(t *testing.T) {
	var mu sync.Mutex
	saved := map[string]Record{}
	s := NewScheduler(SchedConfig{Workers: 1})
	defer s.Close()
	m := NewManager(ManagerConfig{
		Sched: s,
		Persist: func(r Record) {
			mu.Lock()
			saved[r.ID] = r
			mu.Unlock()
		},
		Load: func(id string) (Record, bool) {
			mu.Lock()
			defer mu.Unlock()
			r, ok := saved[id]
			return r, ok
		},
		MaxFinished: 1,
	})
	j1, _ := m.Submit(context.Background(), "k1", Bulk, func(ctx context.Context) ([]byte, int, error) {
		return []byte("one"), 200, nil
	})
	<-j1.Done()
	j2, _ := m.Submit(context.Background(), "k2", Bulk, func(ctx context.Context) ([]byte, int, error) {
		return []byte("two"), 200, nil
	})
	<-j2.Done()

	mu.Lock()
	if len(saved) != 2 || saved[j1.ID()].State != StateDone {
		t.Fatalf("persisted records = %+v", saved)
	}
	mu.Unlock()

	// MaxFinished=1 evicted j1 from memory; Get falls back to Load.
	live, rec, ok := m.Get(j1.ID())
	if !ok || live != nil || rec.State != StateDone || rec.Key != "k1" {
		t.Fatalf("evicted job Get = %v, %+v, %v", live, rec, ok)
	}
	// A second manager (fresh daemon life) with the same Load resolves
	// both ids and treats Cancel of a loaded terminal job as a no-op.
	m2 := NewManager(ManagerConfig{Sched: s, Load: m.cfg.Load})
	if _, rec, ok := m2.Get(j2.ID()); !ok || rec.State != StateDone {
		t.Fatal("restarted manager cannot see persisted jobs")
	}
	if rec, err := m2.Cancel(j1.ID()); err != nil || rec.State != StateDone {
		t.Fatalf("cancel of persisted terminal job: %+v, %v", rec, err)
	}
}

func TestJobShutdownCancelsRunning(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	defer s.Close()
	m := NewManager(ManagerConfig{Sched: s})
	base, shutdown := context.WithCancel(context.Background())
	entered := make(chan struct{})
	j, _ := m.Submit(base, "k", Bulk, func(ctx context.Context) ([]byte, int, error) {
		close(entered)
		<-ctx.Done()
		return nil, http.StatusServiceUnavailable, ctx.Err()
	})
	<-entered
	shutdown()
	<-j.Done()
	// Daemon shutdown is not a client cancel: the job failed.
	if st := j.State(); st != StateFailed {
		t.Fatalf("state after base-context shutdown = %s, want failed", st)
	}
	if m.Counts()[StateFailed] != 1 {
		t.Fatalf("counts = %v", m.Counts())
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
