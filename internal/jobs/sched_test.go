package jobs

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"prpart/internal/obs"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestSchedulerRunsWorkWithBoundedConcurrency(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 3})
	defer s.Close()
	var cur, peak, done atomic.Int64
	for i := 0; i < 20; i++ {
		_, err := s.Enqueue(context.Background(), Interactive, func(context.Context) {
			n := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return done.Load() == 20 })
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestSchedulerDepthBoundsAndMetrics(t *testing.T) {
	o := obs.New()
	agg := o.Level("agg.queued")
	// Depths bound admitted work (queued + running): with one
	// interactive running, depth 2 leaves room for exactly one more.
	s := NewScheduler(SchedConfig{Workers: 1, InteractiveDepth: 2, BulkDepth: 2, Obs: o, Queued: agg})
	defer s.Close()

	block := make(chan struct{})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { <-block })
	waitFor(t, func() bool { return s.Running() == 1 })

	// Worker busy: one interactive fits the queue, the second is refused.
	if _, err := s.Enqueue(context.Background(), Interactive, func(context.Context) {}); err != nil {
		t.Fatalf("first queued interactive: %v", err)
	}
	if _, err := s.Enqueue(context.Background(), Interactive, func(context.Context) {}); err != ErrTierFull {
		t.Fatalf("over-depth interactive: %v, want ErrTierFull", err)
	}
	// Bulk has its own, independent bound.
	for i := 0; i < 2; i++ {
		if _, err := s.Enqueue(context.Background(), Bulk, func(context.Context) {}); err != nil {
			t.Fatalf("bulk %d: %v", i, err)
		}
	}
	if _, err := s.Enqueue(context.Background(), Bulk, func(context.Context) {}); err != ErrTierFull {
		t.Fatalf("over-depth bulk: %v, want ErrTierFull", err)
	}
	if !s.Full(Bulk) || s.QueueLen(Bulk) != 2 {
		t.Fatalf("Full/QueueLen(Bulk) = %v/%d, want true/2", s.Full(Bulk), s.QueueLen(Bulk))
	}
	snap := o.Snapshot()
	if snap.Levels["jobs.queued.interactive"].Current != 1 || snap.Levels["jobs.queued.bulk"].Current != 2 {
		t.Fatalf("queued levels wrong: %+v", snap.Levels)
	}
	if agg.Value() != 3 {
		t.Fatalf("aggregate queued = %d, want 3", agg.Value())
	}
	if snap.Levels["jobs.running.interactive"].Current != 1 {
		t.Fatalf("running level wrong: %+v", snap.Levels["jobs.running.interactive"])
	}

	close(block)
	waitFor(t, func() bool {
		sn := o.Snapshot()
		return sn.Counters["jobs.done.interactive"] == 2 && sn.Counters["jobs.done.bulk"] == 2
	})
	if agg.Value() != 0 {
		t.Fatalf("aggregate queued after drain = %d", agg.Value())
	}
	// Queue-wait and run-time histograms saw every entry.
	sn := o.Snapshot()
	if sn.Histograms["jobs.wait.bulk"].Count != 2 || sn.Histograms["jobs.run.interactive"].Count != 2 {
		t.Fatalf("histograms wrong: %+v", sn.Histograms)
	}
}

// TestSchedulerShedsBulkForInteractive: an interactive enqueue that
// finds every worker running bulk cancels the oldest running bulk entry
// with cause ErrShed and takes the freed worker.
func TestSchedulerShedsBulkForInteractive(t *testing.T) {
	o := obs.New()
	s := NewScheduler(SchedConfig{Workers: 1, Obs: o})
	defer s.Close()

	shedCause := make(chan error, 1)
	s.Enqueue(context.Background(), Bulk, func(ctx context.Context) {
		<-ctx.Done()
		shedCause <- context.Cause(ctx)
	})
	waitFor(t, func() bool { return s.Running() == 1 })

	ran := make(chan struct{})
	if _, err := s.Enqueue(context.Background(), Interactive, func(context.Context) { close(ran) }); err != nil {
		t.Fatal(err)
	}
	select {
	case cause := <-shedCause:
		if cause != ErrShed {
			t.Fatalf("shed cause = %v, want ErrShed", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bulk work was not shed")
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("interactive work never ran after shed")
	}
	if o.Snapshot().Counters["jobs.shed"] != 1 {
		t.Fatal("jobs.shed counter not incremented")
	}
}

// TestSchedulerNoShedWhileInteractiveRuns: bulk is only shed when every
// busy worker is running bulk — interactive work completing soon is
// worth waiting for.
func TestSchedulerNoShedWhileInteractiveRuns(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2})
	defer s.Close()

	release := make(chan struct{})
	var bulkCancelled atomic.Bool
	s.Enqueue(context.Background(), Bulk, func(ctx context.Context) {
		select {
		case <-ctx.Done():
			bulkCancelled.Store(true)
		case <-release:
		}
	})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { <-release })
	waitFor(t, func() bool { return s.Running() == 2 })

	done := make(chan struct{})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { close(done) })
	time.Sleep(20 * time.Millisecond)
	if bulkCancelled.Load() {
		t.Fatal("bulk shed although an interactive worker was about to free up")
	}
	close(release)
	<-done
}

func TestSchedulerRemove(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	defer s.Close()
	block := make(chan struct{})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { <-block })
	waitFor(t, func() bool { return s.Running() == 1 })

	ran := make(chan struct{})
	tk, err := s.Enqueue(context.Background(), Bulk, func(context.Context) { close(ran) })
	if err != nil {
		t.Fatal(err)
	}
	if !s.Remove(tk) {
		t.Fatal("remove of queued ticket failed")
	}
	if s.Remove(tk) {
		t.Fatal("double remove succeeded")
	}
	close(block)
	time.Sleep(20 * time.Millisecond)
	select {
	case <-ran:
		t.Fatal("removed ticket still ran")
	default:
	}
}

func TestSchedulerEstimateWaitAndObserve(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	defer s.Close()
	if s.EstimateWait(Interactive) != 0 {
		t.Fatal("estimate with no observations must be 0")
	}
	s.ObserveWork(100 * time.Millisecond)
	// Idle worker → no wait.
	if s.EstimateWait(Interactive) != 0 {
		t.Fatal("estimate with an idle worker must be 0")
	}
	block := make(chan struct{})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { <-block })
	waitFor(t, func() bool { return s.Running() == 1 })
	if est := s.EstimateWait(Interactive); est != 100*time.Millisecond {
		t.Fatalf("estimate with busy worker = %v, want 100ms", est)
	}
	// Bulk waits behind queued interactive too.
	s.Enqueue(context.Background(), Interactive, func(context.Context) {})
	if est := s.EstimateWait(Bulk); est != 200*time.Millisecond {
		t.Fatalf("bulk estimate = %v, want 200ms", est)
	}
	// EWMA converges toward new observations.
	s.ObserveWork(200 * time.Millisecond)
	if est := s.EstimateWait(Interactive); est <= 100*time.Millisecond {
		t.Fatalf("EWMA did not move: %v", est)
	}
	close(block)
}

func TestSchedulerEnqueueWaitBlocksUntilSpace(t *testing.T) {
	// Admitted bound 2: one running + one queued fills the tier.
	s := NewScheduler(SchedConfig{Workers: 1, BulkDepth: 2})
	defer s.Close()
	block := make(chan struct{})
	s.Enqueue(context.Background(), Bulk, func(context.Context) { <-block })
	waitFor(t, func() bool { return s.Running() == 1 })
	s.Enqueue(context.Background(), Bulk, func(context.Context) {}) // fills the queue

	var second atomic.Bool
	enq := make(chan error, 1)
	go func() {
		_, err := s.EnqueueWait(context.Background(), context.Background(), Bulk, func(context.Context) { second.Store(true) })
		enq <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-enq:
		t.Fatalf("EnqueueWait returned early: %v", err)
	default:
	}
	close(block)
	if err := <-enq; err != nil {
		t.Fatal(err)
	}
	waitFor(t, second.Load)

	// A dead context unblocks the wait with its cause.
	blocked := make(chan struct{})
	s.Enqueue(context.Background(), Bulk, func(context.Context) { <-blocked })
	waitFor(t, func() bool { return s.Running() == 1 })
	s.Enqueue(context.Background(), Bulk, func(context.Context) {})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := s.EnqueueWait(ctx, ctx, Bulk, func(context.Context) {}); err != context.Canceled {
		t.Fatalf("EnqueueWait on dead ctx = %v, want context.Canceled", err)
	}
	close(blocked)
}

func TestSchedulerDrainAndClose(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	var done atomic.Int64
	release := make(chan struct{})
	s.Enqueue(context.Background(), Interactive, func(context.Context) { <-release; done.Add(1) })
	s.Enqueue(context.Background(), Bulk, func(context.Context) { done.Add(1) })
	waitFor(t, func() bool { return s.Running() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-drained:
		t.Fatal("Drain returned while work was queued and running")
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if done.Load() != 2 {
		t.Fatalf("done = %d after drain, want 2 (queued work must complete)", done.Load())
	}
	s.Close()
	if _, err := s.Enqueue(context.Background(), Interactive, func(context.Context) {}); err != ErrClosed {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
}
