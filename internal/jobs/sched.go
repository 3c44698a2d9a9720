package jobs

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"prpart/internal/obs"
)

// SchedConfig tunes a Scheduler.
type SchedConfig struct {
	// Workers is the number of concurrent work slots. Default 1.
	Workers int
	// InteractiveDepth / BulkDepth bound how many entries a tier may
	// have admitted — waiting or running — at once (0 = unbounded).
	// Counting running work keeps admission free of dispatch races: an
	// entry consumes the same capacity whether the dispatcher has
	// picked it up yet or not, exactly like the worker+queue slot pool
	// this scheduler replaced.
	InteractiveDepth int
	BulkDepth        int
	// BulkShare is the guaranteed bulk fraction of contended dequeues:
	// when both tiers have waiters, every BulkShare-th grant goes to
	// bulk. Minimum (and default) 2; serve uses 4.
	BulkShare int
	// Obs receives the jobs.* instruments (per-tier queued/running
	// levels, done/canceled/shed counters, queue-wait and run-time
	// histograms). Nil disables them.
	Obs *obs.Obs
	// Queued, if set, mirrors the aggregate queued count across both
	// tiers into an externally owned level (serve.queue_depth keeps its
	// historical name this way).
	Queued *obs.Level
}

// Scheduler runs enqueued work on a fixed pool of workers under the
// two-tier policy of tierQueue. It also owns the cross-cutting serving
// aids the intake needs: the smoothed work-time estimate for
// deadline-aware admission, and the shed registry that lets an
// interactive arrival reclaim a worker from long-running bulk work.
type Scheduler struct {
	workers int

	mu      sync.Mutex
	cond    *sync.Cond // signalled on queue/worker state changes
	q       *tierQueue
	depth   [numTiers]int // admitted (queued+running) bound, 0 = unbounded
	running [numTiers]int
	closed  bool
	// runningBulk lists cancel funcs of bulk work in dispatch order
	// (front = oldest); shedding cancels the front with ErrShed.
	runningBulk *list.List

	ewmaNs atomic.Int64 // smoothed work wall time, 0 = unknown
	wg     sync.WaitGroup

	aggQueued  *obs.Level
	lQueued    [numTiers]*obs.Level
	lRunning   [numTiers]*obs.Level
	cDone      [numTiers]*obs.Counter
	cCanceled  [numTiers]*obs.Counter
	cShed      *obs.Counter
	cPeerFills *obs.Counter
	hWait      [numTiers]*obs.Histogram
	hRun       [numTiers]*obs.Histogram
}

// NewScheduler builds a scheduler and starts its workers.
func NewScheduler(cfg SchedConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Scheduler{
		workers:     cfg.Workers,
		q:           newTierQueue(cfg.BulkShare),
		runningBulk: list.New(),
		aggQueued:   cfg.Queued,
		cShed:       cfg.Obs.Counter("jobs.shed"),
		cPeerFills:  cfg.Obs.Counter("jobs.peer_fills"),
	}
	s.depth[Interactive] = cfg.InteractiveDepth
	s.depth[Bulk] = cfg.BulkDepth
	s.cond = sync.NewCond(&s.mu)
	for t := Tier(0); t < numTiers; t++ {
		name := t.String()
		s.lQueued[t] = cfg.Obs.Level("jobs.queued." + name)
		s.lRunning[t] = cfg.Obs.Level("jobs.running." + name)
		s.cDone[t] = cfg.Obs.Counter("jobs.done." + name)
		s.cCanceled[t] = cfg.Obs.Counter("jobs.canceled." + name)
		s.hWait[t] = cfg.Obs.Histogram("jobs.wait." + name)
		s.hRun[t] = cfg.Obs.Histogram("jobs.run." + name)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// NotePeerFill records that a request which would otherwise have
// queued for a worker was answered by a cluster peer instead. The
// counter (jobs.peer_fills) lets capacity planning see how much
// admission pressure the peer tier absorbs.
func (s *Scheduler) NotePeerFill() { s.cPeerFills.Inc() }

// Enqueue submits fn on a tier without blocking. fn always runs exactly
// once (with ctx, wrapped cancellable for bulk) unless the ticket is
// removed first. A full tier refuses with ErrTierFull; a closed
// scheduler with ErrClosed.
//
// An interactive enqueue that finds every worker busy and none of them
// running interactive work sheds the oldest running bulk entry: bulk
// wall time is unbounded, so waiting behind it would make interactive
// latency unbounded too. The shed entry's context is cancelled with
// cause ErrShed.
func (s *Scheduler) Enqueue(ctx context.Context, tier Tier, fn func(ctx context.Context)) (*Ticket, error) {
	t := &Ticket{tier: tier, ctx: ctx, fn: fn, enqueued: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.fullLocked(tier) {
		s.mu.Unlock()
		return nil, ErrTierFull
	}
	s.q.push(t)
	s.lQueued[tier].Inc()
	s.aggQueued.Inc()
	var shed context.CancelCauseFunc
	if tier == Interactive && s.running[Interactive]+s.running[Bulk] >= s.workers &&
		s.running[Interactive] == 0 && s.runningBulk.Len() > 0 {
		el := s.runningBulk.Front()
		s.runningBulk.Remove(el)
		shed = el.Value.(context.CancelCauseFunc)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if shed != nil {
		shed(ErrShed)
		s.cShed.Inc()
	}
	return t, nil
}

// EnqueueWait is Enqueue that blocks while the tier is full, for
// clients that want flow control instead of a refusal (the batch
// endpoint feeding many members). ctx bounds the wait: EnqueueWait
// returns ctx's cause if it dies first. The ticket carries run, so the
// admitted work can outlive the caller that queued it.
func (s *Scheduler) EnqueueWait(ctx, run context.Context, tier Tier, fn func(ctx context.Context)) (*Ticket, error) {
	for {
		t, err := s.Enqueue(run, tier, fn)
		if err != ErrTierFull {
			return t, err
		}
		// Wake when finished or removed work frees capacity, or ctx dies.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.mu.Lock()
		for !s.closed && ctx.Err() == nil && s.fullLocked(tier) {
			s.cond.Wait()
		}
		s.mu.Unlock()
		stop()
		if err := context.Cause(ctx); ctx.Err() != nil {
			return nil, err
		}
	}
}

// Remove withdraws a still-queued ticket so its fn never runs; false
// when the ticket was already dispatched.
func (s *Scheduler) Remove(t *Ticket) bool {
	s.mu.Lock()
	ok := s.q.remove(t)
	if ok {
		s.lQueued[t.tier].Dec()
		s.aggQueued.Dec()
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if ok {
		s.cCanceled[t.tier].Inc()
	}
	return ok
}

// QueueLen returns the number of waiting entries on a tier.
func (s *Scheduler) QueueLen(t Tier) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.len(t)
}

// Full reports whether a tier is at its admitted bound.
func (s *Scheduler) Full(t Tier) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fullLocked(t)
}

func (s *Scheduler) fullLocked(t Tier) bool {
	d := s.depth[t]
	return d > 0 && s.q.len(t)+s.running[t] >= d
}

// Running returns the number of dispatched entries currently executing.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running[Interactive] + s.running[Bulk]
}

// ObserveWork folds one completed unit's wall time into the smoothed
// estimate (EWMA, alpha 0.3). The caller decides what counts as real
// work — serve reports only actual solver runs, so instant cache-path
// or cancelled entries don't drag the estimate toward zero.
func (s *Scheduler) ObserveWork(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)*3/10
		}
		if nw <= 0 {
			nw = 1
		}
		if s.ewmaNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// EstimateWait predicts how long a new entry on the tier would wait for
// a worker: zero while a worker is idle or nothing has been observed
// yet, otherwise one smoothed work time per wave of entries ahead of
// it. Interactive entries only wait behind other interactive ones (the
// share policy and shedding keep bulk out of their way); bulk waits
// behind everything. A scheduling estimate over racy counters, not an
// accounting fact — good enough to refuse work that cannot meet its
// deadline.
func (s *Scheduler) EstimateWait(tier Tier) time.Duration {
	avg := time.Duration(s.ewmaNs.Load())
	if avg <= 0 {
		return 0
	}
	s.mu.Lock()
	idle := s.workers - s.running[Interactive] - s.running[Bulk]
	ahead := s.q.len(Interactive)
	if tier == Bulk {
		ahead += s.q.len(Bulk)
	}
	s.mu.Unlock()
	if idle > 0 {
		return 0
	}
	return time.Duration(ahead/s.workers+1) * avg
}

// Drain blocks until both queues are empty and no work is running, or
// ctx expires. The caller is responsible for stopping new enqueues
// first (serve refuses with 503 while draining).
func (s *Scheduler) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.running[Interactive]+s.running[Bulk] == 0 &&
			s.q.len(Interactive) == 0 && s.q.len(Bulk) == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops accepting work and releases the workers once the
// remaining queue drains. Already-queued fns still run (typically
// instantly, against their now-dead contexts); Close does not wait for
// them — pair with Drain for a graceful stop.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker is the dispatch loop: pop under the tier policy, run, repeat.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		t := s.q.pop()
		if t == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		s.lQueued[t.tier].Dec()
		s.aggQueued.Dec()
		s.running[t.tier]++
		s.lRunning[t.tier].Inc()
		ctx := t.ctx
		var cancel context.CancelCauseFunc
		var el *list.Element
		if t.tier == Bulk {
			ctx, cancel = context.WithCancelCause(t.ctx)
			el = s.runningBulk.PushBack(cancel)
		}
		s.cond.Broadcast() // depth freed: wake EnqueueWait blockers
		s.mu.Unlock()

		s.hWait[t.tier].Observe(time.Since(t.enqueued))
		start := time.Now()
		t.fn(ctx)
		s.hRun[t.tier].Observe(time.Since(start))
		if cancel != nil {
			cancel(nil)
		}

		s.mu.Lock()
		if el != nil {
			s.runningBulk.Remove(el) // no-op if shedding already unlinked it
		}
		s.running[t.tier]--
		s.lRunning[t.tier].Dec()
		s.cond.Broadcast()
		s.mu.Unlock()
		s.cDone[t.tier].Inc()
		s.mu.Lock()
	}
}
