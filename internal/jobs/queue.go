// Package jobs is the daemon's work-management subsystem: a two-tier
// priority intake (interactive vs. bulk) feeding a bounded worker pool,
// plus an asynchronous job manager with a persistent, restart-surviving
// record of completed work.
//
// The scheduling policy is starvation-proof by construction: interactive
// work is preferred, but when both tiers have waiters a fixed 1-in-N
// share of dequeues goes to bulk, so a saturating interactive stream can
// slow bulk work down by at most a constant factor and can never park it
// forever. Conversely, interactive work never queues behind a wall of
// bulk: when every worker is busy running bulk, the oldest running bulk
// solve is shed (cancelled with ErrShed) to free capacity immediately.
// The policy core (tierQueue) is a pure data structure with no clocks or
// goroutines, so its fairness properties are pinned by deterministic
// tests.
package jobs

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"time"
)

// Tier classifies work by latency sensitivity.
type Tier int

const (
	// Interactive is latency-sensitive work: a user waiting on the
	// response of a synchronous solve.
	Interactive Tier = iota
	// Bulk is throughput work: batch fan-outs, async jobs, sweeps.
	Bulk
	numTiers
)

// String returns the tier's wire name.
func (t Tier) String() string {
	switch t {
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

var (
	// ErrTierFull reports that a tier's queue-depth bound is reached.
	ErrTierFull = errors.New("jobs: tier queue full")
	// ErrShed reports that a running bulk solve was cancelled to free
	// capacity for interactive work. It is delivered as the context
	// cancellation cause; shed work is safe to retry.
	ErrShed = errors.New("jobs: bulk work shed for interactive work")
	// ErrClosed reports an enqueue on a closed scheduler.
	ErrClosed = errors.New("jobs: scheduler closed")
)

// Ticket is a unit of queued work. It is created by enqueue and owned by
// the queue until dispatched or removed.
type Ticket struct {
	tier     Tier
	ctx      context.Context
	fn       func(ctx context.Context)
	enqueued time.Time
	el       *list.Element // non-nil while queued
}

// tierQueue is the pure scheduling core: one FIFO per tier and a
// bounded-bulk-share pick policy. Depth bounds live one layer up in the
// Scheduler (they cover dispatched work too, not just waiting work). It
// is not safe for concurrent use; the Scheduler serializes access.
// Keeping it free of clocks, channels and goroutines makes the fairness
// policy testable as a deterministic sequence of push/pop calls.
type tierQueue struct {
	q [numTiers]*list.List

	// bulkEvery is the guaranteed bulk share: when both tiers have
	// waiters, every bulkEvery-th pop takes from bulk. Values <= 1 mean
	// strict alternation is impossible — bulk is picked every pop that
	// both tiers contend, which would invert the priority — so the
	// scheduler normalizes to >= 2.
	bulkEvery int
	// sinceBulk counts consecutive contended pops that went to
	// interactive since bulk was last served.
	sinceBulk int
}

func newTierQueue(bulkEvery int) *tierQueue {
	if bulkEvery < 2 {
		bulkEvery = 2
	}
	tq := &tierQueue{bulkEvery: bulkEvery}
	for i := range tq.q {
		tq.q[i] = list.New()
	}
	return tq
}

// push appends a ticket to its tier.
func (tq *tierQueue) push(t *Ticket) {
	t.el = tq.q[t.tier].PushBack(t)
}

// pop removes and returns the next ticket under the bounded-bulk-share
// policy, or nil when both tiers are empty. With only one tier waiting
// that tier is served; with both waiting, interactive is preferred
// except every bulkEvery-th contended pop, which goes to bulk.
func (tq *tierQueue) pop() *Ticket {
	iq, bq := tq.q[Interactive], tq.q[Bulk]
	var take *list.List
	switch {
	case iq.Len() == 0 && bq.Len() == 0:
		return nil
	case iq.Len() == 0:
		take = bq
	case bq.Len() == 0:
		take = iq
	case tq.sinceBulk >= tq.bulkEvery-1:
		take = bq
	default:
		take = iq
	}
	if take == bq {
		tq.sinceBulk = 0
	} else {
		tq.sinceBulk++
	}
	el := take.Front()
	take.Remove(el)
	t := el.Value.(*Ticket)
	t.el = nil
	return t
}

// remove deletes a still-queued ticket; false when it was already
// dispatched (or removed).
func (tq *tierQueue) remove(t *Ticket) bool {
	if t.el == nil {
		return false
	}
	tq.q[t.tier].Remove(t.el)
	t.el = nil
	return true
}

// len returns the number of queued tickets on a tier.
func (tq *tierQueue) len(t Tier) int { return tq.q[t].Len() }
