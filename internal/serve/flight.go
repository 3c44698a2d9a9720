package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"prpart/internal/jobs"
)

// flightGroup coalesces concurrent solves of the same key: the first
// waiter becomes the leader and admits the search once; every later
// waiter — a /v1/solve request, a batch member or an async job — joins
// the same call. The solve runs under the call's own context, detached
// from any single waiter: it ends only when its last waiter leaves,
// when the scheduler sheds it, or when the server closes. A waiter's
// deadline, its client disconnecting or a job DELETE withdraws that
// one waiter, so a follower with a long deadline keeps the solve alive
// after the leader gives up — and a lone waiter that gives up stops the
// search early.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	refs   int // waiters still interested in the result

	// Set by finish before done is closed.
	body   []byte
	status int
	err    error
}

// join returns the in-flight call for key, creating one (leader = true)
// when none exists. The call's context descends from base.
func (g *flightGroup) join(base context.Context, key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = map[string]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		c.refs++
		return c, false
	}
	ctx, cancel := context.WithCancel(base)
	c := &flightCall{key: key, ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	g.calls[key] = c
	return c, true
}

// leave deregisters one waiter. When the last waiter leaves a call that
// has not finished, the solve context is cancelled so the search stops,
// and the key is released: a request arriving after that starts a
// fresh flight instead of joining one that is already dying.
func (g *flightGroup) leave(c *flightCall) {
	g.mu.Lock()
	c.refs--
	last := c.refs <= 0
	if last && g.calls[c.key] == c {
		delete(g.calls, c.key)
	}
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// finish publishes the result, wakes every waiter and deregisters the
// key so later requests consult the cache instead.
func (g *flightGroup) finish(c *flightCall, body []byte, status int, err error) {
	g.mu.Lock()
	if g.calls[c.key] == c {
		delete(g.calls, c.key)
	}
	g.mu.Unlock()
	c.body, c.status, c.err = body, status, err
	close(c.done)
	c.cancel()
}

// pending returns the number of distinct keys currently in flight.
func (g *flightGroup) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// refusal is an admission refusal. Every waiter joined on the flight so
// far shares it (see DESIGN.md §8, backpressure semantics); wait sizes
// the refused request's Retry-After.
type refusal struct {
	status int
	err    error
	wait   time.Duration
}

// lead is the lead step of the pipeline: join req's flight and, as its
// leader, admit the solve: admit queues fn on the scheduler with the
// flight call's context ctx as the ticket context, or refuses. The
// admitted solve runs runLeader on a scheduler worker. A refusal
// finishes the flight for every waiter already joined and is returned
// to the caller alone.
func (s *Server) lead(req *solveReq, admit func(ctx context.Context, fn func(context.Context)) *refusal) (*flightCall, bool, *refusal) {
	call, leader := s.flight.join(s.baseCtx, req.flightKey())
	if !leader {
		s.cCoalesced.Inc()
		return call, false, nil
	}
	if rf := admit(call.ctx, func(ctx context.Context) { s.runLeader(ctx, req, call) }); rf != nil {
		s.flight.finish(call, nil, rf.status, rf.err)
		return nil, true, rf
	}
	return call, true, nil
}

// runLeader is the scheduler-side body of a flight: solve and store,
// then publish to every waiter.
func (s *Server) runLeader(ctx context.Context, req *solveReq, call *flightCall) {
	body, status, err := s.solveAndStore(ctx, req)
	s.flight.finish(call, body, status, err)
}

// solveAndStore is the solve step every surface shares: run the search,
// classify a shed, and write a success through the cache, the store and
// the key's other ring owners.
func (s *Server) solveAndStore(ctx context.Context, req *solveReq) ([]byte, int, error) {
	body, status, err := s.solveGuarded(ctx, req)
	if err != nil && errors.Is(context.Cause(ctx), jobs.ErrShed) {
		status, err = http.StatusServiceUnavailable, errShedForLatency
		s.cBulkShed.Inc()
	}
	if err == nil {
		s.cache.Put(req.key, body)
		s.persist(req.key, body, req.check)
		// Replicate before the flight publishes: by the time any client
		// holds the response, the key's owners hold the bytes too, which
		// keeps seeded request sequences producing identical cluster
		// counters run over run.
		s.replicate(req.key, body, req.check)
	}
	return body, status, err
}

// await is the await step of the pipeline: wait for the flight's
// outcome or for the waiter's own context to end, whichever comes
// first, and leave the flight in the latter case. A solve that finished
// right at the deadline is served rather than turned into a 504. cache
// is the X-Cache label of a 200: miss for the leader, coalesced for a
// follower.
func (s *Server) await(wctx context.Context, call *flightCall, leader bool) (body []byte, cache string, status int, err error) {
	select {
	case <-call.done:
	case <-wctx.Done():
		// select picks randomly when both channels are ready.
		select {
		case <-call.done:
		default:
			s.flight.leave(call)
			if errors.Is(wctx.Err(), context.DeadlineExceeded) {
				return nil, "", http.StatusGatewayTimeout, errSolveDeadline
			}
			// Client went away; the status is never seen but keeps logs honest.
			return nil, "", http.StatusServiceUnavailable, wctx.Err()
		}
	}
	if call.err != nil {
		return nil, "", call.status, call.err
	}
	if leader {
		return call.body, "miss", http.StatusOK, nil
	}
	return call.body, "coalesced", http.StatusOK, nil
}
