package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is an async job's lifecycle position. Transitions:
//
//	queued → running → done | failed
//	queued → canceled            (removed before dispatch)
//	running → canceled           (context cancelled mid-work)
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrCanceled is the cancellation cause a DELETE on a running job
// injects; RunFuncs surface it by returning their context's error.
var ErrCanceled = errors.New("jobs: canceled by client")

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("jobs: no such job")

// RunFunc executes one async job. It must honor ctx (cancel and shed
// arrive through it) and return the result body with its HTTP status,
// or an error with the status a synchronous request would have gotten.
type RunFunc func(ctx context.Context) (body []byte, status int, err error)

// Record is the persisted form of a job — what survives a daemon
// restart. The result body itself is not duplicated here: it lives in
// the solve store under the job's solve key, exactly like a synchronous
// solve's.
type Record struct {
	V          int    `json:"v"`
	ID         string `json:"id"`
	Key        string `json:"key"`
	Tier       string `json:"tier"`
	State      State  `json:"state"`
	HTTPStatus int    `json:"httpStatus,omitempty"`
	Error      string `json:"error,omitempty"`
	CreatedMs  int64  `json:"createdUnixMs"`
	StartedMs  int64  `json:"startedUnixMs,omitempty"`
	FinishedMs int64  `json:"finishedUnixMs,omitempty"`
}

// RecordVersion is the current Record schema version.
const RecordVersion = 1

// Job is one async work item. All fields are read through snapshots
// (Record / Body); the manager owns the mutations.
type Job struct {
	mu       sync.Mutex
	id       string
	key      string
	tier     Tier
	state    State
	status   int
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	body     []byte

	cancel context.CancelCauseFunc
	ticket *Ticket
	done   chan struct{}
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Body returns the result bytes of a done job (nil otherwise).
func (j *Job) Body() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.body
}

// Record snapshots the job into its persistable form.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recordLocked()
}

func (j *Job) recordLocked() Record {
	r := Record{
		V: RecordVersion, ID: j.id, Key: j.key, Tier: j.tier.String(),
		State: j.state, HTTPStatus: j.status, Error: j.errMsg,
		CreatedMs: j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		r.StartedMs = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		r.FinishedMs = j.finished.UnixMilli()
	}
	return r
}

// ManagerConfig tunes a Manager.
type ManagerConfig struct {
	// Sched executes the jobs. Required.
	Sched *Scheduler
	// Persist, if set, is called with the job's record at every terminal
	// transition; serve wires it to the solve store so finished jobs
	// survive a restart. Errors are reported to the caller of neither —
	// persistence is best-effort, the in-memory state is authoritative
	// while the process lives.
	Persist func(Record)
	// Load, if set, resolves ids absent from memory (evicted or from a
	// previous daemon life) from persistent storage.
	Load func(id string) (Record, bool)
	// MaxFinished bounds how many terminal jobs stay in memory; the
	// oldest-finished are evicted first (their records remain loadable
	// through Load). Default 1024.
	MaxFinished int
}

// Manager owns the async job table: submission, polling, cancellation,
// retention and persistence.
type Manager struct {
	cfg ManagerConfig

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // ids in terminal order, oldest first
}

// NewManager builds a Manager over a scheduler.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 1024
	}
	return &Manager{cfg: cfg, jobs: map[string]*Job{}}
}

// newJobID returns a fresh "j-" + 16 hex chars id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Submit enqueues run as an async job on tier and returns it in state
// queued (or, rarely, already past it). The job's context descends from
// base — a daemon shutdown cancels every job. Tier-full propagates as
// ErrTierFull for the caller to map to backpressure.
func (m *Manager) Submit(base context.Context, key string, tier Tier, run RunFunc) (*Job, error) {
	jctx, cancel := context.WithCancelCause(base)
	j := &Job{
		id: newJobID(), key: key, tier: tier, state: StateQueued,
		status: 0, created: time.Now(), cancel: cancel, done: make(chan struct{}),
	}
	fn := func(ctx context.Context) { m.runJob(j, ctx, run) }
	ticket, err := m.cfg.Sched.Enqueue(jctx, tier, fn)
	if err != nil {
		cancel(err)
		return nil, err
	}
	j.ticket = ticket
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()
	return j, nil
}

// runJob is the scheduler-side body of a job: run, classify, finish.
func (m *Manager) runJob(j *Job, ctx context.Context, run RunFunc) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled between dispatch and here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	body, status, err := run(ctx)

	state := StateDone
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
		if errors.Is(context.Cause(ctx), ErrCanceled) {
			state = StateCanceled
		} else {
			state = StateFailed
		}
	}
	m.finish(j, state, status, errMsg, body)
}

// finish moves a job to a terminal state exactly once: records the
// outcome, persists, applies retention and closes Done. Retention comes
// before Done, so a caller woken by Done never finds a job that this
// transition evicted still live.
func (m *Manager) finish(j *Job, state State, status int, errMsg string, body []byte) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.status = status
	j.errMsg = errMsg
	if state == StateDone {
		j.body = body
	}
	j.finished = time.Now()
	rec := j.recordLocked()
	j.mu.Unlock()
	j.cancel(nil)
	if m.cfg.Persist != nil {
		m.cfg.Persist(rec)
	}
	m.mu.Lock()
	m.finished = append(m.finished, j.id)
	for len(m.finished) > m.cfg.MaxFinished {
		evict := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, evict)
	}
	m.mu.Unlock()
	close(j.done)
}

// Get returns the live job for id, or — when it has been evicted or
// belongs to a previous daemon life — its persisted record through
// Load. The boolean pair distinguishes (live, _) from (nil, record).
func (m *Manager) Get(id string) (*Job, Record, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return j, j.Record(), true
	}
	if m.cfg.Load != nil {
		if rec, ok := m.cfg.Load(id); ok {
			return nil, rec, true
		}
	}
	return nil, Record{}, false
}

// Cancel stops a job: a still-queued job is withdrawn from the
// scheduler and finishes as canceled immediately; a running one has its
// context cancelled with ErrCanceled and transitions when its RunFunc
// observes it. Terminal jobs are left untouched (ok, no-op). Unknown
// ids return ErrNotFound.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		// A persisted job from a previous life is terminal by
		// construction; cancelling it is a no-op.
		if m.cfg.Load != nil {
			if rec, ok := m.cfg.Load(id); ok {
				return rec, nil
			}
		}
		return Record{}, ErrNotFound
	}
	j.mu.Lock()
	state := j.state
	ticket := j.ticket
	j.mu.Unlock()
	if state == StateQueued && ticket != nil && m.cfg.Sched.Remove(ticket) {
		m.finish(j, StateCanceled, 0, ErrCanceled.Error(), nil)
		return j.Record(), nil
	}
	if !state.Terminal() {
		j.cancel(ErrCanceled)
	}
	return j.Record(), nil
}

// List returns a page of in-memory job records, newest first
// (CreatedMs descending, ties broken by id so the order is total), and
// the number of records matching the filter before pagination. A
// non-empty state keeps only jobs in that state; offset/limit slice
// the filtered, sorted list (limit <= 0 means no bound). Persisted
// records of evicted jobs are not listed — the listing is an admin
// view of the live table, and evicted ids remain reachable through
// Get.
func (m *Manager) List(state State, offset, limit int) ([]Record, int) {
	m.mu.Lock()
	live := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()
	recs := make([]Record, 0, len(live))
	for _, j := range live {
		r := j.Record()
		if state != "" && r.State != state {
			continue
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, k int) bool {
		if recs[i].CreatedMs != recs[k].CreatedMs {
			return recs[i].CreatedMs > recs[k].CreatedMs
		}
		return recs[i].ID < recs[k].ID
	})
	total := len(recs)
	if offset > len(recs) {
		offset = len(recs)
	}
	recs = recs[offset:]
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	return recs, total
}

// Counts returns the number of in-memory jobs per state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[State]int{}
	for _, j := range m.jobs {
		out[j.State()]++
	}
	return out
}
