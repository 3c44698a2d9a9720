package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"prpart/internal/cluster"
	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/jobs"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/store"
)

// SolveFunc runs the flow for one request. The default is
// core.RunContext; tests substitute stubs to script slow or failing
// solves without a real search.
type SolveFunc func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// Workers bounds concurrent solves; excess requests queue.
	// Default: GOMAXPROCS.
	Workers int
	// InteractiveDepth bounds how many latency-sensitive solves may be
	// admitted (queued or running) at once; overflow is refused with 429
	// and a Retry-After header. Default: 5×Workers.
	InteractiveDepth int
	// BulkDepth is the same bound for the bulk tier (batch members,
	// async jobs, bulk-marked solves); overflow gets 503. Bulk work
	// tolerates queueing, so its default is deeper: 17×Workers.
	BulkDepth int
	// BulkShare is the guaranteed bulk fraction of contended dequeues:
	// when both tiers have waiters, every BulkShare-th grant goes to
	// bulk, so a saturating interactive stream can never starve bulk.
	// Default: 4.
	BulkShare int
	// MaxBatchItems bounds the number of requests in one
	// POST /v1/solve/batch body; overflow is a 413. Default: 256.
	MaxBatchItems int
	// JitterSeed seeds the Retry-After jitter so tests and chaos runs
	// can pin the backoff sequence. Production leaves it 0 and gets a
	// fixed-but-harmless default seed.
	JitterSeed int64
	// JobsRetention bounds how many finished async jobs stay pollable
	// in memory (older ones remain loadable from the store). Default:
	// 1024.
	JobsRetention int
	// CacheEntries bounds the solve cache (0 uses the default;
	// negative disables caching). Default: 256.
	CacheEntries int
	// DefaultTimeout caps solves whose request sets no timeoutMs
	// (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds the request body. Default: 8 MiB.
	MaxBodyBytes int64
	// SolveWorkers is the per-solve search parallelism
	// (partition.Options.Workers). Default: 1 — the pool provides the
	// cross-request parallelism, so each search stays serial and cheap.
	SolveWorkers int
	// Obs receives the service instruments. Nil creates a fresh
	// registry (the daemon always serves /metrics).
	Obs *obs.Obs
	// Library overrides the built-in device catalog for every solve.
	// Deployment configuration, not part of the request: cache keys do
	// not cover it, so restart the daemon (emptying the cache) when the
	// library changes.
	Library []*device.Device
	// Solver overrides the flow entry point (tests). Nil = core.RunContext.
	Solver SolveFunc
	// Check verifies every solve with the independent oracle
	// (internal/check) before serving it; violations surface as 500s.
	// Individual requests can opt in per call with ?check=1 on
	// /v1/solve regardless of this setting.
	Check bool
	// Store is an optional persistent second tier behind the in-memory
	// cache: every solved body is written through, and a restarted
	// daemon serves previously-solved keys byte-identically from disk
	// (X-Cache: store) without re-running the search. Store errors
	// degrade to memory-only serving; they never fail a request.
	// Finished async job records persist here too (under "job:" keys).
	Store *store.Store
	// CacheMaxBody bounds the size of a single cached body (0 = no
	// bound). Oversized bodies are still served and persisted, just not
	// held in the memory tier.
	CacheMaxBody int64
	// Cluster is the optional peer layer (internal/cluster). When set,
	// misses in the cache and store tiers ask the key's ring owners
	// before solving locally (X-Cache: peer), fresh solves replicate to
	// the other owners, and the server answers the peer fetch/push
	// endpoints for its own shard.
	Cluster *cluster.Peers
}

// Server is the partitioning service: two-tier scheduled worker pool,
// solve cache, request coalescing, batch fan-out, async jobs and
// graceful drain behind an http.Handler.
type Server struct {
	cfg     Config
	obs     *obs.Obs
	cache   *Cache
	store   *store.Store
	cluster *cluster.Peers
	flight  flightGroup
	solver  SolveFunc

	sched  *jobs.Scheduler
	jitter *jobs.Jitter
	jobMgr *jobs.Manager

	baseCtx  context.Context
	shutdown context.CancelFunc
	draining chan struct{}
	started  time.Time
	mux      *http.ServeMux

	// Instruments (all nil-safe).
	cRequests, cSolves, cCoalesced, cRejected, cErrors  *obs.Counter
	cPanics, cRejectedDeadline, cBulkShed, cStoreServes *obs.Counter
	cBatches, cBatchDups, cJobsSubmitted                *obs.Counter
	cPeerServes, cFetchServed, cFetchMissed             *obs.Counter
	cPushesReceived                                     *obs.Counter
	lQueued, lInflight                                  *obs.Level
	tSolve                                              *obs.Timer
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.InteractiveDepth <= 0 {
		cfg.InteractiveDepth = 5 * cfg.Workers
	}
	if cfg.BulkDepth <= 0 {
		cfg.BulkDepth = 17 * cfg.Workers
	}
	if cfg.BulkShare <= 0 {
		cfg.BulkShare = 4
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.SolveWorkers == 0 {
		cfg.SolveWorkers = 1
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		cache:    NewCache(cfg.CacheEntries, cfg.Obs),
		store:    cfg.Store,
		cluster:  cfg.Cluster,
		solver:   cfg.Solver,
		jitter:   jobs.NewJitter(cfg.JitterSeed),
		draining: make(chan struct{}),
		started:  time.Now(),

		cRequests:         cfg.Obs.Counter("serve.requests"),
		cSolves:           cfg.Obs.Counter("serve.solves"),
		cCoalesced:        cfg.Obs.Counter("serve.coalesced"),
		cRejected:         cfg.Obs.Counter("serve.rejected_queue_full"),
		cErrors:           cfg.Obs.Counter("serve.errors"),
		cPanics:           cfg.Obs.Counter("serve.solver_panics"),
		cRejectedDeadline: cfg.Obs.Counter("serve.rejected_deadline"),
		cBulkShed:         cfg.Obs.Counter("serve.bulk_shed"),
		cStoreServes:      cfg.Obs.Counter("serve.store_serves"),
		cBatches:          cfg.Obs.Counter("serve.batches"),
		cBatchDups:        cfg.Obs.Counter("serve.batch_dups"),
		cJobsSubmitted:    cfg.Obs.Counter("serve.jobs_submitted"),
		cPeerServes:       cfg.Obs.Counter("serve.peer_serves"),
		cFetchServed:      cfg.Obs.Counter("cluster.fetch_served"),
		cFetchMissed:      cfg.Obs.Counter("cluster.fetch_missed"),
		cPushesReceived:   cfg.Obs.Counter("cluster.pushes_received"),
		lQueued:           cfg.Obs.Level("serve.queue_depth"),
		lInflight:         cfg.Obs.Level("serve.inflight"),
		tSolve:            cfg.Obs.Timer("serve.solve"),
	}
	s.cache.SetMaxBody(cfg.CacheMaxBody)
	if s.solver == nil {
		s.solver = core.RunContext
	}
	s.sched = jobs.NewScheduler(jobs.SchedConfig{
		Workers:          cfg.Workers,
		InteractiveDepth: cfg.InteractiveDepth,
		BulkDepth:        cfg.BulkDepth,
		BulkShare:        cfg.BulkShare,
		Obs:              cfg.Obs,
		Queued:           s.lQueued,
	})
	s.jobMgr = jobs.NewManager(jobs.ManagerConfig{
		Sched:       s.sched,
		MaxFinished: cfg.JobsRetention,
		Persist:     s.persistJob,
		Load:        s.loadJob,
	})
	s.baseCtx, s.shutdown = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	if s.cluster != nil {
		s.mux.HandleFunc("POST "+cluster.FetchPath, s.handlePeerFetch)
		s.mux.HandleFunc("POST "+cluster.PushPath, s.handlePeerPush)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Inflight returns the number of solves currently running a search.
func (s *Server) Inflight() int64 { return s.lInflight.Value() }

// Queued returns the number of admitted solves waiting for a worker.
func (s *Server) Queued() int64 { return s.lQueued.Value() }

// Shutdown drains the server gracefully: new solve requests are refused
// with 503, while every admitted solve and async job runs to
// completion. It returns when the scheduler is idle or ctx expires.
// Wrap it around http.Server.Shutdown — refusing new work first keeps
// the listener's drain bounded.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	return s.sched.Drain(ctx)
}

// Close aborts hard: pending solves are cancelled mid-search and the
// worker pool stops once its queue drains.
func (s *Server) Close() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	s.shutdown()
	s.sched.Close()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// errStatus maps a solve error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, partition.ErrInfeasible), errors.Is(err, partition.ErrNoScheme):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

var (
	errQueueFull        = errors.New("serve: queue full")
	errBulkQueueFull    = errors.New("serve: bulk queue full")
	errDeadlineTooTight = errors.New("serve: estimated queue wait exceeds request deadline")
	errShedForLatency   = errors.New("serve: bulk solve shed for latency-sensitive work")
	errSolveDeadline    = errors.New("serve: solve deadline exceeded")
)

// retryAfter stamps a jittered Retry-After header sized to est (or the
// 1-second floor when est is tiny). Jitter desynchronizes retry storms:
// a thousand clients refused in the same instant come back spread over
// the backoff window instead of as a thundering herd.
func (s *Server) retryAfter(w http.ResponseWriter, est time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jitter.RetryAfter(est)))
}

// tierOf maps a request's serving class to its scheduler tier.
func tierOf(bulk bool) jobs.Tier {
	if bulk {
		return jobs.Bulk
	}
	return jobs.Interactive
}

// solveReq is one decoded solve: the unit every surface — a /v1/solve
// body, a batch member, an async job — hands the pipeline.
type solveReq struct {
	sp  *SolveSpec
	key string // content-addressed cache key
	// timeout bounds this waiter (0 = no deadline); it never bounds a
	// flight another waiter still needs.
	timeout time.Duration
	bulk    bool
	// check verifies the result with the independent oracle (server-wide
	// Check, or the debug query ?check=1). fresh is ?check=1 itself: it
	// bypasses the read tiers so the verification actually runs; the
	// verified body is still cached for everyone else (the bytes are
	// identical either way).
	check, fresh bool
}

// flightKey is the coalescing key. Checked and unchecked requests must
// not coalesce onto each other: a follower asking for verification
// would otherwise ride on a leader that skipped it. The flight key is
// namespaced; the cache key is not.
func (req *solveReq) flightKey() string {
	if req.check {
		return req.key + "+check"
	}
	return req.key
}

// waitCtx derives the waiter's context from parent, bounded by the
// request's deadline.
func (req *solveReq) waitCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if req.timeout > 0 {
		return context.WithTimeout(parent, req.timeout)
	}
	return context.WithCancel(parent)
}

// intake is the transport half of the intake the three POST surfaces
// share: method and drain checks, then the body read under
// MaxBodyBytes. count is the surface's request counter. ok is false
// when the response has already been written.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, count *obs.Counter) (raw []byte, urlCheck, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return nil, false, false
	}
	count.Inc()
	if s.isDraining() {
		s.retryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: shutting down"))
		return nil, false, false
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest // client abort / network read failure
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("serve: reading body: %w", err))
		return nil, false, false
	}
	return raw, r.URL.Query().Get("check") == "1", true
}

// parseSolve is the decode half of the intake: one solve request body
// to its spec, key and deadline. Every error is a 400.
func (s *Server) parseSolve(raw []byte, urlCheck bool) (*solveReq, error) {
	sp, meta, err := DecodeRequest(raw)
	if err != nil {
		return nil, err
	}
	key, err := sp.Key()
	if err != nil {
		return nil, err
	}
	req := &solveReq{sp: sp, key: key, timeout: meta.Timeout, bulk: meta.Bulk,
		check: s.cfg.Check || urlCheck, fresh: urlCheck}
	if req.timeout == 0 {
		req.timeout = s.cfg.DefaultTimeout
	}
	return req, nil
}

// readTiers serves req from the read tiers unless it asks for a fresh,
// verified solve.
func (s *Server) readTiers(ctx context.Context, req *solveReq) ([]byte, string, bool) {
	if req.fresh {
		return nil, "", false
	}
	return s.lookup(ctx, req.key)
}

// handleSolve is POST /v1/solve: decode, consult the read tiers, then
// lead or join the key's flight and await it. The response body of a
// 200 is byte-identical to `prpart -json` on the same input;
// X-Solve-Key carries the content-addressed key and X-Cache reports
// the tier that served it.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	raw, urlCheck, ok := s.intake(w, r, s.cRequests)
	if !ok {
		return
	}
	req, err := s.parseSolve(raw, urlCheck)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("X-Solve-Key", req.key)
	wctx, cancel := req.waitCtx(r.Context())
	defer cancel()
	if body, tier, ok := s.readTiers(wctx, req); ok {
		s.respond(w, tier, body)
		return
	}

	tier := tierOf(req.bulk)
	call, leader, rf := s.lead(req, func(ctx context.Context, fn func(context.Context)) *refusal {
		// Deadline-aware admission: refuse work that cannot possibly
		// meet its deadline instead of letting it queue, burn a slot and
		// time out anyway. Retry-After carries the wait estimate.
		if dl, ok := wctx.Deadline(); ok {
			if est := s.sched.EstimateWait(tier); est > 0 && est > time.Until(dl) {
				s.cRejectedDeadline.Inc()
				return &refusal{http.StatusTooManyRequests, errDeadlineTooTight, est}
			}
		}
		// An interactive enqueue that finds every worker stuck in bulk
		// sheds the oldest bulk solve inside the scheduler.
		if _, err := s.sched.Enqueue(ctx, tier, fn); err != nil {
			// Interactive overflow is the client's cue to back off (429),
			// bulk overflow says the service is saturated with throughput
			// work (503).
			s.cRejected.Inc()
			rf := &refusal{http.StatusTooManyRequests, errQueueFull, s.sched.EstimateWait(tier)}
			if tier == jobs.Bulk {
				rf.status, rf.err = http.StatusServiceUnavailable, errBulkQueueFull
			}
			return rf
		}
		return nil
	})
	if rf != nil {
		s.retryAfter(w, rf.wait)
		writeError(w, rf.status, rf.err)
		return
	}
	body, cache, status, err := s.await(wctx, call, leader)
	if err != nil {
		if status == http.StatusTooManyRequests || errors.Is(err, errShedForLatency) {
			s.retryAfter(w, time.Second)
		}
		s.cErrors.Inc()
		writeError(w, status, err)
		return
	}
	if req.check {
		w.Header().Set("X-Check", "pass")
	}
	s.respond(w, cache, body)
}

func (s *Server) respond(w http.ResponseWriter, cache string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// solveGuarded is solve behind a panic barrier: a panicking solver (or
// renderer) downs one request with a 500, never the daemon — and never
// a scheduler worker.
func (s *Server) solveGuarded(ctx context.Context, req *solveReq) (body []byte, status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cPanics.Inc()
			s.obs.Emit("serve", "solve.panic", slog.String("key", req.key), slog.String("panic", fmt.Sprint(r)))
			body, status, err = nil, http.StatusInternalServerError, fmt.Errorf("serve: solver panicked: %v", r)
		}
	}()
	return s.solve(ctx, req.key, req.sp, req.check)
}

// persist writes a solved body through to the store tier. Failures
// degrade to memory-only serving: the store counts them, the request
// already has its answer.
func (s *Server) persist(key string, body []byte, checked bool) {
	if s.store == nil {
		return
	}
	v := store.VerdictUnchecked
	if checked {
		v = store.VerdictPass
	}
	if err := s.store.Put(key, body, v); err != nil {
		s.obs.Emit("serve", "store.put_error", slog.String("key", key), slog.String("err", err.Error()))
	}
}

// solve runs the flow under the call context and renders the canonical
// result bytes. It executes on a scheduler worker, which is the
// concurrency bound; only real solver wall time feeds the smoothed
// admission estimate.
func (s *Server) solve(ctx context.Context, key string, sp *SolveSpec, docheck bool) ([]byte, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, errStatus(err), fmt.Errorf("serve: cancelled before solving: %w", err)
	}
	s.lInflight.Inc()
	defer s.lInflight.Dec()
	s.cSolves.Inc()
	stop := s.tSolve.Time()
	defer stop()
	s.obs.Emit("serve", "solve.start", slog.String("key", key), slog.String("design", sp.Design.Name))

	copts := sp.CoreOptions(s.cfg.SolveWorkers, s.obs)
	copts.Library = s.cfg.Library
	begin := time.Now()
	res, err := s.solver(ctx, sp.Design, copts)
	s.sched.ObserveWork(time.Since(begin))
	if err != nil {
		s.obs.Emit("serve", "solve.error", slog.String("key", key), slog.String("err", err.Error()))
		return nil, errStatus(err), err
	}
	if docheck {
		if verr := verifyResult(res); verr != nil {
			s.obs.Emit("serve", "solve.check_failed", slog.String("key", key), slog.String("err", verr.Error()))
			return nil, http.StatusInternalServerError, verr
		}
	}
	var plan *floorplan.Plan
	if sp.Floorplan {
		plan, err = floorplan.Place(res.Scheme, res.Device)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("serve: floorplanning: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, BuildResult(res, plan)); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	s.obs.Emit("serve", "solve.done", slog.String("key", key),
		slog.Int("total_frames", res.Summary.Total), slog.Int("bytes", buf.Len()))
	return buf.Bytes(), http.StatusOK, nil
}

// healthState is the /healthz response body.
type healthState struct {
	Status    string `json:"status"` // "ok" or "draining"
	UptimeSec int64  `json:"uptimeSec"`
	Inflight  int64  `json:"inflight"`
	Queued    int64  `json:"queued"`
	Pending   int    `json:"pendingKeys"`
	Cache     struct {
		Entries   int   `json:"entries"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Jobs    *jobsHealth    `json:"jobs,omitempty"`
	Store   *storeHealth   `json:"store,omitempty"`
	Cluster *clusterHealth `json:"cluster,omitempty"`
}

// jobsHealth summarizes the two-tier intake and async job table.
type jobsHealth struct {
	InteractiveQueued int            `json:"interactiveQueued"`
	BulkQueued        int            `json:"bulkQueued"`
	Running           int            `json:"running"`
	States            map[string]int `json:"states,omitempty"`
}

// storeHealth summarizes the persistent tier in /healthz.
type storeHealth struct {
	Keys            int   `json:"keys"`
	Hits            int64 `json:"hits"`
	CorruptBlobs    int64 `json:"corruptBlobs"`
	QuarantinedKeys int64 `json:"quarantinedKeys"`
	RecoveredBytes  int64 `json:"recoveredTruncatedBytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := healthState{Status: "ok", UptimeSec: int64(time.Since(s.started).Seconds())}
	if s.isDraining() {
		st.Status = "draining"
	}
	st.Inflight = s.lInflight.Value()
	st.Queued = s.lQueued.Value()
	st.Pending = s.flight.pending()
	st.Cache.Entries = s.cache.Len()
	snap := s.obs.Snapshot()
	st.Cache.Hits = snap.Counters["serve.cache_hits"]
	st.Cache.Misses = snap.Counters["serve.cache_misses"]
	st.Cache.Evictions = snap.Counters["serve.cache_evictions"]
	jh := &jobsHealth{
		InteractiveQueued: s.sched.QueueLen(jobs.Interactive),
		BulkQueued:        s.sched.QueueLen(jobs.Bulk),
		Running:           s.sched.Running(),
	}
	if counts := s.jobMgr.Counts(); len(counts) > 0 {
		jh.States = map[string]int{}
		for state, n := range counts {
			jh.States[string(state)] = n
		}
	}
	st.Jobs = jh
	if s.store != nil {
		st.Store = &storeHealth{
			Keys:            s.store.Len(),
			Hits:            snap.Counters["store.hits"],
			CorruptBlobs:    snap.Counters["store.corrupt_blobs"],
			QuarantinedKeys: snap.Counters["store.quarantined_keys"],
			RecoveredBytes:  s.store.Recovery().TruncatedBytes,
		}
	}
	if s.cluster != nil {
		st.Cluster = &clusterHealth{
			Self:     s.cluster.Self(),
			RingSize: s.cluster.Ring().Size(),
			Replicas: s.cluster.Replicas(),
			Peers:    s.cluster.Health(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.obs.WriteMetrics(w)
}

// handleVars serves the flat instrument map as JSON, expvar-style.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.obs.Snapshot().Flat())
}
