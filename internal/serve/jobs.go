package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"prpart/internal/jobs"
	"prpart/internal/store"
)

// The async job API:
//
//	POST   /v1/jobs             submit a solve, get an id back (202)
//	GET    /v1/jobs             list live jobs (state=, limit=, offset=)
//	GET    /v1/jobs/{id}        poll the job record
//	GET    /v1/jobs/{id}/result fetch the result body once done
//	DELETE /v1/jobs/{id}        cancel (queued: withdrawn; running: ctx cancel)
//
// Jobs always run on the bulk tier. Terminal records persist through
// the solve store under "job:"+id, so a restarted daemon still answers
// polls for finished jobs; the result body itself lives under the
// job's solve key exactly like a synchronous solve's, so it is served
// from the store tier byte-identically. Jobs that were queued or
// running when the daemon died are simply gone after restart (404):
// the client's resubmit hits the cache/store if the solve finished, or
// re-runs it if not — either way no work is lost or duplicated.

// jobSubmitResponse is the wire schema of a 202 from POST /v1/jobs.
type jobSubmitResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
}

// handleJobSubmit is POST /v1/jobs: the body is a single solve request
// (same schema as /v1/solve), the response a job id to poll.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	raw, urlCheck, ok := s.intake(w, r, s.cRequests)
	if !ok {
		return
	}
	req, err := s.parseSolve(raw, urlCheck)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.jobMgr.Submit(s.baseCtx, req.key, jobs.Bulk, func(ctx context.Context) ([]byte, int, error) {
		return s.runJobSolve(ctx, req)
	})
	if err != nil {
		if errors.Is(err, jobs.ErrTierFull) {
			s.cRejected.Inc()
			s.retryAfter(w, s.sched.EstimateWait(jobs.Bulk))
			writeError(w, http.StatusServiceUnavailable, errBulkQueueFull)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.cJobsSubmitted.Inc()
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	w.Header().Set("X-Solve-Key", req.key)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(jobSubmitResponse{ID: job.ID(), Key: req.key, State: string(job.State())})
}

// runJobSolve is the RunFunc of an async job. It executes on a
// scheduler worker, and a worker must never block on a flight whose
// leader may itself still be queued: with every worker waiting, nothing
// would ever run the leader (deadlock). So a job that loses the flight
// race leaves at once and solves independently; the duplicate solve is
// idempotent (same key, same bytes) and the window is a rare same-key
// overlap between a job and an in-flight synchronous solve.
//
// A job that leads is already admitted — it holds this worker — so it
// runs the flight's solve inline, under the call's context like any
// other leader. The job is one waiter on that flight: its deadline, a
// DELETE or a server close withdraws the job alone, while a shed of
// this worker cancels the solve for every waiter.
//
// A job whose own timeoutMs passes records 504, as /v1/solve and batch
// members answer: it ran out of time rather than being refused, so a
// client must not resubmit it as it would a 503.
func (s *Server) runJobSolve(ctx context.Context, req *solveReq) (body []byte, status int, err error) {
	ctx, cancel := req.waitCtx(ctx)
	defer cancel()
	defer func() {
		if errors.Is(err, context.DeadlineExceeded) {
			body, status, err = nil, http.StatusGatewayTimeout, errSolveDeadline
		}
	}()
	if body, _, ok := s.readTiers(ctx, req); ok {
		return body, http.StatusOK, nil
	}
	call, leader := s.flight.join(s.baseCtx, req.flightKey())
	if !leader {
		s.flight.leave(call)
		return s.solveAndStore(ctx, req)
	}
	sctx, shed := context.WithCancelCause(call.ctx)
	defer shed(nil)
	// The job's end counts as a withdrawal only while the flight is
	// unpublished, the rule await applies: a solve published before the
	// deadline fired is served rather than turned into a 504.
	withdrawn := make(chan bool, 1)
	stop := context.AfterFunc(ctx, func() {
		if errors.Is(context.Cause(ctx), jobs.ErrShed) {
			shed(jobs.ErrShed)
			withdrawn <- false
			return
		}
		select {
		case <-call.done:
			withdrawn <- false
		default:
			s.flight.leave(call)
			withdrawn <- true
		}
	})
	s.runLeader(sctx, req, call)
	if !stop() && <-withdrawn {
		return nil, errStatus(ctx.Err()), ctx.Err()
	}
	return call.body, call.status, call.err
}

// jobListResponse is the wire schema of GET /v1/jobs.
type jobListResponse struct {
	Jobs   []jobs.Record `json:"jobs"`
	Total  int           `json:"total"`
	Offset int           `json:"offset"`
	Limit  int           `json:"limit"`
}

// Listing page-size bounds: the default keeps a bare GET /v1/jobs
// cheap, the cap bounds response size however large limit= claims.
const (
	jobListDefaultLimit = 100
	jobListMaxLimit     = 1000
)

// handleJobList is GET /v1/jobs: a paginated admin view of the live
// job table, newest first. Query parameters: state= filters to one
// lifecycle state (queued|running|done|failed|canceled), limit= and
// offset= page through the filtered list. total counts every match
// before pagination, so a client can walk pages without racing its own
// arithmetic.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state jobs.State
	if v := q.Get("state"); v != "" {
		switch jobs.State(v) {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			state = jobs.State(v)
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown state %q", v))
			return
		}
	}
	limit := jobListDefaultLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad limit %q", v))
			return
		}
		limit = min(n, jobListMaxLimit)
	}
	offset := 0
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad offset %q", v))
			return
		}
		offset = n
	}
	recs, total := s.jobMgr.List(state, offset, limit)
	if recs == nil {
		recs = []jobs.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(jobListResponse{Jobs: recs, Total: total, Offset: offset, Limit: limit})
}

// handleJobGet is GET /v1/jobs/{id}: the job record, live or persisted.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	_, rec, ok := s.jobMgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

// handleJobResult is GET /v1/jobs/{id}/result: the solve body for done
// jobs (resolved through the cache/store tiers after an eviction or
// restart), the stored failure for failed/canceled ones, and 202 with
// the record while the job is still queued or running.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, rec, ok := s.jobMgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	w.Header().Set("X-Solve-Key", rec.Key)
	switch rec.State {
	case jobs.StateDone:
		if job != nil {
			if body := job.Body(); body != nil {
				s.respond(w, "job", body)
				return
			}
		}
		// Evicted or from a previous daemon life: the body lives under
		// the solve key in the ordinary result tiers (including the
		// cluster — another node may hold the shard after a rebalance).
		if b, tier, ok := s.lookup(r.Context(), rec.Key); ok {
			s.respond(w, tier, b)
			return
		}
		writeError(w, http.StatusGone, errors.New("serve: job finished but its result is no longer stored; resubmit the solve"))
	case jobs.StateFailed, jobs.StateCanceled:
		status := rec.HTTPStatus
		if status == 0 || status == http.StatusOK {
			status = http.StatusInternalServerError
		}
		msg := rec.Error
		if msg == "" {
			msg = string(rec.State)
		}
		writeError(w, status, fmt.Errorf("serve: job %s: %s", rec.State, msg))
	default: // queued, running
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(rec)
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobMgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

// persistJob writes a terminal job record through to the store under a
// "job:" key — namespaced away from solve keys, which are always
// "sha256:..." strings. Best-effort like persist.
func (s *Server) persistJob(rec jobs.Record) {
	if s.store == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := s.store.Put("job:"+rec.ID, b, store.VerdictUnchecked); err != nil {
		s.obs.Emit("serve", "store.job_put_error", slog.String("id", rec.ID), slog.String("err", err.Error()))
	}
}

// loadJob resolves a job id from the store (evicted, or from a
// previous daemon life).
func (s *Server) loadJob(id string) (jobs.Record, bool) {
	if s.store == nil {
		return jobs.Record{}, false
	}
	b, ok := s.store.Get("job:" + id)
	if !ok {
		return jobs.Record{}, false
	}
	var rec jobs.Record
	if json.Unmarshal(b, &rec) != nil || rec.V != jobs.RecordVersion || rec.ID != id {
		return jobs.Record{}, false
	}
	return rec, true
}
