package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"prpart/internal/jobs"
)

// BatchRequest is the wire schema of POST /v1/solve/batch: N ordinary
// solve request objects in one body. Every member is decoded, keyed and
// served exactly like a POST /v1/solve — same canonicalization, same
// cache key, same cache/store/coalescing tiers — but on the bulk
// scheduler tier, so a batch can never crowd out interactive traffic.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchItem is one member's outcome, in input order.
type BatchItem struct {
	// Key is the member's content-addressed solve key (empty when the
	// member failed to decode).
	Key string `json:"key,omitempty"`
	// Status is the member's HTTP-equivalent status: what the same body
	// would have gotten from POST /v1/solve.
	Status int `json:"status"`
	// Cache reports how the member was served: hit, store, miss,
	// coalesced — or dup for a member whose key already appeared
	// earlier in the same batch.
	Cache string `json:"cache,omitempty"`
	// Error carries the failure message for non-200 members.
	Error string `json:"error,omitempty"`
	// Result is the solve body for 200 members.
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the wire schema of the batch reply.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch is POST /v1/solve/batch. Members with identical keys are
// deduplicated inside the batch (one solve, shared result, later copies
// marked "dup"); distinct members fan out concurrently through the bulk
// tier with EnqueueWait providing flow control instead of refusals.
// Per-member failures land in that member's result entry; the batch
// itself only fails for transport-level problems (bad envelope, too
// many members, bulk tier already saturated on arrival).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, urlCheck, ok := s.intake(w, r, s.cBatches)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var batch BatchRequest
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding batch: %w", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("serve: trailing data after batch object"))
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch carries %d requests, limit %d", len(batch.Requests), s.cfg.MaxBatchItems))
		return
	}
	// Arrival backpressure: a bulk tier already at its bound refuses the
	// whole batch up front — cheaper for the client to back off now than
	// to trickle members through a saturated queue.
	if s.sched.Full(jobs.Bulk) {
		s.cRejected.Inc()
		s.retryAfter(w, s.sched.EstimateWait(jobs.Bulk))
		writeError(w, http.StatusServiceUnavailable, errBulkQueueFull)
		return
	}

	items := make([]BatchItem, len(batch.Requests))
	// run holds the decoded request of each member that executes: the
	// first member carrying each distinct key. Later members with the
	// same key are dups and copy its outcome.
	run := make([]*solveReq, len(batch.Requests))
	leaders := map[string]int{}
	for i, raw := range batch.Requests {
		// A member is decoded and keyed exactly like a single solve, so
		// a batch member and a lone POST /v1/solve for the same input
		// share cache entries byte-for-byte.
		req, err := s.parseSolve(raw, urlCheck)
		if err != nil {
			items[i] = BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		items[i] = BatchItem{Key: req.key}
		if first, dup := leaders[req.key]; dup {
			s.cBatchDups.Inc()
			items[i].Cache = "dup"
			items[i].Status = -first - 1 // patched to the leader's outcome below
			continue
		}
		leaders[req.key] = i
		run[i] = req
	}

	var wg sync.WaitGroup
	for i, req := range run {
		if req == nil {
			continue
		}
		wg.Add(1)
		go func(i int, req *solveReq) {
			defer wg.Done()
			items[i] = s.executeMember(r.Context(), req)
		}(i, req)
	}
	wg.Wait()

	// Patch duplicate members with their leader's outcome.
	for i := range items {
		if items[i].Cache != "dup" {
			continue
		}
		first := -items[i].Status - 1
		items[i].Status = items[first].Status
		items[i].Error = items[first].Error
		items[i].Result = items[first].Result
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(BatchResponse{Results: items})
}

// executeMember serves one distinct batch member through the same
// pipeline as a synchronous solve — read tiers, then the lead and await
// steps — with the solve queued on the bulk tier. Unlike handleSolve it
// admits with EnqueueWait, which paces a large batch through a small
// queue. The wait runs on its own goroutine under the flight's context,
// so it lasts while any waiter does: the member's deadline withdraws the
// member alone, in await. It runs in a handler goroutine, never on a
// scheduler worker, so awaiting the flight cannot deadlock the pool.
func (s *Server) executeMember(ctx context.Context, req *solveReq) BatchItem {
	item := BatchItem{Key: req.key}
	wctx, cancel := req.waitCtx(ctx)
	defer cancel()
	if body, tier, ok := s.readTiers(wctx, req); ok {
		item.Status, item.Cache, item.Result = http.StatusOK, tier, body
		return item
	}
	var solve func(context.Context)
	call, leader, _ := s.lead(req, func(_ context.Context, fn func(context.Context)) *refusal {
		solve = fn
		return nil
	})
	if leader {
		go func() {
			// EnqueueWait retries a full tier itself, so an error here
			// is the flight's end or a closed scheduler, not a refusal.
			if _, err := s.sched.EnqueueWait(call.ctx, call.ctx, jobs.Bulk, solve); err != nil {
				s.flight.finish(call, nil, http.StatusServiceUnavailable, err)
			}
		}()
	}
	var err error
	item.Result, item.Cache, item.Status, err = s.await(wctx, call, leader)
	if err != nil {
		item.Error = err.Error()
	}
	return item
}
