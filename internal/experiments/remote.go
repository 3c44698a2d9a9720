package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/jobs"
	"prpart/internal/partition"
	"prpart/internal/serve"
)

// This file turns a running prpartd daemon into a sweep engine: a
// RemoteConfig plus NewBatcher (micro-batching /v1/solve/batch client)
// or AsyncSolver (submit-and-poll /v1/jobs client) yields a Solver that
// plugs straight into SweepSolver, so the 1000-design evaluation can be
// driven over HTTP with the exact escalation procedure the in-process
// sweep uses. Requests are encoded through the serve wire types, so a
// remote solve canonicalizes to the same content-addressed key the
// daemon computes for any other client — metric-identical results, one
// cache. Remote results carry the headline metrics only (the wire
// result has no scheme object), so Outcome.ProposedScheme is nil for
// remote sweeps; every figure and claim in the paper's §V reads
// summaries, devices and flags, which survive the round trip exactly.

// RemoteConfig points a remote sweep solver at a daemon.
type RemoteConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// URLs lists every daemon the client may talk to. Empty defaults to
	// [BaseURL]. The batch client rotates across the list per flush and
	// advances to the next node on every retry, so a cluster sweep both
	// spreads load and fails over: a killed node's flushes land on the
	// survivors on the next attempt. The async client ignores extra URLs
	// (job ids are node-local).
	URLs []string
	// Client is the HTTP client (nil = a default with no timeout; solve
	// pacing comes from the daemon's scheduler, not the transport).
	Client *http.Client

	// BatchSize caps members per /v1/solve/batch flush (default 16).
	BatchSize int
	// FlushInterval is the micro-batch linger: a partial batch flushes
	// this long after its first member arrives (default 5ms).
	FlushInterval time.Duration
	// PollInterval is the async job poll cadence (default 20ms).
	PollInterval time.Duration
	// RetryBase is the backoff floor for 503s and connection errors
	// (default 50ms); a Retry-After header overrides it... capped at
	// RetryCap (default 2s) so a jittered long hint cannot stall a test.
	RetryBase time.Duration
	RetryCap  time.Duration
	// MaxAttempts bounds consecutive failed exchanges per solve
	// (default 50 — a restarting daemon needs generous patience).
	MaxAttempts int

	// Multilevel routes remote solves through the daemon's
	// coarsen–partition–refine engine, mirroring an in-process
	// SweepSolver(..., multilevel.Solver) run.
	Multilevel          bool
	MultilevelSeed      int64
	MultilevelThreshold int
	// Check asks the daemon to verify each result (?check=1).
	Check bool
}

func (cfg *RemoteConfig) fill() {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	// URLs is kept non-empty even when BaseURL is too: rotation then
	// lands on the empty URL and fails as a graceful connection error
	// (the pre-cluster behavior) instead of a modulo-by-zero panic.
	if len(cfg.URLs) == 0 {
		cfg.URLs = []string{cfg.BaseURL}
	}
	if cfg.BaseURL == "" && len(cfg.URLs) > 0 {
		cfg.BaseURL = cfg.URLs[0]
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 50
	}
}

// encodeRemoteRequest renders one (design, options) solve as a
// /v1/solve request body. It goes through the serve wire structs, so
// the daemon's canonicalization sees exactly what a direct client would
// send and the solve lands under the same cache key.
func encodeRemoteRequest(d *design.Design, opts partition.Options, cfg *RemoteConfig) ([]byte, error) {
	var db bytes.Buffer
	if err := design.EncodeJSON(&db, d); err != nil {
		return nil, fmt.Errorf("experiments: encoding design %s: %w", d.Name, err)
	}
	ro := serve.RequestOptions{
		Budget:              &serve.BudgetJSON{CLB: opts.Budget.CLB, BRAM: opts.Budget.BRAM, DSP: opts.Budget.DSP},
		NoStatic:            opts.NoStatic,
		Greedy:              opts.GreedyOnly,
		NoQuantize:          opts.NoQuantize,
		MaxCandidateSets:    opts.MaxCandidateSets,
		MaxFirstMoves:       opts.MaxFirstMoves,
		CoverDescending:     opts.CoverDescending,
		TransitionWeights:   opts.TransitionWeights,
		Multilevel:          cfg.Multilevel,
		MultilevelSeed:      cfg.MultilevelSeed,
		MultilevelThreshold: cfg.MultilevelThreshold,
		Bulk:                true,
	}
	for _, r := range opts.PinnedStatic {
		ro.Pin = append(ro.Pin, d.ModeName(r))
	}
	return json.Marshal(serve.Request{Design: db.Bytes(), Options: ro})
}

// decodeRemoteResult parses a wire result into the summary-bearing
// partition.Result the sweep consumes.
func decodeRemoteResult(body []byte) (*partition.Result, error) {
	var jo serve.ResultJSON
	if err := json.Unmarshal(body, &jo); err != nil {
		return nil, fmt.Errorf("experiments: decoding remote result: %w", err)
	}
	return &partition.Result{Summary: cost.Summary{
		Name:    "proposed",
		Total:   jo.Total,
		Worst:   jo.Worst,
		Regions: len(jo.Regions),
	}}, nil
}

// remoteErr maps a non-200 member/solve status back to the sweep's
// error vocabulary. The escalation loop in EvaluateDesignSolver
// compares against the partition sentinels by identity, so a 422 must
// return partition.ErrNoScheme itself, not a wrapper.
func remoteErr(status int, msg string) error {
	if status == http.StatusUnprocessableEntity {
		return partition.ErrNoScheme
	}
	return fmt.Errorf("experiments: remote solve: status %d: %s", status, msg)
}

// retryDelay picks the wait before retrying a refused exchange.
func (cfg *RemoteConfig) retryDelay(retryAfter string) time.Duration {
	d := cfg.RetryBase
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > cfg.RetryCap {
		d = cfg.RetryCap
	}
	return d
}

// checkQuery appends ?check=1 when the config asks for verification.
func (cfg *RemoteConfig) checkQuery(path string) string {
	if cfg.Check {
		return path + "?check=1"
	}
	return path
}

// roundTrip sends one request (a POST of body when body is non-nil, a
// GET otherwise) and returns the response with its body read in full
// and closed. A connection or read failure comes back as err.
func (cfg *RemoteConfig) roundTrip(url string, body []byte) (*http.Response, []byte, error) {
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = cfg.Client.Post(url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = cfg.Client.Get(url)
	}
	if err != nil {
		return nil, nil, err
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, rb, nil
}

// ---------------------------------------------------------------------
// Batch client
// ---------------------------------------------------------------------

// batchCall is one in-flight solve waiting on the micro-batcher.
type batchCall struct {
	body []byte
	res  *partition.Result
	err  error
	done chan struct{}
}

// Batcher aggregates concurrent Solver calls into /v1/solve/batch
// posts: a flush goes out when BatchSize members are pending or
// FlushInterval after the first one arrived, whichever comes first. The
// daemon dedupes identical members inside a flush and runs the rest on
// its bulk tier, so a sweep's worth of workers funnels into a handful
// of HTTP exchanges without crowding out interactive traffic.
type Batcher struct {
	cfg   RemoteConfig
	calls chan *batchCall
	stop  chan struct{}
	wg    sync.WaitGroup
	seq   atomic.Uint64 // rotates flushes and retries across cfg.URLs
}

// nextURL picks the daemon for the next exchange, round-robin across
// the configured URLs so every attempt — first try or retry — moves to
// the next node in the rotation.
func (b *Batcher) nextURL(path string) string {
	i := b.seq.Add(1)
	return b.cfg.URLs[int(i%uint64(len(b.cfg.URLs)))] + b.cfg.checkQuery(path)
}

// NewBatcher starts the collection loop. Callers must Close it.
func NewBatcher(cfg RemoteConfig) *Batcher {
	cfg.fill()
	b := &Batcher{cfg: cfg, calls: make(chan *batchCall), stop: make(chan struct{})}
	b.wg.Add(1)
	go b.loop()
	return b
}

// Close stops accepting solves and waits for the loop to drain.
func (b *Batcher) Close() {
	close(b.stop)
	b.wg.Wait()
}

// Solver adapts the batcher to the sweep's Solver seam.
func (b *Batcher) Solver() Solver {
	return func(d *design.Design, opts partition.Options) (*partition.Result, error) {
		if b.cfg.URLs[0] == "" {
			// A misconfigured batcher fails every solve immediately with
			// the cause, instead of burning MaxAttempts retries per call
			// against an empty URL.
			return nil, fmt.Errorf("experiments: RemoteConfig names no daemon (set BaseURL or URLs)")
		}
		body, err := encodeRemoteRequest(d, opts, &b.cfg)
		if err != nil {
			return nil, err
		}
		c := &batchCall{body: body, done: make(chan struct{})}
		select {
		case b.calls <- c:
		case <-b.stop:
			return nil, fmt.Errorf("experiments: batcher closed")
		}
		<-c.done
		return c.res, c.err
	}
}

func (b *Batcher) loop() {
	defer b.wg.Done()
	var pending []*batchCall
	var timer *time.Timer
	var fire <-chan time.Time
	flush := func() {
		if len(pending) > 0 {
			b.flush(pending)
			pending = nil
		}
		if timer != nil {
			timer.Stop()
			timer, fire = nil, nil
		}
	}
	for {
		select {
		case c := <-b.calls:
			pending = append(pending, c)
			if len(pending) >= b.cfg.BatchSize {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(b.cfg.FlushInterval)
				fire = timer.C
			}
		case <-fire:
			timer, fire = nil, nil
			flush()
		case <-b.stop:
			flush()
			return
		}
	}
}

// flush posts one batch and distributes per-member outcomes. A refused
// batch (503, connection error) backs off and retries whole — the
// daemon dedupes and cache-hits members that already completed, so a
// retry never re-runs finished work.
func (b *Batcher) flush(calls []*batchCall) {
	defer func() {
		for _, c := range calls {
			close(c.done)
		}
	}()
	req := serve.BatchRequest{Requests: make([]json.RawMessage, len(calls))}
	for i, c := range calls {
		req.Requests[i] = c.body
	}
	body, err := json.Marshal(req)
	if err != nil {
		for _, c := range calls {
			c.err = err
		}
		return
	}
	for attempt := 0; ; attempt++ {
		if attempt >= b.cfg.MaxAttempts {
			for _, c := range calls {
				c.err = fmt.Errorf("experiments: batch flush gave up after %d attempts", attempt)
			}
			return
		}
		br, wait, err := b.post(body, len(calls))
		if wait > 0 {
			time.Sleep(wait)
			continue
		}
		if err != nil {
			for _, c := range calls {
				c.err = err
			}
			return
		}
		// Per-member refusals (the member hit the full tier or was shed
		// mid-batch) retry alone as a single-member batch rather than
		// dragging completed members back through the wire.
		for i, item := range br.Results {
			switch {
			case item.Status == http.StatusOK:
				calls[i].res, calls[i].err = decodeRemoteResult(item.Result)
			case item.Status == http.StatusServiceUnavailable:
				b.retryOne(calls[i])
			default:
				calls[i].err = remoteErr(item.Status, item.Error)
			}
		}
		return
	}
}

// retryOne re-posts a single refused member until it lands. Each wait
// follows the last refusal: RetryBase after a member-level 503 or a
// connection error, the Retry-After hint after an HTTP 503.
func (b *Batcher) retryOne(c *batchCall) {
	body, err := json.Marshal(serve.BatchRequest{Requests: []json.RawMessage{c.body}})
	if err != nil {
		c.err = err
		return
	}
	wait := b.cfg.RetryBase
	for attempt := 0; attempt < b.cfg.MaxAttempts; attempt++ {
		time.Sleep(wait)
		br, w, err := b.post(body, 1)
		if w > 0 {
			wait = w
			continue
		}
		if err != nil {
			c.err = err
			return
		}
		wait = b.cfg.RetryBase
		item := br.Results[0]
		if item.Status == http.StatusServiceUnavailable {
			continue
		}
		if item.Status != http.StatusOK {
			c.err = remoteErr(item.Status, item.Error)
			return
		}
		c.res, c.err = decodeRemoteResult(item.Result)
		return
	}
	c.err = fmt.Errorf("experiments: member retry gave up after %d attempts", b.cfg.MaxAttempts)
}

// post sends one /v1/solve/batch body of the given member count to the
// next daemon in the rotation. A refused exchange (connection or read
// error, HTTP 503) returns the wait before the caller's next attempt;
// any other non-200 status or a malformed reply is a terminal err for
// every member.
func (b *Batcher) post(body []byte, members int) (serve.BatchResponse, time.Duration, error) {
	var br serve.BatchResponse
	resp, rb, err := b.cfg.roundTrip(b.nextURL("/v1/solve/batch"), body)
	if err != nil {
		return br, b.cfg.RetryBase, nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return br, b.cfg.retryDelay(resp.Header.Get("Retry-After")), nil
	}
	if resp.StatusCode != http.StatusOK {
		return br, 0, remoteErr(resp.StatusCode, string(rb))
	}
	if err := json.Unmarshal(rb, &br); err != nil || len(br.Results) != members {
		return br, 0, fmt.Errorf("experiments: bad batch response: %v (%d results for %d members)", err, len(br.Results), members)
	}
	return br, 0, nil
}

// ---------------------------------------------------------------------
// Async client
// ---------------------------------------------------------------------

// jobSubmitReply mirrors the daemon's 202 body from POST /v1/jobs.
type jobSubmitReply struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
}

// AsyncSolver returns a Solver that drives each solve through the
// daemon's async job API: submit, poll, fetch. It is built to survive a
// daemon restart mid-sweep: a connection error or a 404 on a known job
// id (in-flight jobs do not outlive the daemon) simply resubmits the
// solve — the daemon's content-addressed store makes the resubmit
// idempotent, answering from the store when the first life finished the
// work and re-running it when it did not. Either way the sweep loses
// nothing and double-counts nothing.
func AsyncSolver(cfg RemoteConfig) Solver {
	cfg.fill()
	return func(d *design.Design, opts partition.Options) (*partition.Result, error) {
		body, err := encodeRemoteRequest(d, opts, &cfg)
		if err != nil {
			return nil, err
		}
		failures := 0
		fail := func(format string, args ...any) (bool, error) {
			failures++
			if failures >= cfg.MaxAttempts {
				return false, fmt.Errorf("experiments: async solve gave up after %d failed exchanges: %s",
					failures, fmt.Sprintf(format, args...))
			}
			return true, nil
		}
	resubmit:
		for {
			id, retry, err := submitJob(&cfg, body)
			if err != nil {
				return nil, err
			}
			if retry != "" {
				if ok, err := fail("submit refused: %s", retry); !ok {
					return nil, err
				}
				time.Sleep(cfg.retryDelay(retry))
				continue
			}
			for {
				time.Sleep(cfg.PollInterval)
				rec, code, err := pollJob(&cfg, id)
				if err != nil {
					if ok, ferr := fail("poll: %v", err); !ok {
						return nil, ferr
					}
					time.Sleep(cfg.RetryBase)
					continue
				}
				if code == http.StatusNotFound {
					// The daemon restarted and lost the in-flight job.
					if ok, ferr := fail("job %s lost", id); !ok {
						return nil, ferr
					}
					continue resubmit
				}
				switch rec.State {
				case jobs.StateDone:
					res, retry, err := fetchJobResult(&cfg, id)
					if err != nil {
						return nil, err
					}
					if retry {
						if ok, ferr := fail("result for %s unavailable", id); !ok {
							return nil, ferr
						}
						continue resubmit
					}
					return res, nil
				case jobs.StateFailed, jobs.StateCanceled:
					if rec.HTTPStatus == http.StatusServiceUnavailable || rec.State == jobs.StateCanceled {
						// Shed for latency-sensitive work (or swept away);
						// back off and resubmit.
						if ok, ferr := fail("job %s %s: %s", id, rec.State, rec.Error); !ok {
							return nil, ferr
						}
						time.Sleep(cfg.RetryBase)
						continue resubmit
					}
					return nil, remoteErr(rec.HTTPStatus, rec.Error)
				default: // queued, running: keep polling
					failures = 0
				}
			}
		}
	}
}

// submitJob posts the solve. It returns (id, "", nil) on acceptance and
// ("", retryHint, nil) when the daemon refused with 503 or the
// connection failed — the caller backs off and resubmits.
func submitJob(cfg *RemoteConfig, body []byte) (string, string, error) {
	resp, rb, err := cfg.roundTrip(cfg.BaseURL+cfg.checkQuery("/v1/jobs"), body)
	if err != nil {
		return "", "exchange: " + err.Error(), nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return "", ra, nil
		}
		return "", "503", nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", "", remoteErr(resp.StatusCode, string(rb))
	}
	var jr jobSubmitReply
	if err := json.Unmarshal(rb, &jr); err != nil || jr.ID == "" {
		return "", "", fmt.Errorf("experiments: bad job submit reply: %v: %s", err, rb)
	}
	return jr.ID, "", nil
}

// pollJob fetches the job record. Connection problems surface as
// errors; HTTP outcomes as (rec, status).
func pollJob(cfg *RemoteConfig, id string) (jobs.Record, int, error) {
	resp, rb, err := cfg.roundTrip(cfg.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobs.Record{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return jobs.Record{}, resp.StatusCode, nil
	}
	var rec jobs.Record
	if err := json.Unmarshal(rb, &rec); err != nil {
		return jobs.Record{}, 0, fmt.Errorf("experiments: bad job record: %w", err)
	}
	return rec, http.StatusOK, nil
}

// fetchJobResult retrieves a done job's solve body. retry=true means
// the result is gone (evicted store, restarted daemon) and the solve
// should be resubmitted.
func fetchJobResult(cfg *RemoteConfig, id string) (*partition.Result, bool, error) {
	resp, rb, err := cfg.roundTrip(cfg.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, true, nil
	}
	switch resp.StatusCode {
	case http.StatusOK:
		res, err := decodeRemoteResult(rb)
		return res, false, err
	case http.StatusNotFound, http.StatusGone, http.StatusAccepted:
		return nil, true, nil
	default:
		return nil, false, remoteErr(resp.StatusCode, string(rb))
	}
}
