package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
)

// solveBody builds a /v1/solve request body for a design with options.
func solveBody(t *testing.T, d *design.Design, opts string) []byte {
	t.Helper()
	var dj bytes.Buffer
	if err := design.EncodeJSON(&dj, d); err != nil {
		t.Fatal(err)
	}
	if opts == "" {
		opts = "{}"
	}
	return []byte(fmt.Sprintf(`{"design": %s, "options": %s}`, dj.String(), opts))
}

func post(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSolveCacheHit submits the same design twice and requires the
// second response to be byte-identical and cache-served, with exactly
// one underlying solve: cache-hit counter 1, solver invocations 1.
func TestSolveCacheHit(t *testing.T) {
	o := obs.New()
	var calls atomic.Int64
	srv := serve.New(serve.Config{
		Workers: 2,
		Obs:     o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`)
	r1, b1 := post(t, ts, body)
	if r1.StatusCode != 200 {
		t.Fatalf("first solve: status %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first solve X-Cache = %q, want miss", got)
	}
	r2, b2 := post(t, ts, body)
	if r2.StatusCode != 200 {
		t.Fatalf("second solve: status %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second solve X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached response differs:\n--- first\n%s--- second\n%s", b1, b2)
	}
	if k1, k2 := r1.Header.Get("X-Solve-Key"), r2.Header.Get("X-Solve-Key"); k1 == "" || k1 != k2 {
		t.Errorf("solve keys differ: %q vs %q", k1, k2)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times, want 1", n)
	}
	snap := o.Snapshot()
	if snap.Counters["serve.cache_hits"] != 1 {
		t.Errorf("cache hits = %d, want 1", snap.Counters["serve.cache_hits"])
	}
	if snap.Counters["serve.solves"] != 1 {
		t.Errorf("solves = %d, want 1", snap.Counters["serve.solves"])
	}
	if snap.Timers["serve.solve"].Count != 1 {
		t.Errorf("solve timer count = %d, want 1", snap.Timers["serve.solve"].Count)
	}
}

// TestSolveXMLAndJSONShareCache sends the same design once in the XML
// spec format and once in the JSON codec: canonicalization must map
// both to the same key, so the second request is a cache hit.
func TestSolveXMLAndJSONShareCache(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	d := design.PaperExample()
	jsonReq := solveBody(t, d, "")
	r1, b1 := post(t, ts, jsonReq)
	if r1.StatusCode != 200 {
		t.Fatalf("json solve: %d: %s", r1.StatusCode, b1)
	}

	var xb strings.Builder
	if err := writeXML(&xb, d); err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(map[string]any{"xml": xb.String()})
	if err != nil {
		t.Fatal(err)
	}
	r2, b2 := post(t, ts, env)
	if r2.StatusCode != 200 {
		t.Fatalf("xml solve: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("XML request missed the cache (X-Cache = %q): XML and JSON must canonicalize identically", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("XML and JSON responses differ")
	}
}

// TestConcurrentMixedRequests fires 64 concurrent requests — distinct
// designs, duplicates, floorplans, garbage — and requires every one to
// complete while the pool never exceeds Workers concurrent solves.
func TestConcurrentMixedRequests(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers: workers,
		// Roomy: this test exercises the bound, not 429s.
		InteractiveDepth: workers + 256,
		BulkDepth:        workers + 4*256,
		Obs:              o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			n := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, 0, 64)
	wantOK := make([]bool, 0, 64)
	for i := 0; i < 64; i++ {
		switch i % 4 {
		case 0: // distinct designs (name feeds the key)
			d := design.PaperExample()
			d.Name = fmt.Sprintf("paper-%d", i)
			bodies = append(bodies, solveBody(t, d, ""))
			wantOK = append(wantOK, true)
		case 1: // duplicates: coalesce or hit the cache
			bodies = append(bodies, solveBody(t, design.PaperExample(), ""))
			wantOK = append(wantOK, true)
		case 2: // floorplan variant
			d := design.VideoReceiver()
			d.Name = fmt.Sprintf("vr-%d", i)
			bodies = append(bodies, solveBody(t, d,
				`{"device": "FX70T", "budget": {"clb": 6800, "bram": 64, "dsp": 150}, "floorplan": true}`))
			wantOK = append(wantOK, true)
		default: // malformed
			bodies = append(bodies, []byte(`{"nope": true}`))
			wantOK = append(wantOK, false)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, len(bodies))
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				errs[i] = fmt.Sprintf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if wantOK[i] && resp.StatusCode != 200 {
				errs[i] = fmt.Sprintf("request %d: status %d: %s", i, resp.StatusCode, buf.String())
			}
			if !wantOK[i] && resp.StatusCode != 400 {
				errs[i] = fmt.Sprintf("request %d: bad body got status %d, want 400", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("pool ran %d concurrent solves, bound is %d", p, workers)
	}
	if p := o.Snapshot().Levels["serve.inflight"].Max; p > workers {
		t.Errorf("inflight watermark %d exceeds worker bound %d", p, workers)
	}
}

// blockingSolver returns a solver stub that blocks until released (or
// its context dies), then delegates to the real flow.
func blockingSolver(release <-chan struct{}, entered chan<- struct{}, cancelled *atomic.Bool) serve.SolveFunc {
	return func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
		if entered != nil {
			entered <- struct{}{}
		}
		select {
		case <-release:
		case <-ctx.Done():
			if cancelled != nil {
				cancelled.Store(true)
			}
			return nil, ctx.Err()
		}
		return core.RunContext(context.Background(), d, opts)
	}
}

// TestBackpressureQueueFull saturates a Workers=1, InteractiveDepth=2 server
// with blocked solves and requires the overflow request to be refused
// with 429 and a Retry-After header — then accepted again once the
// queue drains.
func TestBackpressureQueueFull(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers:          1,
		InteractiveDepth: 2,
		BulkDepth:        5,
		Obs:              o,
		Solver:           blockingSolver(release, entered, nil),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(i int) []byte {
		d := design.PaperExample()
		d.Name = fmt.Sprintf("bp-%d", i)
		return solveBody(t, d, "")
	}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		body := mk(i)
		go func() {
			resp, _ := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if resp != nil {
				resp.Body.Close()
				results <- resp.StatusCode
			}
		}()
	}
	// Wait until the first solve occupies the worker and the second
	// sits in the queue (admitted, waiting for a worker slot).
	<-entered
	waitCond(t, func() bool {
		return o.Snapshot().Levels["serve.queue_depth"].Current == 1
	})

	resp, body := post(t, ts, mk(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if n := o.Snapshot().Counters["serve.rejected_queue_full"]; n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != 200 {
			t.Errorf("queued request finished with %d, want 200", code)
		}
	}
	// Capacity is free again: the previously refused design now solves.
	resp, body = post(t, ts, mk(2))
	if resp.StatusCode != 200 {
		t.Fatalf("post-drain request: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestDefaultInteractiveDepth pins the default interactive admission
// bound at 5×Workers: with the lone worker held, five distinct solves
// are admitted and the sixth is refused with 429.
func TestDefaultInteractiveDepth(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 1, Obs: o, Solver: blockingSolver(release, entered, nil)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(i int, opts string) []byte {
		d := design.PaperExample()
		d.Name = fmt.Sprintf("depth-%d", i)
		return solveBody(t, d, opts)
	}
	results := make(chan int, 5)
	for i := 0; i < 5; i++ {
		body := mk(i, "")
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-entered
	waitCond(t, func() bool {
		return o.Snapshot().Levels["serve.queue_depth"].Current == 4
	})
	// The deadline only bounds a wrong admission; it is not the refusal.
	if resp, body := post(t, ts, mk(5, `{"timeoutMs": 2000}`)); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sixth request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if n := o.Snapshot().Counters["serve.rejected_queue_full"]; n != 1 {
		t.Errorf("serve.rejected_queue_full = %d, want 1", n)
	}
	close(release)
	for i := 0; i < 5; i++ {
		if code := <-results; code != 200 {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
}

// TestCoalescing fires 8 concurrent requests for one key while the
// solver is blocked: exactly one solve runs, everyone gets the same
// bytes, and 7 are counted as coalesced.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var calls atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers: 4,
		Obs:     o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			entered <- struct{}{}
			<-release
			return core.RunContext(context.Background(), d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	type reply struct {
		code  int
		body  []byte
		cache string
	}
	replies := make(chan reply, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{code: -1}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			replies <- reply{resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Cache")}
		}()
	}
	<-entered
	// All 8 are in flight on one key before the solve finishes.
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 7 })
	close(release)

	var first []byte
	for i := 0; i < 8; i++ {
		r := <-replies
		if r.code != 200 {
			t.Fatalf("request finished with %d", r.code)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatal("coalesced responses differ")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times for one key, want 1", n)
	}
}

// TestDeadlineCancelsSearch gives a request a 30 ms deadline against a
// solver that never returns: the client gets 504 and — because it was
// the only waiter — the solve context is cancelled, stopping the search.
func TestDeadlineCancelsSearch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var cancelled atomic.Bool
	srv := serve.New(serve.Config{
		Workers: 1,
		Solver:  blockingSolver(release, nil, &cancelled),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, solveBody(t, design.PaperExample(), `{"timeoutMs": 30}`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	waitCond(t, func() bool { return cancelled.Load() })
}

// TestServerDefaultTimeout applies Config.DefaultTimeout when the
// request does not set one.
func TestServerDefaultTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := serve.New(serve.Config{
		Workers:        1,
		DefaultTimeout: 30 * time.Millisecond,
		Solver:         blockingSolver(release, nil, nil),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := post(t, ts, solveBody(t, design.PaperExample(), ""))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains starts a solve, begins a drain while it is
// in flight, and requires the solve to complete (200) while new
// requests are refused with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := serve.New(serve.Config{
		Workers: 1,
		Solver:  blockingSolver(release, entered, nil),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := make(chan reply1, 1)
	body := solveBody(t, design.PaperExample(), "")
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- reply1{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- reply1{resp.StatusCode, buf.Bytes()}
	}()
	<-entered // the solve is mid-"search"

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	// New work is refused while draining. A probe admitted before the
	// drain began joins the blocked in-flight solve, so each probe gives
	// up after a short client timeout: its waiter leaves the flight and
	// the next probe tries again.
	probe := &http.Client{Timeout: 200 * time.Millisecond}
	waitCond(t, func() bool {
		resp, err := probe.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})

	// The in-flight solve still completes.
	close(release)
	if r := <-inflight; r.code != 200 {
		t.Fatalf("in-flight request finished with %d during drain, want 200", r.code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

type reply1 struct {
	code int
	body []byte
}

// TestInfeasibleIs422 maps a design that cannot fit its budget to an
// unprocessable-entity error, not a 500.
func TestInfeasibleIs422(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := post(t, ts, solveBody(t, design.PaperExample(), `{"budget": {"clb": 1, "bram": 0, "dsp": 0}}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("error")) {
		t.Errorf("error body missing message: %s", body)
	}
}

// TestAuxiliaryEndpoints exercises /healthz, /metrics and /debug/vars.
func TestAuxiliaryEndpoints(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, b := post(t, ts, solveBody(t, design.PaperExample(), "")); len(b) == 0 {
		t.Fatal("solve failed")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Cache  struct {
			Entries int   `json:"entries"`
			Misses  int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Cache.Entries != 1 || h.Cache.Misses != 1 {
		t.Errorf("healthz = %+v, want ok with 1 entry and 1 miss", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve.requests 1", "serve.solves 1", "serve.cache_misses 1"} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mb.String())
		}
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars["serve.solves"] != 1 || vars["serve.inflight_max"] != 1 {
		t.Errorf("/debug/vars wrong: %v", vars)
	}

	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

// waitCond polls until cond holds or a deadline passes.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestSolveBodyTooLarge sends a body over MaxBodyBytes and requires a
// 413 — the only read failure that maps to that status; other read
// errors (client abort, network) are reported as 400.
func TestSolveBodyTooLarge(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, MaxBodyBytes: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, b := post(t, ts, solveBody(t, design.PaperExample(), ""))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, b)
	}
}
