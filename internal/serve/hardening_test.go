package serve_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/store"
)

func openStore(t *testing.T, mfs *store.MemFS, o *obs.Obs) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: "/data", FS: mfs, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreTierServesAfterRestart: a daemon with a persistent store
// answers previously-solved keys byte-identically after a full restart,
// without re-running the search.
func TestStoreTierServesAfterRestart(t *testing.T) {
	mfs := store.NewMemFS()
	body := solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`)

	st1 := openStore(t, mfs, nil)
	srv1 := serve.New(serve.Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	r1, b1 := post(t, ts1, body)
	if r1.StatusCode != 200 {
		t.Fatalf("first boot solve: %d: %s", r1.StatusCode, b1)
	}
	ts1.Close()
	srv1.Close()
	st1.Close()

	var calls atomic.Int64
	o := obs.New()
	st2 := openStore(t, mfs, o)
	defer st2.Close()
	srv2 := serve.New(serve.Config{
		Workers: 2, Obs: o, Store: st2,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	r2, b2 := post(t, ts2, body)
	if r2.StatusCode != 200 {
		t.Fatalf("post-restart solve: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "store" {
		t.Errorf("X-Cache = %q, want store", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restarted daemon served different bytes:\n--- before\n%s--- after\n%s", b1, b2)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("solver ran %d times for a store-resident key", n)
	}
	// The store tier populates the memory tier: a third request is a
	// plain cache hit.
	r3, _ := post(t, ts2, body)
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("third request X-Cache = %q, want hit", got)
	}
	if got := o.Snapshot().Counters["serve.store_serves"]; got != 1 {
		t.Errorf("store_serves = %d, want 1", got)
	}
}

// TestStoreCorruptionFallsThroughToSolve: a daemon restarted over a
// damaged blob area must quarantine the bad blob and transparently
// re-solve — clients never see corrupt bytes, only a slower miss.
func TestStoreCorruptionFallsThroughToSolve(t *testing.T) {
	mfs := store.NewMemFS()
	body := solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`)

	st1 := openStore(t, mfs, nil)
	srv1 := serve.New(serve.Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	r1, b1 := post(t, ts1, body)
	if r1.StatusCode != 200 {
		t.Fatalf("seed solve: %d: %s", r1.StatusCode, b1)
	}
	ts1.Close()
	srv1.Close()
	st1.Close()

	// Bit rot on the only stored blob.
	blobs, err := mfs.ReadDir("/data/blobs")
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blobs = %v, %v", blobs, err)
	}
	if err := mfs.Flip("/data/blobs/"+blobs[0], 99); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	st2 := openStore(t, mfs, o)
	defer st2.Close()
	srv2 := serve.New(serve.Config{Workers: 2, Obs: o, Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	r2, b2 := post(t, ts2, body)
	if r2.StatusCode != 200 {
		t.Fatalf("solve over corrupt store: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (store must not serve corrupt bytes)", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-solved bytes differ from the original solve")
	}
	snap := o.Snapshot()
	if snap.Counters["store.corrupt_blobs"] != 1 {
		t.Errorf("corrupt_blobs = %d, want 1", snap.Counters["store.corrupt_blobs"])
	}
	q, err := mfs.ReadDir("/data/quarantine")
	if err != nil || len(q) != 1 {
		t.Errorf("quarantine = %v, %v; want the damaged blob", q, err)
	}
	if err := st2.VerifyLedger(); err != nil {
		t.Error(err)
	}
}

// TestSolverPanicReturns500: a panicking solver downs one request with
// a clean 500 and a counter tick; the daemon keeps serving.
func TestSolverPanicReturns500(t *testing.T) {
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers: 1, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == design.VideoReceiver().Name {
				panic("solver bug: index out of range")
			}
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r1, b1 := post(t, ts, solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`))
	if r1.StatusCode != 500 {
		t.Fatalf("panicking solve: status %d: %s", r1.StatusCode, b1)
	}
	if !strings.Contains(string(b1), "panicked") {
		t.Errorf("500 body does not mention the panic: %s", b1)
	}
	if got := o.Snapshot().Counters["serve.solver_panics"]; got != 1 {
		t.Errorf("solver_panics = %d, want 1", got)
	}
	// The worker slot was released during unwind: the next request
	// (different design, healthy path) still solves.
	r2, b2 := post(t, ts, solveBody(t, design.PaperExample(), ""))
	if r2.StatusCode != 200 {
		t.Fatalf("solve after panic: %d: %s", r2.StatusCode, b2)
	}
}

// TestDeadlineAwareAdmission: when every worker is busy and the
// smoothed solve time already exceeds a request's deadline, the request
// is refused up front with 429 + Retry-After instead of queueing to a
// guaranteed 504.
func TestDeadlineAwareAdmission(t *testing.T) {
	o := obs.New()
	block := make(chan struct{})
	srv := serve.New(serve.Config{
		Workers: 1, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == design.VideoReceiver().Name {
				// Long enough to dominate the EWMA by orders of magnitude
				// over a 1 ms deadline.
				time.Sleep(150 * time.Millisecond)
				return core.RunContext(ctx, d, opts)
			}
			select { // parks the lone worker until the test releases it
			case <-block:
			case <-ctx.Done():
			}
			return core.RunContext(context.Background(), d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed the solve-time estimate with one slow completed solve.
	if r, b := post(t, ts, solveBody(t, design.VideoReceiver(), "")); r.StatusCode != 200 {
		t.Fatalf("seed solve: %d: %s", r.StatusCode, b)
	}
	// Park the only worker.
	parked := make(chan struct{})
	go func() {
		post(t, ts, solveBody(t, design.PaperExample(), ""))
		close(parked)
	}()
	for srv.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	// A request that cannot possibly finish within 1 ms is refused now.
	r, b := post(t, ts, solveBody(t, design.PaperExample(), `{"maxFirstMoves": 3, "timeoutMs": 1}`))
	if r.StatusCode != 429 {
		t.Fatalf("hopeless-deadline request: status %d: %s", r.StatusCode, b)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(b), "deadline") {
		t.Errorf("429 body does not explain the deadline rejection: %s", b)
	}
	if got := o.Snapshot().Counters["serve.rejected_deadline"]; got != 1 {
		t.Errorf("rejected_deadline = %d, want 1", got)
	}
	close(block)
	<-parked
}

// TestBulkShedForLatencySensitive: when admission is full, an arriving
// latency-sensitive request cancels the oldest running bulk solve and
// takes its capacity; the shed bulk client gets a retryable 503.
func TestBulkShedForLatencySensitive(t *testing.T) {
	o := obs.New()
	var entered atomic.Int64
	srv := serve.New(serve.Config{
		Workers: 1, InteractiveDepth: 2, BulkDepth: 5, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == design.VideoReceiver().Name {
				entered.Add(1)
				<-ctx.Done() // bulk work runs until cancelled
				return nil, ctx.Err()
			}
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two bulk solves (distinct keys) fill both admission slots: the
	// first occupies the lone worker and runs until cancelled, the
	// second — a quick real solve — queues behind it.
	type reply struct {
		status int
		body   string
	}
	bulk1 := make(chan reply, 1)
	go func() {
		r, b := post(t, ts, solveBody(t, design.VideoReceiver(), `{"bulk": true}`))
		bulk1 <- reply{r.StatusCode, string(b)}
	}()
	for entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	bulk2 := make(chan reply, 1)
	go func() {
		r, b := post(t, ts, solveBody(t, design.PaperExample(), `{"bulk": true}`))
		bulk2 <- reply{r.StatusCode, string(b)}
	}()
	for srv.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Admission is now full: a plain (latency-sensitive) request must
	// shed bulk #1 — the oldest — and complete. Bulk #2, younger, is
	// spared and finishes normally once the worker frees up.
	r, b := post(t, ts, solveBody(t, design.PaperExample(), `{"maxFirstMoves": 3}`))
	if r.StatusCode != 200 {
		t.Fatalf("latency-sensitive request: status %d: %s", r.StatusCode, b)
	}
	got := <-bulk1
	if got.status != 503 {
		t.Fatalf("shed bulk solve: status %d: %s", got.status, got.body)
	}
	if !strings.Contains(got.body, "shed") {
		t.Errorf("shed 503 body does not say so: %s", got.body)
	}
	if n := o.Snapshot().Counters["serve.bulk_shed"]; n != 1 {
		t.Errorf("bulk_shed = %d, want 1", n)
	}
	got2 := <-bulk2
	if got2.status != 200 {
		t.Errorf("spared bulk #2: status %d: %s", got2.status, got2.body)
	}
}
