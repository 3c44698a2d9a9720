package experiments

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/resource"
	"prpart/internal/serve"
	"prpart/internal/store"
	"prpart/internal/synthetic"
)

// normalizeOutcome strips the one field the wire result cannot carry
// (the scheme object) so remote and in-process outcomes compare with
// reflect.DeepEqual over everything that feeds the paper's figures and
// claims: all three summaries, all three devices, and the three flags.
func normalizeOutcome(o *Outcome) Outcome {
	c := *o
	c.ProposedScheme = nil
	return c
}

func assertOutcomesIdentical(t *testing.T, got, want []*Outcome, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got), len(want))
	}
	bad := 0
	for i := range want {
		g, w := normalizeOutcome(got[i]), normalizeOutcome(want[i])
		if !reflect.DeepEqual(g, w) {
			bad++
			if bad <= 3 {
				t.Errorf("%s: design %d (%s) diverges:\n remote     %+v\n in-process %+v", label, i, want[i].Name, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d outcomes diverge from the in-process sweep", label, bad, len(want))
	}
}

var (
	refOnce    sync.Once
	refDesigns []*design.Design
	refLocal   []*Outcome
	refErr     error
)

// referenceSweep returns the 100-design synthetic corpus and its
// in-process §V sweep, computed once per test binary: both remote
// e2e tests compare against the same local outcomes, and the sweep is
// the package's most expensive step under the race detector.
func referenceSweep(t *testing.T) ([]*design.Design, []*Outcome) {
	t.Helper()
	refOnce.Do(func() {
		refDesigns = synthetic.Generate(7, 100)
		refLocal, refErr = Sweep(refDesigns, partition.Options{}, 0)
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refDesigns, refLocal
}

// TestRemoteBatchSweepParity runs the §V sweep over 100 synthetic
// designs twice — in process, then as a /v1/solve/batch client of a
// booted daemon — and requires metric-identical outcomes. This is the
// tentpole's end-to-end contract: the batch surface canonicalizes,
// keys, schedules and solves exactly like the library call.
func TestRemoteBatchSweepParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	designs, local := referenceSweep(t)

	o := obs.New()
	srv := serve.New(serve.Config{Workers: 8, Obs: o})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b := NewBatcher(RemoteConfig{BaseURL: ts.URL, BatchSize: 8})
	defer b.Close()
	remote, err := SweepSolver(designs, partition.Options{}, 8, b.Solver())
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesIdentical(t, remote, local, "batch sweep")

	// The claims pipeline consumes remote outcomes unchanged.
	if rc, lc := ComputeClaims(remote), ComputeClaims(local); rc != lc {
		t.Errorf("claims diverge: remote %+v, local %+v", rc, lc)
	}

	// The daemon saw batched traffic, not 100 lone solves.
	snap := o.Snapshot()
	if snap.Counters["serve.batches"] == 0 {
		t.Error("no /v1/solve/batch requests reached the daemon")
	}
}

// hostSwitch routes every request to the currently-live daemon, giving
// the chaos test a stable BaseURL across a kill/restart.
type hostSwitch struct {
	mu   sync.Mutex
	base *url.URL
}

func (h *hostSwitch) set(raw string) {
	u, err := url.Parse(raw)
	if err != nil {
		panic(err)
	}
	h.mu.Lock()
	h.base = u
	h.mu.Unlock()
}

func (h *hostSwitch) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.Lock()
	base := h.base
	h.mu.Unlock()
	r2 := r.Clone(r.Context())
	r2.URL.Scheme = base.Scheme
	r2.URL.Host = base.Host
	return http.DefaultTransport.RoundTrip(r2)
}

// TestRemoteAsyncSweepSurvivesRestart is the chaos acceptance test: a
// 100-design sweep driven through the async job API, with the daemon
// killed and restarted (same persistent store) mid-sweep. The sweep
// must complete with no lost designs, no duplicated outcomes, and
// metrics identical to the in-process run — lost in-flight jobs are
// resubmitted by the client and answered idempotently through the
// content-addressed store.
func TestRemoteAsyncSweepSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	designs, local := referenceSweep(t)

	// The store shared across daemon lives. With PRPART_JOBS_ARTIFACTS
	// set (the CI e2e job), it lives on the real filesystem so a failure
	// leaves the ledger — every persisted job record and result — behind
	// for the artifact-upload step; otherwise it is a MemFS.
	scfg := store.Config{Dir: "chaos", FS: store.NewMemFS()}
	if dir := os.Getenv("PRPART_JOBS_ARTIFACTS"); dir != "" {
		scfg = store.Config{Dir: filepath.Join(dir, "async-sweep-store")}
		if err := os.MkdirAll(scfg.Dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	openStore := func() *store.Store {
		st, err := store.Open(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	type daemonLife struct {
		srv *serve.Server
		ts  *httptest.Server
		st  *store.Store
	}
	boot := func() daemonLife {
		st := openStore()
		srv := serve.New(serve.Config{Workers: 4, Store: st})
		return daemonLife{srv: srv, ts: httptest.NewServer(srv.Handler()), st: st}
	}
	kill := func(l daemonLife) {
		l.ts.CloseClientConnections()
		l.ts.Close()
		l.srv.Close()
		l.st.Close()
	}

	life1 := boot()
	hs := &hostSwitch{}
	hs.set(life1.ts.URL)
	cfg := RemoteConfig{
		BaseURL:      "http://daemon.invalid",
		Client:       &http.Client{Transport: hs},
		PollInterval: 5 * time.Millisecond,
		RetryBase:    20 * time.Millisecond,
		MaxAttempts:  200,
	}

	// Count completed solves so the kill lands mid-sweep, after some
	// results are already persisted and others are queued or running.
	var completed atomic.Int64
	inner := AsyncSolver(cfg)
	counting := func(d *design.Design, opts partition.Options) (*partition.Result, error) {
		res, err := inner(d, opts)
		if err == nil {
			completed.Add(1)
		}
		return res, err
	}

	sweepDone := make(chan struct{})
	var restarted sync.WaitGroup
	restarted.Add(1)
	go func() {
		defer restarted.Done()
		for completed.Load() < 15 {
			select {
			case <-sweepDone: // sweep failed before the kill point
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		// Kill: drop every client connection, then tear the daemon down.
		kill(life1)
		// Restart on the same store; point the stable URL at the new life.
		life2 := boot()
		hs.set(life2.ts.URL)
		t.Cleanup(func() { kill(life2) })
	}()

	remote, err := SweepSolver(designs, partition.Options{}, 8, counting)
	close(sweepDone)
	restarted.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesIdentical(t, remote, local, "async sweep across restart")

	// No lost or duplicated work: exactly one outcome per design, in
	// corpus order.
	seen := map[string]bool{}
	for i, o := range remote {
		if o == nil || o.Index != i || o.Name != designs[i].Name {
			t.Fatalf("outcome %d is %+v, want design %s at its own index", i, o, designs[i].Name)
		}
		if seen[o.Name] {
			t.Fatalf("design %s appears twice in the sweep output", o.Name)
		}
		seen[o.Name] = true
	}
}

// TestRemoteAsyncSingleSolve exercises the submit/poll/fetch path
// without chaos: one design, metric-identical to the library call.
func TestRemoteAsyncSingleSolve(t *testing.T) {
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 2, Obs: o})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	d := design.PaperExample()
	solver := AsyncSolver(RemoteConfig{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond})
	local, err := EvaluateDesign(0, d, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := EvaluateDesignSolver(0, d, partition.Options{}, solver)
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesIdentical(t, []*Outcome{remote}, []*Outcome{local}, "async single")
	if n := o.Snapshot().Counters["serve.jobs_submitted"]; n == 0 {
		t.Error("no async jobs reached the daemon")
	}
}

// TestRemoteBatcherNoURL pins the misconfiguration path: a batcher
// with neither BaseURL nor URLs fails each solve immediately with a
// configuration error — no panic in the URL rotation, no retry burn.
func TestRemoteBatcherNoURL(t *testing.T) {
	b := NewBatcher(RemoteConfig{})
	defer b.Close()
	_, err := b.Solver()(design.PaperExample(), partition.Options{})
	if err == nil || !strings.Contains(err.Error(), "no daemon") {
		t.Fatalf("solve with no URL: %v", err)
	}
}

// TestRemoteBatchInfeasibleEscalates pins the sentinel contract: a 422
// from the daemon must come back as partition.ErrNoScheme itself so the
// escalation loop keeps walking the device catalog instead of aborting.
func TestRemoteBatchInfeasibleEscalates(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b := NewBatcher(RemoteConfig{BaseURL: ts.URL})
	defer b.Close()
	solver := b.Solver()

	d := design.PaperExample()
	// A budget far too small for any scheme at all.
	_, err := solver(d, partition.Options{Budget: resource.New(1, 0, 0)})
	if err == nil {
		t.Fatal("one-CLB budget was feasible")
	}
	if err != partition.ErrNoScheme && err != partition.ErrInfeasible {
		t.Fatalf("infeasible remote solve returned %v, want the exact partition sentinel", err)
	}
}

// TestRemoteBatchMemberRetryHonoursRetryAfter pins the member retry's
// back-off: a member refused inside a 200 batch retries alone, and
// when that single-member exchange is refused with HTTP 503 the next
// attempt waits for the Retry-After hint (capped at RetryCap), not
// RetryBase — the same rule a refused whole-batch flush follows.
func TestRemoteBatchMemberRetryHonoursRetryAfter(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	daemon := srv.Handler()
	var exchanges atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch exchanges.Add(1) {
		case 1: // the flush: the batch lands, its one member is shed
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"results":[{"status":503,"error":"shed"}]}`))
		case 2: // the member's first retry: the whole exchange is refused
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusServiceUnavailable)
		default:
			daemon.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	b := NewBatcher(RemoteConfig{
		BaseURL:   ts.URL,
		RetryBase: time.Millisecond,
		RetryCap:  200 * time.Millisecond,
	})
	defer b.Close()

	d := design.PaperExample()
	opts := partition.Options{Budget: partition.Modular(d).TotalResources()}
	want, err := partition.Solve(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := b.Solver()(d, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("member retry: %v", err)
	}
	if got.Summary.Total != want.Summary.Total || got.Summary.Worst != want.Summary.Worst ||
		got.Summary.Regions != want.Summary.Regions {
		t.Fatalf("remote summary %+v, want %+v", got.Summary, want.Summary)
	}
	if n := exchanges.Load(); n != 3 {
		t.Fatalf("%d exchanges, want 3 (flush, refused retry, landed retry)", n)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("solve took %v: the retry after an HTTP 503 ignored Retry-After (capped at 200ms)", elapsed)
	}
}

// TestRemoteAsyncJobTimeoutNotResubmitted: a job that runs out of its
// own deadline fails with 504, and the async client reports that
// failure after one submission instead of resubmitting the job until
// its failure budget runs out.
func TestRemoteAsyncJobTimeoutNotResubmitted(t *testing.T) {
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers:        1,
		DefaultTimeout: time.Millisecond,
		Obs:            o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			<-ctx.Done() // slower than any deadline
			return nil, ctx.Err()
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	solver := AsyncSolver(RemoteConfig{BaseURL: ts.URL, PollInterval: time.Millisecond,
		RetryBase: time.Millisecond, MaxAttempts: 5})
	_, err := solver(design.PaperExample(), partition.Options{})
	if err == nil || !strings.Contains(err.Error(), "status 504") {
		t.Fatalf("timed-out job: err = %v, want a status 504 failure", err)
	}
	if n := o.Snapshot().Counters["serve.jobs_submitted"]; n != 1 {
		t.Errorf("job submitted %d times, want 1", n)
	}
}
