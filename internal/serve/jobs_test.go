package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/serve"
	"prpart/internal/store"
)

type jobRecord struct {
	ID         string `json:"id"`
	Key        string `json:"key"`
	Tier       string `json:"tier"`
	State      string `json:"state"`
	HTTPStatus int    `json:"httpStatus"`
	Error      string `json:"error"`
}

func submitJob(t *testing.T, ts *httptest.Server, body []byte) (string, *http.Response) {
	t.Helper()
	resp, rb := postPath(t, ts, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d: %s", resp.StatusCode, rb)
	}
	var sub struct {
		ID    string `json:"id"`
		Key   string `json:"key"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(rb, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit response incomplete: %s", rb)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, sub.ID)
	}
	return sub.ID, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobRecord) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec jobRecord
	json.NewDecoder(resp.Body).Decode(&rec)
	return resp.StatusCode, rec
}

func waitJobState(t *testing.T, ts *httptest.Server, id, want string) jobRecord {
	t.Helper()
	var rec jobRecord
	waitCond(t, func() bool {
		_, rec = getJob(t, ts, id)
		return rec.State == want
	})
	return rec
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, jobRecord) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec jobRecord
	json.NewDecoder(resp.Body).Decode(&rec)
	return resp.StatusCode, rec
}

// TestJobLifecycleDone: submit → poll to done → fetch the result, and
// require the async body to be byte-identical to the synchronous
// surface for the same spec.
func TestJobLifecycleDone(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	id, resp := submitJob(t, ts, body)
	syncKey := resp.Header.Get("X-Solve-Key")

	rec := waitJobState(t, ts, id, "done")
	if rec.Tier != "bulk" || rec.Key != syncKey {
		t.Errorf("record = %+v, want bulk tier with key %s", rec, syncKey)
	}

	resp2, rb := postPathGet(t, ts, "/v1/jobs/"+id+"/result")
	if resp2.StatusCode != 200 {
		t.Fatalf("result: %d: %s", resp2.StatusCode, rb)
	}
	r3, b3 := post(t, ts, body)
	if r3.StatusCode != 200 {
		t.Fatalf("sync solve: %d", r3.StatusCode)
	}
	if !bytes.Equal(rb, b3) {
		t.Error("async result bytes differ from synchronous solve")
	}
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("sync solve after job X-Cache = %q, want hit (job must populate the cache)", got)
	}
}

func postPathGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestJobCancelWhileQueued: a job parked behind a busy worker is
// withdrawn before its solve ever starts.
func TestJobCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var jobRan atomic.Bool
	srv := serve.New(serve.Config{
		Workers: 1,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == "blocker" {
				entered <- struct{}{}
				<-release
				return core.RunContext(context.Background(), d, opts)
			}
			jobRan.Store(true)
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	blocker := design.PaperExample()
	blocker.Name = "blocker"
	bb := solveBody(t, blocker, "")
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(bb))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the lone worker is busy; anything submitted now queues

	id, _ := submitJob(t, ts, solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`))
	if _, rec := getJob(t, ts, id); rec.State != "queued" {
		t.Fatalf("job state = %q before cancel, want queued", rec.State)
	}
	code, rec := deleteJob(t, ts, id)
	if code != 200 || rec.State != "canceled" {
		t.Fatalf("cancel: %d %+v, want 200 canceled", code, rec)
	}
	close(release)
	// The canceled job's solve never runs, even after the worker frees.
	time.Sleep(20 * time.Millisecond)
	if jobRan.Load() {
		t.Error("canceled-while-queued job still ran its solve")
	}
	// Its result endpoint reports the cancellation.
	resp, rb := postPathGet(t, ts, "/v1/jobs/"+id+"/result")
	if resp.StatusCode == 200 || resp.StatusCode == http.StatusAccepted {
		t.Errorf("canceled job result: %d (%s), want an error status", resp.StatusCode, rb)
	}
}

// TestJobCancelMidSolve: DELETE on a running job cancels its context;
// the job transitions to canceled, not failed.
func TestJobCancelMidSolve(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv := serve.New(serve.Config{
		Workers: 1,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			entered <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := submitJob(t, ts, solveBody(t, design.PaperExample(), ""))
	<-entered
	if _, rec := getJob(t, ts, id); rec.State != "running" {
		t.Fatalf("job state = %q mid-solve, want running", rec.State)
	}
	if code, _ := deleteJob(t, ts, id); code != 200 {
		t.Fatalf("cancel: %d", code)
	}
	rec := waitJobState(t, ts, id, "canceled")
	if rec.State != "canceled" {
		t.Fatalf("record = %+v", rec)
	}
	// Cancelling again is a no-op, not an error.
	if code, rec := deleteJob(t, ts, id); code != 200 || rec.State != "canceled" {
		t.Errorf("second cancel: %d %+v", code, rec)
	}
}

// TestJobPollAfterRestart: finished jobs survive a daemon restart — the
// record comes back from the store, and the result body is served
// byte-identically through the store tier under the job's solve key.
func TestJobPollAfterRestart(t *testing.T) {
	mfs := store.NewMemFS()
	body := solveBody(t, design.PaperExample(), "")

	st1 := openStore(t, mfs, nil)
	srv1 := serve.New(serve.Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	id, _ := submitJob(t, ts1, body)
	waitJobState(t, ts1, id, "done")
	_, want := postPathGet(t, ts1, "/v1/jobs/"+id+"/result")
	ts1.Close()
	srv1.Close()
	st1.Close()

	st2 := openStore(t, mfs, nil)
	defer st2.Close()
	srv2 := serve.New(serve.Config{Workers: 2, Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	code, rec := getJob(t, ts2, id)
	if code != 200 || rec.State != "done" {
		t.Fatalf("poll after restart: %d %+v, want done record", code, rec)
	}
	resp, got := postPathGet(t, ts2, "/v1/jobs/"+id+"/result")
	if resp.StatusCode != 200 {
		t.Fatalf("result after restart: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Error("restarted daemon serves different result bytes")
	}
	// Cancel of a terminal persisted job is a no-op.
	if code, rec := deleteJob(t, ts2, id); code != 200 || rec.State != "done" {
		t.Errorf("cancel of persisted done job: %d %+v", code, rec)
	}
}

// TestJobInFlightLostOnRestart: a job that was still queued or running
// when the daemon died is gone after restart — 404, the client's cue to
// resubmit (idempotent: the resubmit hits the store if the solve had
// finished).
func TestJobInFlightLostOnRestart(t *testing.T) {
	mfs := store.NewMemFS()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)

	st1 := openStore(t, mfs, nil)
	srv1 := serve.New(serve.Config{Workers: 1, Solver: blockingSolver(release, entered, nil)})
	ts1 := httptest.NewServer(srv1.Handler())
	id, _ := submitJob(t, ts1, solveBody(t, design.PaperExample(), ""))
	<-entered // running, never finishes
	ts1.Close()
	srv1.Close()
	close(release)
	st1.Close()

	st2 := openStore(t, mfs, nil)
	defer st2.Close()
	srv2 := serve.New(serve.Config{Workers: 1, Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if code, _ := getJob(t, ts2, id); code != http.StatusNotFound {
		t.Fatalf("poll of mid-run-killed job: %d, want 404", code)
	}
}

// TestJobSubmitBackpressure: a full bulk tier refuses submissions with
// 503 and a Retry-After; an unknown id polls as 404.
func TestJobSubmitBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := serve.New(serve.Config{
		Workers: 1, BulkDepth: 2,
		Solver: blockingSolver(release, entered, nil),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(i int) []byte {
		d := design.PaperExample()
		d.Name = fmt.Sprintf("job-%d", i)
		return solveBody(t, d, "")
	}
	submitJob(t, ts, mk(0)) // running
	<-entered
	submitJob(t, ts, mk(1)) // queued: tier now at its admitted bound of 2

	resp, rb := postPath(t, ts, "/v1/jobs", mk(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-depth submit: %d (%s), want 503", resp.StatusCode, rb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	close(release)

	if code, _ := getJob(t, ts, "j-ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown job id: %d, want 404", code)
	}
}

// TestJobList: GET /v1/jobs pages through the live job table newest
// first, the state filter selects one lifecycle state, and malformed
// query parameters are 400s, not silently-defaulted.
func TestJobList(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := serve.New(serve.Config{Workers: 1, Solver: blockingSolver(release, entered, nil)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(i int) []byte {
		d := design.PaperExample()
		d.Name = fmt.Sprintf("list-%d", i)
		return solveBody(t, d, "")
	}
	ids := make([]string, 3)
	ids[0], _ = submitJob(t, ts, mk(0))
	<-entered // job 0 running on the lone worker; 1 and 2 queue behind it
	ids[1], _ = submitJob(t, ts, mk(1))
	ids[2], _ = submitJob(t, ts, mk(2))

	type listResp struct {
		Jobs   []jobRecord `json:"jobs"`
		Total  int         `json:"total"`
		Offset int         `json:"offset"`
		Limit  int         `json:"limit"`
	}
	list := func(query string) (int, listResp) {
		t.Helper()
		resp, rb := postPathGet(t, ts, "/v1/jobs"+query)
		var lr listResp
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(rb, &lr); err != nil {
				t.Fatalf("list %q: %v in %s", query, err, rb)
			}
		}
		return resp.StatusCode, lr
	}

	if code, lr := list(""); code != 200 || lr.Total != 3 || len(lr.Jobs) != 3 {
		t.Fatalf("list all = %d total=%d n=%d, want 200/3/3", code, lr.Total, len(lr.Jobs))
	}
	if code, lr := list("?state=running"); code != 200 || lr.Total != 1 || lr.Jobs[0].ID != ids[0] {
		t.Errorf("list running = %d %+v, want exactly job %s", code, lr, ids[0])
	}
	if code, lr := list("?state=queued"); code != 200 || lr.Total != 2 {
		t.Errorf("list queued = %d total=%d, want 200/2", code, lr.Total)
	}
	if code, _ := list("?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus state = %d, want 400", code)
	}

	close(release)
	for _, id := range ids {
		waitJobState(t, ts, id, "done")
	}
	if code, lr := list("?state=done"); code != 200 || lr.Total != 3 {
		t.Errorf("list done = %d total=%d, want 200/3", code, lr.Total)
	}
	// An empty match is an empty array, never null.
	if _, rb := postPathGet(t, ts, "/v1/jobs?state=failed"); !bytes.Contains(rb, []byte(`"jobs":[]`)) {
		t.Errorf("empty listing = %s, want \"jobs\":[]", rb)
	}
	// Pagination: total counts matches before slicing; the pages tile
	// the sorted list without overlap.
	code, p1 := list("?limit=2")
	if code != 200 || p1.Total != 3 || len(p1.Jobs) != 2 || p1.Limit != 2 {
		t.Fatalf("page 1 = %d %+v, want 2 of 3", code, p1)
	}
	code, p2 := list("?limit=2&offset=2")
	if code != 200 || p2.Total != 3 || len(p2.Jobs) != 1 || p2.Offset != 2 {
		t.Fatalf("page 2 = %d %+v, want 1 of 3", code, p2)
	}
	seen := map[string]bool{}
	for _, r := range append(p1.Jobs, p2.Jobs...) {
		seen[r.ID] = true
	}
	if len(seen) != 3 {
		t.Errorf("pages overlap or drop: %v", seen)
	}
	for _, q := range []string{"?limit=0", "?limit=-1", "?limit=abc", "?offset=-1", "?offset=abc"} {
		if code, _ := list(q); code != http.StatusBadRequest {
			t.Errorf("list %q = %d, want 400", q, code)
		}
	}
	// An offset past the end is a valid empty page.
	if code, lr := list("?offset=50"); code != 200 || lr.Total != 3 || len(lr.Jobs) != 0 {
		t.Errorf("past-end offset = %d %+v, want empty 200", code, lr)
	}
}

// TestJobResultWhileRunning: polling the result of a live job returns
// 202 with the record, not an error.
func TestJobResultWhileRunning(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := serve.New(serve.Config{Workers: 1, Solver: blockingSolver(release, entered, nil)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := submitJob(t, ts, solveBody(t, design.PaperExample(), ""))
	<-entered
	resp, rb := postPathGet(t, ts, "/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("result of running job: %d (%s), want 202", resp.StatusCode, rb)
	}
	var rec jobRecord
	if err := json.Unmarshal(rb, &rec); err != nil || rec.State != "running" {
		t.Errorf("202 body = %s, want the running record", rb)
	}
	close(release)
	waitJobState(t, ts, id, "done")
}

// TestJobOwnTimeoutIs504: a job whose own timeoutMs passes records 504
// "serve: solve deadline exceeded", as /v1/solve and batch members
// answer, whether it led the key's flight or found a solve already in
// flight and solved a duplicate. A 503 would read as a refusal and be
// resubmitted.
func TestJobOwnTimeoutIs504(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv := serve.New(serve.Config{
		Workers: 2,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == "held" {
				entered <- struct{}{}
			}
			<-ctx.Done() // slower than any deadline
			return nil, ctx.Err()
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	expire := func(label string, body []byte) {
		t.Helper()
		id, _ := submitJob(t, ts, body)
		rec := waitJobState(t, ts, id, "failed")
		if rec.HTTPStatus != http.StatusGatewayTimeout || rec.Error != "serve: solve deadline exceeded" {
			t.Errorf("%s: job record %+v, want 504 serve: solve deadline exceeded", label, rec)
		}
		if resp, rb := postPathGet(t, ts, "/v1/jobs/"+id+"/result"); resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: result %d (%s), want 504", label, resp.StatusCode, rb)
		}
	}
	expire("leader", solveBody(t, design.PaperExample(), `{"timeoutMs": 1}`))

	// A /v1/solve without a deadline holds the flight; the job that
	// finds it solves a duplicate under its own deadline.
	held := design.PaperExample()
	held.Name = "held"
	lead := postAsync(ts, "/v1/solve", solveBody(t, held, ""))
	<-entered
	expire("duplicate", solveBody(t, held, `{"timeoutMs": 1}`))
	srv.Close()
	<-lead
}
