package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
)

// gatedSolver counts its runs, signals entry, and blocks until released
// or cancelled. A solve whose context has died by then fails with the
// context's error, so a follower can only get 200 when the flight's
// context outlived the waiter that gave up.
func gatedSolver(release <-chan struct{}, entered chan<- struct{}, calls *atomic.Int64) serve.SolveFunc {
	return func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.RunContext(ctx, d, opts)
	}
}

// loneSolve returns the body a fresh server answers for body.
func loneSolve(t *testing.T, body []byte) []byte {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, b := post(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("lone solve: %d: %s", resp.StatusCode, b)
	}
	return b
}

// postAsync posts body to path from another goroutine.
func postAsync(ts *httptest.Server, path string, body []byte) <-chan asyncReply {
	out := make(chan asyncReply, 1)
	go func() {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			out <- asyncReply{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		out <- asyncReply{resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Cache")}
	}()
	return out
}

// expireMember requires a one-member batch reply whose member failed on
// its deadline.
func expireMember(t *testing.T, body []byte) {
	t.Helper()
	res := decodeBatch(t, body).Results
	if len(res) != 1 || res[0].Status == 200 || !strings.Contains(res[0].Error, "deadline exceeded") {
		t.Fatalf("batch results = %+v, want one member failed on its deadline", res)
	}
}

type asyncReply struct {
	code  int
	body  []byte
	cache string
}

// TestFollowerOutlivesBatchLeaderDeadline: a /v1/solve without a
// deadline joins a flight led by a batch member with a short timeoutMs.
// The member's deadline withdraws the member alone: it reports 504,
// while the solve keeps running for the follower, which gets 200 with a
// lone solve's bytes from one solver run.
func TestFollowerOutlivesBatchLeaderDeadline(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var calls atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 2, Obs: o, Solver: gatedSolver(release, entered, &calls)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := postAsync(ts, "/v1/solve/batch",
		batchBody(t, solveBody(t, design.PaperExample(), `{"timeoutMs": 200}`)))
	<-entered
	body := solveBody(t, design.PaperExample(), "")
	follower := postAsync(ts, "/v1/solve", body)
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 1 })

	br := <-batch
	if br.code != 200 {
		t.Fatalf("batch: status %d: %s", br.code, br.body)
	}
	expireMember(t, br.body)
	close(release)
	r := <-follower
	if r.code != 200 {
		t.Fatalf("follower: status %d: %s", r.code, r.body)
	}
	if r.cache != "coalesced" {
		t.Errorf("follower X-Cache = %q, want coalesced", r.cache)
	}
	if !bytes.Equal(r.body, loneSolve(t, body)) {
		t.Error("follower bytes differ from a lone solve")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times, want 1", n)
	}
}

// TestFollowerOutlivesJobCancel: a /v1/solve joins the flight an async
// job leads; a DELETE of the job withdraws the job alone. The follower
// gets 200 with a lone solve's bytes, and the job ends canceled.
func TestFollowerOutlivesJobCancel(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var calls atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 2, Obs: o, Solver: gatedSolver(release, entered, &calls)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	id, _ := submitJob(t, ts, body)
	<-entered
	follower := postAsync(ts, "/v1/solve", body)
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 1 })

	if code, _ := deleteJob(t, ts, id); code != 200 {
		t.Fatalf("cancel: %d", code)
	}
	close(release)
	r := <-follower
	if r.code != 200 {
		t.Fatalf("follower: status %d: %s", r.code, r.body)
	}
	if !bytes.Equal(r.body, loneSolve(t, body)) {
		t.Error("follower bytes differ from a lone solve")
	}
	waitJobState(t, ts, id, "canceled")
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times, want 1", n)
	}
}

// TestBatchDeadlineCancelsSearch is the batch mirror of
// TestDeadlineCancelsSearch: a lone member's deadline reports 504 and,
// because the member was the flight's only waiter, stops the search.
func TestBatchDeadlineCancelsSearch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var cancelled atomic.Bool
	srv := serve.New(serve.Config{Workers: 1, Solver: blockingSolver(release, nil, &cancelled)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, b := postPath(t, ts, "/v1/solve/batch",
		batchBody(t, solveBody(t, design.PaperExample(), `{"timeoutMs": 30}`)))
	if r.StatusCode != 200 {
		t.Fatalf("batch: %d: %s", r.StatusCode, b)
	}
	expireMember(t, b)
	waitCond(t, func() bool { return cancelled.Load() })
}

// TestRequestAfterLastWaiterLeftSolvesAfresh: a request for a key whose
// only waiter has already given up must not join that dying flight and
// inherit its cancellation; it starts a fresh solve and gets 200.
func TestRequestAfterLastWaiterLeftSolvesAfresh(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers: 1, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == "blocker" {
				entered <- struct{}{}
				<-release
			}
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	blocker := design.PaperExample()
	blocker.Name = "blocker"
	held := postAsync(ts, "/v1/solve", solveBody(t, blocker, ""))
	<-entered // the lone worker is busy; the next solve queues behind it

	if r, b := post(t, ts, solveBody(t, design.PaperExample(), `{"timeoutMs": 30}`)); r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d (%s), want 504", r.StatusCode, b)
	}
	retry := postAsync(ts, "/v1/solve", solveBody(t, design.PaperExample(), ""))
	// Release the worker only once the retry is registered: queued as a
	// fresh flight, or coalesced onto the dying one.
	waitCond(t, func() bool {
		snap := o.Snapshot()
		return snap.Counters["serve.coalesced"] == 1 || snap.Levels["serve.queue_depth"].Current == 2
	})
	close(release)
	if r := <-held; r.code != 200 {
		t.Fatalf("blocker: status %d: %s", r.code, r.body)
	}
	if r := <-retry; r.code != 200 {
		t.Fatalf("request after the last waiter left: status %d: %s", r.code, r.body)
	}
}

// TestFollowerOutlivesBatchLeaderBlockedInAdmission: a batch member
// that leads its flight while blocked in EnqueueWait (the bulk tier
// filled after the batch arrived) hits its own deadline there. A
// /v1/solve without a deadline that joined the flight meanwhile must
// not inherit that deadline: the member reports 504, and the follower
// gets 200 with a lone solve's bytes once bulk capacity frees.
//
// Which of the two members wins the tier's last slot is up to the
// scheduler, so each gets a follower; the admitted one is the control.
func TestFollowerOutlivesBatchLeaderBlockedInAdmission(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	o := obs.New()
	srv := serve.New(serve.Config{
		Workers: 1, BulkDepth: 2, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			if d.Name == "occupier" {
				entered <- struct{}{}
				<-release
			}
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	occupier := design.PaperExample()
	occupier.Name = "occupier"
	held := postAsync(ts, "/v1/solve/batch", batchBody(t, solveBody(t, occupier, "")))
	<-entered // the lone worker runs the occupier: one bulk slot of two is taken

	var members, bodies [][]byte
	for _, name := range []string{"first", "second"} {
		d := design.PaperExample()
		d.Name = name
		members = append(members, solveBody(t, d, `{"timeoutMs": 300}`))
		bodies = append(bodies, solveBody(t, d, ""))
	}
	batch := postAsync(ts, "/v1/solve/batch", batchBody(t, members...))
	// Both members lead a flight; one holds the last bulk slot, the other
	// waits in EnqueueWait.
	waitCond(t, func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h struct {
			Pending int `json:"pendingKeys"`
		}
		return json.NewDecoder(resp.Body).Decode(&h) == nil && h.Pending == 3 &&
			o.Snapshot().Levels["jobs.queued.bulk"].Current == 1
	})
	var followers []<-chan asyncReply
	for _, b := range bodies {
		followers = append(followers, postAsync(ts, "/v1/solve", b))
	}
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 2 })

	br := <-batch
	if br.code != 200 {
		t.Fatalf("batch: status %d: %s", br.code, br.body)
	}
	for i, m := range decodeBatch(t, br.body).Results {
		if m.Status != http.StatusGatewayTimeout || !strings.Contains(m.Error, "deadline exceeded") {
			t.Errorf("member %d: status %d (%s), want 504 on its own deadline", i, m.Status, m.Error)
		}
	}
	close(release)
	if r := <-held; r.code != 200 {
		t.Fatalf("occupier batch: status %d: %s", r.code, r.body)
	}
	for i, f := range followers {
		r := <-f
		if r.code != 200 {
			t.Errorf("follower %d: status %d: %s", i, r.code, r.body)
			continue
		}
		if !bytes.Equal(r.body, loneSolve(t, bodies[i])) {
			t.Errorf("follower %d: bytes differ from a lone solve", i)
		}
	}
}
