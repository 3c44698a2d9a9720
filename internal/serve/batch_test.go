package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
)

// batchBody wraps member request bodies into a /v1/solve/batch body.
func batchBody(t *testing.T, members ...[]byte) []byte {
	t.Helper()
	raws := make([]json.RawMessage, len(members))
	for i, m := range members {
		raws[i] = m
	}
	b, err := json.Marshal(map[string]any{"requests": raws})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postPath(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
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

func decodeBatch(t *testing.T, body []byte) serve.BatchResponse {
	t.Helper()
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, body)
	}
	return br
}

// sameJSON compares two JSON documents structurally (the batch encoder
// compacts result bodies, so byte equality does not hold across the
// two surfaces — semantic equality must).
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatalf("bad JSON a: %v", err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatalf("bad JSON b: %v", err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestBatchKeyEqualsSingleSolve is the regression test for option
// consistency across surfaces: a batch member must canonicalize to
// exactly the key a lone POST /v1/solve computes for the same body —
// including option-bearing requests (budgets, search bounds,
// multilevel) — so the two surfaces share cache entries.
func TestBatchKeyEqualsSingleSolve(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := [][]byte{
		solveBody(t, design.PaperExample(), ""),
		solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`),
		solveBody(t, design.PaperExample(), `{"maxFirstMoves": 3, "coverDescending": true}`),
		solveBody(t, design.PaperExample(), `{"multilevel": true, "multilevelSeed": 7}`),
	}
	for i, body := range cases {
		r, b := post(t, ts, body)
		if r.StatusCode != 200 {
			t.Fatalf("case %d single solve: %d: %s", i, r.StatusCode, b)
		}
		singleKey := r.Header.Get("X-Solve-Key")

		br, bb := postPath(t, ts, "/v1/solve/batch", batchBody(t, body))
		if br.StatusCode != 200 {
			t.Fatalf("case %d batch: %d: %s", i, br.StatusCode, bb)
		}
		res := decodeBatch(t, bb).Results
		if len(res) != 1 || res[0].Status != 200 {
			t.Fatalf("case %d batch results: %+v", i, res)
		}
		if res[0].Key != singleKey {
			t.Errorf("case %d: batch key %q != single-solve key %q — the surfaces hash options differently",
				i, res[0].Key, singleKey)
		}
		// Same key ⇒ served from the cache the single solve populated.
		if res[0].Cache != "hit" {
			t.Errorf("case %d: batch member cache = %q, want hit", i, res[0].Cache)
		}
		if !sameJSON(t, b, res[0].Result) {
			t.Errorf("case %d: batch result differs from single-solve body", i)
		}
	}
	// A distinct-option request must NOT share the plain request's key.
	r1, _ := post(t, ts, cases[0])
	br, bb := postPath(t, ts, "/v1/solve/batch", batchBody(t, cases[2]))
	if k := decodeBatch(t, bb).Results[0].Key; br.StatusCode != 200 || k == r1.Header.Get("X-Solve-Key") {
		t.Error("option-bearing member shares the optionless key: options are not hashed")
	}
}

// TestBatchDedupCoalescesDuplicates: N identical members in one batch
// run one solve; the copies are marked dup and carry the same result.
func TestBatchDedupCoalescesDuplicates(t *testing.T) {
	o := obs.New()
	var calls atomic.Int64
	srv := serve.New(serve.Config{
		Workers: 2, Obs: o,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dup := solveBody(t, design.PaperExample(), "")
	other := solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`)
	r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, dup, dup, other, dup))
	if r.StatusCode != 200 {
		t.Fatalf("batch: %d: %s", r.StatusCode, b)
	}
	res := decodeBatch(t, b).Results
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("solver ran %d times for 2 distinct keys, want 2", n)
	}
	for i, want := range []string{"miss", "dup", "miss", "dup"} {
		if res[i].Status != 200 || res[i].Cache != want {
			t.Errorf("member %d: status %d cache %q, want 200 %q", i, res[i].Status, res[i].Cache, want)
		}
	}
	if !bytes.Equal(res[0].Result, res[1].Result) || !bytes.Equal(res[0].Result, res[3].Result) {
		t.Error("dup members carry different bytes than their leader")
	}
	if res[0].Key != res[1].Key || res[0].Key == res[2].Key {
		t.Errorf("keys wrong: %q %q %q", res[0].Key, res[1].Key, res[2].Key)
	}
	if n := o.Snapshot().Counters["serve.batch_dups"]; n != 2 {
		t.Errorf("batch_dups = %d, want 2", n)
	}
}

// TestBatchOversizeIs413: more members than MaxBatchItems is refused
// whole with 413 before any member is decoded or solved.
func TestBatchOversizeIs413(t *testing.T) {
	var calls atomic.Int64
	srv := serve.New(serve.Config{
		Workers: 1, MaxBatchItems: 2,
		Solver: func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			return core.RunContext(ctx, d, opts)
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m := solveBody(t, design.PaperExample(), "")
	r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, m, m, m))
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: %d (%s), want 413", r.StatusCode, b)
	}
	if calls.Load() != 0 {
		t.Error("oversize batch still ran solves")
	}
	// At the limit it goes through.
	if r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, m, m)); r.StatusCode != 200 {
		t.Fatalf("at-limit batch: %d: %s", r.StatusCode, b)
	}
}

// TestBatchPerMemberErrors: a malformed member fails alone; the others
// still solve. The batch itself stays 200.
func TestBatchPerMemberErrors(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := solveBody(t, design.PaperExample(), "")
	infeasible := solveBody(t, design.PaperExample(), `{"budget": {"clb": 1, "bram": 0, "dsp": 0}}`)
	r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, good, []byte(`{"nope": 1}`), infeasible))
	if r.StatusCode != 200 {
		t.Fatalf("batch: %d: %s", r.StatusCode, b)
	}
	res := decodeBatch(t, b).Results
	if res[0].Status != 200 {
		t.Errorf("good member: %d (%s)", res[0].Status, res[0].Error)
	}
	if res[1].Status != 400 || res[1].Error == "" || res[1].Key != "" {
		t.Errorf("malformed member: %+v, want keyless 400 with message", res[1])
	}
	if res[2].Status != 422 || res[2].Error == "" {
		t.Errorf("infeasible member: %+v, want 422", res[2])
	}
}

// TestBatchEnvelopeValidation: empty and malformed envelopes are 400s.
func TestBatchEnvelopeValidation(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{`{"requests": []}`, `{"bogus": 1}`, `{`} {
		r, _ := postPath(t, ts, "/v1/solve/batch", []byte(body))
		if r.StatusCode != 400 {
			t.Errorf("envelope %q: status %d, want 400", body, r.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch = %d, want 405", resp.StatusCode)
	}
}

// TestBatchBackpressure503: a bulk tier saturated at batch arrival
// refuses the whole batch with 503 and a jittered Retry-After.
func TestBatchBackpressure503(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := serve.New(serve.Config{
		Workers: 1, InteractiveDepth: 2, BulkDepth: 1,
		Solver: blockingSolver(release, entered, nil),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One bulk solve occupies the tier (admitted bound 1).
	d := design.PaperExample()
	d.Name = "occupier"
	occ := solveBody(t, d, `{"bulk": true}`)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(occ))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, solveBody(t, design.PaperExample(), "")))
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch against full bulk tier: %d (%s), want 503", r.StatusCode, b)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	close(release)
}

// TestBatchMemberDeadlineInAdmissionIsNoRefusal: batch members whose
// own deadline passes while one of them waits for bulk capacity report
// 504, and nothing counts as refused: EnqueueWait retries a full tier
// itself, so its ending without admission is a withdrawal, not a
// rejection.
func TestBatchMemberDeadlineInAdmissionIsNoRefusal(t *testing.T) {
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
	pending := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var h struct {
			Pending int `json:"pendingKeys"`
		}
		if json.NewDecoder(resp.Body).Decode(&h) != nil {
			return -1
		}
		return h.Pending
	}

	occupier := design.PaperExample()
	occupier.Name = "occupier"
	held := postAsync(ts, "/v1/solve/batch", batchBody(t, solveBody(t, occupier, "")))
	<-entered // the lone worker runs the occupier: one bulk slot of two is taken

	var members [][]byte
	for _, name := range []string{"first", "second"} {
		d := design.PaperExample()
		d.Name = name
		members = append(members, solveBody(t, d, `{"timeoutMs": 300}`))
	}
	r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, members...))
	if r.StatusCode != 200 {
		t.Fatalf("batch: status %d: %s", r.StatusCode, b)
	}
	for i, m := range decodeBatch(t, b).Results {
		if m.Status != http.StatusGatewayTimeout {
			t.Errorf("member %d: status %d (%s), want 504 on its own deadline", i, m.Status, m.Error)
		}
	}
	close(release)
	if r := <-held; r.code != 200 {
		t.Fatalf("occupier batch: status %d: %s", r.code, r.body)
	}
	waitCond(t, func() bool { return pending() == 0 })
	if n := o.Snapshot().Counters["serve.rejected_queue_full"]; n != 0 {
		t.Errorf("serve.rejected_queue_full = %d, want 0: no request was refused", n)
	}
}

// TestBatchSharesCacheWithSolve runs a batch first and requires the
// synchronous surface to hit the entries it populated.
func TestBatchSharesCacheWithSolve(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	if r, b := postPath(t, ts, "/v1/solve/batch", batchBody(t, body)); r.StatusCode != 200 {
		t.Fatalf("batch: %d: %s", r.StatusCode, b)
	}
	r, _ := post(t, ts, body)
	if got := r.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("single solve after batch X-Cache = %q, want hit", got)
	}
}
