package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/serve"
)

func postURL(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestDaemonStoreRestartByteIdentity: with -store, a fully restarted
// daemon process serves a previously-solved key from disk —
// byte-identical, marked X-Cache: store, no search re-run.
func TestDaemonStoreRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	body := caseStudyBody(t)

	base, _, stop := bootDaemon(t, []string{"-store", dir})
	r1, b1 := postURL(t, base, body)
	if r1.StatusCode != 200 {
		t.Fatalf("first boot solve: %d: %s", r1.StatusCode, b1)
	}
	if err := stop(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	base2, out2, stop2 := bootDaemon(t, []string{"-store", dir})
	defer stop2()
	r2, b2 := postURL(t, base2, body)
	if r2.StatusCode != 200 {
		t.Fatalf("post-restart solve: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "store" {
		t.Errorf("X-Cache = %q, want store", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("restarted daemon served different bytes for the same key")
	}
	if !strings.Contains(out2.String(), "1 keys") {
		t.Errorf("startup did not report the recovered store:\n%s", out2.String())
	}
	// /healthz reports the persistent tier.
	hr, err := http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var health struct {
		Store *struct {
			Keys int   `json:"keys"`
			Hits int64 `json:"hits"`
		} `json:"store"`
	}
	if err := json.Unmarshal(hb, &health); err != nil || health.Store == nil {
		t.Fatalf("healthz has no store block: %s (err %v)", hb, err)
	}
	if health.Store.Keys != 1 || health.Store.Hits != 1 {
		t.Errorf("healthz store = %+v, want 1 key / 1 hit", health.Store)
	}
}

// TestDaemonStoreCorruptionQuarantine: bit rot on the stored blob is
// detected on read; the daemon quarantines the blob, re-solves, and the
// client still receives the canonical bytes — never the corrupt ones.
func TestDaemonStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	body := caseStudyBody(t)

	base, _, stop := bootDaemon(t, []string{"-store", dir})
	r1, b1 := postURL(t, base, body)
	if r1.StatusCode != 200 {
		t.Fatalf("seed solve: %d: %s", r1.StatusCode, b1)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	blobs, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blobs = %v, %v", blobs, err)
	}
	blobPath := filepath.Join(dir, "blobs", blobs[0].Name())
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	base2, _, stop2 := bootDaemon(t, []string{"-store", dir})
	defer stop2()
	r2, b2 := postURL(t, base2, body)
	if r2.StatusCode != 200 {
		t.Fatalf("solve over corrupt blob: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (corrupt bytes must not be served)", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("re-solved bytes differ from the original solve")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Errorf("quarantine dir = %v, %v; want the damaged blob", q, err)
	}
}

// TestDaemonChaosRestartLoop boots the daemon against the same on-disk
// store for several restart cycles with seeded I/O fault injection on,
// asserting byte identity of every response throughout. The store
// directory can be pinned with PRPART_CHAOS_DIR so CI can upload the
// quarantine area when the loop fails.
func TestDaemonChaosRestartLoop(t *testing.T) {
	dir := os.Getenv("PRPART_CHAOS_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(dir, "restart-loop")

	bodies := [][]byte{
		caseStudyBody(t),
		[]byte(fmt.Sprintf(`{"design": %s}`, mustJSON(t, design.PaperExample()))),
	}
	refs := make([][]byte, len(bodies))

	const cycles = 5
	for cycle := 0; cycle < cycles; cycle++ {
		base, _, stop := bootDaemon(t, []string{
			"-store", dir,
			"-store-fault-rate", "0.05",
			"-store-fault-seed", fmt.Sprint(100 + cycle),
		})
		for i, body := range bodies {
			r, b := postURL(t, base, body)
			if r.StatusCode != 200 {
				t.Fatalf("cycle %d, spec %d: status %d: %s", cycle, i, r.StatusCode, b)
			}
			if refs[i] == nil {
				refs[i] = b
			} else if !bytes.Equal(b, refs[i]) {
				t.Fatalf("cycle %d, spec %d (X-Cache %s): bytes differ from cycle 0",
					cycle, i, r.Header.Get("X-Cache"))
			}
		}
		if err := stop(); err != nil {
			t.Fatalf("cycle %d shutdown: %v", cycle, err)
		}
	}
}

func mustJSON(t *testing.T, d *design.Design) string {
	t.Helper()
	var buf bytes.Buffer
	if err := design.EncodeJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDaemonShutdownTimeoutLogsInflight: when the -drain bound expires
// with solves still running, the daemon logs how much work it is
// abandoning before aborting.
func TestDaemonShutdownTimeoutLogsInflight(t *testing.T) {
	orig := newServer
	defer func() { newServer = orig }()
	newServer = func(cfg serve.Config) *serve.Server {
		cfg.Solver = func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
			<-ctx.Done() // runs until the hard abort
			return nil, ctx.Err()
		}
		return serve.New(cfg)
	}

	base, out, stop := bootDaemon(t, []string{"-drain", "200ms"})
	body := caseStudyBody(t)
	go func() {
		// The response is a 503 from the hard abort (or a dropped
		// connection); this goroutine only exists to park the solver.
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hr, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		var health struct {
			Inflight int64 `json:"inflight"`
		}
		if json.Unmarshal(hb, &health) == nil && health.Inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve never became inflight: %s", hb)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := stop(); err == nil {
		t.Error("drain past -drain reported success")
	}
	want := "drain timed out after 200ms with 1 solves running, 0 queued; aborting"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}
