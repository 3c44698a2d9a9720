package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/spec"
)

// TestServeE2EByteIdentity is the end-to-end contract between the CLI
// and the daemon: the same paper case-study design submitted over HTTP
// must return a body byte-identical to `prpart -json`, under the cache
// key `prpart -key` prints, with the second request served from cache.
func TestServeE2EByteIdentity(t *testing.T) {
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{
		Device: "FX70T",
		Budget: design.CaseStudyBudget(),
	})

	var cli strings.Builder
	if err := run([]string{"-in", path, "-json"}, &cli); err != nil {
		t.Fatal(err)
	}
	var keyOut strings.Builder
	if err := run([]string{"-in", path, "-key"}, &keyOut); err != nil {
		t.Fatal(err)
	}
	wantKey := strings.TrimSpace(keyOut.String())
	if !strings.HasPrefix(wantKey, "sha256:") {
		t.Fatalf("prpart -key printed %q", wantKey)
	}

	// Boot the serving stack on a real ephemeral listener, exactly as
	// prpartd wires it.
	o := obs.New()
	srv := serve.New(serve.Config{Obs: o})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/solve"

	xmlBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"xml": string(xmlBytes)})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

	resp1, http1 := post()
	if resp1.StatusCode != 200 {
		t.Fatalf("daemon solve: status %d: %s", resp1.StatusCode, http1)
	}
	if got := resp1.Header.Get("X-Solve-Key"); got != wantKey {
		t.Errorf("daemon key %s != prpart -key %s", got, wantKey)
	}
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", resp1.Header.Get("X-Cache"))
	}
	if !bytes.Equal(http1, []byte(cli.String())) {
		t.Errorf("HTTP body differs from prpart -json output:\nhttp: %s\ncli:  %s",
			http1, cli.String())
	}

	resp2, http2 := post()
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second request: status %d, X-Cache %q, want 200/hit",
			resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(http1, http2) {
		t.Error("cached body differs from first body")
	}
	if got := o.Snapshot().Counters["serve.solves"]; got != 1 {
		t.Errorf("solves = %d, want exactly 1 (second served from cache)", got)
	}
}
