package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"prpart/internal/cluster"
	"prpart/internal/core"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/store"
)

const (
	ringNodes    = 3
	ringReplicas = 2
	ringSecret   = "perfbench-ring-secret"
	serveClients = 1 // closed-loop clients, capped at nproc (see NOTES.md)
	referenceN   = 8 // keys per segment re-solved in-process as a byte reference
	probeKeys    = 200
)

// node is one prpartd assembled in-process as the daemon does it: its
// own listener, on-disk store, peer client and obs registry.
type node struct {
	url   string
	o     *obs.Obs
	st    *store.Store
	peers *cluster.Peers
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve has returned
}

// ring is a three-node cluster on loopback.
type ring struct{ nodes []*node }

// bootRing starts ringNodes daemons with stores under dir, replicas 2
// and a shared secret; everything else is the daemon's default config.
func bootRing(dir string, seed int64) (*ring, error) {
	lns := make([]net.Listener, ringNodes)
	urls := make([]string, ringNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	r := &ring{}
	for i, ln := range lns {
		n, err := bootNode(ln, urls, i, filepath.Join(dir, fmt.Sprintf("node%d", i)), seed)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

func bootNode(ln net.Listener, urls []string, i int, dir string, seed int64) (*node, error) {
	o := obs.New()
	st, err := store.Open(store.Config{Dir: dir, Obs: o})
	if err != nil {
		return nil, fmt.Errorf("node %d store: %w", i, err)
	}
	peers, err := cluster.New(cluster.Config{
		Self:     urls[i],
		Peers:    urls,
		Secret:   ringSecret,
		Seed:     seed,
		Replicas: ringReplicas,
		Obs:      o,
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("node %d cluster: %w", i, err)
	}
	n := &node{url: urls[i], o: o, st: st, peers: peers, done: make(chan struct{})}
	n.srv = serve.New(serve.Config{Obs: o, Store: st, Cluster: peers})
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// close stops every node and waits for its server loop to return.
func (r *ring) close() {
	for _, n := range r.nodes {
		n.hs.Close()
		<-n.done
		n.srv.Close()
		n.st.Close()
	}
}

// reply is what one request got back.
type reply struct {
	status int
	tier   string
	body   []byte
	err    error
}

// loadGen posts request bodies from a fixed number of closed-loop
// clients; each client waits for its reply before sending the next, and
// the shared transport keeps at most `clients` connections per node.
type loadGen struct {
	client *http.Client
	tr     *http.Transport
}

func newLoadGen(clients int) *loadGen {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &loadGen{client: &http.Client{Transport: tr}, tr: tr}
}

func (g *loadGen) close() { g.tr.CloseIdleConnections() }

func (g *loadGen) post(url string, body []byte) reply {
	resp, err := g.client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, tier: resp.Header.Get("X-Cache"), body: b, err: err}
}

// loadPass is one timed closed-loop pass over the request sequence.
type loadPass struct {
	replies []reply
	lat     *tiers
	elapsed time.Duration
	cpu     time.Duration
}

// runLoad dispatches seq in order to `clients` closed-loop clients.
// With tr set, each request is a span.
func runLoad(g *loadGen, r *ring, in *serveInputs, clients int, tr *tracer) *loadPass {
	p := &loadPass{replies: make([]reply, len(in.Seq)), lat: newTiers()}
	cpu0, start := cpuTime(), time.Now()
	parallel(len(in.Seq), clients, func(i int) {
		q := in.Seq[i]
		_, end := tr.begin("serve.request", 0, int64(i+1))
		t0 := time.Now()
		rp := g.post(r.nodes[q.Node].url, in.Bodies[q.Key])
		d := time.Since(t0)
		end()
		p.replies[i] = rp
		if rp.err == nil && rp.status == http.StatusOK {
			p.lat.add(rp.tier, d)
		}
	})
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpu0
	return p
}

// warmRing solves the warm set through the ring, `clients` at a time,
// and returns each warm key's body.
func warmRing(g *loadGen, r *ring, in *serveInputs, clients int) ([][]byte, error) {
	bodies := make([][]byte, in.Warm)
	errs := make([]error, in.Warm)
	parallel(in.Warm, clients, func(k int) {
		rp := g.post(r.nodes[k%len(r.nodes)].url, in.Bodies[k])
		switch {
		case rp.err != nil:
			errs[k] = rp.err
		case rp.status != http.StatusOK:
			errs[k] = fmt.Errorf("warm key %d: status %d", k, rp.status)
		default:
			bodies[k] = rp.body
		}
	})
	return bodies, errors.Join(errs...)
}

// setUpRing boots a fresh ring on fresh disks and fills the warm set.
func setUpRing(g *loadGen, dir string, seed int64, in *serveInputs, clients int) (*ring, [][]byte, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	r, err := bootRing(dir, seed)
	if err != nil {
		return nil, nil, err
	}
	warm, err := warmRing(g, r, in, clients)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	return r, warm, nil
}

// checkLoad checks every reply of one pass outside the timed region and
// returns the first body served for each key (nil if none was). A reply
// succeeds when it is a 200 whose body is byte-identical to the first
// body seen for its key in this pass (the set-up bodies for warm keys).
// With want nil, the first bodies of a seeded sample of keys must equal
// an in-process reference solve; otherwise every first body must equal
// want's, the first pass's.
func checkLoad(in *serveInputs, warm [][]byte, p *loadPass, want [][]byte, seed int64, rep *report) ([][]byte, error) {
	first := make([][]byte, len(in.Bodies))
	copy(first, warm)
	for i, q := range in.Seq {
		if rp := p.replies[i]; first[q.Key] == nil && rp.err == nil && rp.status == http.StatusOK {
			first[q.Key] = rp.body
		}
	}
	bad := make([]bool, len(in.Bodies))
	if want == nil {
		var answered []int
		for k, b := range first {
			if b != nil {
				answered = append(answered, k)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(answered), func(i, j int) { answered[i], answered[j] = answered[j], answered[i] })
		for _, k := range answered[:min(referenceN, len(answered))] {
			ref, err := referenceBody(in.Bodies[k])
			if err != nil {
				return nil, fmt.Errorf("reference solve of key %d: %w", k, err)
			}
			if !bytes.Equal(first[k], ref) {
				bad[k] = true
				rep.problem("key %d: served bytes differ from the in-process reference", k)
			}
		}
	} else {
		for k := range first {
			if !bytes.Equal(first[k], want[k]) {
				bad[k] = true
				rep.problem("key %d: served bytes differ from the first pass", k)
			}
		}
	}
	for i, q := range in.Seq {
		rp := p.replies[i]
		switch {
		case rp.err != nil:
			rep.ops.op("transport error")
		case rp.status != http.StatusOK:
			rep.ops.op(fmt.Sprintf("status %d", rp.status))
		case bad[q.Key] || !bytes.Equal(rp.body, first[q.Key]):
			rep.ops.op("body differs for its key")
		default:
			rep.ops.op("")
		}
	}
	return first, nil
}

// framesOf sums totalFrames over the bodies served, and returns the
// warm keys' mean share of the modular scheme's frames: the warm set is
// the fixed corpus.
func framesOf(in *serveInputs, first [][]byte, rep *report) (int64, metric) {
	var frames int64
	q := &quality{}
	for k, b := range first {
		if b == nil {
			continue
		}
		var res serve.ResultJSON
		if err := json.Unmarshal(b, &res); err != nil {
			rep.problem("key %d: body is not a result: %v", k, err)
			continue
		}
		frames += int64(res.Total)
		if k < in.Warm {
			q.add(in.Designs[k], res.Total)
		}
	}
	return frames, q.metric()
}

// referenceBody solves a request in-process the way prpart -json does:
// core.RunContext with the spec's options (SkipBackend), rendered by
// serve.BuildResult and serve.WriteResult.
func referenceBody(body []byte) ([]byte, error) {
	sp, _, err := serve.DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(context.Background(), sp.Design, sp.CoreOptions(1, nil))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := serve.WriteResult(&buf, serve.BuildResult(res, nil)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveSegments is how many segments a serve run makes. Each segment
// boots a fresh ring on fresh disks and fills the warm set (timed as
// set-up), then posts its own traffic: its own new designs and its own
// repeats. Separate segments spread the set-up samples over the run and
// bring more distinct designs into one run than repeating one traffic
// would.
const serveSegments = 3

// minSegments is how many segments a run makes at least.
const minSegments = 2

// segmentSeed derives segment k's traffic seed from the run's seed.
func segmentSeed(seed int64, k int) int64 { return subSeed(seed, seedSegment+int64(k)) }

// serveSegment is one segment's traffic and what it served.
type serveSegment struct {
	in    *serveInputs
	warm  [][]byte // set-up bodies of the warm keys
	first [][]byte // first body served for each key
	pass  *loadPass
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	clients := min(serveClients, cfg.Workers)
	rounds := serveSegments
	if cfg.Trace {
		rounds = tracedRounds
	}
	root := filepath.Join(cfg.OutDir, fmt.Sprintf("serve-seed%d", cfg.Seed))
	defer os.RemoveAll(root)
	g := newLoadGen(clients)
	defer g.close()

	var segs []*serveSegment
	var setups, rss []float64
	var requests int
	var cpu, elapsed time.Duration
	pooled := newTiers() // every segment's samples, by tier
	counters := map[string]int64{}
	var jobsWait, solve obs.TimerStat
	start := time.Now()
	for k := 0; k < rounds && !timeUp(cfg, k, minSegments, start); k++ {
		in, err := serveTraffic(segmentSeed(cfg.Seed, k), fixedCorpus(), cfg.Seconds*serveRequestsPerSec/serveSegments, ringNodes)
		if err != nil {
			return nil, err
		}
		seg := &serveSegment{in: in}
		var r *ring
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		d, err := setupCPU(func() error {
			var err error
			r, seg.warm, err = setUpRing(g, filepath.Join(root, fmt.Sprintf("segment%d", k)), cfg.Seed, in, clients)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		seg.pass = runLoad(g, r, in, clients, nil)
		mb, err := peakRSSMB()
		if err != nil {
			r.close()
			return nil, err
		}
		rss = append(rss, mb)
		for _, n := range r.nodes {
			s := n.o.Snapshot()
			for name, v := range s.Counters {
				counters[name] += v
			}
			h := s.Histograms["jobs.wait.interactive"]
			jobsWait.Total += h.Sum
			jobsWait.Count += h.Count
			solve.Total += s.Timers["serve.solve"].Total
			solve.Count += s.Timers["serve.solve"].Count
		}
		r.close()
		p := seg.pass
		requests += len(in.Seq)
		cpu += p.cpu
		elapsed += p.elapsed
		pooled.merge(p.lat)
		line := fmt.Sprintf("# segment %d: %d requests, %.1f req/s, %.2f CPU ms per request, set-up %.3f CPU s, requests by tier:",
			k, len(in.Seq), float64(len(in.Seq))/p.elapsed.Seconds(), ms(p.cpu)/float64(len(in.Seq)), setups[k])
		for _, t := range sortedKeys(p.lat.ms) {
			line += fmt.Sprintf(" %s=%d", t, p.lat.count(t))
		}
		fmt.Println(line)
		segs = append(segs, seg)
	}

	// Checks, outside the timed region. The warm set is the same fixed
	// corpus in every segment, so every ring must have served it the
	// same bytes.
	var frames int64
	var quality metric
	for k, seg := range segs {
		first, err := checkLoad(seg.in, seg.warm, seg.pass, nil, segmentSeed(cfg.Seed, k), rep)
		if err != nil {
			return nil, err
		}
		seg.first = first
		for w := range seg.warm {
			if !bytes.Equal(seg.warm[w], segs[0].warm[w]) {
				rep.problem("segment %d: warm key %d served other bytes than segment 0", k, w)
			}
		}
		f, q := framesOf(seg.in, first, rep)
		frames += f
		if k == 0 {
			quality = q
		}
	}
	rep.counts["frames_total"] = frames
	rep.e2e["setup_s"] = metric{median(setups), fmt.Sprintf("process CPU, median of %d ring boots with %d warm keys", len(setups), segs[0].in.Warm)}
	rep.e2e["cpu_ms_per_op"] = metric{ms(cpu) / float64(requests), fmt.Sprintf("process CPU per request, nodes and clients, over %d requests in %d segments, %d closed-loop client(s)", requests, len(segs), clients)}
	rep.e2e["peak_rss_mb"] = metric{median(rss), "peak RSS (VmHWM) of each segment with its ring, median of segments"}
	rep.e2e["frames_vs_modular"] = quality
	if !cfg.Trace {
		return rep, nil
	}

	L := rep.layers
	L["run.throughput_per_s"] = metric{float64(requests) / elapsed.Seconds(), fmt.Sprintf("requests per wall second over %d untraced segments, %d closed-loop client(s)", len(segs), clients)}
	for _, t := range []struct {
		tier string
		q    float64
	}{{"hit", 0.5}, {"hit", 0.95}, {"miss", 0.5}, {"miss", 0.9}, {"peer", 0.5}} {
		rep.setPct(L, fmt.Sprintf("serve.%s_p%g_ms", t.tier, 100*t.q), pooled.of(t.tier), t.q)
	}
	c := counters
	L["serve.cache_hit_ratio"] = metric{ratio(c["serve.cache_hits"], c["serve.cache_hits"]+c["serve.cache_misses"]), "all nodes and segments, serve.cache_hits / lookups"}
	L["serve.coalesced"] = metric{float64(c["serve.coalesced"]), "all nodes and segments"}
	L["cluster.peer_hit_ratio"] = metric{ratio(c["cluster.peer_hits"], c["cluster.peer_hits"]+c["cluster.peer_misses"]), "all nodes and segments"}
	L["jobs.wait_ms"] = metric{ms(jobsWait.Total) / float64(max(jobsWait.Count, 1)), fmt.Sprintf("mean of %d interactive waits", jobsWait.Count)}
	L["serve.solve_ms"] = metric{ms(solve.Total) / float64(max(solve.Count, 1)), fmt.Sprintf("mean of %d solves", solve.Count)}

	// Traced pass on a fresh ring: segment 0's load again, with a span
	// per request.
	tr := newTracer()
	in := segs[0].in
	r, warm, err := setUpRing(g, filepath.Join(root, "traced"), cfg.Seed, in, clients)
	if err != nil {
		return nil, err
	}
	defer r.close()
	traced := runLoad(g, r, in, clients, tr)
	if _, err := checkLoad(in, warm, traced, segs[0].first, cfg.Seed, rep); err != nil {
		return nil, err
	}
	L["trace.overhead_share"] = metric{overhead(segs[0].pass.elapsed.Seconds(), traced.elapsed.Seconds()), "traced pass time / the same segment untraced - 1"}
	if err := probeServeLayers(r, in, filepath.Join(root, "probe-store"), tr, rep); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	if err := writeSpans(spanPath(cfg, "serve"), spans); err != nil {
		return nil, err
	}
	lt := summarize(spans)
	for _, name := range []string{"serve.decode", "serve.handler_hit", "store.put", "store.get", "cluster.fetch", "cluster.replicate"} {
		L[name+"_ms"] = metric{ms(lt.Total[name]) / float64(max(lt.Count[name], 1)), fmt.Sprintf("mean of %d calls", lt.Count[name])}
	}
	return rep, nil
}

// probeServeLayers times the serve path's layers by calling each one's
// public functions directly on a sample of the run's keys: decoding and
// keying the request, the handler answering a cache hit with no socket,
// the store's Put and Get on a separate store on the same filesystem,
// and the peer client's Fetch and Replicate against the live ring.
func probeServeLayers(r *ring, in *serveInputs, storeDir string, tr *tracer, rep *report) error {
	keys := len(in.Bodies)
	if keys > probeKeys {
		keys = probeKeys
	}
	bodies := in.Bodies[len(in.Bodies)-keys:]
	results := make([][]byte, len(bodies))
	solveKeys := make([]string, len(bodies))
	h := r.nodes[0].srv.Handler()
	call := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return rec
	}
	for i, b := range bodies {
		op := int64(i + 1)
		_, end := tr.begin("serve.decode", 0, op)
		sp, _, err := serve.DecodeRequest(b)
		var key string
		if err == nil {
			key, err = sp.Key()
		}
		end()
		if err != nil {
			return fmt.Errorf("decoding probe body %d: %w", i, err)
		}
		solveKeys[i] = key
		// The first call fills node 0's cache from whichever tier holds
		// the key; the timed second call must be a hit.
		first := call(b)
		if first.Code != http.StatusOK {
			rep.problem("probe key %d: status %d", i, first.Code)
			continue
		}
		results[i] = first.Body.Bytes()
		_, end = tr.begin("serve.handler_hit", 0, op)
		rec := call(b)
		end()
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), results[i]) {
			rep.problem("probe key %d: handler did not answer a byte-identical hit", i)
		}
	}

	if err := os.RemoveAll(storeDir); err != nil {
		return err
	}
	st, err := store.Open(store.Config{Dir: storeDir})
	if err != nil {
		return err
	}
	defer st.Close()
	for i, key := range solveKeys {
		if results[i] == nil {
			continue
		}
		_, end := tr.begin("store.put", 0, int64(i+1))
		err := st.Put(key, results[i], store.VerdictUnchecked)
		end()
		if err != nil {
			return fmt.Errorf("store.Put: %w", err)
		}
	}
	for i, key := range solveKeys {
		if results[i] == nil {
			continue
		}
		_, end := tr.begin("store.get", 0, int64(i+1))
		got, ok := st.Get(key)
		end()
		if !ok || !bytes.Equal(got, results[i]) {
			rep.problem("store.Get of probe key %d returned other bytes", i)
		}
	}

	peers := r.nodes[0].peers
	ctx := context.Background()
	for i, key := range solveKeys {
		if results[i] == nil {
			continue
		}
		_, end := tr.begin("cluster.replicate", 0, int64(i+1))
		peers.Replicate(ctx, key, results[i], uint8(store.VerdictUnchecked))
		end()
	}
	// With replicas 2 of 3 nodes every key has an owner other than node
	// 0, so each Fetch asks a peer.
	for i, key := range solveKeys {
		if results[i] == nil {
			continue
		}
		_, end := tr.begin("cluster.fetch", 0, int64(i+1))
		got, _, ok := peers.Fetch(ctx, key)
		end()
		if !ok || !bytes.Equal(got, results[i]) {
			rep.problem("cluster fetch of probe key %d returned other bytes", i)
		}
	}
	return nil
}
