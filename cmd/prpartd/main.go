// Command prpartd serves the automated partitioning algorithm over
// HTTP: a long-running daemon with a bounded solve pool, a
// content-addressed result cache, request coalescing, per-request
// deadlines and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	prpartd [-addr 127.0.0.1:8377] [-workers N] [-cache N]
//	        [-timeout 30s] [-solve-workers N] [-devices lib.json]
//	        [-store DIR] [-drain 30s] [-cache-max-body N]
//	        [-interactive-depth N] [-bulk-depth N] [-bulk-share N]
//	        [-batch-max N] [-jitter-seed S] [-jobs-retention N]
//	        [-peers URL,URL,...] [-self URL] [-ring-seed S] [-replicas N]
//	        [-peer-secret S]
//
// With -store the daemon persists every solved result in a
// content-addressed on-disk store and serves previously-solved keys
// byte-identically across restarts (X-Cache: store). Corrupt blobs are
// quarantined under DIR/quarantine and transparently re-solved; a torn
// ledger tail from a crash is truncated on startup.
//
// With -peers the daemon joins a cluster: solve keys shard over a
// deterministic consistent-hash ring (seeded by -ring-seed, which every
// member must agree on), a local miss asks the key's ring owners over
// the peer fetch RPC before solving, and fresh solves replicate to
// -replicas owners. Peer bodies are hash-verified end to end; a damaged
// transfer falls back to a local solve, never to wrong bytes. Every
// peer request is authenticated with an HMAC under the shared
// -peer-secret (or $PRPARTD_PEER_SECRET; required, all members must
// agree) — the peer endpoints share the public listener, and without
// the secret anything that could reach the port could push wrong bytes
// under real solve keys. Each node keeps its own -store directory —
// the cluster shares results over the wire, not the disk.
//
// Endpoints:
//
//	POST   /v1/solve             solve a design (JSON envelope, see internal/serve)
//	POST   /v1/solve/batch       solve N designs in one body (bulk tier, in-batch dedupe)
//	POST   /v1/jobs              submit an async solve, poll the returned id
//	GET    /v1/jobs/{id}         job record (queued|running|done|failed|canceled)
//	GET    /v1/jobs/{id}/result  result body of a done job
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	POST   /v1/peer/fetch        cluster-internal: serve a stored result to a peer
//	POST   /v1/peer/push         cluster-internal: accept a replicated result
//	GET    /healthz              liveness + queue/cache/jobs/cluster state
//	GET    /metrics              obs instrument dump (text)
//	GET    /debug/vars           obs instrument dump (JSON)
//
// Scheduling is two-tier: interactive solves (POST /v1/solve) and bulk
// work (batch members, async jobs, requests marked "bulk": true) queue
// separately with independent depth bounds (-interactive-depth,
// -bulk-depth); contended dequeues grant every -bulk-share'th slot to
// the bulk tier so neither side starves. Refusals carry a seeded,
// jittered Retry-After (-jitter-seed) so synchronized clients do not
// retry in lockstep.
//
// A 200 response body is byte-identical to `prpart -json` on the same
// input, and X-Solve-Key matches `prpart -key`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prpart/internal/cluster"
	"prpart/internal/device"
	"prpart/internal/faults"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/store"
)

// newServer builds the serving layer; a variable so tests can wrap the
// config (e.g. substitute a scripted solver) without flag plumbing.
var newServer = serve.New

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prpartd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("prpartd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (port 0 picks an ephemeral port)")
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	cacheN := fs.Int("cache", 0, "solve cache entries (0 = default 256, negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request solve deadline (0 = none)")
	solveWorkers := fs.Int("solve-workers", 0, "search parallelism inside one solve (0 = serial)")
	devices := fs.String("devices", "", "custom device library (JSON, see internal/device.LoadLibrary)")
	drain := fs.Duration("drain", 30*time.Second, "max time to drain in-flight solves on shutdown")
	doCheck := fs.Bool("check", false, "verify every solve with the independent oracle before serving")
	storeDir := fs.String("store", "", "persist solved results in this directory (empty = memory only)")
	storeFaultSeed := fs.Int64("store-fault-seed", 1, "seed for injected store I/O faults (chaos testing)")
	storeFaultRate := fs.Float64("store-fault-rate", 0, "per-op probability of injected store I/O faults (0 = off)")
	cacheMaxBody := fs.Int64("cache-max-body", 0, "max bytes of a single cached result body (0 = unbounded)")
	interactiveDepth := fs.Int("interactive-depth", 0, "admitted interactive solves before 429 (0 = 5x workers)")
	bulkDepth := fs.Int("bulk-depth", 0, "admitted bulk solves before 503 (0 = 17x workers)")
	bulkShare := fs.Int("bulk-share", 0, "grant every Nth contended dequeue to the bulk tier (0 = default 4)")
	batchMax := fs.Int("batch-max", 0, "max requests in one /v1/solve/batch body (0 = default 256)")
	jitterSeed := fs.Int64("jitter-seed", 0, "seed for Retry-After jitter (deterministic backpressure hints)")
	jobsRetention := fs.Int("jobs-retention", 0, "finished async jobs kept pollable in memory (0 = default 1024)")
	peers := fs.String("peers", "", "comma-separated base URLs of every cluster member including this node (empty = single node)")
	self := fs.String("self", "", "this node's advertised base URL (required with -peers)")
	peerSecret := fs.String("peer-secret", "", "shared secret authenticating /v1/peer/* requests (required with -peers; $PRPARTD_PEER_SECRET keeps it out of argv)")
	ringSeed := fs.Int64("ring-seed", 1, "consistent-hash ring placement seed; all members must agree")
	replicas := fs.Int("replicas", 0, "ring owners per solve key (0 = default 2)")
	peerTimeout := fs.Duration("peer-timeout", 0, "per peer round-trip bound (0 = default 2s)")
	ofl := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, stopObs, err := ofl.Start(out)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopObs(); serr != nil && err == nil {
			err = serr
		}
	}()
	if o == nil {
		// The daemon always keeps a registry: /metrics and /debug/vars
		// serve it even when no CLI observability was requested.
		o = obs.New()
	}
	cfg := serve.Config{
		Workers:        *workers,
		CacheEntries:   *cacheN,
		DefaultTimeout: *timeout,
		SolveWorkers:   *solveWorkers,
		Obs:            o,
		Check:          *doCheck,
		CacheMaxBody:   *cacheMaxBody,

		InteractiveDepth: *interactiveDepth,
		BulkDepth:        *bulkDepth,
		BulkShare:        *bulkShare,
		MaxBatchItems:    *batchMax,
		JitterSeed:       *jitterSeed,
		JobsRetention:    *jobsRetention,
	}
	if *storeDir != "" {
		sfs := store.OSFS()
		if *storeFaultRate > 0 {
			sfs = store.NewFaultFS(sfs, faults.NewIO(*storeFaultSeed, faults.UniformIO(*storeFaultRate)))
			fmt.Fprintf(out, "prpartd: store fault injection on (seed %d, rate %g)\n",
				*storeFaultSeed, *storeFaultRate)
		}
		st, err := store.Open(store.Config{Dir: *storeDir, FS: sfs, Obs: o})
		if err != nil {
			// A store that cannot open is a deployment error worth failing
			// loudly on; running silently without persistence would betray
			// the operator's -store intent.
			return fmt.Errorf("opening store %s: %w", *storeDir, err)
		}
		defer st.Close()
		rec := st.Recovery()
		fmt.Fprintf(out, "prpartd: store %s: %d keys (%d ledger records", *storeDir, st.Len(), rec.Records)
		if rec.TruncatedBytes > 0 {
			fmt.Fprintf(out, ", torn tail of %d bytes truncated", rec.TruncatedBytes)
		}
		fmt.Fprintln(out, ")")
		cfg.Store = st
	}
	if *devices != "" {
		f, err := os.Open(*devices)
		if err != nil {
			return err
		}
		cfg.Library, err = device.LoadLibrary(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *peers != "" {
		if *self == "" {
			return errors.New("-peers requires -self (this node's advertised URL)")
		}
		secret := *peerSecret
		if secret == "" {
			secret = os.Getenv("PRPARTD_PEER_SECRET")
		}
		if secret == "" {
			return errors.New("-peers requires a shared -peer-secret (or $PRPARTD_PEER_SECRET): unauthenticated peer endpoints would let anyone push wrong bytes under real solve keys")
		}
		members := strings.Split(*peers, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		cl, err := cluster.New(cluster.Config{
			Self:     *self,
			Peers:    members,
			Secret:   secret,
			Seed:     *ringSeed,
			Replicas: *replicas,
			Timeout:  *peerTimeout,
			Obs:      o,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		cfg.Cluster = cl
		ring := cl.Ring()
		fmt.Fprintf(out, "prpartd: cluster ring: %d members, %d vnodes, seed %d, replicas %d; self %s\n",
			ring.Size(), ring.VNodes(), ring.Seed(), cl.Replicas(), cl.Self())
	}
	srv := newServer(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "prpartd: listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(out, "prpartd: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Refuse new solves first, let admitted ones finish, then close
		// the listener and remaining keep-alive connections.
		derr := srv.Shutdown(dctx)
		if derr != nil {
			// Drain deadline hit: say what is being abandoned, then abort
			// the stragglers.
			fmt.Fprintf(out, "prpartd: drain timed out after %s with %d solves running, %d queued; aborting\n",
				*drain, srv.Inflight(), srv.Queued())
			srv.Close()
		}
		if herr := httpSrv.Shutdown(dctx); herr != nil && derr == nil {
			derr = herr
		}
		done <- derr
	}()
	err = httpSrv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	err = <-done
	fmt.Fprintln(out, "prpartd: stopped")
	return err
}
