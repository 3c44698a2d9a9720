package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"prpart/internal/cluster"
	"prpart/internal/store"
)

// This file wires the cluster peer layer (internal/cluster) into the
// serving ladder. With Config.Cluster set, every read path consults a
// third tier between the persistent store and a local solve: the key's
// ring owners are asked for the result over the peer fetch RPC. A
// verified peer body is written through to the local cache and store
// (verdict preserved) and served with X-Cache: peer; anything that
// fails frame or digest verification is rejected and the request falls
// back to solving locally — a degraded cluster can slow a node down but
// never make it serve wrong bytes. After a local solve, the result is
// replicated to the key's other owners so the next request for it lands
// warm anywhere in the cluster.
//
// The server also answers the two peer endpoints. Both require the
// cluster's shared-secret HMAC (cluster.AuthHeader) over the request
// body: the endpoints share the public listener, so without it any
// client that can reach the port could push attacker-chosen bytes
// under real solve keys — the frame digest only proves the bytes
// arrived intact, not that they are the true result for the key.
// Unauthenticated requests are refused with 403 before any decoding
// and counted as cluster.peer_denied. Past auth the endpoints are
// strictly passive: /v1/peer/fetch serves only what this node already
// has in its cache or store — it never solves, so a cluster-wide miss
// costs one round of fetches, not a cascade — and both accept only
// well-formed, digest-verified frames for solve-namespace keys.

// lookup serves key from the read tiers: memory cache, persistent
// store, then cluster peers. The returned label is the X-Cache value
// ("hit", "store" or "peer"); ok is false when every tier missed and
// the caller must solve.
func (s *Server) lookup(ctx context.Context, key string) ([]byte, string, bool) {
	if b, tier, ok := s.readLocal(key); ok {
		if tier == "store" {
			s.cache.Put(key, b)
			s.cStoreServes.Inc()
		}
		return b, tier, true
	}
	// Third tier: ask the key's ring owners. Fetch verifies framing and
	// body digest; a body it returns is bit-exact what the peer stored.
	if s.cluster != nil {
		if b, verdict, ok := s.cluster.Fetch(ctx, key); ok {
			s.importPeerBody(key, b, verdict)
			s.cPeerServes.Inc()
			s.sched.NotePeerFill()
			return b, "peer", true
		}
	}
	return nil, "", false
}

// readLocal reads key from this node's own tiers: the memory cache
// ("hit"), then the persistent store ("store"). Bytes coming back from
// disk are hash-verified by the store itself (a corrupt blob reads as a
// miss and quarantines), so anything returned is exactly what a fresh
// solve would have produced.
func (s *Server) readLocal(key string) ([]byte, string, bool) {
	if b, ok := s.cache.Get(key); ok {
		return b, "hit", true
	}
	if s.store != nil {
		if b, ok := s.store.Get(key); ok {
			return b, "store", true
		}
	}
	return nil, "", false
}

// importPeerBody writes a verified peer transfer through the local
// tiers, preserving the verdict the origin node stored it under: a
// result the owner verified with the oracle stays VerdictPass here, one
// it didn't stays VerdictUnchecked — replication never launders an
// unchecked result into a checked one.
func (s *Server) importPeerBody(key string, body []byte, verdict uint8) {
	s.cache.Put(key, body)
	if s.store == nil {
		return
	}
	v := store.VerdictUnchecked
	if verdict == uint8(store.VerdictPass) {
		v = store.VerdictPass
	}
	if err := s.store.Put(key, body, v); err != nil {
		s.obs.Emit("serve", "store.peer_put_error", slog.String("key", key), slog.String("err", err.Error()))
	}
}

// replicate pushes a freshly solved body to the key's other ring
// owners. It runs synchronously on the solving worker, before the
// flight publishes the result, so a seeded request sequence always
// produces the same replication traffic (the determinism the cluster
// e2e counters pin). Push failures are counted inside the peer client
// and never affect the solve's outcome.
func (s *Server) replicate(key string, body []byte, checked bool) {
	if s.cluster == nil {
		return
	}
	verdict := uint8(store.VerdictUnchecked)
	if checked {
		verdict = uint8(store.VerdictPass)
	}
	s.cluster.Replicate(s.baseCtx, key, body, verdict)
}

// readPeerFrame reads and authenticates one inbound peer request. The
// body limit comes from the wire format's own bound (a peer frame may
// legitimately exceed the JSON API's MaxBodyBytes), and the request
// must carry a valid shared-secret HMAC over the exact bytes read —
// anything else is refused before a single frame byte is decoded.
func (s *Server) readPeerFrame(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cluster.MaxFrameBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	if !s.cluster.Authorize(r.Header.Get(cluster.AuthHeader), raw) {
		s.cluster.Denied()
		writeError(w, http.StatusForbidden, errors.New("serve: peer request not authenticated"))
		return nil, false
	}
	return raw, true
}

// handlePeerFetch is POST /v1/peer/fetch: a framed key in, a framed
// body out. Strictly cache/store tiers — a fetch must never trigger a
// solve or another peer fetch.
func (s *Server) handlePeerFetch(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readPeerFrame(w, r)
	if !ok {
		return
	}
	key, err := cluster.DecodePeerFetch(raw)
	if err != nil {
		s.cluster.BadBody()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !strings.HasPrefix(key, "sha256:") {
		// Same namespace guard as push: a peer fetch must never leak job
		// records or any other store namespace to a poster.
		s.cluster.BadBody()
		writeError(w, http.StatusBadRequest, errors.New("serve: fetch key outside the solve namespace"))
		return
	}
	pb := cluster.Body{Key: key}
	pb.Data, _, pb.Found = s.readLocal(key)
	if pb.Found {
		if v, ok := s.storeVerdict(key); ok {
			pb.Verdict = v
		}
		s.cFetchServed.Inc()
	} else {
		s.cFetchMissed.Inc()
	}
	frame, err := cluster.EncodePeerBody(pb)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frame)
}

// storeVerdict reads the persisted verdict for key, as a wire byte.
func (s *Server) storeVerdict(key string) (uint8, bool) {
	if s.store == nil {
		return 0, false
	}
	v, ok := s.store.Verdict(key)
	return uint8(v), ok
}

// handlePeerPush is POST /v1/peer/push: a peer replicating a solved
// body to this node because the ring says we own its key. Only
// solve-namespace keys are accepted — a push can never overwrite job
// records or any other store namespace.
func (s *Server) handlePeerPush(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readPeerFrame(w, r)
	if !ok {
		return
	}
	pb, err := cluster.DecodePeerBody(raw)
	if err != nil {
		s.cluster.BadBody()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !pb.Found {
		s.cluster.BadBody()
		writeError(w, http.StatusBadRequest, errors.New("serve: push frame without a body"))
		return
	}
	if !strings.HasPrefix(pb.Key, "sha256:") {
		s.cluster.BadBody()
		writeError(w, http.StatusBadRequest, errors.New("serve: push key outside the solve namespace"))
		return
	}
	s.importPeerBody(pb.Key, pb.Data, pb.Verdict)
	s.cPushesReceived.Inc()
	ack, err := cluster.EncodePeerBody(cluster.Body{Found: true, Verdict: pb.Verdict, Key: pb.Key, Data: []byte{}})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(ack)
}

// clusterHealth is the cluster block of /healthz.
type clusterHealth struct {
	Self     string               `json:"self"`
	RingSize int                  `json:"ringSize"`
	Replicas int                  `json:"replicas"`
	Peers    []cluster.PeerHealth `json:"peers"`
}
