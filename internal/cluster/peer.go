package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"prpart/internal/obs"
)

// FetchPath and PushPath are the HTTP endpoints the peer RPC rides on.
// Peers POST framed bodies (rpc.go) to each other at these paths.
const (
	FetchPath = "/v1/peer/fetch"
	PushPath  = "/v1/peer/push"
)

// DefaultReplicas is how many owners a key is replicated to when the
// operator does not say otherwise: the primary plus one backup, enough
// that a single node kill leaves every hot key warm somewhere.
const DefaultReplicas = 2

// DefaultTimeout bounds one peer round trip. Peer fill is an
// optimization over solving locally, so a slow peer must cost less than
// the solve it would have saved.
const DefaultTimeout = 2 * time.Second

// DefaultProbeInterval is how long an unreachable peer is skipped
// before one request is allowed through to probe it again. During an
// outage every other request routes around the dead peer instantly
// instead of paying the round-trip timeout per miss.
const DefaultProbeInterval = time.Second

// Config assembles a Peers client.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers is the full member set (including Self), as base URLs like
	// "http://127.0.0.1:7411".
	Peers []string
	// Secret is the shared cluster secret; every peer request carries
	// an HMAC of its body under it (AuthHeader), and the peer endpoints
	// reject requests that do not verify. Required — without it anything
	// that can reach the port could push wrong bytes under real solve
	// keys. All members must agree on it.
	Secret string
	// Seed is the ring placement seed; all members must agree on it.
	Seed int64
	// Replicas is how many owners hold each key (DefaultReplicas if 0,
	// clamped to the member count).
	Replicas int
	// Timeout bounds one peer round trip (DefaultTimeout if 0).
	Timeout time.Duration
	// ProbeInterval is how long an unreachable peer is skipped before
	// one request probes it again (DefaultProbeInterval if 0).
	ProbeInterval time.Duration
	// Transport overrides the HTTP transport (tests inject faults here).
	Transport http.RoundTripper
	// Obs receives the cluster.* counters; nil disables them.
	Obs *obs.Obs
	// Logf receives reachability transitions and ring membership logs;
	// nil discards them.
	Logf func(format string, args ...any)
}

// Peers is the peer-layer client one daemon holds: the ring, an HTTP
// client for the fetch/push RPC, and per-peer reachability state. It is
// safe for concurrent use.
type Peers struct {
	ring     *Ring
	self     string
	secret   string
	replicas int
	probe    time.Duration
	client   *http.Client
	logf     func(format string, args ...any)

	mu    sync.Mutex
	state map[string]*peerState

	hits      *obs.Counter
	misses    *obs.Counter
	errors    *obs.Counter
	badBodies *obs.Counter
	denied    *obs.Counter
	skipped   *obs.Counter
	pushed    *obs.Counter
	pushErrs  *obs.Counter
}

type peerState struct {
	reachable bool
	lastErr   string
	lastErrAt time.Time
	// nextProbe is when the next request may try this peer again while
	// it is unreachable; requests before it skip the peer outright.
	nextProbe time.Time
}

// PeerHealth is one peer's reachability as reported by /healthz.
type PeerHealth struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
	LastError string `json:"lastError,omitempty"`
	// LastErrorAgeSec is seconds since the most recent error, rounded
	// down; -1 when the peer has never errored.
	LastErrorAgeSec int64 `json:"lastErrorAgeSec"`
}

// New builds the peer client. Self must be a ring member.
func New(cfg Config) (*Peers, error) {
	ring, err := NewRing(cfg.Peers, DefaultVNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	found := false
	for _, m := range ring.Members() {
		if m == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not a ring member", cfg.Self)
	}
	if cfg.Secret == "" {
		return nil, errors.New("cluster: config needs a shared Secret; unauthenticated peers could push wrong bytes under real solve keys")
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if replicas > ring.Size() {
		replicas = ring.Size()
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	probe := cfg.ProbeInterval
	if probe <= 0 {
		probe = DefaultProbeInterval
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Peers{
		ring:     ring,
		self:     cfg.Self,
		secret:   cfg.Secret,
		replicas: replicas,
		probe:    probe,
		client:   &http.Client{Timeout: timeout, Transport: cfg.Transport},
		logf:     logf,
		state:    make(map[string]*peerState, ring.Size()),
	}
	for _, m := range ring.Members() {
		if m != cfg.Self {
			// Peers start presumed reachable; the first failed round trip
			// flips and logs the transition.
			p.state[m] = &peerState{reachable: true}
		}
	}
	o := cfg.Obs
	p.hits = o.Counter("cluster.peer_hits")
	p.misses = o.Counter("cluster.peer_misses")
	p.errors = o.Counter("cluster.peer_errors")
	p.badBodies = o.Counter("cluster.peer_bad_body")
	p.denied = o.Counter("cluster.peer_denied")
	p.skipped = o.Counter("cluster.peer_skipped")
	p.pushed = o.Counter("cluster.replicas_pushed")
	p.pushErrs = o.Counter("cluster.replica_errors")
	o.Gauge("cluster.ring_size").Observe(int64(ring.Size()))
	return p, nil
}

// Ring exposes the placement ring.
func (p *Peers) Ring() *Ring { return p.ring }

// Self returns this node's advertised URL.
func (p *Peers) Self() string { return p.self }

// Replicas returns the per-key owner count.
func (p *Peers) Replicas() int { return p.replicas }

// BadBody records a corrupt inbound peer frame (used by the serve-side
// handlers so decode rejects count in one place).
func (p *Peers) BadBody() {
	p.badBodies.Inc()
}

// Authorize reports whether an inbound peer request's AuthHeader value
// authenticates its body under the cluster secret.
func (p *Peers) Authorize(header string, body []byte) bool {
	return Verify(p.secret, header, body)
}

// Denied records an inbound peer request that failed authentication
// (counted as cluster.peer_denied by the serve-side handlers).
func (p *Peers) Denied() {
	p.denied.Inc()
}

// Fetch asks the owners of key for its result, nearest owner first,
// skipping this node and any peer inside its unreachable probe window
// (counted as cluster.peer_skipped — a dead peer costs one timeout per
// ProbeInterval, not one per miss). It returns the first verified body;
// ok is false
// when no owner had the key or every round trip failed. A body that
// fails its frame or digest is rejected (counted as peer_bad_body) and
// never returned.
func (p *Peers) Fetch(ctx context.Context, key string) (body []byte, verdict uint8, ok bool) {
	frame, err := EncodePeerFetch(key)
	if err != nil {
		return nil, 0, false
	}
	for _, owner := range p.ring.Owners(key, p.replicas) {
		if owner == p.self {
			continue
		}
		if p.skipPeer(owner) {
			p.skipped.Inc()
			continue
		}
		pb, err := p.roundTrip(ctx, owner, FetchPath, frame)
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrBadBody) {
				// The peer answered but the bytes were damaged in flight:
				// already counted as peer_bad_body in roundTrip. The peer
				// itself is alive, so this is not a reachability event.
				continue
			}
			p.markPeer(owner, err)
			p.errors.Inc()
			continue
		}
		p.markPeer(owner, nil)
		if !pb.Found || pb.Key != key {
			p.misses.Inc()
			continue
		}
		p.hits.Inc()
		return pb.Data, pb.Verdict, true
	}
	return nil, 0, false
}

// Replicate pushes a solved result to the other owners of key so the
// next request for it lands warm anywhere in the cluster. Owners inside
// their unreachable probe window are skipped like in Fetch, so a dead
// peer does not stall every solving worker for the push timeout. Push
// failures are counted and logged but never propagate: replication is
// an optimization, not a durability requirement (every node can
// re-solve).
func (p *Peers) Replicate(ctx context.Context, key string, body []byte, verdict uint8) {
	frame, err := EncodePeerBody(Body{Found: true, Verdict: verdict, Key: key, Data: body})
	if err != nil {
		p.pushErrs.Inc()
		return
	}
	for _, owner := range p.ring.Owners(key, p.replicas) {
		if owner == p.self {
			continue
		}
		if p.skipPeer(owner) {
			p.skipped.Inc()
			continue
		}
		if _, err := p.roundTrip(ctx, owner, PushPath, frame); err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadBody) {
				p.markPeer(owner, err)
			}
			p.pushErrs.Inc()
			continue
		}
		p.markPeer(owner, nil)
		p.pushed.Inc()
	}
}

// roundTrip POSTs one framed message and decodes the framed reply.
func (p *Peers) roundTrip(ctx context.Context, peer, path string, frame []byte) (Body, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(frame))
	if err != nil {
		return Body{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(AuthHeader, Sign(p.secret, frame))
	resp, err := p.client.Do(req)
	if err != nil {
		return Body{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameBytes+1))
	if err != nil {
		return Body{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Body{}, fmt.Errorf("peer %s%s: status %d", peer, path, resp.StatusCode)
	}
	pb, err := DecodePeerBody(raw)
	if err != nil {
		// The peer spoke, but the bytes that arrived are not the bytes it
		// sent (or it sent garbage): count separately from transport
		// errors — this is the counter the fault tier pins.
		p.badBodies.Inc()
		return Body{}, err
	}
	return pb, nil
}

// markPeer updates a peer's reachability, logging transitions.
func (p *Peers) markPeer(peer string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[peer]
	if st == nil {
		return
	}
	if err == nil {
		if !st.reachable {
			st.reachable = true
			p.logf("cluster: peer %s reachable again", peer)
		}
		return
	}
	st.lastErr = err.Error()
	st.lastErrAt = time.Now()
	st.nextProbe = st.lastErrAt.Add(p.probe)
	if st.reachable {
		st.reachable = false
		p.logf("cluster: peer %s unreachable: %v", peer, err)
	}
}

// skipPeer reports whether peer is currently unreachable and inside
// its probe window. When the window has elapsed it claims the probe —
// advancing nextProbe under the lock — so at most one request per
// window pays the round-trip timeout while the peer stays dead; every
// other request routes around it immediately.
func (p *Peers) skipPeer(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[peer]
	if st == nil || st.reachable {
		return false
	}
	now := time.Now()
	if now.Before(st.nextProbe) {
		return true
	}
	st.nextProbe = now.Add(p.probe)
	return false
}

// Health reports per-peer reachability for /healthz, sorted by URL.
func (p *Peers) Health() []PeerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerHealth, 0, len(p.state))
	for url, st := range p.state {
		h := PeerHealth{URL: url, Reachable: st.reachable, LastError: st.lastErr, LastErrorAgeSec: -1}
		if !st.lastErrAt.IsZero() {
			h.LastErrorAgeSec = int64(time.Since(st.lastErrAt).Seconds())
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
