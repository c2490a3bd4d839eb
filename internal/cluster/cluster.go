// Package cluster turns a fleet of xbard processes into one logical
// cache: a static-membership consistent-hash ring assigns every
// canonical cache key (solver model keys, scenario spec keys, grid
// group keys — already hex-exact and process-independent) to exactly
// one owner node, and a peer-forwarding layer proxies requests whose
// key lives elsewhere so any node answers any query while the fleet
// performs each expensive lattice fill once.
//
// The layer is deliberately availability-biased: a dead or slow peer
// never turns into a client-facing error. Forwarding retries a bounded
// number of times over a persistent connection pool, marks the peer
// down behind an exponential backoff gate (the next request after the
// gate expires doubles as the reconnect probe), and then falls back to
// computing locally — exactly the pre-cluster single-node behavior.
// Results are bit-identical wherever they are computed (the solvers
// are deterministic and schedule-independent), so failover changes
// cost, never answers.
//
// A key is filled on its owner only, and nothing runs in the
// background. A dead owner's keys are filled on whichever node receives
// them, once per node. See docs/CLUSTER.md.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Forwarded-request markers. HeaderForwarded carries the origin node
// id on proxied requests and is the loop guard: a request bearing it
// is always served locally, never re-forwarded, so a ring-view skew
// can cost one extra hop but never a cycle. HeaderNode on responses
// names the node that actually served the request.
const (
	HeaderForwarded = "X-Xbar-Forwarded"
	HeaderNode      = "X-Xbar-Node"
)

// HeaderReplicate named the retired hot-key replication traffic. No
// node sends it and no server reads it; it is kept only because the
// benchmark module still compiles against the name.
const HeaderReplicate = "X-Xbar-Replicate"

// vnodes is the virtual nodes per member on every node's ring. It is a
// constant, not a setting: nodes built with different values would
// derive different rings and disagree on owners without any error.
const vnodes = 64

// ErrPeerDown reports a forward skipped because the target peer is
// inside its reconnect backoff window.
var ErrPeerDown = errors.New("cluster: peer down (backoff gate)")

// Config parameterizes a Cluster. The zero value of every optional
// field takes the documented default.
type Config struct {
	// NodeID is this node's member id; it must be a key of Peers.
	NodeID string
	// Peers maps every cluster member's id — including this node's —
	// to its API base URL ("http://host:port"). Len >= 1.
	Peers map[string]string
	// ForwardAttempts bounds tries per forwarded request before the
	// caller falls over to local compute. Default 2.
	ForwardAttempts int
	// ForwardTimeout bounds one forward attempt. Default 10s.
	ForwardTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ForwardAttempts == 0 {
		c.ForwardAttempts = 2
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	return c
}

func (c Config) validate() error {
	if len(c.Peers) == 0 {
		return fmt.Errorf("cluster: no peers")
	}
	if _, ok := c.Peers[c.NodeID]; !ok {
		return fmt.Errorf("cluster: node id %q is not a member of peers", c.NodeID)
	}
	for id, u := range c.Peers {
		if id == "" {
			return fmt.Errorf("cluster: empty peer id")
		}
		if id != c.NodeID && !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("cluster: peer %q url %q must start with http:// or https://", id, u)
		}
	}
	return nil
}

// Cluster is one node's view of the fleet: the ring and the peer pool.
// Construct with New, release with Close.
type Cluster struct {
	cfg       Config
	ring      *Ring
	peers     map[string]*Peer // every member except self
	transport *http.Transport  // shared by every peer's client
	metrics   *Metrics
	now       func() time.Time
}

// New builds the node's cluster view. The membership is static: the
// ring is a pure function of cfg.Peers and never changes at runtime.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	transport := newTransport()
	client := &http.Client{Transport: transport}
	c := &Cluster{
		cfg:       cfg,
		ring:      NewRing(ids, vnodes),
		peers:     make(map[string]*Peer, len(ids)-1),
		transport: transport,
		metrics:   newClusterMetrics(peerIDsExcept(ids, cfg.NodeID)),
		now:       time.Now, //lint:allow detrand wall-clock backoff gates; the analytical engine stays clock-free
	}
	for _, id := range ids {
		if id == cfg.NodeID {
			continue
		}
		c.peers[id] = &Peer{id: id, baseURL: strings.TrimRight(cfg.Peers[id], "/"), client: client}
	}
	return c, nil
}

func peerIDsExcept(ids []string, self string) []string {
	out := make([]string, 0, len(ids)-1)
	for _, id := range ids {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

// Close releases the connection pool's idle conns. Forwarding stays
// usable (it is stateless per call). Idempotent.
func (c *Cluster) Close() { c.transport.CloseIdleConnections() }

// NodeID returns this node's member id.
func (c *Cluster) NodeID() string { return c.cfg.NodeID }

// Nodes returns every member id, sorted.
func (c *Cluster) Nodes() []string { return c.ring.Nodes() }

// PeerURL returns the configured base URL for a member id.
func (c *Cluster) PeerURL(id string) string { return c.cfg.Peers[id] }

// Metrics exposes the counter set for the server's /metrics document.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Owner returns the member owning key on the ring.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// ForwardResult is a proxied response: status, content type and body,
// copied verbatim so the client sees exactly the owner's bytes.
type ForwardResult struct {
	Status      int
	ContentType string
	ServedBy    string
	Body        []byte
}

// Forward proxies one request body to the owner peer and returns its
// response. Transport errors and 5xx answers are retried up to
// ForwardAttempts times, marking the peer down behind the backoff
// gate; a peer already inside its gate fails fast with ErrPeerDown.
// Any returned error means the caller should compute locally.
func (c *Cluster) Forward(ctx context.Context, owner, path string, body []byte) (*ForwardResult, error) {
	p, ok := c.peers[owner]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", owner)
	}
	pm := c.metrics.perPeer[owner]
	now := c.now()
	if p.down(now) {
		pm.skippedDown.Add(1)
		return nil, ErrPeerDown
	}
	c.metrics.forwards.Add(1)
	pm.forwards.Add(1)
	var lastErr error
	for attempt := 0; attempt < c.cfg.ForwardAttempts; attempt++ {
		res, err := c.forwardOnce(ctx, p, path, body)
		if err == nil {
			pm.observe(c.now().Sub(now))
			return res, nil
		}
		lastErr = err
		pm.errors.Add(1)
		if ctx.Err() != nil {
			break // the client is gone; retrying serves nobody
		}
	}
	c.metrics.forwardErrors.Add(1)
	return nil, lastErr
}

// forwardOnce runs one proxy attempt with its own timeout.
func (c *Cluster) forwardOnce(ctx context.Context, p *Peer, path string, body []byte) (*ForwardResult, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, p.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, c.cfg.NodeID)
	resp, err := p.client.Do(req)
	if err != nil {
		p.reportFailure(c.now())
		return nil, err
	}
	defer resp.Body.Close() //lint:allow errcheck drain-side close; a close failure cannot affect the already-read body
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		p.reportFailure(c.now())
		return nil, err
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		// The peer answered but cannot serve (500, 503 drain/overload):
		// local compute is the better fallback. The exchange itself
		// succeeded, so the connection-level health state resets.
		p.reportSuccess()
		return nil, fmt.Errorf("cluster: peer %s answered %d", p.id, resp.StatusCode)
	}
	p.reportSuccess()
	return &ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		ServedBy:    resp.Header.Get(HeaderNode),
		Body:        data,
	}, nil
}

// FetchJSON GETs path from a member (the /v1/cluster rollup path). It
// is single-attempt and respects the peer's backoff gate.
func (c *Cluster) FetchJSON(ctx context.Context, id, path string) ([]byte, error) {
	p, ok := c.peers[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", id)
	}
	if p.down(c.now()) {
		return nil, ErrPeerDown
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.baseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.reportFailure(c.now())
		return nil, err
	}
	defer resp.Body.Close() //lint:allow errcheck drain-side close; a close failure cannot affect the already-read body
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		p.reportFailure(c.now())
		return nil, err
	}
	p.reportSuccess()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s %s answered %d", id, path, resp.StatusCode)
	}
	return data, nil
}

// Snapshot renders the cluster counters for the /metrics document.
func (c *Cluster) Snapshot() Snapshot {
	s := Snapshot{
		NodeID:          c.cfg.NodeID,
		VNodes:          vnodes,
		Forwards:        c.metrics.forwards.Load(),
		ForwardErrors:   c.metrics.forwardErrors.Load(),
		Failovers:       c.metrics.failovers.Load(),
		ForwardedServed: c.metrics.forwardedServed.Load(),
		Peers:           make(map[string]PeerSnapshot, len(c.peers)),
	}
	now := c.now()
	for id, p := range c.peers {
		pm := c.metrics.perPeer[id]
		n := pm.buckets[0].Load() + pm.buckets[1].Load() + pm.buckets[2].Load() +
			pm.buckets[3].Load() + pm.buckets[4].Load() + pm.buckets[5].Load() + pm.buckets[6].Load()
		totalMs := float64(pm.totalNs.Load()) / 1e6
		ps := PeerSnapshot{
			Addr:        p.baseURL,
			Healthy:     p.healthy(now),
			Forwards:    pm.forwards.Load(),
			Errors:      pm.errors.Load(),
			SkippedDown: pm.skippedDown.Load(),
			TotalMs:     totalMs,
			Latency: ForwardLatencyHistogram{
				Le100us: pm.buckets[0].Load(),
				Le1ms:   pm.buckets[1].Load(),
				Le10ms:  pm.buckets[2].Load(),
				Le100ms: pm.buckets[3].Load(),
				Le1s:    pm.buckets[4].Load(),
				Le10s:   pm.buckets[5].Load(),
				Over10s: pm.buckets[6].Load(),
			},
		}
		if n > 0 {
			ps.AvgMs = totalMs / float64(n)
		}
		s.Peers[id] = ps
	}
	return s
}
