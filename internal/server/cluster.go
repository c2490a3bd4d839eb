package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"xbar/internal/cluster"
)

// readBody reads one request body whole under the server's size cap.
// The forwarding layer needs the raw bytes (to proxy the request
// verbatim), so handlers read first and decode from the buffer.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	return data, nil
}

// maybeForward is the ownership check every cacheable POST handler
// runs after validation and before touching its cache. It places each
// group's key on the ring. When one peer owns every key, the whole
// request is proxied there and the peer's response written verbatim
// (done: the response is complete). When the keys have different
// owners, owners names, per group, the peer that serves it ("" for
// this node) and the caller sends each remote group to its owner as a
// one-group /v1/grid sub-request (forwardGroup). In every other case
// owners is nil and the caller serves every group locally:
//
//   - single-node mode (no cluster) — the layer is disabled;
//   - this node owns every key;
//   - the request carries the forwarded marker — the loop guard:
//     proxied requests, whole or split, are served where they land and
//     never split again, so a skewed ring view costs one extra hop,
//     never a cycle;
//   - the single owner is down or erroring — counted as a failover,
//     served locally: a dead peer degrades to single-node behavior,
//     never to a client-facing error. A failed sub-request fails over
//     its one group the same way (exact).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, body []byte, groups []exactGroup) (owners []string, done bool) {
	c := s.cluster
	if c == nil || len(groups) == 0 {
		return nil, false
	}
	forwarded := r.Header.Get(cluster.HeaderForwarded) != ""
	if forwarded {
		c.Metrics().RecordForwardedServed()
	}
	self := c.NodeID()
	owner, mixed := c.Owner(groups[0].key), false
	for _, g := range groups[1:] {
		mixed = mixed || c.Owner(g.key) != owner
	}
	if forwarded || (owner == self && !mixed) {
		return nil, false
	}
	if mixed {
		owners = make([]string, len(groups))
		for i, g := range groups {
			if o := c.Owner(g.key); o != self {
				owners[i] = o
			}
		}
		return owners, false
	}
	res, err := c.Forward(r.Context(), owner, r.URL.Path, body)
	if err != nil {
		c.Metrics().RecordFailover()
		s.cfg.logf("cluster: forward %s to %s failed (%v); serving locally", r.URL.Path, owner, err)
		return nil, false
	}
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	if res.ServedBy != "" {
		w.Header().Set(cluster.HeaderNode, res.ServedBy)
	}
	w.WriteHeader(res.Status)
	if _, err := w.Write(res.Body); err != nil {
		s.metrics.writeFailures.Add(1)
	}
	return nil, true
}

// forwardGroup serves one exact group on its ring owner as a one-group
// /v1/grid sub-request carrying the forwarded marker. The group's
// per-route classes go in "units":"route", so the owner parses the same
// floats and keys the same entry; each member is one point at its own
// dimensions with the group's classes (members share the group's
// grid.ClassKey, and their rows are read off the group's entry either
// way); the algorithm, dispatch spec d and weights are the parent's.
// JSON round-trips a float64 exactly, so the owner's rows are the rows
// this node would read off the entry. Any error, a non-200 reply or a
// row the owner's dispatch answered asymptotically included, means the
// caller serves the group locally.
func (s *Server) forwardGroup(ctx context.Context, owner string, pl *plan, g exactGroup,
	d DispatchSpec, weights []float64) (*GridResponse, error) {
	req := GridRequest{
		SwitchSpec:   SwitchSpec{N1: g.sw.N1, N2: g.sw.N2, Units: "route", Classes: make([]ClassSpec, len(g.sw.Classes))},
		DispatchSpec: d,
		Algorithm:    pl.alg,
		Points:       make([]GridPoint, len(g.members)),
		Weights:      weights,
	}
	for k, c := range g.sw.Classes {
		req.Classes[k] = ClassSpec{A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
	}
	for j, i := range g.members {
		req.Points[j] = GridPoint{N1: pl.points[i].N1, N2: pl.points[i].N2}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res, err := s.cluster.Forward(ctx, owner, "/v1/grid", body)
	if err != nil {
		return nil, err
	}
	if res.Status != http.StatusOK {
		return nil, fmt.Errorf("owner answered %d: %s", res.Status, bytes.TrimSpace(res.Body))
	}
	var sub GridResponse
	if err := json.Unmarshal(res.Body, &sub); err != nil {
		return nil, fmt.Errorf("decoding the owner's reply: %w", err)
	}
	if sub.Models != 1 || sub.Asymptotic != 0 || len(sub.Results) != len(g.members) {
		return nil, fmt.Errorf("owner answered %d rows (%d models, %d asymptotic) for %d exact points",
			len(sub.Results), sub.Models, sub.Asymptotic, len(g.members))
	}
	return &sub, nil
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: 200 only between ring initialization and the start of
// shutdown. A draining node is alive (healthz 200) but not ready
// (readyz 503), so balancers and peers stop routing to it before its
// listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	switch {
	case s.draining.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
	return nil
}

// ClusterNodeStatus is one member's row in the GET /v1/cluster rollup.
type ClusterNodeStatus struct {
	NodeID    string    `json:"node_id"`
	Addr      string    `json:"addr"`
	Self      bool      `json:"self,omitempty"`
	Reachable bool      `json:"reachable"`
	Error     string    `json:"error,omitempty"`
	Metrics   *Snapshot `json:"metrics,omitempty"`
}

// ClusterFleet aggregates cache effectiveness across the reachable
// members: the fleet-wide hit rate is the number a load test reads to
// see the ring working (misses stay at one per distinct model no
// matter which node the client hits). Hits include shared in-flight
// waits — both avoided a fill.
type ClusterFleet struct {
	Nodes             int     `json:"nodes"`
	Reachable         int     `json:"reachable"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	ScenarioCacheHits int64   `json:"scenario_cache_hits"`
	ScenarioCacheMiss int64   `json:"scenario_cache_misses"`
	Forwards          int64   `json:"forwards"`
	ForwardErrors     int64   `json:"forward_errors"`
	Failovers         int64   `json:"failovers"`
}

// ClusterStatusResponse is the GET /v1/cluster reply: one row per
// member (this node answers from its own counters, peers are scraped
// live over /metrics) and the fleet aggregate.
type ClusterStatusResponse struct {
	NodeID string              `json:"node_id"`
	Nodes  []ClusterNodeStatus `json:"nodes"`
	Fleet  ClusterFleet        `json:"fleet"`
}

// handleCluster serves the fleet rollup. Unreachable peers get an
// error row, never fail the rollup; 404 in single-node mode.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster
	if c == nil {
		return &apiError{code: http.StatusNotFound, msg: "cluster disabled (single-node)"}
	}
	nodes := c.Nodes()
	rows := make([]ClusterNodeStatus, len(nodes))
	var wg sync.WaitGroup
	for i, id := range nodes {
		row := &rows[i]
		row.NodeID = id
		row.Addr = c.PeerURL(id)
		if id == c.NodeID() {
			snap := s.metricsSnapshot()
			row.Self, row.Reachable, row.Metrics = true, true, &snap
			continue
		}
		wg.Add(1)
		go func(row *ClusterNodeStatus, id string) {
			defer wg.Done()
			data, err := c.FetchJSON(r.Context(), id, "/metrics")
			if err != nil {
				row.Error = err.Error()
				return
			}
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				row.Error = fmt.Sprintf("decoding peer metrics: %v", err)
				return
			}
			row.Reachable = true
			row.Metrics = &snap
		}(row, id)
	}
	wg.Wait()
	resp := ClusterStatusResponse{NodeID: c.NodeID(), Nodes: rows}
	fleet := &resp.Fleet
	fleet.Nodes = len(nodes)
	for i := range rows {
		m := rows[i].Metrics
		if !rows[i].Reachable || m == nil {
			continue
		}
		fleet.Reachable++
		fleet.CacheHits += m.Cache.Hits + m.Cache.SharedInFlight
		fleet.CacheMisses += m.Cache.Misses
		fleet.ScenarioCacheHits += m.ScenarioCache.Hits + m.ScenarioCache.SharedInFlight
		fleet.ScenarioCacheMiss += m.ScenarioCache.Misses
		if cs := m.Cluster; cs != nil {
			fleet.Forwards += cs.Forwards
			fleet.ForwardErrors += cs.ForwardErrors
			fleet.Failovers += cs.Failovers
		}
	}
	if lookups := fleet.CacheHits + fleet.CacheMisses; lookups > 0 {
		fleet.CacheHitRate = float64(fleet.CacheHits) / float64(lookups)
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// metricsSnapshot renders the full /metrics document: the server
// counters, plus the cluster section when clustering is enabled (the
// single-node document is unchanged).
func (s *Server) metricsSnapshot() Snapshot {
	snap := s.metrics.Snapshot()
	if s.cluster != nil {
		cs := s.cluster.Snapshot()
		snap.Cluster = &cs
	}
	return snap
}
