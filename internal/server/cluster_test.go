package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"xbar/internal/cluster"
)

// testFleet is an in-process multi-node cluster over real listeners.
// The peer-URL chicken-and-egg (URLs must be known at construction,
// ports only after binding) is solved by pre-binding port-0 listeners
// and handing them to the servers via UseListener.
type testFleet struct {
	ids  []string
	srvs map[string]*Server
	urls map[string]string
}

// newTestFleet starts n clustered nodes ("n0".."n<n-1>"), each serving
// on a loopback port, and tears them down with the test. mutate (may
// be nil) adjusts each node's config before construction.
func newTestFleet(t testing.TB, n int, mutate func(id string, cfg *Config)) *testFleet {
	t.Helper()
	f := &testFleet{srvs: make(map[string]*Server, n), urls: make(map[string]string, n)}
	lns := make([]net.Listener, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		lns[i] = ln
		f.ids = append(f.ids, id)
		peers[id] = "http://" + ln.Addr().String()
	}
	for i, id := range f.ids {
		cfg := Config{NodeID: id, Peers: peers, Workers: 1}
		if mutate != nil {
			mutate(id, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.UseListener(lns[i])
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		go s.Serve() //lint:allow errcheck test server; Shutdown's error is the one that matters
		f.srvs[id] = s
		f.urls[id] = peers[id]
		t.Cleanup(func() { f.stop(t, id) })
	}
	return f
}

// stop shuts one node down; repeated stops are no-ops.
func (f *testFleet) stop(t testing.TB, id string) {
	t.Helper()
	s := f.srvs[id]
	if s == nil {
		return
	}
	delete(f.srvs, id)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown %s: %v", id, err)
	}
}

// post sends body to one node and returns status, the raw response
// bytes and the serving node (the X-Xbar-Node response header).
func (f *testFleet) post(t testing.TB, id, path string, body any, hdr map[string]string) (int, []byte, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.urls[id]+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(cluster.HeaderNode)
}

// ownerOf returns the fleet node owning the blocking-request cache key
// for spec (any node's ring view answers — membership is static).
func (f *testFleet) ownerOf(t testing.TB, spec SwitchSpec) string {
	t.Helper()
	for _, s := range f.srvs {
		sw, err := s.buildSwitchFor(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.cluster.Owner(cacheKey(alg1, sw))
	}
	t.Fatal("empty fleet")
	return ""
}

// fleetMisses sums solver-cache misses across the live fleet.
func (f *testFleet) fleetMisses() int64 {
	var total int64
	for _, s := range f.srvs {
		total += s.metrics.cacheMisses.Load()
	}
	return total
}

// nonOwner returns a live node other than owner.
func (f *testFleet) nonOwner(t testing.TB, owner string) string {
	t.Helper()
	for _, id := range f.ids {
		if id != owner && f.srvs[id] != nil {
			return id
		}
	}
	t.Fatal("no non-owner node alive")
	return ""
}

// TestClusterForwardingBitIdentical is the tentpole property: the same
// request posted to every node of a 3-node fleet returns byte-identical
// responses, all served by the key's owner, and the fleet fills the
// lattice exactly once.
func TestClusterForwardingBitIdentical(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	spec := paperSpec(16)
	req := BlockingRequest{SwitchSpec: spec}
	owner := f.ownerOf(t, spec)

	var bodies [][]byte
	for _, id := range f.ids {
		status, data, servedBy := f.post(t, id, "/v1/blocking", req, nil)
		if status != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", id, status, data)
		}
		if servedBy != owner {
			t.Errorf("node %s: served by %q, want owner %q", id, servedBy, owner)
		}
		bodies = append(bodies, data)
	}
	// Cached flips false->true between the owner's first and later
	// serves, so strip it before comparing: the measures must match to
	// the byte.
	norm := func(b []byte) string {
		return string(bytes.ReplaceAll(b, []byte(`"cached":true`), []byte(`"cached":false`)))
	}
	for i := 1; i < len(bodies); i++ {
		if norm(bodies[i]) != norm(bodies[0]) {
			t.Errorf("node %s response differs:\n%s\nvs\n%s", f.ids[i], bodies[i], bodies[0])
		}
	}
	if got := f.fleetMisses(); got != 1 {
		t.Errorf("fleet-wide solver-cache misses = %d, want 1", got)
	}
	// The owner's cluster counters saw the two proxied requests.
	served := f.srvs[owner].cluster.Snapshot().ForwardedServed
	if served != 2 {
		t.Errorf("owner forwarded_served = %d, want 2", served)
	}
}

// TestClusterForwardLoopGuard pins the loop guard: a request already
// carrying the forwarded marker is served where it lands, even by a
// node that does not own its key.
func TestClusterForwardLoopGuard(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	spec := paperSpec(12)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	status, data, servedBy := f.post(t, other, "/v1/blocking", BlockingRequest{SwitchSpec: spec},
		map[string]string{cluster.HeaderForwarded: owner})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if servedBy != other {
		t.Errorf("served by %q, want the non-owner %q (no re-forward)", servedBy, other)
	}
	if misses := f.srvs[other].metrics.cacheMisses.Load(); misses != 1 {
		t.Errorf("non-owner misses = %d, want 1 (computed locally)", misses)
	}
	if fwd := f.srvs[other].cluster.Snapshot().Forwards; fwd != 0 {
		t.Errorf("non-owner forwarded %d requests under the loop guard", fwd)
	}
}

// TestClusterDeadPeerAtStartup: a fleet whose peer never existed (its
// port is closed). Requests owned by the dead node fail over to local
// compute — 200, answer bit-identical to single-node, failover counted.
func TestClusterDeadPeerAtStartup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close() //lint:allow errcheck freeing the reserved port is the point

	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		NodeID:  "live",
		Peers:   map[string]string{"live": "http://" + live.Addr().String(), "dead": deadURL},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.UseListener(live)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve() //lint:allow errcheck test server; Shutdown's error is the one that matters
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //lint:allow errcheck test teardown
	})

	// Find a spec the dead node owns.
	var spec SwitchSpec
	found := false
	for n := 4; n < 64 && !found; n++ {
		spec = paperSpec(n)
		sw, err := s.buildSwitchFor(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		found = s.cluster.Owner(cacheKey(alg1, sw)) == "dead"
	}
	if !found {
		t.Fatal("no spec owned by the dead node in the probed range")
	}

	_, single := newTestServer(t, Config{Workers: 1})
	var want, got BlockingResponse
	if code := postJSON(t, single, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, &want); code != http.StatusOK {
		t.Fatalf("single-node status %d", code)
	}

	url := "http://" + s.Addr() + "/v1/blocking"
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: spec})
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() //lint:allow errcheck body already read
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.LogG != want.LogG || got.Classes[0].Blocking != want.Classes[0].Blocking {
		t.Errorf("failover answer %+v differs from single-node %+v", got, want)
	}
	snap := s.cluster.Snapshot()
	if snap.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", snap.Failovers)
	}
	// Second request: the dead peer is now behind its backoff gate, so
	// the failover is immediate (skipped_down) and still correct.
	resp, err = http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errcheck only the status matters
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated failover status %d", resp.StatusCode)
	}
	if sd := s.cluster.Snapshot().Peers["dead"].SkippedDown; sd != 1 {
		t.Errorf("skipped_down = %d, want 1", sd)
	}
}

// TestClusterPeerDiesMidRun: a 3-node fleet serves a set of keys, then
// one owner is killed and every key is sent twice to both survivors.
// Every reply is 200 with the single-node bytes; each survivor fills
// each orphaned key once (the first request fails over to local
// compute, the second is a hit) and never refills a key a live owner
// holds.
func TestClusterPeerDiesMidRun(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	var specs []SwitchSpec
	for n := 4; n < 16; n++ {
		specs = append(specs, paperSpec(n))
	}
	owners := make([]string, len(specs))
	want := make([]string, len(specs))
	for i, spec := range specs {
		owners[i] = f.ownerOf(t, spec)
		req := BlockingRequest{SwitchSpec: spec}
		want[i] = blankCached(singleNodeReply(t, "/v1/blocking", req))
		if status, data, _ := f.post(t, f.nonOwner(t, owners[i]), "/v1/blocking", req, nil); status != http.StatusOK {
			t.Fatalf("pre-kill status %d: %s", status, data)
		}
	}
	dead := owners[0]
	orphans := 0
	for _, o := range owners {
		if o == dead {
			orphans++
		}
	}
	if orphans == len(specs) {
		t.Fatalf("node %s owns all %d keys; the test needs live owners too", dead, len(specs))
	}
	f.stop(t, dead)
	var survivors []string
	misses := make(map[string]int64)
	for _, id := range f.ids {
		if id != dead {
			survivors = append(survivors, id)
			misses[id] = f.srvs[id].metrics.cacheMisses.Load()
		}
	}
	for round := 0; round < 2; round++ {
		for i, spec := range specs {
			for _, id := range survivors {
				status, data, servedBy := f.post(t, id, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)
				if status != http.StatusOK {
					t.Fatalf("key %d on %s: status %d: %s", i, id, status, data)
				}
				if got := blankCached(data); got != want[i] {
					t.Errorf("key %d on %s: reply differs from single-node:\n%s\nvs\n%s", i, id, got, want[i])
				}
				wantBy := owners[i] // a live owner still serves its keys
				if wantBy == dead {
					wantBy = id // an orphaned key is computed where it lands
				}
				if servedBy != wantBy {
					t.Errorf("key %d on %s: served by %q, want %q", i, id, servedBy, wantBy)
				}
			}
		}
	}
	for _, id := range survivors {
		if got := f.srvs[id].metrics.cacheMisses.Load() - misses[id]; got != int64(orphans) {
			t.Errorf("survivor %s filled %d keys after the kill, want each of the %d orphaned keys once", id, got, orphans)
		}
		if fo := f.srvs[id].cluster.Snapshot().Failovers; fo != int64(2*orphans) {
			t.Errorf("survivor %s: failovers = %d, want %d", id, fo, 2*orphans)
		}
	}
}

// TestClusterSingleFlightAcrossNodes races concurrent identical
// requests against both nodes: forwarded and local arrivals must
// collapse onto one fill on the owner (fleet-wide misses == 1) and
// every response must carry the same measures.
func TestClusterSingleFlightAcrossNodes(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	spec := paperSpec(24)
	req := BlockingRequest{SwitchSpec: spec}
	const perNode = 4
	var wg sync.WaitGroup
	results := make(chan BlockingResponse, 2*perNode)
	for _, id := range f.ids {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				status, data, _ := f.post(t, id, "/v1/blocking", req, nil)
				if status != http.StatusOK {
					t.Errorf("node %s: status %d: %s", id, status, data)
					return
				}
				var br BlockingResponse
				if err := json.Unmarshal(data, &br); err != nil {
					t.Error(err)
					return
				}
				results <- br
			}(id)
		}
	}
	wg.Wait()
	close(results)
	var first *BlockingResponse
	for br := range results {
		if first == nil {
			b := br
			first = &b
			continue
		}
		if br.LogG != first.LogG || br.Classes[0].Blocking != first.Classes[0].Blocking {
			t.Errorf("response %+v differs from %+v", br, first)
		}
	}
	if got := f.fleetMisses(); got != 1 {
		t.Errorf("fleet-wide misses = %d, want 1", got)
	}
}

// TestClusterRollup exercises GET /v1/cluster: every member row
// present, fleet counters aggregated, unreachable members marked.
func TestClusterRollup(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	spec := paperSpec(16)
	for _, id := range f.ids {
		f.post(t, id, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)
	}
	var roll ClusterStatusResponse
	resp, err := http.Get(f.urls[f.ids[0]] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&roll)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup status %d", resp.StatusCode)
	}
	if len(roll.Nodes) != 3 || roll.Fleet.Nodes != 3 || roll.Fleet.Reachable != 3 {
		t.Fatalf("rollup %+v", roll.Fleet)
	}
	if roll.Fleet.CacheMisses != 1 {
		t.Errorf("fleet cache misses = %d, want 1", roll.Fleet.CacheMisses)
	}
	if roll.Fleet.CacheHits < 2 {
		t.Errorf("fleet cache hits = %d, want >= 2", roll.Fleet.CacheHits)
	}
	if roll.Fleet.CacheHitRate <= 0 {
		t.Errorf("fleet hit rate = %v, want > 0", roll.Fleet.CacheHitRate)
	}
	// Kill a node: the rollup keeps answering, with the dead member
	// marked unreachable.
	f.stop(t, f.ids[2])
	resp, err = http.Get(f.urls[f.ids[0]] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&roll)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	if roll.Fleet.Reachable != 2 {
		t.Errorf("reachable = %d after kill, want 2", roll.Fleet.Reachable)
	}
	for _, row := range roll.Nodes {
		if row.NodeID == f.ids[2] && (row.Reachable || row.Error == "") {
			t.Errorf("dead node row %+v, want unreachable with error", row)
		}
	}
}

// TestSingleNodeBitIdentity pins the no-peers contract: no cluster
// section in /metrics, no node header on responses, /v1/cluster 404 —
// the pre-cluster daemon's observable surface.
func TestSingleNodeBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	buf, _ := json.Marshal(BlockingRequest{SwitchSpec: paperSpec(8)})
	resp, err := http.Post(ts.URL+"/v1/blocking", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errcheck only headers matter
	if h := resp.Header.Get(cluster.HeaderNode); h != "" {
		t.Errorf("single-node response carries %s: %q", cluster.HeaderNode, h)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(mresp.Body)
	mresp.Body.Close() //lint:allow errcheck body already read
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["cluster"]; ok {
		t.Error("single-node /metrics carries a cluster section")
	}

	cresp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close() //lint:allow errcheck only the status matters
	if cresp.StatusCode != http.StatusNotFound {
		t.Errorf("single-node /v1/cluster status %d, want 404", cresp.StatusCode)
	}
}

// TestReadyz pins the readiness lifecycle: ready after New, draining
// (503) once shutdown begins, while /healthz stays 200 throughout.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //lint:allow errcheck only the status matters
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("ready /readyz %d, want 200", code)
	}
	s.draining.Store(true)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining /healthz %d, want 200 (alive, not ready)", code)
	}
	s.draining.Store(false)
	s.ready.Store(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("pre-ready /readyz %d, want 503", code)
	}
}

// TestClusterMetricsSection checks the clustered /metrics document
// carries the cluster family with per-peer rows.
func TestClusterMetricsSection(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	spec := paperSpec(16)
	owner := f.ownerOf(t, spec)
	other := f.nonOwner(t, owner)
	f.post(t, other, "/v1/blocking", BlockingRequest{SwitchSpec: spec}, nil)

	resp, err := http.Get(f.urls[other] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close() //lint:allow errcheck body already decoded
	if err != nil {
		t.Fatal(err)
	}
	cs := snap.Cluster
	if cs == nil {
		t.Fatal("clustered /metrics has no cluster section")
	}
	if cs.NodeID != other || cs.Forwards != 1 {
		t.Errorf("cluster section %+v, want node %s with 1 forward", cs, other)
	}
	ps, ok := cs.Peers[owner]
	if !ok || ps.Forwards != 1 || !ps.Healthy {
		t.Errorf("peer row %+v, want 1 healthy forward to %s", ps, owner)
	}
	if ps.Latency.Le100us+ps.Latency.Le1ms+ps.Latency.Le10ms+ps.Latency.Le100ms+
		ps.Latency.Le1s+ps.Latency.Le10s+ps.Latency.Over10s != 1 {
		t.Errorf("forward latency histogram %+v sums != 1", ps.Latency)
	}
}

// splitGrid builds a /v1/grid request over beta variants of base's
// class c, chosen so that f's ring spreads the variants' groups over
// every node, perOwner groups each. Each variant is one group of three
// points: two sizes sharing its fill, and a copy at twice the rates and
// mu (the same grid.ClassKey in other floats, which the owner reads
// off the same entry). It returns the request and its group count.
func splitGrid(t testing.TB, f *testFleet, base SwitchSpec, c, perOwner int) (GridRequest, int) {
	t.Helper()
	req := GridRequest{SwitchSpec: base}
	per := make(map[string]int)
	groups := 0
	for k := 1; groups < perOwner*len(f.ids) && k <= 500; k++ {
		beta := 0.001 * float64(k)
		spec := base
		spec.Classes = append([]ClassSpec(nil), base.Classes...)
		spec.Classes[c].Beta = beta
		owner := f.ownerOf(t, spec)
		if per[owner] == perOwner {
			continue
		}
		per[owner]++
		groups++
		doubled := make([]GridClassDelta, len(base.Classes))
		for i, cl := range spec.Classes {
			a, b, m := 2*cl.Alpha, 2*cl.Beta, 2*cl.Mu
			doubled[i] = GridClassDelta{Class: i, Alpha: &a, Beta: &b, Mu: &m}
		}
		delta := []GridClassDelta{{Class: c, Beta: &beta}}
		req.Points = append(req.Points,
			GridPoint{N1: base.N1 - 4, Classes: delta},
			GridPoint{Classes: delta},
			GridPoint{N1: base.N1 - 2, Classes: doubled})
	}
	if groups < perOwner*len(f.ids) {
		t.Fatalf("found %d of %d beta variants spread over the ring", groups, perOwner*len(f.ids))
	}
	return req, groups
}

var cachedField = regexp.MustCompile(`"cached":(true|false|\d+)`)

// blankCached zeroes a reply's cached field, the one field that
// differs between a cold and a warm node.
func blankCached(b []byte) string { return cachedField.ReplaceAllString(string(b), `"cached":0`) }

// singleNodeReply answers body on a fresh single-node server.
func singleNodeReply(t *testing.T, path string, body any) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1})
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d: %s", resp.StatusCode, data)
	}
	return data
}

// fleetForwards sums the forwards (whole requests and grid groups)
// across the live fleet.
func (f *testFleet) fleetForwards() int64 {
	var total int64
	for _, s := range f.srvs {
		total += s.cluster.Snapshot().Forwards
	}
	return total
}

// TestClusterGridSplit posts a grid whose groups every node owns some
// of to each node in turn: each receiving node serves its own groups
// and sends the others to their owners, so the fleet fills every group
// once, and every reply matches the single-node reply byte for byte.
func TestClusterGridSplit(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	base := SwitchSpec{N1: 16, N2: 16, Classes: []ClassSpec{
		{Name: "smooth", A: 1, Alpha: 4, Mu: 1},
		{Name: "bursty", A: 2, Alpha: 6, Beta: 0.01, Mu: 1},
	}}
	req, groups := splitGrid(t, f, base, 1, 2)
	want := blankCached(singleNodeReply(t, "/v1/grid", req))
	for n, id := range f.ids {
		status, data, servedBy := f.post(t, id, "/v1/grid", req, nil)
		if status != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", id, status, data)
		}
		if servedBy != id {
			t.Errorf("node %s: served by %q, want the receiving node", id, servedBy)
		}
		if got := blankCached(data); got != want {
			t.Errorf("node %s reply differs from single-node:\n%s\nvs\n%s", id, got, want)
		}
		var gr GridResponse
		if err := json.Unmarshal(data, &gr); err != nil {
			t.Fatal(err)
		}
		if wantCached := min(n, 1) * groups; gr.Models != groups || gr.Cached != wantCached {
			t.Errorf("node %s: models %d cached %d, want %d and %d", id, gr.Models, gr.Cached, groups, wantCached)
		}
	}
	if got := f.fleetMisses(); got != int64(groups) {
		t.Errorf("fleet-wide solver-cache misses = %d, want one per group (%d)", got, groups)
	}
	// Every group is remote to two of the three receiving nodes.
	if got := f.fleetForwards(); got != int64(2*groups) {
		t.Errorf("fleet-wide forwards = %d, want %d", got, 2*groups)
	}
	for _, id := range f.ids {
		if fo := f.srvs[id].cluster.Snapshot().Failovers; fo != 0 {
			t.Errorf("node %s: %d failovers on a healthy fleet", id, fo)
		}
	}
}

// TestClusterGridSplitConcurrent races the same split grid against
// every node at once: sub-requests and local reads of one group meet on
// its owner's single-flight, so the fleet still fills each group once
// and every reply carries the single-node bytes.
func TestClusterGridSplitConcurrent(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	req, groups := splitGrid(t, f, paperSpec(24), 0, 2)
	want := blankCached(singleNodeReply(t, "/v1/grid", req))
	const perNode = 2
	var wg sync.WaitGroup
	for _, id := range f.ids {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				status, data, _ := f.post(t, id, "/v1/grid", req, nil)
				if status != http.StatusOK {
					t.Errorf("node %s: status %d: %s", id, status, data)
					return
				}
				if got := blankCached(data); got != want {
					t.Errorf("node %s reply differs from single-node:\n%s\nvs\n%s", id, got, want)
				}
			}(id)
		}
	}
	wg.Wait()
	if got := f.fleetMisses(); got != int64(groups) {
		t.Errorf("fleet-wide misses = %d, want one per group (%d)", got, groups)
	}
}

// TestClusterGridSplitFailover shuts down the owner of some groups: the
// grid still answers 200 with the single-node bytes, the dead owner's
// groups are computed where the request landed, and each counts as a
// failover.
func TestClusterGridSplitFailover(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	const perOwner = 2
	req, _ := splitGrid(t, f, paperSpec(16), 0, perOwner)
	want := blankCached(singleNodeReply(t, "/v1/grid", req))
	dead := f.ids[2]
	f.stop(t, dead)
	for _, id := range f.ids[:2] {
		status, data, _ := f.post(t, id, "/v1/grid", req, nil)
		if status != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", id, status, data)
		}
		if got := blankCached(data); got != want {
			t.Errorf("node %s reply differs from single-node:\n%s\nvs\n%s", id, got, want)
		}
		if fo := f.srvs[id].cluster.Snapshot().Failovers; fo != perOwner {
			t.Errorf("node %s: failovers = %d, want %d (the groups %s owns)", id, fo, perOwner, dead)
		}
	}
}

// TestClusterGridSplitLoopGuard: a grid carrying the forwarded marker
// is served whole where it lands, never split.
func TestClusterGridSplitLoopGuard(t *testing.T) {
	t.Run(cluster.HeaderForwarded, func(t *testing.T) {
		f := newTestFleet(t, 3, nil)
		req, groups := splitGrid(t, f, paperSpec(16), 0, 1)
		id := f.ids[0]
		status, data, servedBy := f.post(t, id, "/v1/grid", req, map[string]string{cluster.HeaderForwarded: f.ids[1]})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		if servedBy != id {
			t.Errorf("served by %q, want %q", servedBy, id)
		}
		if fwd := f.fleetForwards(); fwd != 0 {
			t.Errorf("%d forwards under the loop guard, want 0", fwd)
		}
		if misses := f.srvs[id].metrics.cacheMisses.Load(); misses != int64(groups) {
			t.Errorf("receiving node misses = %d, want every group (%d) filled locally", misses, groups)
		}
	})
}

// TestClusterGridSplitDispatch splits a dispatch=auto grid that mixes
// exact groups with asymptotic points: the tiers, the asymptotic count
// and the exact rows all survive the split.
func TestClusterGridSplitDispatch(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	req, groups := splitGrid(t, f, asymSpec(16), 0, 1)
	req.Dispatch = "auto"
	req.Points = append(req.Points, GridPoint{N1: 4096, N2: 4096}, GridPoint{N1: 2048, N2: 4096})
	want := blankCached(singleNodeReply(t, "/v1/grid", req))
	var gr GridResponse
	if err := json.Unmarshal([]byte(want), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Asymptotic != 2 || gr.Models != groups {
		t.Fatalf("single-node reply: %d asymptotic points, %d models; want 2 and %d", gr.Asymptotic, gr.Models, groups)
	}
	for _, id := range f.ids {
		status, data, _ := f.post(t, id, "/v1/grid", req, nil)
		if status != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", id, status, data)
		}
		if got := blankCached(data); got != want {
			t.Errorf("node %s reply differs from single-node:\n%s\nvs\n%s", id, got, want)
		}
	}
	if got := f.fleetMisses(); got != int64(groups) {
		t.Errorf("fleet-wide misses = %d, want %d", got, groups)
	}
}
