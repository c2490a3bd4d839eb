package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"xbar/internal/server"
)

// fleet is a set of in-process xbard nodes on loopback listeners. One
// node runs single-node; more are peered into one cluster.
type fleet struct {
	srvs  []*server.Server
	urls  []string
	ids   []string
	wraps []*http.Server // traced fleets serve through a span wrapper
	done  []chan error
}

// bootFleet starts n nodes with the default configuration. Untraced
// nodes serve through the daemon path (Start then Serve); traced nodes
// serve their Handler through an http.Server with the same timeouts
// whose handler records a span around every request.
func bootFleet(n int, tr *tracer) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
		f.ids = append(f.ids, fmt.Sprintf("n%d", i))
	}
	var peers map[string]string
	if n > 1 {
		peers = make(map[string]string, n)
		for i, id := range f.ids {
			peers[id] = f.urls[i]
		}
	}
	for i := range lns {
		cfg := server.Config{Addr: lns[i].Addr().String(), Peers: peers}
		if peers != nil {
			cfg.NodeID = f.ids[i]
		}
		s, err := server.New(cfg)
		if err != nil {
			closeAll(lns[i:])
			return nil, withStop(err, f.stop())
		}
		s.UseListener(lns[i])
		if err := s.Start(); err != nil {
			closeAll(lns[i:])
			return nil, withStop(err, f.stop())
		}
		done := make(chan error, 1)
		f.srvs = append(f.srvs, s)
		f.done = append(f.done, done)
		if tr == nil {
			go func() { done <- s.Serve() }()
			f.wraps = append(f.wraps, nil)
			continue
		}
		hs := &http.Server{
			Handler:           tr.wrap(i, f.ids, s.Handler()),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		f.wraps = append(f.wraps, hs)
		ln := lns[i]
		go func() { done <- hs.Serve(ln) }()
	}
	return f, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close() //lint:allow errcheck unwinding a failed boot; the boot error is the one returned
	}
}

// waitReady polls every node's /readyz until it answers 200.
func (f *fleet) waitReady(c *http.Client, deadline time.Duration) error {
	until := time.Now().Add(deadline)
	for _, u := range f.urls {
		for {
			resp, err := c.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //lint:allow errcheck probe body is discarded; the status is the answer
				resp.Body.Close()              //lint:allow errcheck probe body is discarded; the status is the answer
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(until) {
				return fmt.Errorf("%s not ready after %v (last error %v)", u, deadline, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop drains every node and waits until each one's serve loop has
// returned.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i, s := range f.srvs {
		if hs := f.wraps[i]; hs != nil {
			errs = append(errs, hs.Shutdown(ctx))
			s.Close()
		} else {
			errs = append(errs, s.Shutdown(ctx))
		}
	}
	for _, done := range f.done {
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is one reading of every node's /metrics and, for a cluster,
// the /v1/cluster fleet rollup from node 0.
type scrape struct {
	nodes []server.Snapshot
	fleet *server.ClusterFleet
}

func (f *fleet) scrape(c *http.Client) (scrape, error) {
	var s scrape
	for _, u := range f.urls {
		var snap server.Snapshot
		if err := getJSON(c, u+"/metrics", &snap); err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, snap)
	}
	if len(f.urls) > 1 {
		var cl server.ClusterStatusResponse
		if err := getJSON(c, f.urls[0]+"/v1/cluster", &cl); err != nil {
			return s, err
		}
		s.fleet = &cl.Fleet
	}
	return s, nil
}

// counters is the sum over nodes of the counters the report uses.
type counters struct {
	hits, misses, shared, evictions, recycled  int64
	scHits, scMisses, scShared                 int64
	forwards, failovers, replSent, replDropped int64
	fleetHits, fleetMisses                     int64
}

func (s scrape) sum() counters {
	var c counters
	for _, n := range s.nodes {
		c.hits += n.Cache.Hits
		c.misses += n.Cache.Misses
		c.shared += n.Cache.SharedInFlight
		c.evictions += n.Cache.Evictions
		c.recycled += n.Cache.SolversRecycled
		c.scHits += n.ScenarioCache.Hits
		c.scMisses += n.ScenarioCache.Misses
		c.scShared += n.ScenarioCache.SharedInFlight
		if cl := n.Cluster; cl != nil {
			c.forwards += cl.Forwards
			c.failovers += cl.Failovers
			c.replSent += cl.Replication.Sent
			c.replDropped += cl.Replication.Dropped
		}
	}
	if s.fleet != nil {
		c.fleetHits, c.fleetMisses = s.fleet.CacheHits, s.fleet.CacheMisses
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, shared: a.shared - b.shared,
		evictions: a.evictions - b.evictions, recycled: a.recycled - b.recycled,
		scHits: a.scHits - b.scHits, scMisses: a.scMisses - b.scMisses, scShared: a.scShared - b.scShared,
		forwards: a.forwards - b.forwards, failovers: a.failovers - b.failovers,
		replSent: a.replSent - b.replSent, replDropped: a.replDropped - b.replDropped,
		fleetHits: a.fleetHits - b.fleetHits, fleetMisses: a.fleetMisses - b.fleetMisses,
	}
}
