// Command xbard is the long-running HTTP daemon over the crossbar
// analytical engine: blocking and concurrency (Algorithms 1 and 2),
// the Section 4 revenue measures, admission decisions and amortized
// sub-size sweeps, served as JSON with an LRU solver cache and
// single-flight deduplication (see internal/server and docs/SERVER.md).
//
// Usage:
//
//	xbard [-addr :8480] [-debug-addr 127.0.0.1:8481] \
//	      [-workers n] [-tile t] [-cache entries] [-scenario-cache entries] \
//	      [-max-dim n] [-max-asym-dim n] \
//	      [-max-body bytes] [-timeout d] [-drain d] [-max-concurrent n] \
//	      [-max-grid-points n] \
//	      [-node-id id -peers id=url,...] \
//	      [-cpuprofile f] [-memprofile f] [-trace f]
//
// The daemon serves until SIGTERM or SIGINT, then drains in-flight
// requests within -drain and exits 0 on a clean shutdown. -debug-addr
// (off by default, keep it on loopback: no auth) adds net/http/pprof
// and a second /metrics on a separate mux.
//
// -peers (with -node-id naming this node's entry) turns a fleet of
// xbard processes into one logical cache: a consistent-hash ring
// assigns every cache key an owner and requests are forwarded to it,
// so the fleet fills each lattice once no matter which node a client
// hits. Without -peers the daemon is the plain single-node server.
// See docs/CLUSTER.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xbar/internal/cli"
	"xbar/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8480", "API listen address")
		debugAddr     = fs.String("debug-addr", "", "pprof/metrics listen address (empty = disabled; keep on loopback)")
		workers       = fs.Int("workers", 0, "wavefront fill workers per solve (0 = GOMAXPROCS divided across -max-concurrent)")
		tile          = fs.Int("tile", 0, "wavefront tile edge in cells (0 = automatic)")
		cacheSize     = fs.Int("cache", 0, "retained operating points in the solver cache (0 = default 64)")
		scenarioCache = fs.Int("scenario-cache", 0, "retained /v1/scenario results (0 = default 64)")
		maxDim        = fs.Int("max-dim", 0, "largest switch dimension the exact tier fills a lattice for (0 = default 1024)")
		maxAsymDim    = fs.Int("max-asym-dim", 0, "largest switch dimension under a dispatch policy; (max-dim, max-asym-dim] is asymptotic-only (0 = default 1<<20)")
		maxConcurrent = fs.Int("max-concurrent", 0, "solver slots: concurrent lattice fills, gradient re-solves and scenario evaluations (0 = GOMAXPROCS)")
		maxGridPoints = fs.Int("max-grid-points", 0, "largest accepted /v1/grid point list (0 = default 256)")
		maxBody       = fs.Int64("max-body", 0, "request body cap in bytes (0 = default 1 MiB)")
		timeout       = fs.Duration("timeout", 0, "per-request timeout (0 = default 30s)")
		drain         = fs.Duration("drain", 0, "graceful-shutdown drain budget (0 = default 15s)")
		nodeID        = fs.String("node-id", "", "this node's id in -peers (required with -peers)")
		peers         = fs.String("peers", "", "cluster membership as id=url,id=url,... including this node (empty = single-node)")
	)
	prof := cli.NewProfiler(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "xbard: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	peerMap, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintln(stderr, "xbard:", err)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "xbard:", err)
		return 1
	}

	srv, err := server.New(server.Config{
		Addr:              *addr,
		DebugAddr:         *debugAddr,
		Workers:           *workers,
		Tile:              *tile,
		CacheSize:         *cacheSize,
		ScenarioCacheSize: *scenarioCache,
		MaxDim:            *maxDim,
		MaxAsymDim:        *maxAsymDim,
		MaxConcurrent:     *maxConcurrent,
		MaxGridPoints:     *maxGridPoints,
		MaxBodyBytes:      *maxBody,
		RequestTimeout:    *timeout,
		DrainTimeout:      *drain,
		NodeID:            *nodeID,
		Peers:             peerMap,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, time.Now().Format("2006-01-02T15:04:05.000Z07:00")+" "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "xbard:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	code := 0
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintln(stderr, "xbard:", err)
		code = 1
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "xbard:", err)
		code = 1
	}
	return code
}

// parsePeers parses the -peers value: comma-separated id=url pairs,
// one per cluster member including this node. "" means single-node.
func parsePeers(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q, want id=url", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers id %q given twice", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers %q holds no id=url entries", spec)
	}
	return peers, nil
}
