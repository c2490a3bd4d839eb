// Command xbarbench is the xbar end-to-end benchmark: a single-process,
// seeded load generator that boots xbard nodes in-process on loopback
// listeners and drives them with one of four workloads.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload admit-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (set-up time, the
// CPU time of requests sent one at a time and of a closed loop, live
// heap), read on CPU clocks and scaled to a reference pace of the host;
// with --trace 1 it measures the per-layer metrics instead, over an open
// loop at the workload's offered rate: spans recorded around the client
// round trip and each node's handler, /metrics and /v1/cluster deltas,
// reply fields and a replay of the layer entry points. The last line of standard output
// is one JSON object with the results; see perfbench/README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: admit-hot, whatif-churn, tiers-mix or fleet-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs and schedule are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds (trace 0: serial plus closed loop; trace 1: untraced plus traced open loop)")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "xbarbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = trace == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "xbarbench: %v\n", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "xbarbench: %v\n", err)
		return 1
	}
	return 0
}

// conns is both GOMAXPROCS and the number of concurrent connections:
// nproc, capped at 2 so that the fixed offered rates mean the same load
// on a larger host.
func conns() int { return min(runtime.NumCPU(), 2) }

func bench(o options, out io.Writer) (*outcome, error) {
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(conns())
	wl, err := makeWorkload(def, o.seed)
	if err != nil {
		return nil, err
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	// The traced run's open loop has an untraced and a traced leg.
	p, err := makePlan(wl, o.seed, measured/2)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "xbarbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d conns=%d nodes=%d\n",
		wl.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), conns(), wl.nodes)
	fmt.Fprintf(out, "inputs: hash=%s distinct_bodies=%d fill_keys=%d hot=%d open_requests=%d offered=%g/s arrivals=%s-bpp(Z=%g, hold %v)\n",
		p.hash(wl), len(wl.pool), len(wl.keys), len(wl.hot), len(p.at), wl.rate, wl.arrival.kind, wl.arrival.z, holdTime)

	ref, err := referenceReplies(wl)
	if err != nil {
		return nil, err
	}
	checked, bad := spotCheck(wl, ref)
	for _, b := range bad {
		fmt.Fprintf(out, "spot-check mismatch: %s\n", b)
	}
	fmt.Fprintf(out, "correctness: %d distinct replies from a cold reference node; %d /v1/blocking spot checks against the library, %d mismatched\n",
		len(ref), checked, len(bad))
	runtime.GC()

	oc := &outcome{attempted: checked, failed: len(bad), mismatches: len(bad)}
	b := &bencher{o: o, wl: wl, p: p, ref: ref, out: out, oc: oc}
	if o.trace {
		err = b.traced()
	} else {
		err = b.endToEnd(measured)
	}
	if err != nil {
		return nil, err
	}
	return oc, nil
}
