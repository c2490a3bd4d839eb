package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// layerReport derives the per-layer metrics of a traced run.
type layerReport struct {
	wl      *workload
	p       *plan
	ph      *phase // traced open-loop leg
	plain   *phase // untraced open-loop leg
	delta   counters
	replies replyStats
	reqs    map[uint64]*requestTrace
	rp      *replayTimes
	allocs  float64
	gcFrac  float64
}

// disciplines are the scenario disciplines of the corpus, in the order
// BENCHMARK.json lists their per-layer metrics.
var disciplines = []string{"clos", "hotspot", "inputq", "link", "minnet", "overflow", "retrial", "slotted", "transient", "wdm"}

func ratio(num, den int64, label string) metric {
	if den == 0 {
		return metric{NA: true}
	}
	return metric{Value: float64(num) / float64(den), Unit: "ratio", Base: fmt.Sprintf("%s %d / %d", label, num, den)}
}

func timing(xs []float64, q float64, unit string) metric {
	if len(xs) == 0 {
		return metric{NA: true}
	}
	return metric{Value: quantile(sortedCopy(xs), q), Unit: unit, Base: fmt.Sprintf("n=%d", len(xs))}
}

func count(n int64, reached bool) metric {
	if !reached {
		return metric{NA: true}
	}
	return metric{Value: float64(n), Unit: "count"}
}

func named(name, unit string, m metric) metric {
	m.Name, m.Unit = name, unit
	return m
}

func (l *layerReport) metrics() []metric {
	var transport, handler, fwdHandler, localHandler []float64
	for _, rt := range l.reqs {
		if rt.handler == nil {
			continue
		}
		h := us(rt.handler.dur())
		handler = append(handler, h)
		transport = append(transport, us(rt.client.dur())-h)
		if rt.peer != nil {
			fwdHandler = append(fwdHandler, h)
		} else {
			localHandler = append(localHandler, h)
		}
	}
	d := l.delta
	lookups := d.hits + d.shared + d.misses
	cached := lookups > 0 || len(l.wl.keys) > 0
	multi := l.wl.nodes > 1

	var fillSum float64
	for _, x := range l.rp.fill {
		fillSum += x
	}
	busy := metric{NA: true}
	if len(l.rp.fill) > 0 {
		meanFill := fillSum / float64(len(l.rp.fill))
		busy = metric{Value: float64(d.misses) * meanFill / ms(l.ph.elapsed),
			Base: fmt.Sprintf("fills %d x mean replay fill %.3f ms / phase %.0f ms", d.misses, meanFill, ms(l.ph.elapsed))}
	}

	overhead := metric{NA: true}
	if multi && len(fwdHandler) > 0 && len(localHandler) > 0 {
		f, lo := quantile(sortedCopy(fwdHandler), 0.5), quantile(sortedCopy(localHandler), 0.5)
		overhead = metric{Value: f - lo, Base: fmt.Sprintf("forwarded p50 %.1f us (n=%d) - owner-local p50 %.1f us (n=%d)",
			f, len(fwdHandler), lo, len(localHandler))}
	}

	fillsPerKey := metric{NA: true}
	if multi {
		touched := make(map[int]bool)
		for _, i := range l.p.open {
			for _, k := range l.wl.pool[i].keys {
				touched[k] = true
			}
		}
		fillsPerKey = ratio(d.fleetMisses, int64(len(touched)), "fleet fills / distinct keys")
	}

	plainP50 := quantile(sortedCopy(l.plain.lat), 0.5)
	tracedP50 := quantile(sortedCopy(l.ph.lat), 0.5)

	out := []metric{
		named("transport.self_p50_us", "us", timing(transport, 0.5, "us")),
		named("server.handler_p50_us", "us", timing(handler, 0.5, "us")),
		named("server.handler_p99_us", "us", timing(handler, 0.99, "us")),
		named("server.allocs_per_req", "count", metric{Value: l.allocs,
			Base: fmt.Sprintf("handler-only replay of %d distinct bodies", len(l.wl.pool))}),
		named("server.cache_hit_ratio", "ratio", ratio(d.hits+d.shared, lookups, "hits+shared")),
		named("server.cache_shared", "count", count(d.shared, cached)),
		named("server.cache_evictions", "count", count(d.evictions, cached)),
		named("server.solvers_recycled", "count", count(d.recycled, cached)),
		named("server.gc_cpu_frac", "ratio", metric{Value: l.gcFrac}),
		named("server.scenario_hit_ratio", "ratio", ratio(d.scHits+d.scShared, d.scHits+d.scShared+d.scMisses, "hits+shared")),
		named("core.fills", "count", count(d.misses, cached)),
		named("core.fill_p50_ms", "ms", timing(l.rp.fill, 0.5, "ms")),
		named("core.fill_busy_frac", "ratio", busy),
		named("core.solve_auto_p50_us", "us", timing(l.rp.solveAuto, 0.5, "us")),
		named("grid.models_per_req", "count", ratio(l.replies.gridModels, l.replies.gridReplies, "models")),
		named("grid.cached_ratio", "ratio", ratio(l.replies.gridCached, l.replies.gridModels, "cached models")),
		named("scenario.decode_p50_us", "us", timing(l.rp.decode, 0.5, "us")),
	}
	for _, disc := range disciplines {
		out = append(out, named("scenario.eval_p50_ms."+disc, "ms", timing(l.rp.eval[disc], 0.5, "ms")))
	}
	out = append(out,
		named("asymptotic.solve_p50_us", "us", timing(l.rp.asym, 0.5, "us")),
		named("asymptotic.answered_ratio", "ratio", ratio(l.replies.autoAsymptotic, l.replies.autoReplies, "asymptotic tier replies")),
		named("cluster.forward_ratio", "ratio", multiOnly(multi, forwardRatio(d.forwards, l.ph.attempted, l.replies))),
		named("cluster.forward_overhead_p50_us", "us", overhead),
		named("cluster.fleet_hit_ratio", "ratio", multiOnly(multi, ratio(d.fleetHits, d.fleetHits+d.fleetMisses, "fleet hits+shared"))),
		named("cluster.fills_per_key", "ratio", fillsPerKey),
		named("cluster.replication_sent", "count", count(d.replSent, multi)),
		named("cluster.failovers", "count", count(d.failovers, multi)),
		named("loadgen.open_p50_ms", "ms", timing(l.plain.lat, 0.5, "ms")),
		named("loadgen.open_p99_ms", "ms", timing(l.plain.lat, 0.99, "ms")),
		named("loadgen.lag_p99_ms", "ms", timing(l.ph.lag, 0.99, "ms")),
		named("trace.overhead_p50_ms", "ms", metric{Value: tracedP50 - plainP50,
			Base: fmt.Sprintf("traced p50 %.4f ms - untraced p50 %.4f ms", tracedP50, plainP50)}),
	)
	for i := range out {
		if math.IsNaN(out[i].Value) || math.IsInf(out[i].Value, 0) {
			out[i].NA = true
		}
	}
	return out
}

// forwardRatio is the /metrics forward count over the requests sent,
// cross-checked against the replies whose X-Xbar-Node names another
// node than the one the request was sent to.
func forwardRatio(forwards int64, requests int, r replyStats) metric {
	m := ratio(forwards, int64(requests), "forwards / requests")
	m.Base += fmt.Sprintf("; X-Xbar-Node named another node on %d of %d OK replies", r.forwarded, r.forwarded+r.local)
	return m
}

func multiOnly(multi bool, m metric) metric {
	if !multi {
		return metric{NA: true}
	}
	return m
}

// printSelfTimes reports each layer's self time over the traced leg: a
// span's duration minus the part its child spans cover. transport is
// the round trip minus the entry handler; server is the entry handler
// minus the owner's handler on a forwarded request; cluster.peer is
// that owner's handler.
func printSelfTimes(w io.Writer, reqs map[uint64]*requestTrace) {
	self := map[string][]float64{}
	var total time.Duration
	for _, rt := range reqs {
		total += rt.client.dur()
		if rt.handler == nil {
			continue
		}
		h := rt.handler.dur()
		self["transport"] = append(self["transport"], us(rt.client.dur()-h))
		if rt.peer != nil {
			self["cluster.peer"] = append(self["cluster.peer"], us(rt.peer.dur()))
			h -= rt.peer.dur()
		}
		self["server"] = append(self["server"], us(h))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := self[n]
		var sum float64
		for _, x := range xs {
			sum += x
		}
		fmt.Fprintf(w, "self time %-13s p50 %8.1f us  total %9.1f ms  share %5.1f%% of round trips (n=%d)\n",
			n, quantile(sortedCopy(xs), 0.5), sum/1e3, 100*sum*1e3/float64(max(total, 1)), len(xs))
	}
}
