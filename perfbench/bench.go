package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// bencher runs one workload's phases against fleets it boots.
type bencher struct {
	o   options
	wl  *workload
	p   *plan
	ref [][]byte
	out io.Writer
	oc  *outcome
}

// metric is one reported number. NA marks a layer the workload does
// not reach; Base gives a ratio's numerator and denominator.
type metric struct {
	Name  string
	Unit  string
	Value float64
	NA    bool
	Base  string
}

// outcome is what the last output line reports.
type outcome struct {
	attempted, failed, mismatches int
	metrics                       []metric
}

func (oc *outcome) add(m metric) { oc.metrics = append(oc.metrics, m) }

// count folds a phase's request outcomes into the totals.
func (oc *outcome) count(ph *phase) {
	oc.attempted += ph.attempted
	oc.failed += ph.failed
	oc.mismatches += ph.mismatch
}

func (oc *outcome) write(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{
		Correct:   oc.mismatches == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]val, len(oc.metrics)),
	}
	for _, m := range oc.metrics {
		v := m.Value
		switch {
		case m.NA:
			v = 0 // JSON has no n/a; the text report above says n/a
		case math.IsInf(v, 1):
			// A failed request counts as +Inf; JSON carries the client
			// timeout instead.
			v = ms(requestTimeout)
		}
		doc.Metrics[m.Name] = val{Value: v, Unit: m.Unit}
	}
	for _, m := range oc.metrics {
		switch {
		case m.NA:
			fmt.Fprintf(w, "%-34s n/a\n", m.Name)
		case m.Base != "":
			fmt.Fprintf(w, "%-34s %.6g %s (%s)\n", m.Name, m.Value, m.Unit, m.Base)
		default:
			fmt.Fprintf(w, "%-34s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if oc.attempted < 1 {
		return fmt.Errorf("no requests attempted")
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setup boots a fleet and warms it: it binds the listeners, waits until
// every node answers /readyz 200 and sends the hot set once,
// sequentially.
func (b *bencher) setup(c *http.Client, tr *tracer) (*fleet, *loader, error) {
	f, err := bootFleet(b.wl.nodes, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := f.waitReady(c, 10*time.Second); err != nil {
		return nil, nil, withStop(err, f.stop())
	}
	d := &loader{c: c, f: f, wl: b.wl, ref: b.ref}
	attempted, failed := d.warm()
	b.oc.attempted += attempted
	b.oc.failed += failed
	if failed > 0 {
		fmt.Fprintf(b.out, "set-up: %d of %d warm-up requests failed\n", failed, attempted)
	}
	return f, d, nil
}

// withStop adds a failure to stop the fleet to the error that made the
// caller stop it.
func withStop(err, stopErr error) error {
	if stopErr != nil {
		return fmt.Errorf("%w (stopping fleet: %v)", err, stopErr)
	}
	return err
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 11

// endToEnd measures the end-to-end metrics: set-up time (median of
// setupRuns set-ups), the latency and CPU time of requests sent one at a
// time, the CPU time per request of a closed loop of conns callers, and
// the live heap. Times that the host's busy spells would inflate are read
// on the process CPU clock, and every time is reported at the reference
// pace (see pace.go and README.md).
func (b *bencher) endToEnd(measured time.Duration) error {
	// Everything timed here runs on one P. With two, the idle P's thread
	// spins and the GC workers run beside the requests, and how much of
	// that CPU time a request or a set-up collects grows with the wall
	// time a busy host stretches it to. On one P the CPU time is the
	// work's own and its GC share, however long the host holds the vCPU.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	c := newClient(conns())
	defer c.CloseIdleConnections()
	ref, err := theRefTask()
	if err != nil {
		return err
	}
	var setups, setupsRaw []float64
	var f *fleet
	var d *loader
	for i := 0; i < setupRuns; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
			c.CloseIdleConnections()
			runtime.GC()
		}
		k0, err := ref.pace()
		if err != nil {
			return err
		}
		cpu0 := processCPU()
		f, d, err = b.setup(c, nil)
		if err != nil {
			return err
		}
		took := (processCPU() - cpu0).Seconds()
		k1, err := ref.pace()
		if err != nil {
			return withStop(err, f.stop())
		}
		k := (k0 + k1) / 2
		setupsRaw = append(setupsRaw, took)
		setups = append(setups, k*took)
	}
	serial, closed := &phase{}, &phase{}
	if err := serial.paced(ref, measured/2, func(dur time.Duration) { d.serialLoop(b.p, dur, serial) }); err != nil {
		return withStop(err, f.stop())
	}
	sv := serial.summary()
	// The serial loop's per-request slices grow with the number of
	// requests the host let it send; drop them so that the closed
	// loop's heap readings hold only what the program keeps.
	serial.lat, serial.cpu = nil, nil
	runtime.GC()
	if err := closed.paced(ref, measured/2, func(dur time.Duration) { d.closedLoop(b.p, conns(), dur, closed) }); err != nil {
		return withStop(err, f.stop())
	}
	if err := f.stop(); err != nil {
		return err
	}
	b.oc.count(serial)
	b.oc.count(closed)

	fmt.Fprintf(b.out, "serial loop: %s; closed loop (%d callers, one P): %s\n", serial, conns(), closed)
	var paces []float64
	for _, ph := range []*phase{serial, closed} {
		for _, ch := range ph.chunks {
			paces = append(paces, ch.pace)
		}
	}
	ps := sortedCopy(paces)
	fmt.Fprintf(b.out, "host pace over %d chunks: min %.3f p25 %.3f median %.3f p75 %.3f max %.3f (1 = reference pace; times below are scaled by it)\n",
		len(ps), ps[0], quantile(ps, 0.25), quantile(ps, 0.5), quantile(ps, 0.75), ps[len(ps)-1])
	attempted := serial.attempted + closed.attempted
	failed := serial.failed + closed.failed
	fmt.Fprintf(b.out, "%-34s %.6g ratio (failed %d / attempted %d, both phases)\n",
		"fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	perReqRaw, perReq := closed.cpuPerOK()
	fmt.Fprintf(b.out, "not gated, at pace: serial wall p50 %.4f ms, p99 %.4f ms; as measured: closed loop %.0f OK replies/s wall\n",
		sv.wallP50, sv.wallP99, float64(closed.ok)/closed.elapsed.Seconds())
	b.oc.add(metric{Name: "setup_s", Unit: "s", Value: median(setups),
		Base: fmt.Sprintf("process CPU, median of %d set-ups at pace: %s; as measured %.6f s", len(setups), fmtList(setups, "%.4f"), median(setupsRaw))})
	b.oc.add(metric{Name: "cpu_p50_ms", Unit: "ms", Value: sv.cpuP50,
		Base: fmt.Sprintf("process CPU, one request in flight, %d requests; as measured %.6f ms", sv.n, sv.rawP50)})
	b.oc.add(metric{Name: "cpu_p99_ms", Unit: "ms", Value: sv.cpuP99,
		Base: fmt.Sprintf("process CPU, one request in flight, %d requests beyond it; as measured %.6f ms", sv.n/100, sv.rawP99)})
	b.oc.add(metric{Name: "cpu_us_per_req", Unit: "us", Value: perReq,
		Base: fmt.Sprintf("process CPU per OK reply, closed loop of %d callers on one P, %d OK replies; as measured %.4f us", conns(), closed.ok, perReqRaw)})
	b.oc.add(metric{Name: "live_heap_mb", Unit: "MB", Value: median(closed.heap) / 1e6,
		Base: fmt.Sprintf("live heap at the last collection, median of %d readings, one after each closed-loop chunk; largest %.2f MB",
			len(closed.heap), sortedCopy(closed.heap)[len(closed.heap)-1]/1e6)})
	return nil
}

// traced measures the per-layer metrics: an untraced open-loop leg, a
// traced one on a fresh fleet (spans, /metrics and /v1/cluster deltas,
// reply fields), a handler-only allocation replay and the layer replay
// leg.
func (b *bencher) traced() error {
	c := newClient(conns())
	defer c.CloseIdleConnections()
	f, d, err := b.setup(c, nil)
	if err != nil {
		return err
	}
	plain := d.openLoop(b.p, conns())
	b.oc.count(plain)
	if err := f.stop(); err != nil {
		return err
	}
	c.CloseIdleConnections()
	runtime.GC()

	tr := newTracer()
	f, d, err = b.setup(c, tr)
	if err != nil {
		return err
	}
	d.tr = tr
	before, err := f.scrape(c)
	if err != nil {
		return withStop(err, f.stop())
	}
	cpu0 := readCPU()
	d.takeStats()
	tr.on.Store(true)
	ph := d.openLoop(b.p, conns())
	tr.on.Store(false)
	cpu1 := readCPU()
	replies := d.takeStats()
	after, err := f.scrape(c)
	if err != nil {
		return withStop(err, f.stop())
	}
	b.oc.count(ph)
	allocs, err := allocsPerRequest(f.srvs[0], b.wl)
	if err != nil {
		return withStop(err, f.stop())
	}
	if err := f.stop(); err != nil {
		return err
	}
	tr.on.Store(true)
	rp, err := replay(b.wl, tr)
	if err != nil {
		return err
	}
	spans := tr.take()
	reqs := link(spans)
	file := filepath.Join(b.o.spans, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.o.seed))
	if err := writeSpans(file, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "untraced leg: %s; traced leg: %s; %d spans written to %s\n", plain, ph, len(spans), file)
	printSelfTimes(b.out, reqs)

	l := &layerReport{
		wl: b.wl, p: b.p, ph: ph, plain: plain, delta: after.sum().minus(before.sum()),
		replies: replies, reqs: reqs, rp: rp, allocs: allocs, gcFrac: cpu1.gcFrac(cpu0),
	}
	for _, m := range l.metrics() {
		b.oc.add(m)
	}
	return nil
}

// liveHeap is the live Go heap, in bytes, as the last collection
// measured it.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuReading is the runtime's CPU-time accounting at one instant.
type cpuReading struct{ gc, total float64 }

func readCPU() cpuReading {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuReading{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (c cpuReading) gcFrac(prev cpuReading) float64 {
	if c.total <= prev.total {
		return 0
	}
	return (c.gc - prev.gc) / (c.total - prev.total)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs (NaN when
// empty). Failed requests sort last as +Inf.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
