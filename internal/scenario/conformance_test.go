package scenario_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xbar/internal/clos"
	"xbar/internal/core"
	"xbar/internal/hotspot"
	"xbar/internal/inputq"
	"xbar/internal/link"
	"xbar/internal/minnet"
	"xbar/internal/overflow"
	"xbar/internal/retrial"
	"xbar/internal/scenario"
	"xbar/internal/slotted"
	"xbar/internal/statespace"
	"xbar/internal/stats"
	"xbar/internal/transient"
	"xbar/internal/wdm"
)

// conformanceReport, when set, writes the corpus comparison as a JSON
// artifact (the CI scenario-conformance job uploads it with
// if: always(), so a red run still leaves the diagnostics).
var conformanceReport = flag.String("conformance-report", "", "write the corpus conformance report to this file")

// legacyMeasures evaluates a spec through the ORIGINAL package entry
// points, mirroring each adapter measure for measure. This is the
// bit-identity pin: the adapters (including their grid-routed
// product-form solves) must reproduce these values exactly.
func legacyMeasures(t *testing.T, s *scenario.Spec) []scenario.Measure {
	t.Helper()
	sc := func(name string, v float64) scenario.Measure { return scenario.Measure{Name: name, Value: v} }
	ci := func(name string, c stats.CI) scenario.Measure {
		return scenario.Measure{Name: name, Value: c.Mean, HalfWidth: c.HalfWidth}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("legacy evaluation: %v", err)
		}
	}
	switch s.Discipline {
	case "slotted":
		thr, err := slotted.Throughput(s.Topology.N1, s.Topology.N2, s.Params.Load)
		must(err)
		acc, err := slotted.AcceptanceProbability(s.Topology.N1, s.Topology.N2, s.Params.Load)
		must(err)
		ms := []scenario.Measure{sc("throughput", thr), sc("acceptance", acc)}
		if s.Sim.Slots > 0 {
			r, err := slotted.Simulate(s.Topology.N1, s.Topology.N2, s.Params.Load, s.Sim.Slots, s.Sim.Seed)
			must(err)
			ms = append(ms, ci("sim_per_output", r.PerOutput), ci("sim_acceptance", r.Acceptance),
				sc("sim_offered", float64(r.Offered)))
		}
		return ms

	case "clos":
		net := clos.Network{M: s.Topology.M, N: s.Topology.N, R: s.Topology.R}
		lee, err := net.LeeBlocking(s.Params.Load)
		must(err)
		strict := 0.0
		if net.StrictSenseNonblocking() {
			strict = 1
		}
		ms := []scenario.Measure{
			sc("nonblocking_strict", strict),
			sc("crosspoints", float64(net.Crosspoints())),
			sc("crossbar_crosspoints", float64(net.CrossbarCrosspoints())),
			sc("lee_blocking", lee),
		}
		if s.Sim.Horizon > 0 {
			pol := map[string]clos.Policy{
				"": clos.RandomAvailable, "random-available": clos.RandomAvailable,
				"first-fit": clos.FirstFit, "random-try": clos.RandomTry,
			}[s.Params.Policy]
			r, err := clos.Simulate(net, clos.SimConfig{
				PerInputLoad: s.Params.Load, Mu: s.Params.Mu, Policy: pol,
				Seed: s.Sim.Seed, Warmup: s.Sim.Warmup, Horizon: s.Sim.Horizon, Batches: s.Sim.Batches,
			})
			must(err)
			ms = append(ms, ci("sim_call_blocking", r.CallBlocking), ci("sim_internal_blocking", r.InternalBlocking),
				sc("sim_link_utilization", r.LinkUtilization), sc("sim_events", float64(r.Events)))
		}
		return ms

	case "wdm":
		p := wdm.Path{L: s.Topology.L, W: s.Topology.W, Rate: s.Params.Rate, CrossRate: s.Params.CrossRate, Mu: s.Params.Mu}
		conv, err := p.ConversionBlocking()
		must(err)
		cont, err := p.ContinuityBlocking()
		must(err)
		gain, err := wdm.ConversionGain(p)
		must(err)
		ms := []scenario.Measure{
			sc("conversion_blocking", conv), sc("continuity_blocking", cont),
			sc("link_utilization", p.LinkUtilization()), sc("conversion_gain", gain),
		}
		if s.Sim.Horizon > 0 {
			asg := map[string]wdm.Assignment{"": wdm.FirstFit, "first-fit": wdm.FirstFit, "random-fit": wdm.RandomFit}[s.Params.Policy]
			r, err := wdm.Simulate(p, wdm.SimConfig{
				Converters: s.Params.Converters, Assignment: asg,
				Seed: s.Sim.Seed, Warmup: s.Sim.Warmup, Horizon: s.Sim.Horizon, Batches: s.Sim.Batches,
			})
			must(err)
			ms = append(ms, ci("sim_e2e_blocking", r.EndToEndBlocking), ci("sim_cross_blocking", r.CrossBlocking),
				sc("sim_utilization", r.Utilization), sc("sim_events", float64(r.Events)))
		}
		return ms

	case "overflow":
		r, err := overflow.Run(overflow.Config{
			PrimaryN: s.Topology.N1, SecondaryN: s.Params.SecondaryN,
			Lambda: s.Params.Lambda, Mu: s.Params.Mu,
			Seed: s.Sim.Seed, Warmup: s.Sim.Warmup, Horizon: s.Sim.Horizon, Batches: s.Sim.Batches,
		})
		must(err)
		ms := []scenario.Measure{
			ci("sim_primary_blocking", r.PrimaryBlocking),
			ci("sim_secondary_blocking", r.SecondaryBlocking),
			sc("overflow_mean", r.OverflowMean),
			sc("overflow_peakedness", r.OverflowPeakedness),
			sc("sim_events", float64(r.Events)),
		}
		if r.OverflowMean > 0 && r.OverflowPeakedness > 0 {
			bpp, err := overflow.SecondaryBPPApprox(s.Params.SecondaryN, r.OverflowMean, r.OverflowPeakedness, s.Params.Mu)
			must(err)
			pois, err := overflow.SecondaryPoissonApprox(s.Params.SecondaryN, r.OverflowMean, s.Params.Mu)
			must(err)
			cc, err := overflow.SecondaryBPPCallCongestion(s.Params.SecondaryN, r.OverflowMean, r.OverflowPeakedness, s.Params.Mu)
			must(err)
			ms = append(ms, sc("bpp_secondary_blocking", bpp), sc("poisson_secondary_blocking", pois),
				sc("bpp_call_congestion", cc))
		}
		return ms

	case "retrial":
		r, err := retrial.Run(retrial.Config{
			N1: s.Topology.N1, N2: s.Topology.N2, Lambda: s.Params.Lambda, Mu: s.Params.Mu,
			RetryRate: s.Params.RetryRate, MaxAttempts: s.Params.MaxAttempts,
			Seed: s.Sim.Seed, Warmup: s.Sim.Warmup, Horizon: s.Sim.Horizon, Batches: s.Sim.Batches,
		})
		must(err)
		cleared, err := retrial.ClearedBlocking(s.Topology.N1, s.Topology.N2, s.Params.Lambda, s.Params.Mu)
		must(err)
		return []scenario.Measure{
			ci("sim_abandonment", r.Abandonment),
			ci("sim_first_attempt_blocking", r.FirstAttemptBlocking),
			sc("mean_attempts", r.MeanAttempts),
			sc("mean_orbit", r.MeanOrbit),
			ci("sim_concurrency", r.Concurrency),
			sc("sim_events", float64(r.Events)),
			sc("cleared_blocking", cleared),
		}

	case "hotspot":
		m := hotspot.Model{N1: s.Topology.N1, N2: s.Topology.N2, Lambda: s.Params.Lambda, Mu: s.Params.Mu, HotFraction: s.Params.HotFraction}
		res, err := hotspot.Solve(m)
		must(err)
		ms := []scenario.Measure{
			sc("hot_nonblocking", res.HotNonBlocking), sc("cold_nonblocking", res.ColdNonBlocking),
			sc("nonblocking", res.NonBlocking), sc("hot_utilization", res.HotUtilization),
			sc("mean_busy", res.MeanBusy),
		}
		if s.Sim.Horizon > 0 {
			sr, err := hotspot.Simulate(m, hotspot.SimConfig{Seed: s.Sim.Seed, Warmup: s.Sim.Warmup, Horizon: s.Sim.Horizon, Batches: s.Sim.Batches})
			must(err)
			ms = append(ms, ci("sim_hot_blocking", sr.HotBlocking), ci("sim_cold_blocking", sr.ColdBlocking),
				ci("sim_all_blocking", sr.AllBlocking), ci("sim_mean_busy", sr.MeanBusy),
				sc("sim_events", float64(sr.Events)))
		}
		return ms

	case "inputq":
		d := map[string]inputq.Discipline{"": inputq.InputQueued, "input-queued": inputq.InputQueued, "output-queued": inputq.OutputQueued}[s.Params.Policy]
		r, err := inputq.Run(inputq.Config{
			N: s.Topology.N1, Load: s.Params.Load, Discipline: d,
			Slots: s.Sim.Slots, QueueCap: s.Sim.QueueCap, Seed: s.Sim.Seed,
		})
		must(err)
		return []scenario.Measure{
			sc("saturation_hol", inputq.SaturationHOL()),
			ci("throughput", r.Throughput),
			sc("mean_delay", r.MeanDelay),
			sc("dropped", float64(r.Dropped)),
			sc("delivered", float64(r.Delivered)),
		}

	case "minnet":
		rec, err := minnet.Recursion(s.Topology.N1, s.Params.Load)
		must(err)
		adv, err := minnet.CrossbarAdvantage(s.Topology.N1, s.Params.Load)
		must(err)
		ms := []scenario.Measure{sc("recursion_throughput", rec), sc("crossbar_advantage", adv)}
		if s.Sim.Slots > 0 {
			r, err := minnet.Simulate(s.Topology.N1, s.Params.Load, s.Sim.Slots, s.Sim.Seed)
			must(err)
			ms = append(ms, ci("sim_per_output", r.PerOutput),
				sc("sim_delivered", float64(r.Delivered)), sc("sim_offered", float64(r.Offered)))
		}
		return ms

	case "link":
		classes := make([]link.Class, len(s.Classes))
		for i, c := range s.Classes {
			classes[i] = link.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
		}
		res, err := link.Solve(link.Link{C: s.Topology.C, Classes: classes})
		must(err)
		var ms []scenario.Measure
		for i := range s.Classes {
			ms = append(ms, sc(fmt.Sprintf("blocking_%d", i), res.Blocking[i]))
		}
		for i := range s.Classes {
			ms = append(ms, sc(fmt.Sprintf("concurrency_%d", i), res.Concurrency[i]))
		}
		return ms

	case "transient":
		classes := make([]core.Class, len(s.Classes))
		for i, c := range s.Classes {
			classes[i] = core.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
		}
		chain, err := statespace.NewChain(core.Switch{N1: s.Topology.N1, N2: s.Topology.N2, Classes: classes}, scenario.DefaultLimits.MaxStates)
		must(err)
		pi0, err := transient.EmptyStart(chain)
		must(err)
		traj, err := transient.BlockingTrajectory(chain, pi0, s.Params.Class, s.Params.Times, transient.Options{})
		must(err)
		var ms []scenario.Measure
		for i, v := range traj {
			ms = append(ms, sc(fmt.Sprintf("blocking_t%d", i), v))
		}
		return ms
	}
	t.Fatalf("legacyMeasures: no oracle for discipline %q", s.Discipline)
	return nil
}

func loadCorpus(t *testing.T) map[string]*scenario.Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty scenario corpus")
	}
	specs := make(map[string]*scenario.Spec, len(files))
	for _, f := range files {
		raw, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Decode(raw)
		raw.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		specs[filepath.Base(f)] = s
	}
	return specs
}

// reportEntry is one corpus spec's outcome in the CI artifact. Values
// are hex-exact (strconv 'x') so the report is diffable across runs
// and immune to JSON's NaN/Inf marshaling limits.
type reportEntry struct {
	File       string   `json:"file"`
	Discipline string   `json:"discipline"`
	Key        string   `json:"key"`
	Match      bool     `json:"match"`
	Measures   []string `json:"measures"`
	Mismatch   string   `json:"mismatch,omitempty"`
}

// TestCorpusConformance is the CI scenario-conformance gate: every
// checked-in spec must cover a registered discipline, evaluate through
// scenario.Evaluate, and agree bit-for-bit with the legacy entry
// points.
func TestCorpusConformance(t *testing.T) {
	specs := loadCorpus(t)
	covered := make(map[string]bool)
	var report []reportEntry

	files := make([]string, 0, len(specs))
	for f := range specs {
		files = append(files, f)
	}
	sort.Strings(files)

	e := scenario.New(scenario.Options{})
	for _, f := range files {
		s := specs[f]
		covered[s.Discipline] = true
		entry := reportEntry{File: f, Discipline: s.Discipline, Key: s.Key()}

		got, err := e.Evaluate(s)
		if err != nil {
			entry.Mismatch = fmt.Sprintf("Evaluate: %v", err)
			report = append(report, entry)
			t.Errorf("%s: Evaluate: %v", f, err)
			continue
		}
		want := legacyMeasures(t, s)
		entry.Match = true
		for _, m := range got.Measures {
			entry.Measures = append(entry.Measures, fmt.Sprintf("%s=%s:%s", m.Name,
				strconv.FormatFloat(m.Value, 'x', -1, 64),
				strconv.FormatFloat(m.HalfWidth, 'x', -1, 64)))
		}
		if len(got.Measures) != len(want) {
			entry.Match = false
			entry.Mismatch = fmt.Sprintf("measure count %d, legacy %d", len(got.Measures), len(want))
		} else {
			for i, m := range got.Measures {
				w := want[i]
				// Bit-identity: compare the exact float encodings, which
				// (unlike ==) also holds NaN to NaN.
				if m.Name != w.Name ||
					strconv.FormatFloat(m.Value, 'x', -1, 64) != strconv.FormatFloat(w.Value, 'x', -1, 64) ||
					strconv.FormatFloat(m.HalfWidth, 'x', -1, 64) != strconv.FormatFloat(w.HalfWidth, 'x', -1, 64) {
					entry.Match = false
					entry.Mismatch = fmt.Sprintf("measure %d: got %s=%v±%v, legacy %s=%v±%v",
						i, m.Name, m.Value, m.HalfWidth, w.Name, w.Value, w.HalfWidth)
					break
				}
			}
		}
		if !entry.Match {
			t.Errorf("%s: %s", f, entry.Mismatch)
		}
		report = append(report, entry)
	}

	for _, d := range scenario.Disciplines() {
		if !covered[d] {
			t.Errorf("corpus has no spec for discipline %q", d)
		}
	}

	if *conformanceReport != "" {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*conformanceReport, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdapterPropertyPins strengthens the corpus with programmatic
// sweeps: several operating points per discipline, each pinned
// bit-identical to the legacy path.
func TestAdapterPropertyPins(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	e := scenario.New(scenario.Options{})
	var specs []*scenario.Spec
	for _, load := range []float64{0.2, 0.5, 0.95} {
		specs = append(specs,
			&scenario.Spec{Discipline: "slotted", Topology: scenario.Topology{N1: 8, N2: 12},
				Params: scenario.Params{Load: load}, Sim: scenario.Sim{Seed: 11, Slots: 400}},
			&scenario.Spec{Discipline: "clos", Topology: scenario.Topology{M: 4, N: 3, R: 3},
				Params: scenario.Params{Load: load, Mu: 1, Policy: "random-try"},
				Sim:    scenario.Sim{Seed: 12, Warmup: 10, Horizon: 100}},
			&scenario.Spec{Discipline: "inputq", Topology: scenario.Topology{N1: 4},
				Params: scenario.Params{Load: load, Policy: "output-queued"},
				Sim:    scenario.Sim{Seed: 13, Slots: 400, QueueCap: 64}},
			&scenario.Spec{Discipline: "minnet", Topology: scenario.Topology{N1: 8},
				Params: scenario.Params{Load: load}, Sim: scenario.Sim{Seed: 14, Slots: 400}},
			&scenario.Spec{Discipline: "hotspot", Topology: scenario.Topology{N1: 6, N2: 6},
				Params: scenario.Params{Lambda: 12 * load, Mu: 1, HotFraction: 0.4}},
		)
	}
	specs = append(specs,
		&scenario.Spec{Discipline: "wdm", Topology: scenario.Topology{L: 2, W: 4},
			Params: scenario.Params{Rate: 2, CrossRate: 0.5, Mu: 1},
			Sim:    scenario.Sim{Seed: 15, Warmup: 10, Horizon: 100}},
		&scenario.Spec{Discipline: "overflow", Topology: scenario.Topology{N1: 6},
			Params: scenario.Params{Lambda: 30, Mu: 1, SecondaryN: 4},
			Sim:    scenario.Sim{Seed: 16, Warmup: 10, Horizon: 150}},
		&scenario.Spec{Discipline: "retrial", Topology: scenario.Topology{N1: 4, N2: 4},
			Params: scenario.Params{Lambda: 12, Mu: 1, RetryRate: 3, MaxAttempts: 2},
			Sim:    scenario.Sim{Seed: 17, Warmup: 10, Horizon: 150}},
		&scenario.Spec{Discipline: "link", Topology: scenario.Topology{C: 10},
			Classes: []scenario.Class{{A: 1, Alpha: 4, Mu: 1}, {A: 2, Alpha: 1, Beta: 0.3, Mu: 0.5}}},
		&scenario.Spec{Discipline: "transient", Topology: scenario.Topology{N1: 3, N2: 3},
			Classes: []scenario.Class{{A: 1, Alpha: 0.4, Mu: 1}},
			Params:  scenario.Params{Class: 0, Times: []float64{0.5, 2}}},
	)
	for i, s := range specs {
		got, err := e.Evaluate(s)
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, s.Discipline, err)
		}
		want := legacyMeasures(t, s)
		if len(got.Measures) != len(want) {
			t.Fatalf("spec %d (%s): %d measures, legacy %d", i, s.Discipline, len(got.Measures), len(want))
		}
		for j := range want {
			g, w := got.Measures[j], want[j]
			if g != w {
				t.Errorf("spec %d (%s) measure %d: got %+v, legacy %+v", i, s.Discipline, j, g, w)
			}
		}
		e.PutResult(got)
	}
}

// TestOverflowSmoothPeakednessFits pins the overflow fits on a run
// whose measured peakedness falls below 1: the benchmark's overflow
// spec at sim seed 5 (z ~ 0.997). Its smooth fit has a non-integer
// Bernoulli population, which used to fail the whole spec with a 422;
// overflow.FitOverflow takes such a z as 1, so the BPP measures are
// the Poisson ones and the adapter still matches the legacy entry
// points bit for bit.
func TestOverflowSmoothPeakednessFits(t *testing.T) {
	const raw = `{
  "discipline": "overflow",
  "topology": {"n1": 8},
  "params": {"lambda": 40, "mu": 1, "secondary_n": 6},
  "sim": {"seed": 5, "warmup": 30, "horizon": 300}
}`
	s, err := scenario.Decode(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.New(scenario.Options{}).Evaluate(s)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	m := make(map[string]float64)
	for _, ms := range got.Measures {
		m[ms.Name] = ms.Value
	}
	if z := m["overflow_peakedness"]; !(z > 0 && z < 1) {
		t.Fatalf("overflow_peakedness %v, want a measured z in (0, 1)", z)
	}
	if m["bpp_secondary_blocking"] != m["poisson_secondary_blocking"] {
		t.Errorf("bpp_secondary_blocking %v, want the Poisson fit's %v",
			m["bpp_secondary_blocking"], m["poisson_secondary_blocking"])
	}
	cc, err := overflow.SecondaryBPPCallCongestion(6, m["overflow_mean"], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m["bpp_call_congestion"] != cc {
		t.Errorf("bpp_call_congestion %v, want the Poisson fit's %v", m["bpp_call_congestion"], cc)
	}
	want := legacyMeasures(t, s)
	if len(got.Measures) != len(want) {
		t.Fatalf("%d measures, legacy %d", len(got.Measures), len(want))
	}
	for j := range want {
		if got.Measures[j] != want[j] {
			t.Errorf("measure %d: got %+v, legacy %+v", j, got.Measures[j], want[j])
		}
	}
}
