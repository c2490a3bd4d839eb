package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"path"
	"sort"

	"xbar/internal/core"
	"xbar/internal/revenue"
	"xbar/internal/rng"
	"xbar/internal/scenario"
	"xbar/internal/server"
)

// corpus is a frozen copy of the scenario corpus (one spec per
// discipline variant), so the benchmark's inputs do not move when the
// repository's test corpus does.
//
//go:embed scenarios/*.json
var corpus embed.FS

// Server defaults the working sets are sized against (server.Config).
const (
	defaultScenarioCacheSize = 64
	defaultMaxDim            = 1024
)

// request is one distinct request body of a workload's pool.
type request struct {
	path string
	body []byte
	// keys are the solver-cache entries (indices into workload.keys)
	// the request resolves to; nil for requests that fill no lattice.
	keys []int
	// sw is the request's switch on /v1/blocking bodies (for the spot
	// check against core.Solve, core.SolveMVA or core.SolveAuto, by alg)
	// and on dispatch:"auto" bodies (for the replay leg).
	sw  *core.Switch
	alg string
	// auto marks dispatch:"auto" bodies sized for the asymptotic tier.
	auto bool
	// spec is the decoded body of a /v1/scenario request.
	spec *scenario.Spec
}

// fillKey is one distinct solver-cache entry: an algorithm and the
// switch its lattice is filled for.
type fillKey struct {
	alg string
	sw  core.Switch
}

// arrivals selects the BPP arrival process of the open-loop phase by
// its peakedness: Z < 1 smooth (Bernoulli), Z = 1 Poisson, Z > 1 peaky
// (Pascal).
type arrivals struct {
	kind string
	z    float64
}

// workload is one named traffic mix: a pool of distinct requests, their
// popularity, the set-up warm pass and the offered load.
type workload struct {
	name    string
	rate    float64 // offered req/s in the open-loop phase
	arrival arrivals
	nodes   int
	pool    []request
	weight  []float64 // popularity of each pool entry (unnormalized)
	hot     []int     // pool indices sent once each in set-up, in order
	keys    []fillKey
}

// workloadDef is a workload's fixed description; build draws its
// inputs from the seed.
type workloadDef struct {
	name    string
	rate    float64
	arrival arrivals
	nodes   int
	build   func(st *rng.Stream) (*workload, error)
}

// Offered rates are a fifth to a quarter of each workload's closed-loop
// peak_rps on the reference host (2 CPUs, the parent commit). At half
// the peak the open-loop queue on this host swings so much from run to
// run that p50 and p99 move by more than any bound worth gating on.
// BENCHMARK.json records the rates.
var workloadDefs = []workloadDef{
	{name: "admit-hot", rate: 3000, arrival: arrivals{"peaky", 2}, nodes: 1, build: buildAdmitHot},
	{name: "whatif-churn", rate: 400, arrival: arrivals{"poisson", 1}, nodes: 1, build: buildWhatif},
	{name: "tiers-mix", rate: 1000, arrival: arrivals{"smooth", 0.5}, nodes: 1, build: buildTiers},
	{name: "fleet-churn", rate: 400, arrival: arrivals{"poisson", 1}, nodes: 3, build: buildWhatif},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// makeWorkload draws the workload's inputs from seed. fleet-churn
// builds with the same stream tag as whatif-churn, so the two replay
// identical inputs.
func makeWorkload(def workloadDef, seed uint64) (*workload, error) {
	tag := def.name
	if tag == "fleet-churn" {
		tag = "whatif-churn"
	}
	wl, err := def.build(rng.NewStream(seed ^ hashString(tag)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	wl.name, wl.rate, wl.arrival, wl.nodes = def.name, def.rate, def.arrival, def.nodes
	return wl, nil
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// uniform returns a draw from [lo, hi).
func uniform(st *rng.Stream, lo, hi float64) float64 { return lo + (hi-lo)*st.Float64() }

// Class kinds, by the sign of beta.
const (
	smooth = iota
	poisson
	peaky
)

// routeClass draws one class in per-route units whose light-load port
// utilization is about util: alpha = util*mu*(1-b)*n1 / (a*C(n1,a)*C(n2,a)).
func routeClass(st *rng.Stream, kind, a, n1, n2 int, util float64) server.ClassSpec {
	mu := uniform(st, 0.5, 2)
	routes := binom(n1, a) * binom(n2, a)
	c := server.ClassSpec{A: a, Mu: mu}
	switch kind {
	case smooth:
		c.Alpha = util * mu * float64(n1) / (float64(a) * routes)
		// Bernoulli population S = -alpha/beta = 2*max(n1, n2).
		c.Beta = -c.Alpha / float64(2*max(n1, n2))
	case poisson:
		c.Alpha = util * mu * float64(n1) / (float64(a) * routes)
	case peaky:
		b := uniform(st, 0.2, 0.6)
		c.Alpha = util * mu * (1 - b) * float64(n1) / (float64(a) * routes)
		c.Beta = b * mu
	}
	return c
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// toSwitch converts a route-units spec the way the server does.
func toSwitch(spec server.SwitchSpec) core.Switch {
	sw := core.Switch{N1: spec.N1, N2: spec.N2, Classes: make([]core.Class, len(spec.Classes))}
	for i, c := range spec.Classes {
		sw.Classes[i] = core.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
	}
	return sw
}

func (wl *workload) add(r request, weight float64) int {
	wl.pool = append(wl.pool, r)
	wl.weight = append(wl.weight, weight)
	return len(wl.pool) - 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every body is a plain struct of numbers and strings.
		panic(err)
	}
	return b
}

func weightsFor(st *rng.Stream, classes []server.ClassSpec) []float64 {
	w := make([]float64, len(classes))
	for i, c := range classes {
		w[i] = uniform(st, 0.5, 2) * float64(c.A)
	}
	return w
}

// buildAdmitHot: 12 operating points, N in {16,32,48,64} with 1-4
// classes mixing smooth, Poisson and peaky traffic (one class of every
// other point has a=2), equally popular. 70% /v1/admission
// (profitability), 20% /v1/blocking, 10% /v1/revenue. Every point is in
// the hot set, so after set-up every request is a cache hit. The seed
// draws the traffic parameters; the sizes and class counts are fixed,
// so every seed costs the server about the same per request.
func buildAdmitHot(st *rng.Stream) (*workload, error) {
	wl := &workload{}
	ns := []int{16, 32, 48, 64}
	const points = 12
	for p := 0; p < points; p++ {
		n := ns[p/3]
		nc := 1 + p%4
		util := uniform(st, 0.4, 0.8) / float64(nc)
		spec := server.SwitchSpec{N1: n, N2: n, Units: "route"}
		for j := 0; j < nc; j++ {
			a := 1
			if j == 1 && p%2 == 0 {
				a = 2
			}
			spec.Classes = append(spec.Classes, routeClass(st, (p+j)%3, a, n, n, util))
		}
		sw := toSwitch(spec)
		if err := sw.Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", p, err)
		}
		key := len(wl.keys)
		wl.keys = append(wl.keys, fillKey{alg: "alg1", sw: sw})
		weights := weightsFor(st, spec.Classes)
		for j := 0; j < nc; j++ {
			wl.add(request{
				path: "/v1/admission",
				body: mustJSON(server.AdmissionRequest{SwitchSpec: spec, Class: j, Weights: weights}),
				keys: []int{key},
			}, 0.7/float64(points*nc))
		}
		b := wl.add(request{
			path: "/v1/blocking",
			body: mustJSON(server.BlockingRequest{SwitchSpec: spec}),
			keys: []int{key}, sw: &sw, alg: "alg1",
		}, 0.2/points)
		wl.hot = append(wl.hot, b)
		wl.add(request{
			path: "/v1/revenue",
			body: mustJSON(server.RevenueRequest{SwitchSpec: spec, Weights: weights}),
			keys: []int{key},
		}, 0.1/points)
	}
	return wl, nil
}

// Whatif working set: 2 algorithms x 20 model families x 4 beta
// variants = 160 distinct fill keys, 2.5x the default CacheSize: more
// than one node's cache, less than a 3-node fleet's.
const (
	whatifFamilies = 20
	whatifVariants = 4
)

// buildWhatif: capacity-planning queries over base N in
// {64,96,128,160}. 50% /v1/grid (8-32 points of beta and N deltas),
// 20% /v1/sweep (16-64 sub-sizes), 30% /v1/blocking (alg1 and alg2),
// family popularity Zipf(0.8) by rank. The hot set is the 32 most
// popular fill keys (half the default cache). Sizes stop at 160: with
// 256 among them the 3-node fleet's caches peaked above 1 GB of heap.
func buildWhatif(st *rng.Stream) (*workload, error) {
	wl := &workload{}
	algs := []string{"alg1", "alg2"}
	baseNs := []int{64, 96, 128, 160}
	type family struct {
		spec  server.SwitchSpec
		betas [whatifVariants]float64 // class 0 beta per variant
	}
	fams := make([]family, whatifFamilies)
	for f := range fams {
		n := baseNs[f%len(baseNs)]
		nc := 1 + (f/len(baseNs))%3
		util := uniform(st, 0.5, 0.9) / float64(nc)
		spec := server.SwitchSpec{N1: n, N2: n, Units: "route"}
		for j := 0; j < nc; j++ {
			// Class kinds cycle with the rank, not the seed: they set
			// a fill's cost.
			kind := peaky
			if j > 0 {
				kind = (f + j) % 3
			}
			spec.Classes = append(spec.Classes, routeClass(st, kind, 1, n, n, util))
		}
		mu := spec.Classes[0].Mu
		fams[f].betas[0] = spec.Classes[0].Beta
		for v := 1; v < whatifVariants; v++ {
			fams[f].betas[v] = fams[f].betas[0] + float64(v)*0.08*mu
		}
		fams[f].spec = spec
	}
	variantSpec := func(f, v int) server.SwitchSpec {
		spec := fams[f].spec
		spec.Classes = append([]server.ClassSpec(nil), spec.Classes...)
		spec.Classes[0].Beta = fams[f].betas[v]
		return spec
	}
	keyOf := func(a, f, v int) int { return (a*whatifFamilies+f)*whatifVariants + v }
	for _, alg := range algs {
		for f := range fams {
			for v := 0; v < whatifVariants; v++ {
				wl.keys = append(wl.keys, fillKey{alg: alg, sw: toSwitch(variantSpec(f, v))})
			}
		}
	}
	for _, k := range wl.keys {
		if err := k.sw.Validate(); err != nil {
			return nil, err
		}
	}
	keyPop := make([]float64, len(wl.keys))
	blocking := make([]int, len(wl.keys))
	for a, alg := range algs {
		for f := range fams {
			n := fams[f].spec.N1
			// Family f has popularity rank f (Zipf 0.8); the sizes and
			// class counts cycle with the rank, so every seed puts the
			// same weight on each size.
			fw := 0.5 / math.Pow(float64(f+1), 0.8) // two algorithms, equally likely
			for v := 0; v < whatifVariants; v++ {
				k := keyOf(a, f, v)
				sw := wl.keys[k].sw
				blocking[k] = wl.add(request{
					path: "/v1/blocking",
					body: mustJSON(server.BlockingRequest{SwitchSpec: variantSpec(f, v), Algorithm: alg}),
					keys: []int{k}, sw: &sw, alg: alg,
				}, fw*0.3/whatifVariants)
				keyPop[k] += fw * 0.3 / whatifVariants
			}
			sweep := server.SweepRequest{SwitchSpec: fams[f].spec, Algorithm: alg}
			// Request shapes (point counts, variant counts, variants)
			// cycle with the rank like the sizes do; the seed draws
			// the points.
			for i, m := 0, 16+16*((f+a)%4); i < m; i++ {
				sweep.Points = append(sweep.Points, server.SweepPoint{N1: 1 + st.Intn(n), N2: 1 + st.Intn(n)})
			}
			wl.add(request{path: "/v1/sweep", body: mustJSON(sweep), keys: []int{keyOf(a, f, 0)}}, fw*0.2)
			keyPop[keyOf(a, f, 0)] += fw * 0.2
			for t := 0; t < 2; t++ {
				nv, total := 2+(f+t+a)%3, 8+8*((f+2*t+a)%4)
				g, keys := whatifGrid(st, fams[f].spec, fams[f].betas[:], alg, nv, total, f+t+a)
				for i := range keys {
					keys[i] = keyOf(a, f, keys[i])
					keyPop[keys[i]] += fw * 0.25
				}
				wl.add(request{path: "/v1/grid", body: mustJSON(g), keys: keys}, fw*0.25)
			}
		}
	}
	// Set-up fills every key once, least popular first, so that a
	// node's cache ends up holding the most popular keys it serves and
	// the open loop starts near steady state, not with a burst of fills
	// that would land in whichever windows come first.
	hot := make([]int, len(wl.keys))
	for i := range hot {
		hot[i] = i
	}
	sort.SliceStable(hot, func(i, j int) bool { return keyPop[hot[i]] < keyPop[hot[j]] })
	for _, k := range hot {
		wl.hot = append(wl.hot, blocking[k])
	}
	return wl, nil
}

// whatifGrid draws one /v1/grid body: nv beta variants (always the
// base one, then nv-1 of the other three, starting at rot), each with a
// base-size point (so every group fills at the base dimensions) plus
// sub-size points, total points in all. It returns the variant indices
// used. The variants are not drawn from the seed: which keys the grids
// touch sets every key's popularity, and with it the solver cache's
// hit ratio, so every seed gets the same.
func whatifGrid(st *rng.Stream, base server.SwitchSpec, betas []float64, alg string, nv, total, rot int) (server.GridRequest, []int) {
	vs := []int{0}
	for i := 0; i < nv-1; i++ {
		vs = append(vs, 1+(rot+i)%3)
	}
	n := base.N1
	g := server.GridRequest{SwitchSpec: base, Algorithm: alg}
	for i := 0; i < total; i++ {
		v := vs[i%len(vs)]
		p := server.GridPoint{}
		if i >= len(vs) {
			p.N1, p.N2 = 1+st.Intn(n), 1+st.Intn(n)
		}
		if v != 0 {
			b := betas[v]
			p.Classes = []server.GridClassDelta{{Class: 0, Beta: &b}}
		}
		g.Points = append(g.Points, p)
	}
	return g, vs
}

// Scenario seeds per simulated corpus spec: 9 simulated specs x 13
// seeds + overflow + 3 analytic specs = 121 distinct specs, about 2x
// the default ScenarioCacheSize.
const scenarioSeeds = 13

// buildTiers: 50% /v1/scenario over the corpus crossed with a seed set,
// 50% dispatch:"auto" /v1/blocking and /v1/admission at N above the
// default MaxDim (1024), up to 65536, each one the asymptotic tier
// answers within the default tolerance. Uniform popularity. The hot
// set is 32 scenario specs (half the default scenario cache).
func buildTiers(st *rng.Stream) (*workload, error) {
	wl := &workload{}
	files, err := corpus.ReadDir("scenarios")
	if err != nil {
		return nil, err
	}
	var specs []*scenario.Spec
	for _, f := range files {
		data, err := corpus.ReadFile(path.Join("scenarios", f.Name()))
		if err != nil {
			return nil, err
		}
		var base scenario.Spec
		if err := json.Unmarshal(data, &base); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		if base.Sim.Seed == 0 || base.Discipline == "overflow" {
			// Analytic specs have no seed. overflow keeps its corpus
			// seed: on about one seed in four its simulated overflow
			// stream fits a smooth BPP class whose Bernoulli population
			// is not an integer, and the server answers 422.
			specs = append(specs, &base)
			continue
		}
		for i := 0; i < scenarioSeeds; i++ {
			s := base
			s.Sim.Seed = 1 + st.Uint64()%1_000_000_000
			specs = append(specs, &s)
		}
	}
	lim := scenario.Limits{MaxDim: defaultMaxDim, MaxClasses: 64}
	for i, s := range specs {
		if err := s.Validate(lim); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for n, i := range order {
		idx := wl.add(request{path: "/v1/scenario", body: mustJSON(specs[i]), spec: specs[i]}, 0.5/float64(len(specs)))
		if n < defaultScenarioCacheSize/2 {
			wl.hot = append(wl.hot, idx)
		}
	}

	const perKind = 32
	sizes := []int{1536, 2048, 4096, 8192, 16384, 32768, 65536}
	auto := core.DispatchOptions{Policy: core.DispatchAuto}
	var nBlock, nAdmit int
	for attempt := 0; nBlock+nAdmit < 2*perKind; attempt++ {
		if attempt > 100*perKind {
			return nil, fmt.Errorf("found only %d+%d asymptotic-tier inputs", nBlock, nAdmit)
		}
		n1 := sizes[st.Intn(len(sizes))]
		n2 := n1
		if st.Intn(3) == 0 {
			n2 = sizes[st.Intn(len(sizes))]
		}
		nc := 1 + st.Intn(3)
		util := uniform(st, 0.6, 1.1) / float64(nc)
		spec := server.SwitchSpec{N1: n1, N2: n2, Units: "route"}
		for j := 0; j < nc; j++ {
			spec.Classes = append(spec.Classes, routeClass(st, st.Intn(3), 1+st.Intn(2), n1, n2, util))
		}
		admit := st.Intn(2) == 0
		sw := toSwitch(spec)
		if sw.Validate() != nil {
			continue
		}
		if _, ok, err := core.TryAsymptotic(sw, auto); err != nil || !ok {
			continue
		}
		d := server.DispatchSpec{Dispatch: "auto"}
		switch {
		case admit && nAdmit < perKind:
			weights := weightsFor(st, spec.Classes)
			class := st.Intn(nc)
			an, err := revenue.NewAsymptotic(sw, weights)
			if err != nil {
				continue
			}
			if _, err := an.ShadowCost(class); err != nil {
				continue
			}
			wl.add(request{
				path: "/v1/admission", auto: true, sw: &sw,
				body: mustJSON(server.AdmissionRequest{SwitchSpec: spec, DispatchSpec: d, Class: class, Weights: weights}),
			}, 0.5/(2*perKind))
			nAdmit++
		case !admit && nBlock < perKind:
			wl.add(request{
				path: "/v1/blocking", auto: true, sw: &sw, alg: "auto",
				body: mustJSON(server.BlockingRequest{SwitchSpec: spec, DispatchSpec: d}),
			}, 0.5/(2*perKind))
			nBlock++
		}
	}
	return wl, nil
}
