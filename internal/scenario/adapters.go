package scenario

import (
	"fmt"
	"sort"

	"xbar/internal/clos"
	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/hotspot"
	"xbar/internal/inputq"
	"xbar/internal/link"
	"xbar/internal/minnet"
	"xbar/internal/overflow"
	"xbar/internal/retrial"
	"xbar/internal/slotted"
	"xbar/internal/statespace"
	"xbar/internal/stats"
	"xbar/internal/transient"
	"xbar/internal/wdm"
)

// discipline is one adapter: strict validation plus evaluation against
// the legacy package. eval may assume the spec validated; it returns
// the full measure set in the discipline's documented order.
type discipline struct {
	validate validator
	eval     func(e *Engine, s *Spec) ([]Measure, error)
}

// disciplines is the adapter registry — one entry per legacy scenario
// package. docs/SCENARIOS.md carries the table in prose.
var disciplines = map[string]discipline{
	"slotted":   {validateSlotted, evalSlotted},
	"clos":      {validateClos, evalClos},
	"wdm":       {validateWDM, evalWDM},
	"overflow":  {validateOverflow, evalOverflow},
	"retrial":   {validateRetrial, evalRetrial},
	"hotspot":   {validateHotspot, evalHotspot},
	"inputq":    {validateInputq, evalInputq},
	"minnet":    {validateMinnet, evalMinnet},
	"link":      {validateLink, evalLink},
	"transient": {validateTransient, evalTransient},
}

// Disciplines returns the registered discipline names, sorted.
func Disciplines() []string {
	names := make([]string, 0, len(disciplines))
	for name := range disciplines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// scalar and ci build the two measure flavours.
func scalar(name string, v float64) Measure { return Measure{Name: name, Value: v} }

func ci(name string, c stats.CI) Measure {
	return Measure{Name: name, Value: c.Mean, HalfWidth: c.HalfWidth}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rejectSimExtras flags the generic simulation fields when the spec
// carries no active simulation — they would otherwise fragment the
// canonical key without changing the result.
func rejectSimExtras(s *Spec, fe *fieldErrs) {
	if s.Sim.Seed != 0 {
		fe.addf("sim.seed", "set without an active simulation")
	}
	if !floats.Zero(s.Sim.Warmup) {
		fe.addf("sim.warmup", "set without an active simulation")
	}
	if s.Sim.Batches != 0 {
		fe.addf("sim.batches", "set without an active simulation")
	}
}

// closPolicy, wdmAssignment and inputqPolicy map the spec's policy
// string onto the legacy enums; empty selects each package's default.
func closPolicy(s string) (clos.Policy, bool) {
	switch s {
	case "", "random-available":
		return clos.RandomAvailable, true
	case "first-fit":
		return clos.FirstFit, true
	case "random-try":
		return clos.RandomTry, true
	}
	return 0, false
}

func wdmAssignment(s string) (wdm.Assignment, bool) {
	switch s {
	case "", "first-fit":
		return wdm.FirstFit, true
	case "random-fit":
		return wdm.RandomFit, true
	}
	return 0, false
}

func inputqPolicy(s string) (inputq.Discipline, bool) {
	switch s {
	case "", "input-queued":
		return inputq.InputQueued, true
	case "output-queued":
		return inputq.OutputQueued, true
	}
	return 0, false
}

// ---------------------------------------------------------------- slotted

func validateSlotted(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1", "n2"},
		params:   []string{"load"},
		sim:      []string{"seed", "slots"},
	}, fe)
	lm := firstLim(
		checkDim("topology.n1", s.Topology.N1, 1, lim.MaxDim, fe),
		checkDim("topology.n2", s.Topology.N2, 1, lim.MaxDim, fe))
	checkUnitLoad("params.load", s.Params.Load, fe)
	lm = firstLim(lm, checkSlotSim(lim, s.Topology.N1+s.Topology.N2, s.Sim.Slots, false, fe))
	if s.Sim.Slots == 0 && s.Sim.Seed != 0 {
		fe.addf("sim.seed", "set without sim.slots")
	}
	return lm
}

func evalSlotted(_ *Engine, s *Spec) ([]Measure, error) {
	n, m, p := s.Topology.N1, s.Topology.N2, s.Params.Load
	thr, err := slotted.Throughput(n, m, p)
	if err != nil {
		return nil, err
	}
	acc, err := slotted.AcceptanceProbability(n, m, p)
	if err != nil {
		return nil, err
	}
	ms := []Measure{scalar("throughput", thr), scalar("acceptance", acc)}
	if s.Sim.Slots > 0 {
		r, err := slotted.Simulate(n, m, p, s.Sim.Slots, s.Sim.Seed)
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			ci("sim_per_output", r.PerOutput),
			ci("sim_acceptance", r.Acceptance),
			scalar("sim_offered", float64(r.Offered)))
	}
	return ms, nil
}

// ------------------------------------------------------------------- clos

func validateClos(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"m", "n", "r"},
		params:   []string{"load", "mu"},
		policy:   true,
		sim:      []string{"seed", "warmup", "horizon", "batches"},
	}, fe)
	t := s.Topology
	lm := firstLim(
		checkDim("topology.m", t.M, 1, lim.MaxDim, fe),
		checkDim("topology.n", t.N, 1, lim.MaxDim, fe),
		checkDim("topology.r", t.R, 1, lim.MaxDim, fe))
	checkUnitLoad("params.load", s.Params.Load, fe)
	if s.Sim.Horizon > 0 {
		checkPositive("params.mu", s.Params.Mu, fe)
		if _, ok := closPolicy(s.Params.Policy); !ok {
			fe.addf("params.policy", "%q (want random-available, first-fit or random-try)", s.Params.Policy)
		}
	} else {
		rejectSimExtras(s, fe)
		if !floats.Zero(s.Params.Mu) {
			fe.addf("params.mu", "only read when sim.horizon > 0")
		}
		if s.Params.Policy != "" {
			fe.addf("params.policy", "only read when sim.horizon > 0")
		}
	}
	rate := s.Params.Load * float64(t.N*t.R) * s.Params.Mu
	return firstLim(lm, checkEventSim(s, lim, rate, false, fe))
}

func evalClos(_ *Engine, s *Spec) ([]Measure, error) {
	net := clos.Network{M: s.Topology.M, N: s.Topology.N, R: s.Topology.R}
	lee, err := net.LeeBlocking(s.Params.Load)
	if err != nil {
		return nil, err
	}
	ms := []Measure{
		scalar("nonblocking_strict", b2f(net.StrictSenseNonblocking())),
		scalar("crosspoints", float64(net.Crosspoints())),
		scalar("crossbar_crosspoints", float64(net.CrossbarCrosspoints())),
		scalar("lee_blocking", lee),
	}
	if s.Sim.Horizon > 0 {
		pol, _ := closPolicy(s.Params.Policy)
		r, err := clos.Simulate(net, clos.SimConfig{
			PerInputLoad: s.Params.Load,
			Mu:           s.Params.Mu,
			Policy:       pol,
			Seed:         s.Sim.Seed,
			Warmup:       s.Sim.Warmup,
			Horizon:      s.Sim.Horizon,
			Batches:      s.Sim.Batches,
		})
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			ci("sim_call_blocking", r.CallBlocking),
			ci("sim_internal_blocking", r.InternalBlocking),
			scalar("sim_link_utilization", r.LinkUtilization),
			scalar("sim_events", float64(r.Events)))
	}
	return ms, nil
}

// -------------------------------------------------------------------- wdm

func validateWDM(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"l", "w"},
		params:   []string{"rate", "cross_rate", "mu"},
		policy:   true,
		conv:     true,
		sim:      []string{"seed", "warmup", "horizon", "batches"},
	}, fe)
	t := s.Topology
	lm := firstLim(
		checkDim("topology.l", t.L, 1, lim.MaxDim, fe),
		checkDim("topology.w", t.W, 1, lim.MaxDim, fe))
	checkPositive("params.rate", s.Params.Rate, fe)
	checkPositive("params.mu", s.Params.Mu, fe)
	checkNonNegative("params.cross_rate", s.Params.CrossRate, fe)
	if s.Sim.Horizon > 0 {
		if _, ok := wdmAssignment(s.Params.Policy); !ok {
			fe.addf("params.policy", "%q (want first-fit or random-fit)", s.Params.Policy)
		}
	} else {
		rejectSimExtras(s, fe)
		if s.Params.Policy != "" {
			fe.addf("params.policy", "only read when sim.horizon > 0")
		}
		if s.Params.Converters {
			fe.addf("params.converters", "only read when sim.horizon > 0")
		}
	}
	rate := s.Params.Rate + s.Params.CrossRate*float64(t.L)
	return firstLim(lm, checkEventSim(s, lim, rate, false, fe))
}

func evalWDM(_ *Engine, s *Spec) ([]Measure, error) {
	p := wdm.Path{
		L:         s.Topology.L,
		W:         s.Topology.W,
		Rate:      s.Params.Rate,
		CrossRate: s.Params.CrossRate,
		Mu:        s.Params.Mu,
	}
	conv, err := p.ConversionBlocking()
	if err != nil {
		return nil, err
	}
	cont, err := p.ContinuityBlocking()
	if err != nil {
		return nil, err
	}
	gain, err := wdm.ConversionGain(p)
	if err != nil {
		return nil, err
	}
	ms := []Measure{
		scalar("conversion_blocking", conv),
		scalar("continuity_blocking", cont),
		scalar("link_utilization", p.LinkUtilization()),
		scalar("conversion_gain", gain),
	}
	if s.Sim.Horizon > 0 {
		asg, _ := wdmAssignment(s.Params.Policy)
		r, err := wdm.Simulate(p, wdm.SimConfig{
			Converters: s.Params.Converters,
			Assignment: asg,
			Seed:       s.Sim.Seed,
			Warmup:     s.Sim.Warmup,
			Horizon:    s.Sim.Horizon,
			Batches:    s.Sim.Batches,
		})
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			ci("sim_e2e_blocking", r.EndToEndBlocking),
			ci("sim_cross_blocking", r.CrossBlocking),
			scalar("sim_utilization", r.Utilization),
			scalar("sim_events", float64(r.Events)))
	}
	return ms, nil
}

// --------------------------------------------------------------- overflow

func validateOverflow(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1"},
		params:   []string{"lambda", "mu", "secondary_n"},
		sim:      []string{"seed", "warmup", "horizon", "batches"},
	}, fe)
	lm := firstLim(
		checkDim("topology.n1", s.Topology.N1, 1, lim.MaxDim, fe),
		checkDim("params.secondary_n", s.Params.SecondaryN, 1, lim.MaxDim, fe))
	checkPositive("params.lambda", s.Params.Lambda, fe)
	checkPositive("params.mu", s.Params.Mu, fe)
	return firstLim(lm, checkEventSim(s, lim, 2*s.Params.Lambda, true, fe))
}

func evalOverflow(e *Engine, s *Spec) ([]Measure, error) {
	sn, mu := s.Params.SecondaryN, s.Params.Mu
	r, err := overflow.Run(overflow.Config{
		PrimaryN:   s.Topology.N1,
		SecondaryN: sn,
		Lambda:     s.Params.Lambda,
		Mu:         mu,
		Seed:       s.Sim.Seed,
		Warmup:     s.Sim.Warmup,
		Horizon:    s.Sim.Horizon,
		Batches:    s.Sim.Batches,
	})
	if err != nil {
		return nil, err
	}
	ms := []Measure{
		ci("sim_primary_blocking", r.PrimaryBlocking),
		ci("sim_secondary_blocking", r.SecondaryBlocking),
		scalar("overflow_mean", r.OverflowMean),
		scalar("overflow_peakedness", r.OverflowPeakedness),
		scalar("sim_events", float64(r.Events)),
	}
	// The Wilkinson chain needs a measurable overflow stream; a run
	// whose primary never blocked has nothing to fit.
	mean, z := r.OverflowMean, r.OverflowPeakedness
	if mean > 0 && z > 0 {
		// Both fits route through the shared grid engine — the same
		// lattice fill path as /v1/grid points — pinned bit-identical
		// to overflow.SecondaryBPPApprox by the property tests.
		bppRes, err := e.solveSecondary(sn, mean, z, mu)
		if err != nil {
			return nil, err
		}
		poisRes, err := e.solveSecondary(sn, mean, 1, mu)
		if err != nil {
			return nil, err
		}
		cc, err := overflow.SecondaryBPPCallCongestion(sn, mean, z, mu)
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			scalar("bpp_secondary_blocking", bppRes),
			scalar("poisson_secondary_blocking", poisRes),
			scalar("bpp_call_congestion", cc))
	}
	return ms, nil
}

// solveSecondary is the grid-routed core of overflow.SecondaryBPPApprox:
// fit a BPP source to the measured overflow (mean, z; overflow.FitOverflow
// takes a z below 1 as 1) and solve the secondary crossbar's product
// form.
func (e *Engine) solveSecondary(secondaryN int, mean, z, mu float64) (float64, error) {
	src, err := overflow.FitOverflow(mean, z, mu)
	if err != nil {
		return 0, err
	}
	routes := float64(secondaryN * secondaryN)
	sw := core.Switch{N1: secondaryN, N2: secondaryN, Classes: []core.Class{{
		Name: "overflow", A: 1,
		Alpha: src.Alpha / routes, Beta: src.Beta / routes, Mu: mu,
	}}}
	res, err := e.solve(sw)
	if err != nil {
		return 0, err
	}
	return res.Blocking[0], nil
}

// ---------------------------------------------------------------- retrial

func validateRetrial(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1", "n2"},
		params:   []string{"lambda", "mu", "retry_rate", "max_attempts"},
		sim:      []string{"seed", "warmup", "horizon", "batches"},
	}, fe)
	lm := firstLim(
		checkDim("topology.n1", s.Topology.N1, 1, lim.MaxDim, fe),
		checkDim("topology.n2", s.Topology.N2, 1, lim.MaxDim, fe))
	checkPositive("params.lambda", s.Params.Lambda, fe)
	checkPositive("params.mu", s.Params.Mu, fe)
	attempts := s.Params.MaxAttempts
	if attempts < 0 {
		fe.addf("params.max_attempts", "%d, must be >= 0 (0 defaults to 1)", attempts)
		attempts = 1
	}
	if attempts == 0 {
		attempts = 1
	}
	if attempts > 1 {
		checkPositive("params.retry_rate", s.Params.RetryRate, fe)
	} else if !floats.Zero(s.Params.RetryRate) {
		fe.addf("params.retry_rate", "ignored when max_attempts <= 1")
	}
	rate := s.Params.Lambda * float64(attempts)
	return firstLim(lm, checkEventSim(s, lim, rate, true, fe))
}

func evalRetrial(e *Engine, s *Spec) ([]Measure, error) {
	n1, n2 := s.Topology.N1, s.Topology.N2
	r, err := retrial.Run(retrial.Config{
		N1:          n1,
		N2:          n2,
		Lambda:      s.Params.Lambda,
		Mu:          s.Params.Mu,
		RetryRate:   s.Params.RetryRate,
		MaxAttempts: s.Params.MaxAttempts,
		Seed:        s.Sim.Seed,
		Warmup:      s.Sim.Warmup,
		Horizon:     s.Sim.Horizon,
		Batches:     s.Sim.Batches,
	})
	if err != nil {
		return nil, err
	}
	// The cleared anchor is the same product form retrial.ClearedBlocking
	// solves, grid-routed (pinned by the property tests).
	sw := core.Switch{N1: n1, N2: n2, Classes: []core.Class{{
		A: 1, Alpha: s.Params.Lambda / float64(n1*n2), Mu: s.Params.Mu,
	}}}
	res, err := e.solve(sw)
	if err != nil {
		return nil, err
	}
	return []Measure{
		ci("sim_abandonment", r.Abandonment),
		ci("sim_first_attempt_blocking", r.FirstAttemptBlocking),
		scalar("mean_attempts", r.MeanAttempts),
		scalar("mean_orbit", r.MeanOrbit),
		ci("sim_concurrency", r.Concurrency),
		scalar("sim_events", float64(r.Events)),
		scalar("cleared_blocking", res.Blocking[0]),
	}, nil
}

// ---------------------------------------------------------------- hotspot

func validateHotspot(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1", "n2"},
		params:   []string{"lambda", "mu", "hot_fraction"},
		sim:      []string{"seed", "warmup", "horizon", "batches"},
	}, fe)
	lm := firstLim(
		checkDim("topology.n1", s.Topology.N1, 1, lim.MaxDim, fe),
		checkDim("topology.n2", s.Topology.N2, 2, lim.MaxDim, fe))
	checkPositive("params.lambda", s.Params.Lambda, fe)
	checkPositive("params.mu", s.Params.Mu, fe)
	checkUnitLoad("params.hot_fraction", s.Params.HotFraction, fe)
	if s.Sim.Horizon <= 0 {
		rejectSimExtras(s, fe)
	}
	return firstLim(lm, checkEventSim(s, lim, s.Params.Lambda, false, fe))
}

func evalHotspot(_ *Engine, s *Spec) ([]Measure, error) {
	m := hotspot.Model{
		N1:          s.Topology.N1,
		N2:          s.Topology.N2,
		Lambda:      s.Params.Lambda,
		Mu:          s.Params.Mu,
		HotFraction: s.Params.HotFraction,
	}
	res, err := hotspot.Solve(m)
	if err != nil {
		return nil, err
	}
	ms := []Measure{
		scalar("hot_nonblocking", res.HotNonBlocking),
		scalar("cold_nonblocking", res.ColdNonBlocking),
		scalar("nonblocking", res.NonBlocking),
		scalar("hot_utilization", res.HotUtilization),
		scalar("mean_busy", res.MeanBusy),
	}
	if s.Sim.Horizon > 0 {
		sr, err := hotspot.Simulate(m, hotspot.SimConfig{
			Seed:    s.Sim.Seed,
			Warmup:  s.Sim.Warmup,
			Horizon: s.Sim.Horizon,
			Batches: s.Sim.Batches,
		})
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			ci("sim_hot_blocking", sr.HotBlocking),
			ci("sim_cold_blocking", sr.ColdBlocking),
			ci("sim_all_blocking", sr.AllBlocking),
			ci("sim_mean_busy", sr.MeanBusy),
			scalar("sim_events", float64(sr.Events)))
	}
	return ms, nil
}

// ----------------------------------------------------------------- inputq

func validateInputq(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1"},
		params:   []string{"load"},
		policy:   true,
		sim:      []string{"seed", "slots", "queue_cap"},
	}, fe)
	lm := checkDim("topology.n1", s.Topology.N1, 1, lim.MaxDim, fe)
	checkUnitLoad("params.load", s.Params.Load, fe)
	if _, ok := inputqPolicy(s.Params.Policy); !ok {
		fe.addf("params.policy", "%q (want input-queued or output-queued)", s.Params.Policy)
	}
	if s.Sim.QueueCap < 0 {
		fe.addf("sim.queue_cap", "%d, must be >= 0 (0 = package default)", s.Sim.QueueCap)
	}
	return firstLim(lm, checkSlotSim(lim, 2*s.Topology.N1, s.Sim.Slots, true, fe))
}

func evalInputq(_ *Engine, s *Spec) ([]Measure, error) {
	d, _ := inputqPolicy(s.Params.Policy)
	r, err := inputq.Run(inputq.Config{
		N:          s.Topology.N1,
		Load:       s.Params.Load,
		Discipline: d,
		Slots:      s.Sim.Slots,
		QueueCap:   s.Sim.QueueCap,
		Seed:       s.Sim.Seed,
	})
	if err != nil {
		return nil, err
	}
	return []Measure{
		scalar("saturation_hol", inputq.SaturationHOL()),
		ci("throughput", r.Throughput),
		scalar("mean_delay", r.MeanDelay),
		scalar("dropped", float64(r.Dropped)),
		scalar("delivered", float64(r.Delivered)),
	}, nil
}

// ----------------------------------------------------------------- minnet

func validateMinnet(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1"},
		params:   []string{"load"},
		sim:      []string{"seed", "slots"},
	}, fe)
	n := s.Topology.N1
	lm := checkDim("topology.n1", n, 2, lim.MaxDim, fe)
	if n >= 2 && n&(n-1) != 0 {
		fe.addf("topology.n1", "%d, an omega network needs a power of two", n)
	}
	checkUnitLoad("params.load", s.Params.Load, fe)
	lm = firstLim(lm, checkSlotSim(lim, 2*n, s.Sim.Slots, false, fe))
	if s.Sim.Slots == 0 && s.Sim.Seed != 0 {
		fe.addf("sim.seed", "set without sim.slots")
	}
	return lm
}

func evalMinnet(_ *Engine, s *Spec) ([]Measure, error) {
	n, p := s.Topology.N1, s.Params.Load
	rec, err := minnet.Recursion(n, p)
	if err != nil {
		return nil, err
	}
	adv, err := minnet.CrossbarAdvantage(n, p)
	if err != nil {
		return nil, err
	}
	ms := []Measure{
		scalar("recursion_throughput", rec),
		scalar("crossbar_advantage", adv),
	}
	if s.Sim.Slots > 0 {
		r, err := minnet.Simulate(n, p, s.Sim.Slots, s.Sim.Seed)
		if err != nil {
			return nil, err
		}
		ms = append(ms,
			ci("sim_per_output", r.PerOutput),
			scalar("sim_delivered", float64(r.Delivered)),
			scalar("sim_offered", float64(r.Offered)))
	}
	return ms, nil
}

// ------------------------------------------------------------------- link

func validateLink(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"c"},
		classes:  true,
	}, fe)
	lm := checkDim("topology.c", s.Topology.C, 1, lim.MaxDim, fe)
	return firstLim(lm, checkClasses(s, lim, fe))
}

func evalLink(_ *Engine, s *Spec) ([]Measure, error) {
	classes := make([]link.Class, len(s.Classes))
	for i, c := range s.Classes {
		classes[i] = link.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
	}
	res, err := link.Solve(link.Link{C: s.Topology.C, Classes: classes})
	if err != nil {
		return nil, err
	}
	ms := make([]Measure, 0, 2*len(s.Classes))
	for i := range s.Classes {
		ms = append(ms, scalar(fmt.Sprintf("blocking_%d", i), res.Blocking[i]))
	}
	for i := range s.Classes {
		ms = append(ms, scalar(fmt.Sprintf("concurrency_%d", i), res.Concurrency[i]))
	}
	return ms, nil
}

// -------------------------------------------------------------- transient

func validateTransient(s *Spec, lim Limits, fe *fieldErrs) *LimitError {
	rejectUnused(s, usage{
		topology: []string{"n1", "n2"},
		params:   []string{"class"},
		classes:  true,
		times:    true,
	}, fe)
	t := s.Topology
	lm := firstLim(
		checkDim("topology.n1", t.N1, 1, lim.MaxDim, fe),
		checkDim("topology.n2", t.N2, 1, lim.MaxDim, fe),
		checkClasses(s, lim, fe),
		checkTimes(s, lim, fe))
	if c := s.Params.Class; c < 0 || c >= len(s.Classes) {
		fe.addf("params.class", "%d outside the class list [0, %d)", c, len(s.Classes))
	}
	if lm == nil && len(fe.fields) == 0 {
		minN := t.N1
		if t.N2 < minN {
			minN = t.N2
		}
		if bound := stateBound(minN, s.Classes); bound > float64(lim.MaxStates) {
			lm = &LimitError{Field: "topology", Msg: fmt.Sprintf(
				"state-space bound %.3g exceeds the limit %d", bound, lim.MaxStates)}
		}
	}
	return lm
}

func evalTransient(e *Engine, s *Spec) ([]Measure, error) {
	classes := make([]core.Class, len(s.Classes))
	for i, c := range s.Classes {
		classes[i] = core.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
	}
	sw := core.Switch{N1: s.Topology.N1, N2: s.Topology.N2, Classes: classes}
	chain, err := statespace.NewChain(sw, e.lim.MaxStates)
	if err != nil {
		return nil, err
	}
	pi0, err := transient.EmptyStart(chain)
	if err != nil {
		return nil, err
	}
	// Bound uniformization work by the engine's event budget: each
	// series step is one dense |S| x |S| matrix-vector product, so the
	// step cap is the budget divided by the state count. Converged
	// series are unaffected (the cap only cuts off divergence), which
	// keeps the result bit-identical to the legacy default.
	steps := int(e.lim.MaxEvents / float64(len(chain.States)))
	if steps < 64 {
		steps = 64
	}
	traj, err := transient.BlockingTrajectory(chain, pi0, s.Params.Class, s.Params.Times, transient.Options{MaxSteps: steps})
	if err != nil {
		return nil, err
	}
	ms := make([]Measure, len(traj))
	for i, v := range traj {
		ms[i] = scalar(fmt.Sprintf("blocking_t%d", i), v)
	}
	return ms, nil
}
