package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"

	"xbar/internal/admission"
	"xbar/internal/core"
	"xbar/internal/floats"
	"xbar/internal/grid"
	"xbar/internal/revenue"
)

// ClassSpec is one traffic class of a request. Alpha and Beta are
// interpreted per SwitchSpec.Units: aggregate ("tilde", the paper's
// numerical convention and the default) or per-route.
type ClassSpec struct {
	Name  string  `json:"name,omitempty"`
	A     int     `json:"a"`
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta,omitempty"`
	Mu    float64 `json:"mu"`
}

// SwitchSpec is the model every /v1 request carries.
type SwitchSpec struct {
	N1      int         `json:"n1"`
	N2      int         `json:"n2"`
	Units   string      `json:"units,omitempty"` // "aggregate" (default) or "route"
	Classes []ClassSpec `json:"classes"`
}

// apiError carries an HTTP status with a client-facing message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// prologue is what every SwitchSpec endpoint derives from its request
// before its own validation: the raw body (forwarding proxies it
// verbatim), the normalized algorithm, the dispatch policy and the
// validated switch.
type prologue struct {
	body []byte
	alg  string
	opt  *core.DispatchOptions
	sw   core.Switch
}

// begin reads the body and decodes it into req (unknown fields and
// trailing data rejected), then normalizes alg (nil: the endpoint
// always runs Algorithm 1), parses the dispatch spec d and builds spec,
// in that order; nil d or spec skips the step. The first failure is
// the reply.
func (s *Server) begin(w http.ResponseWriter, r *http.Request,
	req any, alg *string, d *DispatchSpec, spec *SwitchSpec) (p prologue, err error) {
	if p.body, err = s.readBody(w, r); err != nil {
		return p, err
	}
	dec := json.NewDecoder(bytes.NewReader(p.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return p, badRequest("invalid JSON: %v", err)
	}
	if dec.More() {
		return p, badRequest("trailing data after JSON body")
	}
	p.alg = alg1
	if alg != nil {
		switch *alg { // the accepted spellings of the cache's two identifiers
		case "", alg1, "algorithm1":
		case alg2, "algorithm2":
			p.alg = alg2
		default:
			return p, badRequest("algorithm %q, want alg1 or alg2", *alg)
		}
	}
	if d != nil {
		if p.opt, err = s.parseDispatch(*d); err != nil {
			return p, err
		}
	}
	if spec != nil {
		p.sw, err = s.buildSwitchFor(*spec, p.opt)
	}
	return p, err
}

// buildSwitchFor validates a SwitchSpec against the server limits under
// a dispatch policy (the dimension cap follows the policy, checkDims)
// and the model constraints, and converts it to per-route units. Every
// float is checked finite up front — the solvers' nanguard domain
// preconditions (finite, validated inputs) are enforced at the edge.
func (s *Server) buildSwitchFor(spec SwitchSpec, opt *core.DispatchOptions) (core.Switch, error) {
	if spec.N1 < 1 || spec.N2 < 1 {
		return core.Switch{}, badRequest("switch dimensions %dx%d, must be >= 1x1", spec.N1, spec.N2)
	}
	if err := s.checkDims(spec.N1, spec.N2, opt); err != nil {
		return core.Switch{}, err
	}
	if len(spec.Classes) == 0 {
		return core.Switch{}, badRequest("no traffic classes")
	}
	if len(spec.Classes) > s.cfg.MaxClasses {
		return core.Switch{}, badRequest("%d traffic classes exceed the server limit %d", len(spec.Classes), s.cfg.MaxClasses)
	}
	for i, c := range spec.Classes {
		if !finite(c.Alpha) || !finite(c.Beta) || !finite(c.Mu) {
			return core.Switch{}, badRequest("class %d (%s): alpha, beta and mu must be finite", i, c.Name)
		}
		if c.A < 1 {
			return core.Switch{}, badRequest("class %d (%s): a = %d, must be >= 1", i, c.Name, c.A)
		}
	}
	var sw core.Switch
	switch spec.Units {
	case "", "aggregate":
		agg := make([]core.AggregateClass, len(spec.Classes))
		for i, c := range spec.Classes {
			agg[i] = core.AggregateClass{Name: c.Name, A: c.A, AlphaTilde: c.Alpha, BetaTilde: c.Beta, Mu: c.Mu}
		}
		sw = core.NewSwitch(spec.N1, spec.N2, agg...)
	case "route":
		classes := make([]core.Class, len(spec.Classes))
		for i, c := range spec.Classes {
			classes[i] = core.Class{Name: c.Name, A: c.A, Alpha: c.Alpha, Beta: c.Beta, Mu: c.Mu}
		}
		sw = core.Switch{N1: spec.N1, N2: spec.N2, Classes: classes}
	default:
		return core.Switch{}, badRequest("units %q, want \"aggregate\" or \"route\"", spec.Units)
	}
	if err := sw.Validate(); err != nil {
		return core.Switch{}, &apiError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return sw, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkWeights validates one finite revenue rate per class.
func checkWeights(weights []float64, classes int) error {
	if len(weights) != classes {
		return badRequest("%d weights for %d classes", len(weights), classes)
	}
	for i, wt := range weights {
		if !finite(wt) {
			return badRequest("weight %d is not finite", i)
		}
	}
	return nil
}

// ClassResult is one class's measures in a response, in request class
// order. Names are echoed from the request, not the cache: cache keys
// canonicalize names away.
type ClassResult struct {
	Name        string  `json:"name,omitempty"`
	A           int     `json:"a"`
	Blocking    float64 `json:"blocking"`
	NonBlocking float64 `json:"non_blocking"`
	Concurrency float64 `json:"concurrency"`
	Throughput  float64 `json:"throughput"`
	// ErrorBound is the asymptotic tier's self-reported relative-error
	// bound for this class's measures; present only on asymptotic
	// answers.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

func classResults(spec SwitchSpec, res *core.Result) []ClassResult {
	out := make([]ClassResult, len(res.Blocking))
	for i := range out {
		out[i] = ClassResult{
			Name:        spec.Classes[i].Name,
			A:           spec.Classes[i].A,
			Blocking:    res.Blocking[i],
			NonBlocking: res.NonBlocking[i],
			Concurrency: res.Concurrency[i],
			Throughput:  res.Throughput(i),
		}
		if res.ErrorBound != nil {
			out[i].ErrorBound = res.ErrorBound[i]
		}
	}
	return out
}

// plan is one request's operating points on their way through the
// tiers, in request point order.
type plan struct {
	prologue
	points []core.Switch
	asym   []*core.Result // the asymptotic answer by point; nil on exact points
	groups []exactGroup
}

// exactGroup is one canonical class set (grid.ClassKey) among a
// request's exact points: every member is read off one cache entry,
// filled at the members' componentwise maximum dimensions. key is that
// entry's cache key, set by exact once the plan is complete.
type exactGroup struct {
	class   string
	key     string
	sw      core.Switch
	members []int // point indices
}

// addPoint decides one point's tier. Under a dispatch policy an
// asymptotic answer is kept and the point joins no group, so one huge
// point cannot inflate a group's fill (the grid.Engine rule); every
// other point joins its class group, which keeps the first member's
// classes and so its cache key.
func (s *Server) addPoint(pl *plan, sw core.Switch) error {
	res, ok, err := s.tryAsymptotic(sw, pl.opt)
	if err != nil {
		return err
	}
	i := len(pl.points)
	pl.points, pl.asym = append(pl.points, sw), append(pl.asym, res)
	if ok {
		return nil
	}
	class := grid.ClassKey(sw.Classes)
	for j := range pl.groups {
		if g := &pl.groups[j]; g.class == class {
			g.sw.N1, g.sw.N2 = max(g.sw.N1, sw.N1), max(g.sw.N2, sw.N2)
			g.members = append(g.members, i)
			return nil
		}
	}
	pl.groups = append(pl.groups, exactGroup{class: class, sw: sw, members: []int{i}})
	return nil
}

// exact is the one exact path of the SwitchSpec endpoints. It keys
// every group's entry, then places the groups on their ring owners
// (maybeForward): a request whose groups one peer owns is forwarded
// whole (done reports that the peer's reply is written). Otherwise
// each group this node serves has its entry resolved, locked, handed to
// read with its member indices, unlocked and released, one entry at a
// time in group order; a group another peer owns goes to remote, and
// when that fails it is read here like the others (a failover). Only a
// plan of two or more groups is ever split, so one-group callers pass
// a nil remote. A request with no exact point touches no entry.
func (s *Server) exact(w http.ResponseWriter, r *http.Request, pl *plan,
	read func(e *solverEntry, cached bool, members []int) error,
	remote func(owner string, g exactGroup) error) (done bool, err error) {
	for i := range pl.groups {
		pl.groups[i].key = cacheKey(pl.alg, pl.groups[i].sw)
	}
	owners, done := s.maybeForward(w, r, pl.body, pl.groups)
	if done {
		return true, nil
	}
	for i, g := range pl.groups {
		if owners != nil && owners[i] != "" {
			err := remote(owners[i], g)
			if err == nil {
				continue
			}
			s.cluster.Metrics().RecordFailover()
			s.cfg.logf("cluster: group %d of %s to %s failed (%v); serving it locally", i, r.URL.Path, owners[i], err)
		}
		if err := s.readEntry(r.Context(), pl.alg, g, read); err != nil {
			return false, err
		}
	}
	return false, nil
}

// readEntry resolves one group's entry (a fill on a miss), locks it and
// reads it. The unlock and release are deferred so that they also run
// when read panics (a revenue gradient's out-of-domain re-solve).
func (s *Server) readEntry(ctx context.Context, alg string, g exactGroup,
	read func(e *solverEntry, cached bool, members []int) error) error {
	e, cached, err := s.cache.get(ctx, g.key, alg, g.sw)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return overloaded(err)
	}
	if err != nil {
		return unprocessable("%v", err)
	}
	defer s.cache.release(e)
	if err := e.lock(ctx); err != nil {
		return overloaded(err)
	}
	defer e.unlock()
	return read(e, cached, g.members)
}

// answer is a single-point request's answer: the asymptotic result (e
// nil), or the exact point's locked entry and its result.
type answer struct {
	res    *core.Result
	tier   string // as the reply names it; empty on the legacy exact path
	e      *solverEntry
	cached bool
}

// servePoint runs a single-point request through the exact path and
// hands its answer to read.
func (s *Server) servePoint(w http.ResponseWriter, r *http.Request, p prologue,
	read func(answer) error) (done bool, err error) {
	pl := &plan{prologue: p}
	if err := s.addPoint(pl, p.sw); err != nil {
		return false, err
	}
	if res := pl.asym[0]; res != nil {
		return false, read(answer{res: res, tier: res.Tier})
	}
	return s.exact(w, r, pl, func(e *solverEntry, cached bool, _ []int) error {
		return read(answer{res: e.resultAt(p.sw.N1, p.sw.N2), tier: exactTier(p.opt), e: e, cached: cached})
	}, nil) // one group: never split
}

// reply writes resp as the 200 reply unless the exact path failed or
// already answered by forwarding.
func (s *Server) reply(w http.ResponseWriter, resp any, done bool, err error) error {
	if done || err != nil {
		return err
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// overloaded maps context expiry (solver slot, in-flight fill or
// entry-lock wait) onto 503 so load balancers retry elsewhere.
func overloaded(err error) error {
	return &apiError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("overloaded: %v", err)}
}

// BlockingRequest is the POST /v1/blocking body.
type BlockingRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string `json:"algorithm,omitempty"`
}

// BlockingResponse is the POST /v1/blocking reply. Tier is present
// when the request carried a dispatch policy and names the tier that
// answered ("exact" or "asymptotic").
type BlockingResponse struct {
	N1          int           `json:"n1"`
	N2          int           `json:"n2"`
	Method      string        `json:"method"`
	Tier        string        `json:"tier,omitempty"`
	LogG        float64       `json:"log_g"`
	Utilization float64       `json:"utilization"`
	Cached      bool          `json:"cached"`
	Classes     []ClassResult `json:"classes"`
}

func (s *Server) handleBlocking(w http.ResponseWriter, r *http.Request) error {
	var req BlockingRequest
	p, err := s.begin(w, r, &req, &req.Algorithm, &req.DispatchSpec, &req.SwitchSpec)
	if err != nil {
		return err
	}
	var resp BlockingResponse
	done, err := s.servePoint(w, r, p, func(a answer) error {
		resp = BlockingResponse{
			N1: p.sw.N1, N2: p.sw.N2,
			Method:      a.res.Method,
			Tier:        a.tier,
			LogG:        a.res.LogG,
			Utilization: a.res.Utilization(),
			Cached:      a.cached,
			Classes:     classResults(req.SwitchSpec, a.res),
		}
		return nil
	})
	return s.reply(w, resp, done, err)
}

// RevenueRequest is the POST /v1/revenue body. Weights must carry one
// revenue rate per class. Gradients requests the numerical
// dW/d(beta/mu) central differences for bursty classes on top of the
// closed-form dW/drho — they cost extra lattice fills per bursty
// class, the in-lattice reads do not.
type RevenueRequest struct {
	SwitchSpec
	DispatchSpec
	Weights   []float64 `json:"weights"`
	Gradients bool      `json:"gradients,omitempty"`
	Step      float64   `json:"step,omitempty"`
}

// gradient reports whether class c gets the numerical dW/d(beta/mu):
// requested, bursty, and on a switch large enough to difference.
func (req *RevenueRequest) gradient(sw core.Switch, c core.Class) bool {
	return req.Gradients && !c.IsPoisson() && sw.MinN() >= 2
}

// ClassRevenue is one class's revenue measures.
type ClassRevenue struct {
	Name          string   `json:"name,omitempty"`
	Weight        float64  `json:"weight"`
	ShadowCost    float64  `json:"shadow_cost"`
	Profitable    bool     `json:"profitable"`
	GradRhoClosed float64  `json:"grad_rho_closed"`
	GradBetaMu    *float64 `json:"grad_beta_mu,omitempty"`
	// ErrorBound is the asymptotic tier's relative-error bound on the
	// class's underlying measures (see revenue.AsymAnalysis on what it
	// does and does not certify); present only on asymptotic answers.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// RevenueResponse is the POST /v1/revenue reply. Tier is present when
// the request carried a dispatch policy.
type RevenueResponse struct {
	N1      int            `json:"n1"`
	N2      int            `json:"n2"`
	W       float64        `json:"w"`
	Tier    string         `json:"tier,omitempty"`
	Cached  bool           `json:"cached"`
	Classes []ClassRevenue `json:"classes"`
}

func (s *Server) handleRevenue(w http.ResponseWriter, r *http.Request) error {
	var req RevenueRequest
	p, err := s.begin(w, r, &req, nil, &req.DispatchSpec, &req.SwitchSpec)
	if err != nil {
		return err
	}
	sw := p.sw
	if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
		return err
	}
	step := req.Step
	if floats.Zero(step) {
		step = 1e-4 // omitted (or numerically zero): the default
	}
	if !finite(step) || step <= 0 || step > 0.1 {
		return badRequest("step %v, want 0 < step <= 0.1", req.Step)
	}
	var resp RevenueResponse
	done, err := s.servePoint(w, r, p, func(a answer) (err error) {
		if a.e == nil {
			resp, err = asymRevenue(&req, sw, step)
			return err
		}
		// Revenue rides the Algorithm 1 cache: the analysis's in-lattice
		// reads run on the entry; its gradient re-solves are lattice
		// fills of their own and hold a solver slot. The slot is taken
		// under the entry lock, never the other way round: a slot
		// holder never waits for an entry lock, so the two cannot
		// deadlock.
		an, err := revenue.NewWithSweep(a.e.sweep, req.Weights, s.cfg.fillOptions())
		if err != nil {
			return badRequest("%v", err)
		}
		if slices.ContainsFunc(sw.Classes, func(c core.Class) bool { return req.gradient(sw, c) }) {
			release, err := s.sem.acquire(r.Context())
			if err != nil {
				return overloaded(err)
			}
			defer release()
		}
		resp = RevenueResponse{N1: sw.N1, N2: sw.N2, W: an.W(), Tier: a.tier, Cached: a.cached}
		for i, c := range sw.Classes {
			cr := ClassRevenue{
				Name:          req.Classes[i].Name,
				Weight:        req.Weights[i],
				ShadowCost:    an.ShadowCost(i),
				Profitable:    an.Profitable(i),
				GradRhoClosed: an.GradientRhoClosed(i),
			}
			if req.gradient(sw, c) {
				g := an.GradientBetaMu(i, step)
				cr.GradBetaMu = &g
			}
			resp.Classes = append(resp.Classes, cr)
		}
		return nil
	})
	return s.reply(w, resp, done, err)
}

// AdmissionRequest is the POST /v1/admission body: should a class-r
// request be accepted? Two policies:
//
//   - "profitability" (default): accept iff w_r exceeds the shadow
//     cost DeltaW_r(N) — the paper's Section 4 economics. Requires
//     Weights; served off the Algorithm 1 cache.
//   - "reservation": trunk reservation — accept iff the
//     post-acceptance occupancy stays within Limits[r], given the
//     current per-class connection counts State (default: empty
//     switch). Pure arithmetic, no solve.
type AdmissionRequest struct {
	SwitchSpec
	DispatchSpec
	Class   int       `json:"class"`
	Policy  string    `json:"policy,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	Limits  []int     `json:"limits,omitempty"`
	State   []int     `json:"state,omitempty"`
}

// AdmissionResponse is the POST /v1/admission reply. Tier is present
// when the request carried a dispatch policy and a solve ran (the
// reservation policy is pure arithmetic — no tier).
type AdmissionResponse struct {
	Accept     bool     `json:"accept"`
	Policy     string   `json:"policy"`
	Class      int      `json:"class"`
	Tier       string   `json:"tier,omitempty"`
	Weight     *float64 `json:"weight,omitempty"`
	ShadowCost *float64 `json:"shadow_cost,omitempty"`
	Occupancy  *int     `json:"occupancy,omitempty"`
	Cached     bool     `json:"cached"`
}

func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) error {
	var req AdmissionRequest
	p, err := s.begin(w, r, &req, nil, &req.DispatchSpec, &req.SwitchSpec)
	if err != nil {
		return err
	}
	sw := p.sw
	if req.Class < 0 || req.Class >= len(sw.Classes) {
		return badRequest("class %d of %d", req.Class, len(sw.Classes))
	}
	switch req.Policy {
	case "", "profitability":
		if len(req.Weights) != len(sw.Classes) {
			return badRequest("profitability policy wants %d weights, got %d", len(sw.Classes), len(req.Weights))
		}
		if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
			return err
		}
		resp := AdmissionResponse{Policy: "profitability", Class: req.Class, Weight: &req.Weights[req.Class]}
		done, err := s.servePoint(w, r, p, func(a answer) error {
			var shadow float64
			if a.e == nil {
				an, err := revenue.NewAsymptotic(sw, req.Weights)
				if err != nil {
					return unprocessable("asymptotic tier: %v", err)
				}
				if shadow, err = an.ShadowCost(req.Class); err != nil {
					return unprocessable("asymptotic tier: %v", err)
				}
			} else {
				an, err := revenue.NewWithSweep(a.e.sweep, req.Weights)
				if err != nil {
					return badRequest("%v", err)
				}
				shadow = an.ShadowCost(req.Class)
			}
			resp.Accept, resp.Tier, resp.ShadowCost, resp.Cached = req.Weights[req.Class] > shadow, a.tier, &shadow, a.cached
			return nil
		})
		return s.reply(w, resp, done, err)
	case "reservation":
		if len(req.Limits) != len(sw.Classes) {
			return badRequest("reservation policy wants %d limits, got %d", len(sw.Classes), len(req.Limits))
		}
		state := req.State
		if state == nil {
			state = make([]int, len(sw.Classes))
		}
		if len(state) != len(sw.Classes) {
			return badRequest("state wants %d per-class counts, got %d", len(sw.Classes), len(state))
		}
		for i, k := range state {
			if k < 0 {
				return badRequest("state[%d] = %d is negative", i, k)
			}
		}
		occ := sw.OccupancyOf(state)
		if occ > sw.MinN() {
			return badRequest("state occupies %d of %d ports", occ, sw.MinN())
		}
		policy, err := admission.TrunkReservation(sw, req.Limits)
		if err != nil {
			return badRequest("%v", err)
		}
		// The policy admits within the reservation limit; port
		// contention still rejects when the switch itself is full.
		accept := policy(state, req.Class) && occ+sw.Classes[req.Class].A <= sw.MinN()
		s.writeJSON(w, http.StatusOK, AdmissionResponse{
			Accept: accept, Policy: "reservation", Class: req.Class, Occupancy: &occ,
		})
		return nil
	}
	return badRequest("policy %q, want profitability or reservation", req.Policy)
}

// SweepPoint selects one sub-switch of a sweep.
type SweepPoint struct {
	N1 int `json:"n1"`
	N2 int `json:"n2"`
}

// SweepRequest is the POST /v1/sweep body: one lattice fill at
// (N1, N2), results for every requested sub-size with the same
// per-route classes (core.SweepSolver semantics — aggregate loads are
// converted once at the full size, not re-normalized per point).
// Empty Points means the square diagonal (1,1)..(minN,minN). Weights,
// when present, adds the revenue W at every point.
type SweepRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string       `json:"algorithm,omitempty"`
	Points    []SweepPoint `json:"points,omitempty"`
	Weights   []float64    `json:"weights,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply. Each result's tier is
// decided per point, so one sweep can mix exact small sizes with
// asymptotic large ones.
type SweepResponse struct {
	N1      int           `json:"n1"`
	N2      int           `json:"n2"`
	Method  string        `json:"method"`
	Cached  bool          `json:"cached"`
	Results []PointResult `json:"results"`
}

// handleSweep serves a sweep as a one-group grid: every sub-switch
// carries the full switch's per-route classes, so its exact points
// share one entry — at their maximum dimensions under a dispatch
// policy, at the full switch without one.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req SweepRequest
	p, err := s.begin(w, r, &req, &req.Algorithm, &req.DispatchSpec, &req.SwitchSpec)
	if err != nil {
		return err
	}
	sw := p.sw
	points := req.Points
	if len(points) == 0 {
		points = make([]SweepPoint, sw.MinN())
		for i := range points {
			points[i] = SweepPoint{N1: i + 1, N2: i + 1}
		}
	}
	if len(points) > s.cfg.MaxSweepPoints {
		return badRequest("%d sweep points exceed the server limit %d", len(points), s.cfg.MaxSweepPoints)
	}
	for _, pt := range points {
		if pt.N1 < 1 || pt.N2 < 1 || pt.N1 > sw.N1 || pt.N2 > sw.N2 {
			return badRequest("sweep point %dx%d outside the %dx%d lattice", pt.N1, pt.N2, sw.N1, sw.N2)
		}
	}
	if req.Weights != nil {
		if err := checkWeights(req.Weights, len(sw.Classes)); err != nil {
			return err
		}
	}
	pl := &plan{prologue: p}
	for _, pt := range points {
		if err := s.addPoint(pl, core.Switch{N1: pt.N1, N2: pt.N2, Classes: sw.Classes}); err != nil {
			return err
		}
	}
	if pl.opt == nil {
		pl.groups[0].sw = sw
	}
	g, done, err := s.gridReply(w, r, pl, req.DispatchSpec, req.Weights)
	resp := SweepResponse{N1: sw.N1, N2: sw.N2, Method: g.Method, Cached: g.Cached > 0, Results: g.Results}
	return s.reply(w, resp, done, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	s.writeJSON(w, http.StatusOK, s.metricsSnapshot())
	return nil
}
