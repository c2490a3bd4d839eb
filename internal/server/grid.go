package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"xbar/internal/core"
)

// GridClassDelta overrides selected parameters of one base class for
// one grid point. Nil fields keep the base value; the overrides are in
// the request's units (aggregate or route, per SwitchSpec.Units).
type GridClassDelta struct {
	Class int      `json:"class"`
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`
	Mu    *float64 `json:"mu,omitempty"`
}

// GridPoint is one point of a batched evaluation, described relative
// to the request's base switch: zero dimensions keep the base
// dimension, and Classes lists the parameters that moved. The empty
// GridPoint is the base switch itself.
type GridPoint struct {
	N1      int              `json:"n1,omitempty"`
	N2      int              `json:"n2,omitempty"`
	Classes []GridClassDelta `json:"classes,omitempty"`
}

// GridRequest is the POST /v1/grid body: a base switch plus per-point
// deltas — the wire form of a parameter grid (a figure's curve family,
// an optimizer's line search). Points that canonicalize to the same
// per-route model, or that differ only in dimensions, share one
// lattice fill through the solver cache. Weights, when present, adds
// the revenue W at every point.
type GridRequest struct {
	SwitchSpec
	DispatchSpec
	Algorithm string      `json:"algorithm,omitempty"`
	Points    []GridPoint `json:"points"`
	Weights   []float64   `json:"weights,omitempty"`
}

// PointResult is one point of a sweep or grid reply, in request point
// order. Blocking and Concurrency are in request class order. (No
// throughput here: grid points sharing a fill may differ in mu, and
// blocking, concurrency and W are the mu-invariant measures.) Tier is
// present when the request carried a dispatch policy — decided per
// point — and ErrorBound accompanies asymptotic points.
type PointResult struct {
	N1          int       `json:"n1"`
	N2          int       `json:"n2"`
	Tier        string    `json:"tier,omitempty"`
	Blocking    []float64 `json:"blocking"`
	Concurrency []float64 `json:"concurrency"`
	ErrorBound  []float64 `json:"error_bound,omitempty"`
	W           *float64  `json:"w,omitempty"`
}

// GridResponse is the POST /v1/grid reply. Models counts the distinct
// lattice fills the batch reduced to; Cached counts how many of those
// were already resident in (or in flight on) the solver cache;
// Asymptotic counts the points the saddle-point tier answered without
// any lattice.
type GridResponse struct {
	Method     string        `json:"method"`
	Points     int           `json:"points"`
	Models     int           `json:"models"`
	Cached     int           `json:"cached"`
	Asymptotic int           `json:"asymptotic,omitempty"`
	Results    []PointResult `json:"results"`
}

// gridSwitch materializes and validates one point's switch. Deltas
// apply to the spec (pre-conversion), so aggregate-units loads are
// re-normalized against the point's own dimensions, exactly as if the
// client had sent the materialized spec to /v1/blocking.
func (s *Server) gridSwitch(base SwitchSpec, p GridPoint, opt *core.DispatchOptions) (core.Switch, error) {
	spec := base
	if p.N1 != 0 {
		spec.N1 = p.N1
	}
	if p.N2 != 0 {
		spec.N2 = p.N2
	}
	if len(p.Classes) > 0 {
		spec.Classes = append([]ClassSpec(nil), base.Classes...)
		for _, d := range p.Classes {
			if d.Class < 0 || d.Class >= len(spec.Classes) {
				return core.Switch{}, badRequest("class delta index %d out of range [0,%d)", d.Class, len(spec.Classes))
			}
			c := &spec.Classes[d.Class]
			if d.Alpha != nil {
				c.Alpha = *d.Alpha
			}
			if d.Beta != nil {
				c.Beta = *d.Beta
			}
			if d.Mu != nil {
				c.Mu = *d.Mu
			}
		}
	}
	return s.buildSwitchFor(spec, opt)
}

// pointError prefixes a client-facing error with the offending point's
// index, preserving its status code.
func pointError(i int, err error) error {
	var api *apiError
	if errors.As(err, &api) {
		return &apiError{code: api.code, msg: fmt.Sprintf("point %d: %s", i, api.msg)}
	}
	return err
}

// pointRow builds one sweep or grid reply row. The measure slices are
// copied out of the Result: a Result read off a cached entry shares its
// slices with the entry's lattice memo, and rows are serialized after
// the entry has been unlocked and released, so views would escape the
// entry's lifecycle. (Asymptotic results own their slices, but copying
// unconditionally keeps the escape rule simple.)
func pointRow(sw core.Switch, res *core.Result, tier string, weights []float64) PointResult {
	row := PointResult{
		N1:          sw.N1,
		N2:          sw.N2,
		Tier:        tier,
		Blocking:    slices.Clone(res.Blocking),
		Concurrency: slices.Clone(res.Concurrency),
	}
	if res.ErrorBound != nil {
		row.ErrorBound = slices.Clone(res.ErrorBound)
	}
	if weights != nil {
		wv := res.Revenue(weights)
		row.W = &wv
	}
	return row
}

// gridReply renders a sweep or grid plan: asymptotic rows straight from
// their answers, exact rows off each group's entry through the exact
// path, or off the owner's reply for a group another peer serves
// (forwardGroup; d and weights are the request's). Method is the exact
// algorithm's ("asymptotic" when no point is exact) and Cached counts
// the entries that were resident or in flight, wherever they live.
func (s *Server) gridReply(w http.ResponseWriter, r *http.Request, pl *plan,
	d DispatchSpec, weights []float64) (resp GridResponse, done bool, err error) {
	resp = GridResponse{Method: "asymptotic", Points: len(pl.points), Models: len(pl.groups)}
	resp.Results = make([]PointResult, len(pl.points))
	for i, res := range pl.asym {
		if res != nil {
			resp.Results[i] = pointRow(pl.points[i], res, res.Tier, weights)
			resp.Asymptotic++
		}
	}
	tier := exactTier(pl.opt)
	done, err = s.exact(w, r, pl, func(e *solverEntry, cached bool, members []int) error {
		if cached {
			resp.Cached++
		}
		for _, i := range members {
			res := e.resultAt(pl.points[i].N1, pl.points[i].N2)
			resp.Method = res.Method // one per algorithm, whatever the size
			resp.Results[i] = pointRow(pl.points[i], res, tier, weights)
		}
		return nil
	}, func(owner string, g exactGroup) error {
		sub, err := s.forwardGroup(r.Context(), owner, pl, g, d, weights)
		if err != nil {
			return err
		}
		resp.Cached += sub.Cached
		resp.Method = sub.Method
		for j, i := range g.members {
			resp.Results[i] = sub.Results[j]
			resp.Results[i].Tier = tier
		}
		return nil
	})
	return resp, done, err
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) error {
	var req GridRequest
	p, err := s.begin(w, r, &req, &req.Algorithm, nil, nil)
	if err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return badRequest("no grid points")
	}
	if len(req.Points) > s.cfg.MaxGridPoints {
		return badRequest("%d grid points exceed the server limit %d", len(req.Points), s.cfg.MaxGridPoints)
	}
	if req.Weights != nil {
		if err := checkWeights(req.Weights, len(req.Classes)); err != nil {
			return err
		}
	}
	if p.opt, err = s.parseDispatch(req.DispatchSpec); err != nil {
		return err
	}
	// Materialize, validate and route every point: points differing only
	// in dimensions (or in nothing the solver reads) share one entry at
	// the group maximum. In a fleet each group is served by its entry's
	// ring owner (exact).
	pl := &plan{prologue: p}
	for i, gp := range req.Points {
		sw, err := s.gridSwitch(req.SwitchSpec, gp, p.opt)
		if err == nil {
			err = s.addPoint(pl, sw)
		}
		if err != nil {
			return pointError(i, err)
		}
	}
	resp, done, err := s.gridReply(w, r, pl, req.DispatchSpec, req.Weights)
	return s.reply(w, resp, done, err)
}
