package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"xbar/internal/asymptotic"
	"xbar/internal/core"
	"xbar/internal/grid"
	"xbar/internal/scenario"
	"xbar/internal/server"
)

// replayTimes are the replay leg's per-call timings, by layer entry
// point. The leg times the public entry points on the workload's own
// distinct inputs, one call at a time, with no load running.
type replayTimes struct {
	fill      []float64            // ms per lattice fill, one per distinct fill key
	solveAuto []float64            // us per core.SolveAuto on a dispatch:"auto" input
	asym      []float64            // us per asymptotic.Solve on the same inputs
	decode    []float64            // us per scenario.Decode + Validate + Key
	eval      map[string][]float64 // ms per memo-less Evaluate, by discipline
}

// replayRepeats is how many times the microsecond-scale entry points
// run per input.
const replayRepeats = 5

func replay(wl *workload, tr *tracer) (*replayTimes, error) {
	rt := &replayTimes{eval: make(map[string][]float64)}
	fill := core.Parallel(1, 0) // the server's schedule: GOMAXPROCS/MaxConcurrent workers
	for _, k := range wl.keys {
		d, err := tr.timed("core.fill", func() error {
			if k.alg == "alg2" {
				_, err := core.NewMVASweepSolver(k.sw, fill)
				return err
			}
			_, err := core.NewSweepSolver(k.sw, fill)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay fill: %w", err)
		}
		rt.fill = append(rt.fill, ms(d))
	}
	auto := core.DispatchOptions{Policy: core.DispatchAuto, Fill: fill}
	lim := scenario.Limits{MaxDim: defaultMaxDim, MaxClasses: 64}
	eng := scenario.New(scenario.Options{NoMemo: true, Limits: lim, Grid: grid.Options{Workers: 1}})
	for _, r := range wl.pool {
		switch {
		case r.auto:
			classes := asymClasses(r.sw)
			for i := 0; i < replayRepeats; i++ {
				d, err := tr.timed("core.solve_auto", func() error {
					_, err := core.SolveAuto(*r.sw, auto)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("replay SolveAuto: %w", err)
				}
				rt.solveAuto = append(rt.solveAuto, us(d))
				d, err = tr.timed("asymptotic.solve", func() error {
					_, err := asymptotic.Solve(r.sw.N1, r.sw.N2, classes)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("replay asymptotic.Solve: %w", err)
				}
				rt.asym = append(rt.asym, us(d))
			}
		case r.spec != nil:
			for i := 0; i < replayRepeats; i++ {
				d, err := tr.timed("scenario.decode", func() error {
					s, err := scenario.Decode(bytes.NewReader(r.body))
					if err != nil {
						return err
					}
					if err := s.Validate(lim); err != nil {
						return err
					}
					_ = s.Key()
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("replay scenario decode: %w", err)
				}
				rt.decode = append(rt.decode, us(d))
			}
			spec := *r.spec
			d, err := tr.timed("scenario.eval", func() error {
				_, err := eng.Evaluate(&spec)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay scenario eval: %w", err)
			}
			rt.eval[spec.Discipline] = append(rt.eval[spec.Discipline], ms(d))
		}
	}
	return rt, nil
}

// asymClasses converts a validated switch to the expansion's per-route
// classes, as the core dispatch layer does.
func asymClasses(sw *core.Switch) []asymptotic.Class {
	out := make([]asymptotic.Class, len(sw.Classes))
	for i, c := range sw.Classes {
		out[i] = asymptotic.Class{A: c.A, Rho: c.Rho()}
		if !c.IsPoisson() {
			out[i].BetaMu = c.BetaMu()
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// allocsPerRequest replays every distinct pool body through the node's
// handler (httptest, no network) twice and returns the heap objects
// allocated per request on the second pass.
func allocsPerRequest(s *server.Server, wl *workload) (float64, error) {
	h := s.Handler()
	run := func(measure bool) (uint64, error) {
		reqs := make([]*http.Request, len(wl.pool))
		recs := make([]*httptest.ResponseRecorder, len(wl.pool))
		for i, r := range wl.pool {
			reqs[i] = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			reqs[i].Header.Set("Content-Type", "application/json")
			recs[i] = httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		if measure {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		if measure {
			runtime.ReadMemStats(&after)
		}
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler replay %s: status %d", wl.pool[i].path, rec.Code)
			}
		}
		return after.Mallocs - before.Mallocs, nil
	}
	if _, err := run(false); err != nil {
		return 0, err
	}
	n, err := run(true)
	return float64(n) / float64(len(wl.pool)), err
}
