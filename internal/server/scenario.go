package server

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"xbar/internal/scenario"
)

// scenarioFlight is one in-progress scenario evaluation that concurrent
// identical requests attach to instead of evaluating their own copy.
type scenarioFlight struct {
	done chan struct{} // closed once res and err are final
	res  *scenario.Result
	err  error
}

// scenarioItem is the LRU bookkeeping for one cached result.
type scenarioItem struct {
	key string
	res *scenario.Result
}

// scenarioCache is the LRU of evaluated scenario results with
// single-flight deduplication. It is the simple cousin of solverCache:
// a cached *scenario.Result is immutable and never recycled, so there
// is no reference counting, no entry lock and no free pool — hits hand
// out the shared pointer and the response path only reads it.
type scenarioCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key -> element of ll
	flights map[string]*scenarioFlight
	metrics *Metrics
}

func newScenarioCache(maxEntries int, m *Metrics) *scenarioCache {
	return &scenarioCache{
		max:     maxEntries,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*scenarioFlight),
		metrics: m,
	}
}

// get returns the full result for key, running fill on a miss.
// Concurrent identical requests share one fill; errors are shared with
// the flight's waiters but never cached. cached reports whether the
// result came from the cache or a shared in-flight evaluation.
func (c *scenarioCache) get(ctx context.Context, key string, fill func() (*scenario.Result, error)) (res *scenario.Result, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*scenarioItem).res
		c.mu.Unlock()
		c.metrics.scenarioHits.Add(1)
		return res, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.metrics.scenarioShared.Add(1)
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &scenarioFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics.scenarioMisses.Add(1)

	res, err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	f.res, f.err = res, err
	if err == nil {
		c.items[key] = c.ll.PushFront(&scenarioItem{key: key, res: res})
		for c.ll.Len() > c.max {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*scenarioItem).key)
			c.metrics.scenarioEvictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return res, false, err
}

// len reports the number of cached results (not counting in-flight
// evaluations).
func (c *scenarioCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// scenarioLimits derives the scenario validation limits from the server
// configuration: the dimension and class caps follow the ones the
// /v1/blocking family enforces, everything else takes the scenario
// package defaults.
func (c Config) scenarioLimits() scenario.Limits {
	return scenario.Limits{MaxDim: c.MaxDim, MaxClasses: c.MaxClasses}
}

// ScenarioMeasure is one measure in a POST /v1/scenario reply.
// HalfWidth is the 95% confidence half-width of simulation estimates;
// analytical measures carry none and omit the field.
type ScenarioMeasure struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width,omitempty"`
}

// ScenarioResponse is the POST /v1/scenario reply. Measures are in the
// request's measure-filter order when a filter was given, otherwise in
// the discipline's documented order. Omitted lists measures whose value
// is not finite for this scenario (JSON cannot carry NaN or ±Inf); a
// name appears in exactly one of the two lists.
type ScenarioResponse struct {
	Discipline string            `json:"discipline"`
	Cached     bool              `json:"cached"`
	Measures   []ScenarioMeasure `json:"measures"`
	Omitted    []string          `json:"omitted,omitempty"`
}

// scenarioErrorDoc is the 400 body for spec validation failures:
// the standard error string plus the per-field diagnostics.
type scenarioErrorDoc struct {
	Error  string                `json:"error"`
	Fields []scenario.FieldError `json:"fields"`
}

// scenarioError maps the scenario package's error taxonomy onto the
// HTTP contract: malformed specs are 400 (with indexed field errors in
// the body), well-formed but oversized specs are 413, and unknown
// disciplines or semantically unevaluable scenarios are 422. Anything
// else propagates as a 500. A nil return means the response has been
// written.
func (s *Server) scenarioError(w http.ResponseWriter, err error) error {
	var inv *scenario.InvalidError
	var le *scenario.LimitError
	var ud *scenario.UnknownDisciplineError
	var ee *scenario.EvalError
	switch {
	case errors.As(err, &inv):
		s.writeJSON(w, http.StatusBadRequest, scenarioErrorDoc{Error: inv.Error(), Fields: inv.Fields})
		return nil
	case errors.As(err, &le):
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: le.Error()}
	case errors.As(err, &ud):
		return unprocessable("%v", ud)
	case errors.As(err, &ee):
		return unprocessable("%v", ee)
	}
	return err
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	spec, err := scenario.Decode(bytes.NewReader(body))
	if err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	if err := spec.Validate(s.cfg.scenarioLimits()); err != nil {
		return s.scenarioError(w, err)
	}
	if _, done := s.maybeForward(w, r, body, []exactGroup{{key: spec.Key()}}); done {
		return nil
	}

	// The cache stores one full measure set per canonical key (the key
	// excludes the measure filter), so requests differing only in their
	// filter share an entry; the filter applies on the way out.
	full, cached, err := s.scCache.get(r.Context(), spec.Key(), func() (*scenario.Result, error) {
		release, err := s.sem.acquire(r.Context())
		if err != nil {
			return nil, err
		}
		defer release()
		fullSpec := *spec
		fullSpec.Measures = nil
		return s.scenario.Evaluate(&fullSpec)
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return overloaded(err)
	}
	if err != nil {
		return s.scenarioError(w, err)
	}

	resp := ScenarioResponse{Discipline: full.Discipline, Cached: cached, Measures: []ScenarioMeasure{}}
	add := func(m scenario.Measure) {
		if !finite(m.Value) || !finite(m.HalfWidth) {
			resp.Omitted = append(resp.Omitted, m.Name)
			return
		}
		resp.Measures = append(resp.Measures, ScenarioMeasure{Name: m.Name, Value: m.Value, HalfWidth: m.HalfWidth})
	}
	if len(spec.Measures) == 0 {
		for _, m := range full.Measures {
			add(m)
		}
	} else {
		var fields []scenario.FieldError
		for i, name := range spec.Measures {
			m, ok := full.Measure(name)
			if !ok {
				fields = append(fields, scenario.FieldError{
					Field: fmt.Sprintf("measures[%d]", i),
					Msg:   fmt.Sprintf("discipline %q has no measure %q", full.Discipline, name),
				})
				continue
			}
			add(m)
		}
		if len(fields) > 0 {
			s.writeJSON(w, http.StatusBadRequest, scenarioErrorDoc{Error: "unknown measures", Fields: fields})
			return nil
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}
