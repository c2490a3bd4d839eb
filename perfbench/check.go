package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"

	"xbar/internal/core"
	"xbar/internal/server"
)

// referenceReplies answers every distinct pool body on a cold
// single-node server with the default configuration, through its
// handler, and returns the normalized replies. Bodies go in order of
// their first fill key, so neighbours share the reference's cache.
func referenceReplies(wl *workload) ([][]byte, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	order := make([]int, len(wl.pool))
	for i := range order {
		order[i] = i
	}
	first := func(i int) int {
		if k := wl.pool[i].keys; len(k) > 0 {
			return k[0]
		}
		return -1
	}
	sort.SliceStable(order, func(a, b int) bool { return first(order[a]) < first(order[b]) })
	ref := make([][]byte, len(wl.pool))
	h := s.Handler()
	for _, i := range order {
		r := &wl.pool[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s body %d: status %d: %s", r.path, i, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		ref[i] = normalize(rec.Body.Bytes())
	}
	return ref, nil
}

// spotChecks is how many /v1/blocking bodies per run are recomputed
// with the library.
const spotChecks = 8

// spotCheck recomputes up to spotChecks /v1/blocking reference replies
// with core.Solve (alg1), core.SolveMVA (alg2) or core.SolveAuto
// (dispatch auto) and compares every number within 1e-12 relative. It
// returns the number checked and the mismatches, described.
func spotCheck(wl *workload, ref [][]byte) (checked int, bad []string) {
	var cands []int
	for i, r := range wl.pool {
		if r.path == "/v1/blocking" && r.sw != nil {
			cands = append(cands, i)
		}
	}
	for n := 0; n < min(spotChecks, len(cands)); n++ {
		// Spread the checks over the pool (both algorithms, all sizes).
		i := cands[n*len(cands)/min(spotChecks, len(cands))]
		r := &wl.pool[i]
		checked++
		var want *core.Result
		var err error
		switch r.alg {
		case "alg1":
			want, err = core.Solve(*r.sw)
		case "alg2":
			want, err = core.SolveMVA(*r.sw)
		default:
			want, err = core.SolveAuto(*r.sw, core.DispatchOptions{Policy: core.DispatchAuto})
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("body %d: library solve: %v", i, err))
			continue
		}
		var got server.BlockingResponse
		if err := json.Unmarshal(bytes.Replace(ref[i], []byte(`"cached":_`), []byte(`"cached":false`), 1), &got); err != nil {
			bad = append(bad, fmt.Sprintf("body %d: decoding reply: %v", i, err))
			continue
		}
		if msg := compareResult(&got, want); msg != "" {
			bad = append(bad, fmt.Sprintf("body %d (%s): %s", i, r.alg, msg))
		}
	}
	return checked, bad
}

func compareResult(got *server.BlockingResponse, want *core.Result) string {
	if len(got.Classes) != len(want.Blocking) {
		return fmt.Sprintf("%d classes, want %d", len(got.Classes), len(want.Blocking))
	}
	if !near(got.LogG, want.LogG) {
		return fmt.Sprintf("log_g %v, want %v", got.LogG, want.LogG)
	}
	for c, g := range got.Classes {
		for _, x := range []struct {
			name      string
			got, want float64
		}{
			{"blocking", g.Blocking, want.Blocking[c]},
			{"non_blocking", g.NonBlocking, want.NonBlocking[c]},
			{"concurrency", g.Concurrency, want.Concurrency[c]},
		} {
			if !near(x.got, x.want) {
				return fmt.Sprintf("class %d %s %v, want %v", c, x.name, x.got, x.want)
			}
		}
	}
	return ""
}

// near reports |a-b| <= 1e-12 * max(|a|, |b|).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
