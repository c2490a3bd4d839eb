package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"xbar/internal/core"
)

// TestGridEndpoint drives /v1/grid over a batch engineered to exercise
// every sharing tier — the base point, a size variant, a canonical
// mu-scaled twin, and a genuinely distinct model — and checks every
// point bit-identical to a fresh core.Solve of its materialized
// switch.
func TestGridEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	alpha2, mu2 := 0.0048, 2.0
	req := GridRequest{
		SwitchSpec: paperSpec(16),
		Points: []GridPoint{
			{}, // the base switch itself
			// Aggregate units re-normalize against the point's own size:
			// per-route alpha .0024/8 = .0003, which coincides bit-exactly
			// with point 3's .0048/16 — they share one 16x16 fill.
			{N1: 8, N2: 8},
			// Power-of-two mu scaling: alpha/mu is bit-identical, so
			// this rides the base model's fill.
			{Classes: []GridClassDelta{{Class: 0, Alpha: &alpha2, Mu: &mu2}}},
			// Alpha bump without the mu scale: distinct from the base,
			// but the same per-route model as point 1.
			{Classes: []GridClassDelta{{Class: 0, Alpha: &alpha2}}},
		},
		Weights: []float64{1},
	}
	var resp GridResponse
	if code := postJSON(t, ts, "/v1/grid", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Points != 4 || resp.Models != 2 {
		t.Fatalf("points %d models %d, want 4 points over 2 models", resp.Points, resp.Models)
	}
	if resp.Cached != 0 {
		t.Errorf("cold request reports %d cached models", resp.Cached)
	}
	want := []core.Switch{
		paperSwitch(16),
		paperSwitch(8),
		core.NewSwitch(16, 16, core.AggregateClass{Name: "smooth", A: 1, AlphaTilde: 0.0048, Mu: 2}),
		core.NewSwitch(16, 16, core.AggregateClass{Name: "smooth", A: 1, AlphaTilde: 0.0048, Mu: 1}),
	}
	for i, sw := range want {
		direct, err := core.Solve(sw)
		if err != nil {
			t.Fatal(err)
		}
		pt := resp.Results[i]
		if pt.N1 != sw.N1 || pt.N2 != sw.N2 {
			t.Errorf("point %d: dims %dx%d, want %dx%d", i, pt.N1, pt.N2, sw.N1, sw.N2)
		}
		for r := range sw.Classes {
			if pt.Blocking[r] != direct.Blocking[r] {
				t.Errorf("point %d class %d blocking: %x != %x", i, r, pt.Blocking[r], direct.Blocking[r])
			}
			if pt.Concurrency[r] != direct.Concurrency[r] {
				t.Errorf("point %d class %d concurrency: %x != %x", i, r, pt.Concurrency[r], direct.Concurrency[r])
			}
		}
		if pt.W == nil || *pt.W != direct.Revenue(req.Weights) {
			t.Errorf("point %d: W mismatch", i)
		}
		if resp.Method != direct.Method {
			t.Errorf("method %q, want %q", resp.Method, direct.Method)
		}
	}

	// A repeat of the same grid finds every model resident.
	var warm GridResponse
	if code := postJSON(t, ts, "/v1/grid", req, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if warm.Cached != warm.Models {
		t.Errorf("warm request: %d of %d models cached", warm.Cached, warm.Models)
	}
	for i := range resp.Results {
		if resp.Results[i].Blocking[0] != warm.Results[i].Blocking[0] {
			t.Errorf("point %d: warm read differs from cold", i)
		}
	}
}

// TestGridAlg2 checks the algorithm selector reaches the MVA solver,
// with route units so the size variant genuinely sub-reads the base
// model's lattice.
func TestGridAlg2(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := GridRequest{
		SwitchSpec: SwitchSpec{N1: 8, N2: 8, Units: "route",
			Classes: []ClassSpec{{A: 1, Alpha: 0.001, Mu: 1}}},
		Algorithm: "alg2",
		Points:    []GridPoint{{}, {N1: 4, N2: 4}},
	}
	var resp GridResponse
	if code := postJSON(t, ts, "/v1/grid", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Method != "algorithm2" || resp.Models != 1 {
		t.Fatalf("method %q, %d models, want algorithm2 over 1 model", resp.Method, resp.Models)
	}
	for i, n := range []int{8, 4} {
		direct, err := core.SolveMVA(core.Switch{N1: n, N2: n,
			Classes: []core.Class{{A: 1, Alpha: 0.001, Mu: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Results[i].Blocking[0] != direct.Blocking[0] {
			t.Errorf("point %d: %x != %x", i, resp.Results[i].Blocking[0], direct.Blocking[0])
		}
	}
}

// TestGridAggregateRenormalization pins the delta semantics: deltas
// apply to the spec before unit conversion, so a point that changes
// only the dimensions of an aggregate-units switch re-normalizes the
// tilde loads against its own size, exactly like a standalone
// /v1/blocking request for the materialized spec.
func TestGridAggregateRenormalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := GridRequest{
		SwitchSpec: paperSpec(16),
		Points:     []GridPoint{{N1: 12, N2: 12}},
	}
	var resp GridResponse
	if code := postJSON(t, ts, "/v1/grid", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var direct BlockingResponse
	if code := postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: paperSpec(12)}, &direct); code != http.StatusOK {
		t.Fatalf("blocking status %d", code)
	}
	if resp.Results[0].Blocking[0] != direct.Classes[0].Blocking {
		t.Errorf("grid point %x != /v1/blocking %x", resp.Results[0].Blocking[0], direct.Classes[0].Blocking)
	}
	// 0.0024/12 != 0.0024/16: the size variant is a different per-route
	// model and must NOT have shared the base lattice.
	if resp.Models != 1 {
		t.Errorf("%d models for a single point", resp.Models)
	}
}

// TestGridValidation sweeps the endpoint's malformed-input matrix.
func TestGridValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGridPoints: 2})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/grid", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	base := `"n1":4,"n2":4,"classes":[{"a":1,"alpha":0.01,"mu":1}]`
	cases := []struct {
		name, body string
		want       int
		msg        string
	}{
		{"no points", `{` + base + `}`, http.StatusBadRequest, "no grid points"},
		{"points above cap", `{` + base + `,"points":[{},{},{}]}`, http.StatusBadRequest, "server limit 2"},
		{"class index out of range", `{` + base + `,"points":[{"classes":[{"class":3}]}]}`, http.StatusBadRequest, "point 0"},
		{"negative class index", `{` + base + `,"points":[{},{"classes":[{"class":-1}]}]}`, http.StatusBadRequest, "point 1"},
		{"bad point dims", `{` + base + `,"points":[{"n1":-2}]}`, http.StatusBadRequest, "point 0"},
		{"weights count", `{` + base + `,"points":[{}],"weights":[1,2]}`, http.StatusBadRequest, "weights"},
		{"bad algorithm", `{` + base + `,"algorithm":"alg3","points":[{}]}`, http.StatusBadRequest, ""},
		{"unknown field", `{` + base + `,"points":[{"bogus":1}]}`, http.StatusBadRequest, ""},
		{"infeasible delta", `{` + base + `,"points":[{"classes":[{"class":0,"mu":0}]}]}`, http.StatusUnprocessableEntity, "point 0"},
	}
	for _, tc := range cases {
		code, body := post(tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
		if tc.msg != "" && !strings.Contains(body, tc.msg) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.msg)
		}
	}
}

// TestRowsCopyMeasures pins the response-row copy discipline: sweep
// and grid rows are serialized after their cache entry is unlocked and
// released, while the sweep layers memoize ResultAt reads, so a row
// holding views into the Result would alias a pooled entry's lattice
// memo past its lifecycle. The rows must carry copies.
func TestRowsCopyMeasures(t *testing.T) {
	res, err := core.Solve(paperSwitch(4))
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{1}
	row := pointRow(paperSwitch(4), res, "", weights)
	wantB, wantC := row.Blocking[0], row.Concurrency[0]
	res.Blocking[0] = -1
	res.Concurrency[0] = -1
	if row.Blocking[0] != wantB || row.Concurrency[0] != wantC {
		t.Errorf("row aliases the Result's measure slices")
	}
	if row.W == nil {
		t.Fatalf("weighted row missing W")
	}
}
