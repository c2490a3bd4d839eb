package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func hashFor(t *testing.T, def workloadDef, seed uint64) string {
	t.Helper()
	wl, err := makeWorkload(def, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := makePlan(wl, seed, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return p.hash(wl)
}

func TestSameSeedSameScheduleHash(t *testing.T) {
	hashes := map[string]string{}
	for _, def := range workloadDefs {
		a, b, c := hashFor(t, def, 7), hashFor(t, def, 7), hashFor(t, def, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed %s then %s", def.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", def.name, a)
		}
		hashes[def.name] = a
	}
	// fleet-churn replays whatif-churn's stream on three nodes.
	if hashes["fleet-churn"] != hashes["whatif-churn"] {
		t.Errorf("fleet-churn hash %s, whatif-churn %s: want the same inputs", hashes["fleet-churn"], hashes["whatif-churn"])
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsMatchBenchmarkFile pins the workload list, and that each
// workload's recorded rationale states its offered rate and arrival
// process.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadDefs))
	}
	for i, def := range workloadDefs {
		w := b.Workloads[i]
		if w.Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, def.name)
		}
		for _, want := range []string{fmt.Sprintf("%g/s", def.rate), def.arrival.kind + " BPP"} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not state %q", def.name, w.Why, want)
			}
		}
	}
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runShort(t *testing.T, workload string, trace int) runResult {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", fmt.Sprint(trace), "--spans", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	return r
}

func checkNames(t *testing.T, label string, got runResult, want []namedMetric) {
	t.Helper()
	if len(got.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", label, len(got.Metrics), len(want))
	}
	for _, m := range want {
		g, ok := got.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", label, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced: the
// correctness check passes with nothing failed, and the printed metric
// names and units are exactly those BENCHMARK.json lists.
func TestShortRuns(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, def := range workloadDefs {
		for trace, want := range [][]namedMetric{b.EndToEnd, b.PerLayer} {
			label := fmt.Sprintf("%s trace %d", def.name, trace)
			r := runShort(t, def.name, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct %v, failed %d of %d", label, r.Correct, r.Failed, r.Attempted)
			}
			checkNames(t, label, r, want)
		}
	}
}
