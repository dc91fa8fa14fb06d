package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at a tiny scale and returns its stdout and the
// decoded last line.
func runTiny(t *testing.T, workload, trace string) (string, jsonResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
		"--scale", "0.1", "--out", t.TempDir()}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return stdout.String(), res
}

// TestSmoke runs every workload once in each mode and checks that the
// correctness gate passed and every named metric printed with its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, mode := range []struct {
			trace string
			names []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				out, res := runTiny(t, w.Name, mode.trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.names) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(mode.names))
				}
				for _, m := range mode.names {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out, m.Name+" ") {
						t.Errorf("metric %s missing from the printed table", m.Name)
					}
				}
			})
		}
	}
}

// TestSteadiness: two runs of analytics-batch on one seed must give
// identical virtual-clock figures.
func TestSteadiness(t *testing.T) {
	_, a := runTiny(t, "analytics-batch", "0")
	_, b := runTiny(t, "analytics-batch", "0")
	for _, name := range []string{"sim_jct_s", "llm_calls", "prefix_hit_rate", "cost_usd_openai", "cost_usd_anthropic"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s differs between runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

// TestInteractionTable: interactions.json covers exactly the metrics and
// workloads BENCHMARK.json declares.
func TestInteractionTable(t *testing.T) {
	s := loadSpec(t)
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var it struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  []struct {
			Metric   string   `json:"metric"`
			Moves    []string `json:"moves"`
			Workload string   `json:"workload"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &it); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
		if it.EndToEnd[m.Name] == "" {
			t.Errorf("end-to-end metric %s has no meaning recorded", m.Name)
		}
	}
	if len(it.EndToEnd) != len(s.EndToEnd) {
		t.Errorf("interactions.json describes %d end-to-end metrics, BENCHMARK.json %d", len(it.EndToEnd), len(s.EndToEnd))
	}
	for _, w := range s.Workloads {
		if it.Workloads[w.Name] == nil {
			t.Errorf("workload %s missing", w.Name)
		}
	}
	if len(it.PerLayer) != len(s.PerLayer) {
		t.Fatalf("interactions.json has %d per-layer rows, BENCHMARK.json %d", len(it.PerLayer), len(s.PerLayer))
	}
	for i, row := range it.PerLayer {
		if row.Metric != s.PerLayer[i].Name {
			t.Errorf("row %d: %s, BENCHMARK.json has %s", i, row.Metric, s.PerLayer[i].Name)
		}
		if row.Workload != "all" && it.Workloads[row.Workload] == nil {
			t.Errorf("%s: unknown workload %q", row.Metric, row.Workload)
		}
		for _, m := range row.Moves {
			if !e2e[m] {
				t.Errorf("%s moves unknown end-to-end metric %s", row.Metric, m)
			}
		}
	}
}

// TestMaxRate pins the knee rule: interpolate into the failures that
// persist to the top of the ladder, never into a lone spike.
func TestMaxRate(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	for _, c := range []struct {
		name  string
		worst []float64
		want  float64
	}{
		{"all pass", []float64{10, 20, 30, 40}, 400},
		{"knee between steps", []float64{10, 20, 80, 300}, 300 + 20.0/220*100},
		{"lone spike ignored", []float64{10, 150, 20, 300}, 300 + 80.0/280*100},
		{"first step fails", []float64{200, 300, 400, 500}, 50},
	} {
		if got := maxRate(rates, c.worst, 100); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}
