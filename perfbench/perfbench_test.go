package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// registered is the metric registry of BENCHMARK.json.
type registered struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadRegistry(t *testing.T) registered {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var reg registered
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return reg
}

// result is one run's parsed output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	info map[string]any
}

// quick runs one workload at toy size with the given worker counts
// and parses its output.
func quick(t *testing.T, workload string, trace bool, workers, screenWorkers int) result {
	t.Helper()
	var out, errOut bytes.Buffer
	cfg := config{workload: workload, seed: 3, seconds: 0.5, trace: trace, workers: workers, screenWorkers: screenWorkers}
	if code := execute(cfg, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "info "); ok {
			if err := json.Unmarshal([]byte(rest), &res.info); err != nil {
				t.Fatalf("%s: bad info line: %v", workload, err)
			}
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// TestRegistryMatchesProgram keeps BENCHMARK.json and the metric sets
// the program prints in step.
func TestRegistryMatchesProgram(t *testing.T) {
	reg := loadRegistry(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", reg.EndToEnd, endToEnd)
	check("per_layer", reg.PerLayer, perLayer)
	for _, w := range reg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestQuickWorkloads runs every workload at toy size, registered or
// not: each prints every registered metric (and cluster-churn its own
// layer metrics), finite and with its unit, passes its output checks,
// and decides identically across repeated runs, across one and two
// workers, and with tracing on.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	reg := loadRegistry(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			// The default worker counts, then each flipped: one BO
			// worker or fleet shard, two speculative screen workers.
			a := quick(t, name, false, 2, 1)
			b := quick(t, name, false, 2, 1)
			other := quick(t, name, false, 1, 2)
			traced := quick(t, name, true, 2, 1)
			for _, m := range reg.EndToEnd {
				got, ok := a.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0:
					t.Errorf("%s = %v, want a finite positive value", m.Name, got.Value)
				}
			}
			layer := reg.PerLayer[:len(reg.PerLayer):len(reg.PerLayer)]
			if name == "cluster-churn" {
				for _, m := range churnLayer {
					layer = append(layer, struct{ Name, Unit, Better string }{m.name, m.unit, m.better})
				}
			}
			for _, m := range layer {
				got, ok := traced.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s = %v, want a finite value", m.Name, got.Value)
				}
			}
			d := a.info["digest"]
			if d == nil || b.info["digest"] != d || other.info["digest"] != d || traced.info["digest"] != d {
				t.Errorf("decision digests differ: run %v, rerun %v, other worker counts %v, traced %v",
					d, b.info["digest"], other.info["digest"], traced.info["digest"])
			}
			for _, name := range []string{"windows_per_decision", "windows_per_placement", "qos_met_frac", "bg_vs_oracle", "admit_frac"} {
				if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value != other.Metrics[name].Value {
					t.Errorf("simulated metric %s differs across runs: %v, %v, other worker counts %v",
						name, a.Metrics[name].Value, b.Metrics[name].Value, other.Metrics[name].Value)
				}
			}
		})
	}
}

// TestColocateReconstruction checks that colocate's layer self-times
// account for core.run_s: the benchmark records observe spans inside
// each run span, so observe + acquisition + remainder is the run.
func TestColocateReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the colocate workload")
	}
	r := quick(t, "colocate", true, 2, 1)
	v := func(n string) float64 { return r.Metrics[n].Value }
	sum := v("server.observe_s") + v("bo.acq_s") + v("bo.fit_other_s")
	if run := v("core.run_s"); run <= 0 || math.Abs(sum-run) > 1e-9*run {
		t.Fatalf("observe %v + acq %v + fit/other %v = %v, core.run_s %v", v("server.observe_s"), v("bo.acq_s"), v("bo.fit_other_s"), sum, run)
	}
	if v("bo.fit_other_s") < 0 || v("bo.acq_share") <= 0 || v("bo.acq_share") > 1 {
		t.Fatalf("layer shares out of range: fit/other %v, acq share %v", v("bo.fit_other_s"), v("bo.acq_share"))
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := tailFraction(40); got != 0.75 {
		t.Errorf("tailFraction(40) = %v, want 0.75", got)
	}
	if got := tailFraction(10); got != 1 {
		t.Errorf("tailFraction(10) = %v, want 1 (the maximum)", got)
	}
	var ys []float64
	for i := 1; i <= 40; i++ {
		ys = append(ys, float64(i))
	}
	// Exactly ten samples lie above the 0.75 quantile of 1..40.
	if got := quantile(ys, tailFraction(len(ys))); got != 30 {
		t.Errorf("tail of 1..40 = %v, want 30", got)
	}
}

// TestListPass checks that colocate's rate weights every list position
// equally: a position run twice counts once, at its mean time.
func TestListPass(t *testing.T) {
	if mixes, busy := listPass([]float64{1, 3, 2, 3}, 3); mixes != 3 || busy != 7 {
		t.Errorf("listPass over a pass and a half = %v mixes in %v s, want 3 in 7", mixes, busy)
	}
	if mixes, busy := listPass([]float64{1, 2}, 4); mixes != 2 || busy != 3 {
		t.Errorf("listPass over part of a pass = %v mixes in %v s, want 2 in 3", mixes, busy)
	}
}

func TestSelfTime(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	sp := spans{list: []span{
		{name: "run", start: at(0), end: at(100), parent: -1},
		{name: "observe", start: at(10), end: at(30), parent: 0},
		{name: "observe", start: at(50), end: at(60), parent: 0},
		{name: "run", start: at(200), end: at(250), parent: -1},
	}}
	if got := sp.total("run"); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("total = %v, want 0.15", got)
	}
	if got := sp.selfTime("run"); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("self time = %v, want 0.12", got)
	}
}
