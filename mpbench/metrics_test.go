package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func TestBenchmarkJSONNamesWhatMpbenchPrints(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, mpbench workloads %v", got, want)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, mpbench prints %d", len(e2e), len(endToEndMetrics))
	}
	for _, m := range endToEndMetrics {
		if e2e[m.name] != m.unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, mpbench unit %q", m.name, e2e[m.name], m.unit)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, mpbench prints %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, mpbench %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fakeWorkload drives fakeInstance through the real untraced and traced
// runs.
func fakeWorkload() *workload {
	good := []byte(`[{"title":"t","rows":[{"a":1},{"a":2}]}]`)
	return &workload{
		name: "fake", clients: 2, measured: "run",
		setup: func(runConfig, int) (instance, error) {
			return &fakeInstance{outputs: [][]byte{good}}, nil
		},
		ladder: func(l *ladderRun) error {
			l.values["litho.draw_ns"] = 1
			l.predicted = l.busy() / 2
			return nil
		},
	}
}

func TestRunsPrintEveryDeclaredMetric(t *testing.T) {
	cfg := runConfig{seed: 3, duration: 50 * time.Millisecond, tmp: t.TempDir(), traceDir: t.TempDir(), out: io.Discard}
	res, err := timedRun(fakeWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEndMetrics) || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("untraced result %+v", res)
	}
	for _, m := range endToEndMetrics {
		if v := res.Metrics[m.name]; v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("end-to-end %s = %+v", m.name, v)
		}
	}
	res, err = tracedRun(fakeWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(layerMetrics) || res.Failed != 0 {
		t.Fatalf("traced result %+v", res)
	}
	if v := res.Metrics["trace.residual_frac"].Value; v < 0.4 || v > 0.6 {
		t.Errorf("residual %v, want about 0.5 for a ladder explaining half the busy time", v)
	}
}

func TestMeasureCauseNamesTheDeepestCause(t *testing.T) {
	cases := map[string]string{
		"sram: read transient (n=64): spice: transient at t=1e-12: spice: newton iteration 3: sparse: zero pivot at row 7": "lu-pivot",
		"sram: read transient (n=64): spice: transient at t=1e-12: spice: newton failed to converge in 50 iterations":      "newton",
		"spice: DC operating point: spice: newton failed to converge in 50 iterations":                                     "newton",
		"spice: DC operating point: boom": "dc-op",
		"sram: sense threshold never reached (n=64, tEnd=1e-10): spice: no threshold crossing": "sense-threshold",
		"something else": "other",
	}
	for msg, want := range cases {
		if got := measureCause(errors.New(msg)); got != want {
			t.Errorf("measureCause(%q) = %q, want %q", msg, got, want)
		}
	}
}
