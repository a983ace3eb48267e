package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(from, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + step*float64(i)
	}
	return xs
}

func TestDecideVerdicts(t *testing.T) {
	parent := seq(100, 1, 10) // median 104.5, IQR 5.5
	cases := []struct {
		name string
		in   verdictInput
		want string
	}{
		{"faster everywhere", verdictInput{parent: parent, change: seq(80, 1, 10), bound: 0.1, alternating: true}, "improved"},
		{"gain without alternation", verdictInput{parent: parent, change: seq(80, 1, 10), bound: 0.1}, "unresolved"},
		{"gain within parent spread", verdictInput{parent: parent, change: seq(97, 1, 10), bound: 0.1, alternating: true}, "unchanged"},
		{"too few pairs for a gain", verdictInput{parent: parent[:5], change: seq(80, 1, 5), bound: 0.1, alternating: true}, "unchanged"},
		{"slower past the bound", verdictInput{parent: parent, change: seq(120, 1, 10), bound: 0.1, alternating: true}, "regressed"},
		{"slower within the bound", verdictInput{parent: parent, change: seq(105, 1, 10), bound: 0.1, alternating: true}, "unchanged"},
		{"higher is better", verdictInput{parent: parent, change: seq(120, 1, 10), bound: 0.1, higherBetter: true, alternating: true}, "improved"},
		{"throughput drop", verdictInput{parent: parent, change: seq(80, 1, 10), bound: 0.1, higherBetter: true, alternating: true}, "regressed"},
		{"noisy parent", verdictInput{parent: []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, change: seq(100, 1, 10), bound: 0.1, alternating: true}, "unresolved"},
		{"noisy parent, too few pairs, change beats every run", verdictInput{parent: []float64{150, 250, 160, 240, 170}, change: seq(100, 1, 5), bound: 0.1}, "unchanged"},
		{"per-layer slower", verdictInput{parent: parent, change: seq(130, 1, 10)}, "regressed"},
		{"per-layer zero", verdictInput{parent: make([]float64, 10), change: make([]float64, 10)}, "unchanged"},
	}
	for _, c := range cases {
		if got := decide(c.in).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// writeRun saves a synthetic run output as the benchmark prints it.
func writeRun(t *testing.T, dir string, h header, res result) {
	t.Helper()
	hb, _ := json.Marshal(h)
	rb, _ := json.Marshal(res)
	body := fmt.Sprintf("# header %s\nsetup_s 1 s\n%s\n", hb, rb)
	name := fmt.Sprintf("%s-%d-%d.out", h.Workload, h.Trace, h.Seed)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRunsOnSavedOutputs(t *testing.T) {
	spec := benchSpec{EndToEnd: []benchMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	parentDir, changeDir := t.TempDir(), t.TempDir()
	base := header{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NProc: 2, CPU: "cpu", Workload: "analytic-mc", Seconds: 10}
	for i := 0; i < 10; i++ {
		p, c := base, base
		p.Seed, c.Seed = int64(i), int64(i)
		// Alternate which side runs first.
		p.Started, c.Started = int64(2*i), int64(2*i+1)
		if i%2 == 1 {
			p.Started, c.Started = c.Started, p.Started
		}
		writeRun(t, parentDir, p, result{Attempted: 10, Metrics: map[string]metric{"p50_ms": {Value: 100 + float64(i), Unit: "ms"}}})
		writeRun(t, changeDir, c, result{Attempted: 10, Failed: 1, Metrics: map[string]metric{"p50_ms": {Value: 80 + float64(i), Unit: "ms"}}})
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareRuns(&out, spec, parent, change); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p50_ms", "improved", "failed_frac", "regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}

	// A run from another machine is refused.
	other := base
	other.CPU = "another cpu"
	writeRun(t, changeDir, other, result{Attempted: 1, Metrics: map[string]metric{"p50_ms": {Value: 1}}})
	change, err = loadRuns(changeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRuns(&out, spec, parent, change); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("mismatched header accepted: %v", err)
	}
}

func TestParseRunNeedsHeaderAndResult(t *testing.T) {
	if _, err := parseRun([]byte("setup_s 1 s\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n")); err == nil {
		t.Error("output without a header accepted")
	}
	if _, err := parseRun([]byte("# header {}\nno result\n")); err == nil {
		t.Error("output without a result line accepted")
	}
}
