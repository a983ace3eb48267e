package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The comparer reads two directories of saved benchmark outputs — the
// standard output of each run, one file per run — for the parent and
// the change, and gives each (metric, workload) a verdict:
//
//	improved    the change wins at least 9 in 10 of ≥ 10 alternating
//	            pairs (ties count for neither) and the medians differ
//	            by more than the parent's interquartile range
//	regressed   the change's median is worse than the parent's by more
//	            than the metric's bound (end-to-end metrics), or the
//	            parent wins 9 in 10 pairs by more than its spread
//	            (per-layer metrics, which have no bound)
//	unresolved  the parent's own spread is wider than the bound, and not
//	            every change run beats every parent run; or the pairs did
//	            not alternate, so a gain cannot be claimed
//	unchanged   none of the above
//
// Runs pair up by workload, trace flag and seed. Results measured on
// different machines (Go version, OS/architecture, GOMAXPROCS, CPU
// count or model) or with different run lengths are refused.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mpbench compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	benchPath := fl.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mpbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "mpbench compare:", err)
		return 2
	}
	parent, err := loadRuns(fl.Arg(0))
	if err == nil {
		var change []runFile
		if change, err = loadRuns(fl.Arg(1)); err == nil {
			err = compareRuns(stdout, spec, parent, change)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpbench compare:", err)
		return 2
	}
	return 0
}

// benchMetric is a metric as BENCHMARK.json defines it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBench(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runFile is one saved run: its header and its final result line.
type runFile struct {
	path string
	hdr  header
	res  result
}

// loadRuns parses every file in dir as one run's output.
func loadRuns(dir string) ([]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		p := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		r.path = p
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return runs, nil
}

// parseRun reads the "# header" line and the last line of one output.
func parseRun(b []byte) (runFile, error) {
	var r runFile
	var last string
	gotHeader := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if h, ok := strings.CutPrefix(line, "# header "); ok {
			if err := json.Unmarshal([]byte(h), &r.hdr); err != nil {
				return r, fmt.Errorf("header: %w", err)
			}
			gotHeader = true
		}
		if line != "" {
			last = line
		}
	}
	if !gotHeader {
		return r, fmt.Errorf("no header line")
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil || r.res.Metrics == nil {
		return r, fmt.Errorf("last line is not a result: %q", last)
	}
	return r, nil
}

// machine is the part of a header that must match for numbers to compare.
func machine(h header) string {
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q seconds=%d",
		h.Go, h.GOOS, h.GOARCH, h.GOMAXPROCS, h.NProc, h.CPU, h.Seconds)
}

// group is the runs of one workload and trace flag on both sides, paired
// by seed.
type group struct {
	workload string
	trace    int
	pairs    [][2]runFile // parent, change
}

func compareRuns(w io.Writer, spec benchSpec, parent, change []runFile) error {
	want := machine(parent[0].hdr)
	for _, r := range append(append([]runFile(nil), parent...), change...) {
		if m := machine(r.hdr); m != want {
			return fmt.Errorf("refusing to compare: %s was measured on %s, %s on %s", r.path, m, parent[0].path, want)
		}
	}
	fmt.Fprintf(w, "machine: %s\n", want)
	fmt.Fprintf(w, "parent source %s, change source %s\n", short(parent[0].hdr.Source), short(change[0].hdr.Source))
	type gkey struct {
		workload string
		trace    int
	}
	bySeed := map[gkey]map[int64]runFile{}
	for _, r := range parent {
		k := gkey{r.hdr.Workload, r.hdr.Trace}
		if bySeed[k] == nil {
			bySeed[k] = map[int64]runFile{}
		}
		bySeed[k][r.hdr.Seed] = r
	}
	var groups []group
	index := map[gkey]int{}
	for _, r := range change {
		k := gkey{r.hdr.Workload, r.hdr.Trace}
		p, ok := bySeed[k][r.hdr.Seed]
		if !ok {
			continue
		}
		gi, seen := index[k]
		if !seen {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, group{workload: k.workload, trace: k.trace})
		}
		groups[gi].pairs = append(groups[gi].pairs, [2]runFile{p, r})
	}
	if len(groups) == 0 {
		return fmt.Errorf("no parent and change runs share a workload, trace flag and seed")
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].trace != groups[j].trace {
			return groups[i].trace < groups[j].trace
		}
		return groups[i].workload < groups[j].workload
	})
	fmt.Fprintf(w, "%-14s %-26s %5s %-30s %-30s %-5s %s\n", "workload", "metric", "pairs", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, g := range groups {
		metrics := spec.EndToEnd
		if g.trace == 1 {
			metrics = spec.PerLayer
		}
		alt := alternating(g.pairs)
		for _, m := range metrics {
			var in verdictInput
			in.higherBetter, in.bound, in.alternating = m.Better == "higher", m.Bound, alt
			for _, p := range g.pairs {
				pv, ok1 := p[0].res.Metrics[m.Name]
				cv, ok2 := p[1].res.Metrics[m.Name]
				if ok1 && ok2 {
					in.parent = append(in.parent, pv.Value)
					in.change = append(in.change, cv.Value)
				}
			}
			if len(in.parent) == 0 {
				continue
			}
			v := decide(in)
			fmt.Fprintf(w, "%-14s %-26s %5d %-30s %-30s %-5d %s\n", g.workload, m.Name, len(in.parent),
				spreadString(in.parent), spreadString(in.change), v.wins, v.verdict)
		}
		pf, cf := failedFrac(g.pairs, 0), failedFrac(g.pairs, 1)
		ff := "unchanged"
		switch {
		case cf > pf:
			ff = "regressed"
		case cf < pf:
			ff = "improved"
		}
		fmt.Fprintf(w, "%-14s %-26s %5d %-30.6g %-30.6g %-5s %s\n", g.workload, "failed_frac", len(g.pairs), pf, cf, "-", ff)
		if !alt {
			fmt.Fprintf(w, "%-14s note: parent and change did not alternate which ran first, so no gain is claimed\n", g.workload)
		}
	}
	return nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func spreadString(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g]", median(xs), q1, q3)
}

// failedFrac is the failed share of attempted operations over one side.
func failedFrac(pairs [][2]runFile, side int) float64 {
	var failed, attempted int
	for _, p := range pairs {
		failed += p[side].res.Failed
		attempted += p[side].res.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// alternating reports whether, taking the pairs in the order they ran,
// the side that ran first alternates from pair to pair.
func alternating(pairs [][2]runFile) bool {
	ps := append([][2]runFile(nil), pairs...)
	sort.Slice(ps, func(i, j int) bool {
		return min(ps[i][0].hdr.Started, ps[i][1].hdr.Started) < min(ps[j][0].hdr.Started, ps[j][1].hdr.Started)
	})
	for i := 1; i < len(ps); i++ {
		prevParentFirst := ps[i-1][0].hdr.Started < ps[i-1][1].hdr.Started
		parentFirst := ps[i][0].hdr.Started < ps[i][1].hdr.Started
		if parentFirst == prevParentFirst {
			return false
		}
	}
	return true
}

// verdictInput is one (metric, workload): paired values, the parent's
// i-th run against the change's i-th run.
type verdictInput struct {
	parent, change []float64
	higherBetter   bool
	// bound is the share of the parent's median by which the metric may
	// worsen; 0 for per-layer metrics, which have none.
	bound       float64
	alternating bool
}

type verdictOut struct {
	verdict string
	wins    int
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

func decide(in verdictInput) verdictOut {
	sign := -1.0
	if in.higherBetter {
		sign = 1
	}
	n := len(in.parent)
	wins, losses := 0, 0
	for i := range in.parent {
		switch d := (in.change[i] - in.parent[i]) * sign; {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	out := verdictOut{wins: wins}
	mp, mch := median(in.parent), median(in.change)
	gap := (mch - mp) * sign // > 0: the change is better
	spread := iqr(in.parent)
	if n >= minPairs && 10*wins >= 9*n && gap > spread {
		out.verdict = "improved"
		if !in.alternating {
			out.verdict = "unresolved"
		}
		return out
	}
	if in.bound == 0 {
		out.verdict = "unchanged"
		if n >= minPairs && 10*losses >= 9*n && -gap > spread {
			out.verdict = "regressed"
		}
		return out
	}
	rel := func(x float64) float64 {
		if mp == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return x / math.Abs(mp)
	}
	wide := rel(spread) > in.bound
	switch {
	case rel(-gap) > in.bound && wide:
		out.verdict = "unresolved"
	case rel(-gap) > in.bound:
		out.verdict = "regressed"
	case wide && !allBetter(in, sign):
		out.verdict = "unresolved"
	default:
		out.verdict = "unchanged"
	}
	return out
}

// allBetter reports whether every change run beats every parent run.
func allBetter(in verdictInput, sign float64) bool {
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, v := range in.change {
		worstChange = math.Min(worstChange, v*sign)
	}
	for _, v := range in.parent {
		bestParent = math.Max(bestParent, v*sign)
	}
	return worstChange > bestParent
}
