// Command mpbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload per invocation against the library (core.RunSpec.Run)
// or an in-process `mpvar serve` fleet on loopback, checks every output it
// times, and prints a machine header, one line per metric and, last, one
// JSON object with the metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 a separate
// traced run records spans around the calls into each layer and reports
// the per-layer metrics computed from them.
//
//	bash mpbench/run.sh --workload analytic-mc --seed 1 --seconds 10 --trace 0
//	bash mpbench/run.sh compare parent-runs/ change-runs/
//
// The second form compares two directories of saved outputs (see
// compare.go).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir holds everything the benchmark writes, relative to the
// checkout root it runs from.
const buildDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fl := flag.NewFlagSet("mpbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mpbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	tmp, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// Scratch files of the serve layer (shard workers' directories) land
	// in os.TempDir; keep them inside the checkout.
	os.Setenv("TMPDIR", tmp)

	hdr := newHeader(w.name, *seed, *seconds, *trace)
	hb, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "# header %s\n", hb)
	fmt.Fprintf(stdout, "# workload %s: %s\n", w.name, w.what)

	cfg := runConfig{
		seed: *seed, duration: time.Duration(*seconds) * time.Second,
		tmp: tmp, traceDir: filepath.Join(buildDir, "traces"), out: stdout,
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, cfg)
	} else {
		res, err = timedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mpbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	return 0
}

// runConfig is what every phase of one invocation shares.
type runConfig struct {
	seed     int64
	duration time.Duration
	// tmp is the invocation's scratch directory; traceDir receives the
	// traced run's spans.
	tmp, traceDir string
	out           io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// header identifies the machine, toolchain and sources a result was
// measured on. The comparer refuses to compare results whose machine
// fields differ.
type header struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Started    int64  `json:"started_unix_ns"`
}

func newHeader(workload string, seed int64, seconds, trace int) header {
	return header{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: gitCommit(), Source: sourceDigest("."),
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Started: time.Now().UnixNano(),
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory when the checkout has
// one, without running git; "none" otherwise (the source digest still
// identifies the code).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot directories such as .git and .bench_build), in path
// order, so two results name the exact code they measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) print(w io.Writer) {
	r.Correct = r.Failed == 0
	b, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", b)
}

// errMismatch marks an operation whose output differs from its reference.
var errMismatch = errors.New("output mismatch")
