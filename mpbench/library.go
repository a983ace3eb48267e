package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/report"
)

// analytic-mc runs Table IV across the whole DOE (6 streams) at
// analyticSamples draws per stream on analyticWorkers engine workers, one
// client.
const (
	analyticSamples = 2000
	analyticWorkers = 2
)

// The SPICE trial ladder in analytic-mc's traced run follows mcspice at
// its defaults (plain estimator, fixed step, n=64), spiceSamples draws
// per option.
const (
	spiceSamples = 4
	spiceN       = 64
)

// goldenSeed is the seed the golden tables were generated at.
const goldenSeed = 2015

// goldenDir holds the golden tables, relative to the checkout root.
var goldenDir = filepath.Join("internal", "exp", "testdata", "golden")

// splitmix64 is the standard 64-bit mixer; it derives independent seeds
// from (benchmark seed, index).
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// repSeed derives the Monte-Carlo seed of repetition i from the
// benchmark seed: positive, never 0 (which the engine maps to its
// default seed) and distinct across repetitions with overwhelming
// probability.
func repSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*0x100000001B3^uint64(i))>>2) + 1
}

// progressCounter sums the trials executed across a run's streams from
// the engines' (done, total) progress callbacks: done rises strictly
// within one stream and restarts lower (or equal, for one-block streams)
// on the next.
type progressCounter struct {
	mu        sync.Mutex
	last, sum int
}

func (p *progressCounter) update(done, _ int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if done <= p.last {
		p.last = 0
	}
	p.sum += done - p.last
	p.last = done
}

func (p *progressCounter) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sum
}

// runLibrary executes spec through core.RunSpec.Run and renders its
// tables as the serve layer embeds them in a run body, returning the
// trials executed.
func runLibrary(spec core.RunSpec, workers int) ([]byte, int, error) {
	var pc progressCounter
	res, err := spec.Run(core.WithWorkers(workers), core.WithProgress(pc.update))
	if err != nil {
		return nil, 0, err
	}
	tables, err := renderTables(res)
	return tables, pc.total(), err
}

// renderTables encodes a result's tables exactly as they appear inside a
// serve run body (compact JSON), so library and HTTP outputs compare
// byte for byte.
func renderTables(res *exp.Result) ([]byte, error) {
	enc, err := report.EncodeTables(report.FormatJSON, res.Tables...)
	if err != nil {
		return nil, err
	}
	return json.Marshal(json.RawMessage(enc))
}

// checkTables rejects an output that is not the expected table set:
// malformed JSON, the wrong row count, or a non-finite number (which the
// encoder writes as null).
func checkTables(tables []byte, rows int) error {
	var ts []struct {
		Title string           `json:"title"`
		Rows  []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(tables, &ts); err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	n := 0
	for _, t := range ts {
		for _, r := range t.Rows {
			for k, v := range r {
				if f, isNum := v.(float64); v == nil || (isNum && (math.IsNaN(f) || math.IsInf(f, 0))) {
					return fmt.Errorf("%w: %q row %d field %s is not a finite value", errMismatch, t.Title, n, k)
				}
			}
			n++
		}
	}
	if n != rows {
		return fmt.Errorf("%w: %d rows, want %d", errMismatch, n, rows)
	}
	return nil
}

// libraryInstance repeats one workload through core.RunSpec.Run with a
// fresh seed per repetition.
type libraryInstance struct {
	seed     int64
	workload string
	samples  int
	workers  int
	rows     int
}

func (l *libraryInstance) spec(i int) core.RunSpec {
	return core.RunSpec{Workload: l.workload, Seed: repSeed(l.seed, i), Samples: l.samples}
}

func (l *libraryInstance) prepare() error         { return nil }
func (l *libraryInstance) servers() []*liveServer { return nil }
func (l *libraryInstance) close() error           { return nil }

func (l *libraryInstance) op(i int, tr *tracer) opResult {
	id := tr.begin("core.Run", 0, int64(i))
	t0 := time.Now()
	out, trials, err := runLibrary(l.spec(i), l.workers)
	lat := time.Since(t0)
	tr.end(id, 1)
	if err == nil {
		err = checkTables(out, l.rows)
	}
	return opResult{index: i, class: "run", latency: lat, trials: trials, out: out, err: err}
}

// verify repeats the first and the last timed specs: a repetition of one
// spec must reproduce its output byte for byte.
func (l *libraryInstance) verify(ops []opResult) (checks, failed int, err error) {
	var picks []int
	if len(ops) > 0 {
		picks = append(picks, 0)
	}
	if len(ops) > 1 {
		picks = append(picks, len(ops)-1)
	}
	for _, k := range picks {
		if ops[k].err != nil {
			continue
		}
		out, _, err := runLibrary(l.spec(ops[k].index), l.workers)
		if err != nil {
			return 0, 0, err
		}
		checks++
		if !bytes.Equal(out, ops[k].out) {
			failed++
		}
	}
	return checks, failed, nil
}

// goldenGate runs spec at the golden seed and compares the CSV rendering
// of its first table with a golden file, byte for byte.
func goldenGate(spec core.RunSpec, file string) (checks, failed int, err error) {
	want, err := os.ReadFile(filepath.Join(goldenDir, file))
	if err != nil {
		return 0, 0, err
	}
	res, err := spec.Run()
	if err != nil {
		return 1, 1, nil
	}
	var got bytes.Buffer
	if err := res.Tables[0].Write(&got, report.FormatCSV); err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return 1, 1, nil
	}
	return 1, 0, nil
}

var analyticMC = &workload{
	name:     "analytic-mc",
	what:     fmt.Sprintf("table4x (Table IV σ over the DOE, 6 streams × %d draws) through core.RunSpec.Run, 1 client, %d engine workers", analyticSamples, analyticWorkers),
	clients:  1,
	measured: "run",
	setup: func(cfg runConfig, rep int) (instance, error) {
		// Environment and nominal model, then one warm-up run.
		l := &libraryInstance{seed: cfg.seed, workload: "table4x", samples: analyticSamples, workers: analyticWorkers, rows: 24}
		study, err := l.spec(-1 - rep).NewStudy()
		if err != nil {
			return nil, err
		}
		if _, err := study.Model(); err != nil {
			return nil, err
		}
		if _, _, err := runLibrary(l.spec(-1-rep), l.workers); err != nil {
			return nil, err
		}
		return l, nil
	},
	gate: func(cfg runConfig) (checks, failed int, err error) {
		for _, g := range []struct {
			spec core.RunSpec
			file string
		}{
			{core.RunSpec{Workload: "table4x", Seed: goldenSeed, Samples: 400}, "table4surface.csv"},
			{core.RunSpec{Workload: "mcspice", Params: exp.Params{"sizes": "8,16"}, Seed: goldenSeed, Samples: 12}, "mcspice.csv"},
		} {
			c, f, err := goldenGate(g.spec, g.file)
			if err != nil {
				return 0, 0, err
			}
			cfg.logf("gate golden %s@%d seed %d: %d of %d failed", g.spec.Workload, g.spec.Samples, goldenSeed, f, c)
			checks, failed = checks+c, failed+f
		}
		return checks, failed, nil
	},
	ladder: analyticLadder,
}
