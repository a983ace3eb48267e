package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark input set: how to set it up, which operation
// its clients repeat in a closed loop, and how its layers are measured
// in the traced run.
type workload struct {
	name string
	what string
	// clients is the number of closed-loop client goroutines: each sends
	// its next operation only after the previous one completed.
	clients int
	// measured is the operation class whose latency p50_ms reports.
	measured string
	// setup builds a ready instance: environment, nominal parasitics and
	// transients, servers and cache warm-up. It is timed as setup_s.
	setup func(cfg runConfig, rep int) (instance, error)
	// gate runs the golden-seed checks, outside every timed phase.
	gate func(cfg runConfig) (checks, failed int, err error)
	// ladder measures the layers one operation crosses, under spans, and
	// predicts the traced phase's busy time from them.
	ladder func(l *ladderRun) error
}

// instance is a set-up workload.
type instance interface {
	// prepare computes the references that outputs are checked against; it
	// runs after setup and before the timed phase, outside both.
	prepare() error
	// op executes schedule entry i, recording spans on tr when tracing.
	op(i int, tr *tracer) opResult
	// verify re-checks a sample of outputs against fresh references.
	verify(ops []opResult) (checks, failed int, err error)
	// servers lists the serve fleet, coordinator first (nil for the
	// library workloads).
	servers() []*liveServer
	close() error
}

// opResult is one timed operation.
type opResult struct {
	index   int
	class   string
	latency time.Duration
	// handler is the server-side time from X-Mpvar-Elapsed-Ms.
	handler time.Duration
	// trials is the Monte-Carlo trial count the operation executed.
	trials int
	// out is the output kept for later comparison (nil when the
	// operation was already checked against its reference).
	out []byte
	// err is set when the operation failed or its output was wrong.
	err error
}

// phase is one closed-loop measurement.
type phase struct {
	ops     []opResult
	elapsed time.Duration
	alloc   uint64
}

// drive runs clients closed-loop goroutines over the shared schedule for
// d, finishing the operations in flight at the deadline.
func drive(inst instance, clients int, d time.Duration, tr *tracer) phase {
	var next atomic.Int64
	per := make([][]opResult, clients)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], inst.op(int(next.Add(1)-1), tr))
			}
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, ops := range per {
		ph.ops = append(ph.ops, ops...)
	}
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].index < ph.ops[j].index })
	return ph
}

// failures counts the operations that failed or returned wrong output.
func (p phase) failures() int {
	n := 0
	for _, o := range p.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// trials sums the trials executed by successful operations.
func (p phase) trials() int {
	n := 0
	for _, o := range p.ops {
		if o.err == nil {
			n += o.trials
		}
	}
	return n
}

// latencies returns the latencies, in ms, of successful class operations.
func (p phase) latencies(class string) []float64 {
	var ms []float64
	for _, o := range p.ops {
		if o.err == nil && o.class == class {
			ms = append(ms, float64(o.latency)/1e6)
		}
	}
	return ms
}

func (p phase) classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range p.ops {
		if !seen[o.class] {
			seen[o.class] = true
			out = append(out, o.class)
		}
	}
	sort.Strings(out)
	return out
}

// setupRepeats is how many times setup runs per invocation; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

func setupMedian(w *workload, cfg runConfig) (instance, float64, error) {
	var secs []float64
	var inst instance
	for rep := 0; rep < setupRepeats; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, rep); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	cfg.logf("setup_s samples: %s", fmtFloats(secs))
	return inst, median(secs), nil
}

// tally counts operations attempted and failed across phases and checks.
type tally struct{ attempted, failed int }

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func (t *tally) addPhase(p phase) { t.add(len(p.ops), p.failures()) }

// endToEndMetrics are the metrics of the untraced run, as BENCHMARK.json
// lists them.
var endToEndMetrics = []struct{ name, unit string }{
	{"trials_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// timedRun is the untraced run: setup, golden gates, the timed phase and
// the output checks, reporting the end-to-end metrics.
func timedRun(w *workload, cfg runConfig) (*result, error) {
	inst, setupS, err := setupMedian(w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	var t tally
	if w.gate != nil {
		checks, failed, err := w.gate(cfg)
		if err != nil {
			return nil, fmt.Errorf("gate: %w", err)
		}
		t.add(checks, failed)
	}
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	ph := drive(inst, w.clients, cfg.duration, nil)
	t.addPhase(ph)
	checks, failed, err := inst.verify(ph.ops)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	t.add(checks, failed)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	reportPhase(cfg, ph)
	reportFailures(cfg, ph, t)
	secs := ph.elapsed.Seconds()
	lat := ph.latencies(w.measured)
	values := map[string]float64{
		"setup_s":         setupS,
		"trials_per_s":    float64(ph.trials()) / secs,
		"p50_ms":          median(lat),
		"alloc_mb_per_op": float64(ph.alloc) / 1e6 / float64(len(ph.ops)),
	}
	details := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d setups", setupRepeats),
		"trials_per_s":    fmt.Sprintf("%d trials in %.3f s", ph.trials(), secs),
		"p50_ms":          fmt.Sprintf("median %s latency, n=%d", w.measured, len(lat)),
		"alloc_mb_per_op": "heap bytes allocated per operation",
	}
	cfg.logf("operations: %d in %.3f s (%.6g/s)", len(ph.ops), secs, float64(len(ph.ops))/secs)
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		cfg.logf("%-16s %-14.6g %-5s %s", m.name, values[m.name], m.unit, details[m.name])
	}
	return res, nil
}

// reportPhase prints each class's median and tail latency with its
// sample count.
func reportPhase(cfg runConfig, ph phase) {
	for _, c := range ph.classes() {
		lat := ph.latencies(c)
		line := fmt.Sprintf("class %-6s n=%-6d p50=%.4g ms", c, len(lat), median(lat))
		if p, ok := tailPercentile(len(lat)); ok {
			line += fmt.Sprintf(" p%g=%.4g ms", p, percentile(lat, p))
		} else {
			line += " (too few samples for a tail with 10 beyond it)"
		}
		cfg.logf("%s", line)
	}
}

func reportFailures(cfg runConfig, ph phase, t tally) {
	shown := 0
	for _, o := range ph.ops {
		if o.err != nil && shown < 5 {
			cfg.logf("failed op %d (%s): %v", o.index, o.class, o.err)
			shown++
		}
	}
	cfg.logf("failed_frac      %-14.6g %-5s %d of %d operations and checks", float64(t.failed)/float64(max(t.attempted, 1)), "frac", t.failed, t.attempted)
}

// sameOutputs compares the kept outputs of operations that ran the same
// schedule entry in two phases; it returns how many pairs it compared
// and how many differed.
func sameOutputs(a, b []opResult) (checks, failed int) {
	byIndex := make(map[int][]byte, len(a))
	for _, o := range a {
		if o.err == nil && o.out != nil {
			byIndex[o.index] = o.out
		}
	}
	for _, o := range b {
		if want, ok := byIndex[o.index]; ok && o.err == nil && o.out != nil {
			checks++
			if !bytes.Equal(want, o.out) {
				failed++
			}
		}
	}
	return checks, failed
}

func fmtFloats(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}
