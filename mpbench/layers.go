package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpsram/internal/circuit"
	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/spice"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric a change to that layer should move, the workloads it
// should move it on, and where the prediction is no change.
type layerMetric struct {
	name, unit, better string
	moves, on, same    string
}

// layerMetrics lists every per-layer metric in the order it is printed.
// A layer the workload does not cross reads 0.
var layerMetrics = []layerMetric{
	{"mc.trial_overhead_ns", "ns", "lower", "trials_per_s, p50_ms", "analytic-mc, serve-mix (cold), serve-heavy, remote-fanout", "p50_ms on serve-mix (hits)"},
	{"mc.reject_ratio", "frac", "lower", "none: a count that must repeat exactly", "every workload", "-"},
	{"litho.draw_ns", "ns", "lower", "trials_per_s", "analytic-mc", "p50_ms on serve-mix (hits)"},
	{"extract.var_ratios_ns", "ns", "lower", "trials_per_s", "analytic-mc", "p50_ms on serve-mix (hits)"},
	{"extract.errors", "count", "lower", "trials_per_s", "analytic-mc", "p50_ms on serve-mix (hits)"},
	{"analytic.tdp_ns", "ns", "lower", "trials_per_s", "analytic-mc", "p50_ms on serve-mix (hits)"},
	{"sram.build_us", "us", "lower", spiceMoves, spiceOn, "every workload"},
	{"sram.measure_td_ms", "ms", "lower", spiceMoves, spiceOn, "every workload"},
	{"sram.measure_errors", "count", "lower", spiceMoves, spiceOn, "every workload"},
	{"spice.dc_op_ms", "ms", "lower", spiceMoves, spiceOn, "every workload"},
	{"core.key_us", "us", "lower", "p50_ms", "serve-mix (hits)", "analytic-mc"},
	{"core.run_shard_s", "s", "lower", "p50_ms", "serve-heavy, remote-fanout", "p50_ms on serve-mix (hits)"},
	{"core.reduce_ms", "ms", "lower", "p50_ms", "serve-heavy, remote-fanout", "p50_ms on serve-mix (hits)"},
	{"report.render_us", "us", "lower", "trials_per_s", "serve-mix (cold)", "p50_ms on serve-mix (hits)"},
	{"serve.handler_ms", "ms", "lower", "p50_ms", "serve-mix (hits)", "analytic-mc"},
	{"serve.transport_ms", "ms", "lower", "p50_ms", "serve-mix (hits)", "analytic-mc"},
	{"serve.cache_hit_ratio", "frac", "higher", "trials_per_s, p50_ms", "serve-mix", "-"},
	{"serve.queue_depth_max", "count", "lower", "trials_per_s, p50_ms", "serve-mix", "-"},
	{"serve.shed", "count", "lower", "trials_per_s, p50_ms", "serve-mix", "-"},
	{"serve.shards_redispatched", "count", "lower", "trials_per_s, p50_ms", "serve-mix", "-"},
	{"remote.shipped_mb_per_run", "MB", "lower", "p50_ms", "remote-fanout", "serve-heavy, serve-mix"},
	{"remote.failed_over", "count", "lower", "p50_ms", "remote-fanout", "serve-heavy, serve-mix"},
	{"trace.residual_frac", "frac", "lower", "- (share of traced busy time no measured layer explains)", "every workload", "-"},
	{"trace.overhead_frac", "frac", "lower", "- (traced vs untraced trials_per_s)", "every workload", "-"},
}

// The SPICE layers have no end-to-end workload: a SPICE-in-the-loop
// workload did not hold steady on a shared 2-CPU host, where identical
// read transients swing 2× in phases of 10-20 s. Their metrics are
// measured in analytic-mc's traced run.
const (
	spiceMoves = "none kept: no SPICE workload"
	spiceOn    = "measured in analytic-mc's traced run"
)

// ladderRun is the state one workload's layer measurement works on.
type ladderRun struct {
	cfg    runConfig
	tr     *tracer
	root   int
	traced phase
	// values holds the per-layer metrics the ladder measured.
	values map[string]float64
	// predicted is the busy time of the traced phase's successful
	// operations that the measured layer costs account for.
	predicted time.Duration
	// checks and failed count output comparisons made on the way.
	checks, failed int
}

// timed records fn under a span named name, child of parent, covering
// count calls.
func (l *ladderRun) timed(name string, parent, count int, fn func() error) error {
	id := l.tr.begin(name, parent, -1)
	err := fn()
	l.tr.end(id, count)
	return err
}

// perCall is the mean self time of one call of the named span, in ns.
func (l *ladderRun) perCall(name string) float64 {
	return float64(byName(l.tr.snapshot())[name].perCall())
}

// sinkValue keeps computed values alive so the compiler cannot drop the
// measured calls.
var sinkValue float64

// mcOverhead runs mc.RunVector with a one-NormFloat64 trial — the
// engine's per-trial reseed, block scheduling and Welford/P² fold with
// no model behind it — at the workload's budget and workers, repeated to
// about 50000 trials, and records the CPU time per trial: wall time ×
// workers / trials.
func (l *ladderRun) mcOverhead(samples, workers, nobs int, collect bool) (float64, error) {
	for rep := 0; rep < max(1, 50000/samples); rep++ {
		cfg := mc.Config{Samples: samples, Seed: repSeed(l.cfg.seed, 1000+rep), Workers: workers, Collect: collect}
		err := l.timed("mc.RunVector", l.root, samples, func() error {
			_, err := mc.RunVector(context.Background(), cfg, nobs, func(rng *rand.Rand, out []float64) bool {
				v := rng.NormFloat64()
				for j := range out {
					out[j] = v
				}
				return true
			})
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	ns := l.perCall("mc.RunVector") * float64(workers)
	l.values["mc.trial_overhead_ns"] = ns
	return ns, nil
}

// stream is one Monte-Carlo stream configuration of a workload.
type stream struct {
	proc tech.Process
	opt  litho.Option
}

// table4xStreams are table4x's streams: LE3 at every Table IV overlay
// budget, then SADP and EUV.
func table4xStreams() []stream {
	p := tech.N10()
	var out []stream
	for _, ol := range exp.PaperOLBudgets {
		out = append(out, stream{p.WithOL(ol), litho.LE3})
	}
	return append(out, stream{p, litho.SADP}, stream{p, litho.EUV})
}

// optionStreams are one stream per paper option at the process budgets
// (fig5, mcspice).
func optionStreams() []stream {
	p := tech.N10()
	var out []stream
	for _, o := range litho.Options {
		out = append(out, stream{p, o})
	}
	return out
}

// analyticTrials runs k analytic trials per stream the way the engine's
// trial does — draw, extract, then the formula at every size — with each
// layer's k calls under one span. It returns the trials attempted and
// rejected (extraction errors).
func (l *ladderRun) analyticTrials(streams []stream, sizes []int, k int) (attempted, rejected int, err error) {
	env := exp.DefaultEnv()
	m, err := env.Model()
	if err != nil {
		return 0, 0, err
	}
	for si, st := range streams {
		parent := l.tr.begin("bench.stream", l.root, -1)
		params := litho.Params(st.proc, st.opt)
		rng := rand.New(rand.NewSource(repSeed(l.cfg.seed, 2000+si)))
		samples := make([]litho.Sample, k)
		ratios := make([]extract.Ratios, 0, k)
		l.timed("litho.Draw", parent, k, func() error {
			for j := range samples {
				samples[j] = litho.Draw(params, rng)
			}
			return nil
		})
		l.timed("extract.VarRatios", parent, k, func() error {
			for _, s := range samples {
				r, err := extract.VarRatios(st.proc, st.opt, s, env.Cap)
				if err != nil {
					rejected++
					continue
				}
				ratios = append(ratios, r)
			}
			return nil
		})
		l.timed("analytic.TdpPct", parent, len(ratios)*len(sizes), func() error {
			var acc float64
			for _, r := range ratios {
				for _, n := range sizes {
					acc += m.TdpPct(n, r.Rvar, r.Cvar)
				}
			}
			sinkValue += acc
			return nil
		})
		l.tr.end(parent, 1)
		attempted += k
	}
	l.values["extract.errors"] += float64(rejected)
	return attempted, rejected, nil
}

// analyticEngine measures the layers of one analytic trial as the
// engine runs it on the given streams — reseed and fold, draw,
// extraction, the formula at every size — and returns the trial's CPU
// time in ns.
func (l *ladderRun) analyticEngine(streams []stream, sizes []int, samples, workers int) (float64, error) {
	mcns, err := l.mcOverhead(samples, workers, len(sizes), true)
	if err != nil {
		return 0, err
	}
	att, rej, err := l.analyticTrials(streams, sizes, min(samples, 5000))
	if err != nil {
		return 0, err
	}
	l.values["mc.reject_ratio"] = float64(rej) / float64(att)
	draw, ext := l.drawExtractCosts()
	tdp := l.perCall("analytic.TdpPct")
	l.values["analytic.tdp_ns"] = tdp
	return mcns + draw + ext + float64(len(sizes))*tdp, nil
}

// drawExtractCosts records and returns the per-call costs (ns) of the
// litho draw and the extraction measured so far.
func (l *ladderRun) drawExtractCosts() (draw, ext float64) {
	draw, ext = l.perCall("litho.Draw"), l.perCall("extract.VarRatios")
	l.values["litho.draw_ns"] = draw
	l.values["extract.var_ratios_ns"] = ext
	return draw, ext
}

// busy is the summed latency of the traced phase's successful operations.
func (l *ladderRun) busy() time.Duration {
	var d time.Duration
	for _, o := range l.traced.ops {
		if o.err == nil {
			d += o.latency
		}
	}
	return d
}

func (l *ladderRun) succeeded() int {
	n := 0
	for _, o := range l.traced.ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

// analyticLadder: one table4x run is 6 streams × analyticSamples trials
// spread over analyticWorkers workers. The SPICE layers are measured here
// too, on the same seed: no kept workload runs SPICE end to end.
func analyticLadder(l *ladderRun) error {
	trial, err := l.analyticEngine(table4xStreams(), exp.PaperSizes, analyticSamples, analyticWorkers)
	if err != nil {
		return err
	}
	l.predicted = time.Duration(6 * analyticSamples * trial / analyticWorkers * float64(l.succeeded()))
	return spiceLayers(l)
}

// measureCause classifies a failed trial by the deepest cause its error
// chain names: an LU pivot failure inside a Newton iteration is a pivot
// failure, not a Newton one.
func measureCause(err error) string {
	msg := strings.ToLower(err.Error())
	switch {
	case strings.Contains(msg, "pivot") || strings.Contains(msg, "singular") || strings.Contains(msg, "zero diagonal"):
		return "lu-pivot"
	case strings.Contains(msg, "converge"):
		return "newton"
	case strings.Contains(msg, "dc operating point"):
		return "dc-op"
	case strings.Contains(msg, "sense threshold"):
		return "sense-threshold"
	default:
		return "other"
	}
}

// spiceSession is the benchmark's copy of one SPICE worker's state: a
// column builder, whose resident engine runs the reads, and a separate
// engine for the DC operating point.
type spiceSession struct {
	env    exp.Env
	b      *sram.ColumnBuilder
	nom    sram.CellParasitics
	dc     *spice.Engine
	causes map[string]int
}

// spiceLayers measures the SPICE-in-the-loop trial of mcspice at its
// defaults on the benchmark's own session: a nominal read, then 3
// options × spiceSamples trials, each a draw, an extraction, a column
// build, a DC operating point on the session's own engine re-targeted at
// the trial's netlist, and the read. The read's self time excludes its
// column build. No kept workload runs SPICE, so this only records the
// layer metrics.
func spiceLayers(l *ladderRun) error {
	s := &spiceSession{env: exp.DefaultEnv(), causes: map[string]int{}}
	s.b = sram.NewColumnBuilder(tech.N10(), s.env.Cap)
	var err error
	if s.nom, err = s.b.Nominal(); err != nil {
		return err
	}
	if err := l.timed("sram.MeasureTd", l.root, 1, func() error {
		_, err := s.b.MeasureTd(spiceN, s.nom, s.env.Build, s.env.Sim)
		return err
	}); err != nil {
		return err
	}
	for si, st := range optionStreams() {
		params := litho.Params(st.proc, st.opt)
		rng := rand.New(rand.NewSource(repSeed(l.cfg.seed, 3000+si)))
		for k := 0; k < spiceSamples; k++ {
			s.trial(l, st, params, rng)
		}
	}
	measureErrs := 0
	for c, n := range s.causes {
		if c != "extract" {
			measureErrs += n
		}
		l.cfg.logf("SPICE trial rejects by cause: %s=%d", c, n)
	}
	l.values["sram.measure_errors"] = float64(measureErrs)
	l.values["extract.errors"] += float64(s.causes["extract"])
	build := l.perCall("sram.Build")
	l.values["sram.build_us"] = build / 1e3
	l.values["sram.measure_td_ms"] = (l.perCall("sram.MeasureTd") - build) / 1e6
	l.values["spice.dc_op_ms"] = l.perCall("spice.DCOperatingPoint") / 1e6
	return nil
}

// trial runs one SPICE trial's layers under a bench.trial span; a
// rejected trial is counted by cause.
func (s *spiceSession) trial(l *ladderRun, st stream, params []litho.Param, rng *rand.Rand) {
	parent := l.tr.begin("bench.trial", l.root, -1)
	defer l.tr.end(parent, 1)
	var smp litho.Sample
	l.timed("litho.Draw", parent, 1, func() error { smp = litho.Draw(params, rng); return nil })
	var r extract.Ratios
	if err := l.timed("extract.VarRatios", parent, 1, func() error {
		var err error
		r, err = extract.VarRatios(st.proc, st.opt, smp, s.env.Cap)
		return err
	}); err != nil {
		s.causes["extract"]++
		return
	}
	cp := s.nom.Scale(r)
	var col *sram.Column
	if err := l.timed("sram.Build", parent, 1, func() error {
		var err error
		col, err = s.b.Build(spiceN, cp, s.env.Build)
		return err
	}); err != nil {
		s.causes["build"]++
		return
	}
	if err := l.timed("spice.DCOperatingPoint", parent, 1, func() error {
		var err error
		if s.dc == nil {
			s.dc, err = spice.New(col.Netlist, spice.Options{})
		} else {
			err = s.dc.Reset(col.Netlist, spice.Options{})
		}
		if err != nil {
			return err
		}
		s.dc.SetNodeset(map[circuit.NodeID]float64{col.Q: 0, col.QB: st.proc.FEOL.Vdd})
		_, err = s.dc.DCOperatingPoint()
		return err
	}); err != nil {
		s.causes[measureCause(err)]++
		return
	}
	if err := l.timed("sram.MeasureTd", parent, 1, func() error {
		td, err := s.b.MeasureTd(spiceN, cp, s.env.Build, s.env.Sim)
		sinkValue += td
		return err
	}); err != nil {
		s.causes[measureCause(err)]++
	}
}

// renderCost times report.EncodeTables on res, the serve layer's body
// rendering, reps times under one span; it returns ns per call.
func (l *ladderRun) renderCost(res *exp.Result, reps int) (float64, error) {
	err := l.timed("report.EncodeTables", l.root, reps, func() error {
		for i := 0; i < reps; i++ {
			if _, err := report.EncodeTables(report.FormatJSON, res.Tables...); err != nil {
				return err
			}
		}
		return nil
	})
	ns := l.perCall("report.EncodeTables")
	l.values["report.render_us"] = ns / 1e3
	return ns, err
}

// serveCosts records the serve-layer metrics of the measured class from
// the traced phase: the handler time the server reports and the rest of
// the client's latency (transport).
func (l *ladderRun) serveCosts(class string) {
	var handler, transport []float64
	for _, o := range l.traced.ops {
		if o.err == nil && o.class == class {
			handler = append(handler, float64(o.handler)/1e6)
			transport = append(transport, float64(o.latency-o.handler)/1e6)
		}
	}
	l.values["serve.handler_ms"] = median(handler)
	l.values["serve.transport_ms"] = median(transport)
	l.values["core.key_us"] = l.perCall("core.Key") / 1e3
}

// mixLadder: a hit is a run key, the server's cache lookup and the
// transport; a cold request adds a table4x@coldSamples run on one engine
// worker and the body rendering.
func mixLadder(l *ladderRun) error {
	trial, err := l.analyticEngine(table4xStreams(), exp.PaperSizes, coldSamples, serveEngineWorkers)
	if err != nil {
		return err
	}
	res, err := warmRequest(l.cfg.seed, 0).spec().Run(core.WithWorkers(2))
	if err != nil {
		return err
	}
	render, err := l.renderCost(res, 200)
	if err != nil {
		return err
	}
	l.serveCosts("hit")
	key := l.perCall("core.Key")
	engine := 6 * coldSamples * trial / serveEngineWorkers
	var pred float64
	for _, o := range l.traced.ops {
		if o.err != nil {
			continue
		}
		pred += key + float64(o.latency-o.handler)
		if o.class == "cold" {
			pred += engine + render
		}
	}
	l.predicted = time.Duration(pred)
	return nil
}

// heavyLadder: a heavy request runs its two shards in parallel (one
// engine worker each), reduces them and renders the body. The shards run
// here one after the other through core.RunShard/core.Reduce, and the
// reduced tables must equal the library's direct run.
func heavyLadder(l *ladderRun) error {
	if _, err := l.analyticEngine(optionStreams(), []int{64}, heavySamples, serveEngineWorkers); err != nil {
		return err
	}
	r := heavyRequest(l.cfg.seed, 0)
	dir, err := os.MkdirTemp(l.cfg.tmp, "shards-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var paths []string
	for i := 0; i < heavyShards; i++ {
		p := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		paths = append(paths, p)
		sh := mc.ShardSpec{Index: i, Count: heavyShards}
		if err := l.timed("core.RunShard", l.root, 1, func() error {
			return core.RunShard(r.spec(), sh, p, core.ShardRunOptions{}, core.WithWorkers(serveEngineWorkers))
		}); err != nil {
			return err
		}
	}
	var res *exp.Result
	if err := l.timed("core.Reduce", l.root, 1, func() error {
		var err error
		res, err = core.Reduce(paths)
		return err
	}); err != nil {
		return err
	}
	got, err := renderTables(res)
	if err != nil {
		return err
	}
	want, _, err := reference(r)
	if err != nil {
		return err
	}
	l.checks++
	if !bytes.Equal(got, want) {
		l.failed++
	}
	render, err := l.renderCost(res, 200)
	if err != nil {
		return err
	}
	l.serveCosts("heavy")
	shard, reduce := l.perCall("core.RunShard"), l.perCall("core.Reduce")
	l.values["core.run_shard_s"] = shard / 1e9
	l.values["core.reduce_ms"] = reduce / 1e6
	key := l.perCall("core.Key")
	var pred float64
	for _, o := range l.traced.ops {
		if o.err == nil {
			pred += key + float64(o.latency-o.handler) + shard + reduce + render
		}
	}
	l.predicted = time.Duration(pred)
	return nil
}
