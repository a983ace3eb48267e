package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracedRun is the traced run: an untraced phase and a traced phase of
// half the run length each, on fresh instances with the same schedule
// (so outputs compare entry by entry and cold requests are cold in
// both), then the layer ladder. It reports the per-layer metrics.
func tracedRun(w *workload, cfg runConfig) (*result, error) {
	half := cfg.duration / 2
	var t tally
	a, err := w.setup(cfg, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := a.prepare(); err != nil {
		a.close()
		return nil, fmt.Errorf("prepare: %w", err)
	}
	// The untraced half runs the same healthz poller as the traced half,
	// and drops its samples, so that the tracer is the only difference
	// between the halves.
	mon, err := watchHealth(a.servers())
	if err != nil {
		a.close()
		return nil, err
	}
	untraced := drive(a, w.clients, half, nil)
	if _, err := mon.stop(); err != nil {
		a.close()
		return nil, err
	}
	if err := a.close(); err != nil {
		return nil, err
	}
	t.addPhase(untraced)

	b, err := w.setup(cfg, 1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			b.close()
		}
	}()
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	tr := newTracer()
	mon, err = watchHealth(b.servers())
	if err != nil {
		return nil, err
	}
	traced := drive(b, w.clients, half, tr)
	hz, err := mon.stop()
	if err != nil {
		return nil, err
	}
	t.addPhase(traced)
	c, f := sameOutputs(untraced.ops, traced.ops)
	cfg.logf("traced vs untraced outputs: %d of %d differ", f, c)
	t.add(c, f)
	c, f, err = b.verify(traced.ops)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	t.add(c, f)

	l := &ladderRun{cfg: cfg, tr: tr, traced: traced, values: map[string]float64{}}
	l.root = tr.begin("bench.ladder", 0, -1)
	err = w.ladder(l)
	tr.end(l.root, 1)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	t.add(l.checks, l.failed)
	closed = true
	if err := b.close(); err != nil {
		return nil, err
	}
	hz.record(l.values, traced)

	tpsA := float64(untraced.trials()) / untraced.elapsed.Seconds()
	tpsB := float64(traced.trials()) / traced.elapsed.Seconds()
	l.values["trace.overhead_frac"] = (tpsA - tpsB) / tpsA
	busy := l.busy()
	l.values["trace.residual_frac"] = float64(busy-l.predicted) / float64(busy)
	cfg.logf("attribution: traced busy %.4g s, explained by measured layers %.4g s", busy.Seconds(), l.predicted.Seconds())

	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	cfg.logf("spans: %d written to %s", len(tr.snapshot()), path)
	printLayers(cfg, tr.snapshot())
	reportPhase(cfg, traced)
	reportFailures(cfg, traced, t)

	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	cfg.logf("%-26s %-12s %-6s %-24s %-s", "per-layer metric", "value", "unit", "should move", "on / predicted no change on")
	for _, m := range layerMetrics {
		v := l.values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		cfg.logf("%-26s %-12.6g %-6s %-24s %s / %s", m.name, v, m.unit, m.moves, m.on, m.same)
	}
	return res, nil
}

// printLayers prints each layer's self time and call count in the trace.
func printLayers(cfg runConfig, spans []span) {
	layers := byLayer(spans)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := layers[n]
		cfg.logf("layer %-8s self %10.4g ms  calls %-9d spans %d", n, float64(c.Self)/1e6, c.Calls, c.Spans)
	}
}

// healthWatch samples the coordinator's healthz during the traced phase.
type healthWatch struct {
	url      string
	hc       *http.Client
	before   health
	maxQueue int
	stopc    chan struct{}
	done     chan error
}

// healthDelta is the traced phase's healthz change.
type healthDelta struct {
	on            bool
	before, after health
	maxQueue      int
}

func watchHealth(fleet []*liveServer) (*healthWatch, error) {
	if len(fleet) == 0 {
		return &healthWatch{}, nil
	}
	w := &healthWatch{url: fleet[0].url, hc: newClient(1), stopc: make(chan struct{}), done: make(chan error, 1)}
	var err error
	if w.before, err = getHealth(w.hc, w.url); err != nil {
		return nil, err
	}
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				w.done <- nil
				return
			case <-tick.C:
				h, err := getHealth(w.hc, w.url)
				if err != nil {
					w.done <- err
					return
				}
				w.maxQueue = max(w.maxQueue, h.QueueDepth)
			}
		}
	}()
	return w, nil
}

func (w *healthWatch) stop() (healthDelta, error) {
	if w.url == "" {
		return healthDelta{}, nil
	}
	close(w.stopc)
	if err := <-w.done; err != nil {
		return healthDelta{}, err
	}
	after, err := getHealth(w.hc, w.url)
	return healthDelta{on: true, before: w.before, after: after, maxQueue: w.maxQueue}, err
}

// record stores the serve and remote counters of the traced phase.
func (d healthDelta) record(v map[string]float64, traced phase) {
	if !d.on {
		return
	}
	hits := d.after.CacheHits - d.before.CacheHits
	misses := d.after.CacheMisses - d.before.CacheMisses
	if hits+misses > 0 {
		v["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["serve.queue_depth_max"] = float64(d.maxQueue)
	v["serve.shards_redispatched"] = float64(d.after.Fanout.ShardsRedispatched - d.before.Fanout.ShardsRedispatched)
	shed := 0
	for _, o := range traced.ops {
		if o.err != nil && strings.Contains(o.err.Error(), "status 429") {
			shed++
		}
	}
	v["serve.shed"] = float64(shed)
	if runs := len(traced.ops); runs > 0 {
		v["remote.shipped_mb_per_run"] = float64(d.after.Remote.ShippedBytes-d.before.Remote.ShippedBytes) / 1e6 / float64(runs)
	}
	v["remote.failed_over"] = float64(d.after.Remote.FailedOver - d.before.Remote.FailedOver)
}
