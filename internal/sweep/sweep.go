// Package sweep is the sharded SPICE sweep engine behind the paper's
// simulation-driven results (Fig. 4, Table II, Table III) and their
// multi-node extensions.
//
// Callers describe what they need as a declarative Plan of simulation
// points keyed by (option, sample kind, array size); the engine
// deduplicates points that denote the same transient before running
// anything. Two dedup rules do the heavy lifting:
//
//   - Nominal points are option-independent (every patterning engine
//     draws the same nominal geometry), so one nominal transient per
//     size serves all options — and all consumers: the same
//     simulation feeds Fig. 4's td_nom column, Table II's simulation
//     column and the tdp denominators of Table III.
//   - Worst-case points are memoized per (option, size): Fig. 4 and
//     Table III read the same transient instead of re-running it.
//
// A sweep runs on one process, Env.Proc; a multi-node study runs one
// sweep per node.
//
// The deduped job set executes on a worker pool. Each worker owns one
// sram.ColumnBuilder — a session that caches the nominal extraction,
// rebuilds every column into one reusable netlist and re-targets one
// resident SPICE engine — and pulls jobs off a shared cursor. Worst-case
// corner searches and the nominal extraction run once, up front, and are
// shared read-only by all workers. The context cancels the sweep between
// jobs; progress callbacks are serialized and strictly increasing. Every
// job is an independent, deterministic simulation written to its own
// result slot, so a sweep's results are bit-identical for any worker
// count — and bit-identical to building a fresh column per read
// (sram.BuildColumn + Column.MeasureTd).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

// Kind classifies the variation sample of a simulation point.
type Kind int

const (
	// Nominal is the zero-variation sample. Nominal geometry does not
	// depend on the patterning option, so nominal points dedupe across
	// options: the plan canonicalizes their Option away.
	Nominal Kind = iota
	// WorstCase is the option's worst-case ±3σ corner (the paper's
	// Table I criterion: the corner maximizing the Cbl increase).
	WorstCase
)

func (k Kind) String() string {
	switch k {
	case Nominal:
		return "nominal"
	case WorstCase:
		return "worst-case"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Point identifies one transient read simulation.
type Point struct {
	Option litho.Option
	Kind   Kind
	N      int
}

func (p Point) String() string {
	if p.Kind == Nominal {
		return fmt.Sprintf("nominal n=%d", p.N)
	}
	return fmt.Sprintf("%v %v n=%d", p.Option, p.Kind, p.N)
}

// canonical collapses equivalent points onto one key: nominal geometry is
// option-independent, so every nominal point maps to the zero Option.
func (p Point) canonical() Point {
	if p.Kind == Nominal {
		p.Option = litho.Option(0)
	}
	return p
}

// Plan is a declarative, deduplicating set of simulation points. Adding a
// point that denotes an already-planned transient is a no-op, so
// independent consumers (the Fig. 4, Table II and Table III drivers) can
// each declare their full needs and share one execution.
type Plan struct {
	order []Point
	seen  map[Point]struct{}
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{seen: make(map[Point]struct{})}
}

// Add declares simulation points, coalescing duplicates.
func (pl *Plan) Add(pts ...Point) {
	for _, p := range pts {
		c := p.canonical()
		if _, ok := pl.seen[c]; ok {
			continue
		}
		pl.seen[c] = struct{}{}
		pl.order = append(pl.order, c)
	}
}

// AddNominal declares the nominal transient at each size.
func (pl *Plan) AddNominal(sizes ...int) {
	for _, n := range sizes {
		pl.Add(Point{Kind: Nominal, N: n})
	}
}

// AddWorstCase declares the worst-case transient for option o at each
// size.
func (pl *Plan) AddWorstCase(o litho.Option, sizes ...int) {
	for _, n := range sizes {
		pl.Add(Point{Option: o, Kind: WorstCase, N: n})
	}
}

// Len returns the number of unique transients the plan will run.
func (pl *Plan) Len() int { return len(pl.order) }

// jobs returns the unique points in a canonical deterministic order
// (independent of the order consumers declared them): worst-case work
// first, largest arrays first, so the expensive transients start before
// the pool drains and the tail stays short.
func (pl *Plan) jobs() []Point {
	js := append([]Point(nil), pl.order...)
	sort.Slice(js, func(i, j int) bool {
		a, b := js[i], js[j]
		if a.N != b.N {
			return a.N > b.N
		}
		if a.Kind != b.Kind {
			return a.Kind > b.Kind
		}
		return a.Option < b.Option
	})
	return js
}

// options returns the distinct options of the plan's worst-case points
// in deterministic order.
func (pl *Plan) options() []litho.Option {
	seen := map[litho.Option]bool{}
	var out []litho.Option
	for _, p := range pl.order {
		if p.Kind == WorstCase && !seen[p.Option] {
			seen[p.Option] = true
			out = append(out, p.Option)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Env bundles the simulation environment of a sweep.
type Env struct {
	// Proc is the process every point of the plan runs on.
	Proc  tech.Process
	Cap   extract.CapModel
	Build sram.BuildOptions
	Sim   sram.SimOptions
}

// Config tunes the execution of a sweep.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). Results are
	// bit-identical for any value.
	Workers int
	// Progress, if non-nil, is called as jobs complete with the number
	// of finished unique transients and the total. Calls are serialized
	// and done is strictly increasing, so the callback needs no locking.
	Progress func(done, total int)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is an executed plan: a memo of every simulated transient, which
// the figure and table drivers consume as views.
type Result struct {
	td  map[Point]float64
	wc  map[litho.Option]extract.WorstCaseResult
	nom sram.CellParasitics
}

// Td returns the simulated read time of point p, if it was planned.
func (r *Result) Td(p Point) (float64, bool) {
	td, ok := r.td[p.canonical()]
	return td, ok
}

// TdNom returns the nominal read time at size n, if planned.
func (r *Result) TdNom(n int) (float64, bool) {
	return r.Td(Point{Kind: Nominal, N: n})
}

// TdpPct returns the paper's worst-case read-time penalty
// (td/tdnom − 1)·100 for option o at size n; both the worst-case and the
// nominal transient must have been planned.
func (r *Result) TdpPct(o litho.Option, n int) (float64, bool) {
	td, ok1 := r.Td(Point{Option: o, Kind: WorstCase, N: n})
	nom, ok2 := r.TdNom(n)
	if !ok1 || !ok2 || nom <= 0 {
		return 0, false
	}
	return (td/nom - 1) * 100, true
}

// WorstCase returns the corner-search result the sweep resolved for
// option o (present for every option with worst-case points in the
// plan).
func (r *Result) WorstCase(o litho.Option) (extract.WorstCaseResult, bool) {
	wc, ok := r.wc[o]
	return wc, ok
}

// Nominal returns the nominal per-cell parasitics of the sweep's process.
func (r *Result) Nominal() sram.CellParasitics { return r.nom }

// Jobs returns the number of unique transients the sweep ran.
func (r *Result) Jobs() int { return len(r.td) }

// Run executes the plan's deduplicated job set and returns the memoized
// results. The shared inputs — the nominal parasitics and one worst-case
// corner search per option — are resolved once before the pool starts;
// each worker then simulates with its own reusable ColumnBuilder session.
func Run(ctx context.Context, env Env, plan *Plan, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if env.Cap == nil {
		return nil, fmt.Errorf("sweep: nil capacitance model")
	}
	if plan == nil || plan.Len() == 0 {
		return nil, fmt.Errorf("sweep: empty plan")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: canceled before start: %w", err)
	}

	nom, err := sram.NominalParasitics(env.Proc, env.Cap)
	if err != nil {
		return nil, fmt.Errorf("sweep: nominal extraction (%s): %w", env.Proc.Name, err)
	}
	res := &Result{
		td:  make(map[Point]float64, plan.Len()),
		wc:  make(map[litho.Option]extract.WorstCaseResult),
		nom: nom,
	}
	for _, o := range plan.options() {
		wc, err := extract.WorstCase(env.Proc, o, env.Cap)
		if err != nil {
			return nil, fmt.Errorf("sweep: worst case %s %v: %w", env.Proc.Name, o, err)
		}
		res.wc[o] = wc
	}

	jobs := plan.jobs()
	tds := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	// A failed job cancels the pool so the sweep fails fast instead of
	// simulating the remaining transients (matching the serial path's
	// first-error return).
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	nw := cfg.workers()
	if nw > len(jobs) {
		nw = len(jobs)
	}
	var (
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup

		// Progress calls are serialized and gated on a high-water mark
		// so the callback observes strictly increasing done values even
		// when workers finish jobs out of order.
		progressMu sync.Mutex
		progressHW int
	)
	report := func(d int) {
		progressMu.Lock()
		if d > progressHW {
			progressHW = d
			cfg.Progress(d, len(jobs))
		}
		progressMu.Unlock()
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable build/simulate session per worker; the
			// coordinator's nominal extraction seeds its cache.
			b := sram.NewColumnBuilder(env.Proc, env.Cap)
			b.SetNominal(nom)
			for {
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				p := jobs[i]
				cp := nom
				if p.Kind == WorstCase {
					cp = nom.Scale(res.wc[p.Option].Ratios)
				}
				td, err := b.MeasureTd(p.N, cp, env.Build, env.Sim)
				if err != nil {
					errs[i] = fmt.Errorf("sweep: %v: %w", p, err)
					cancelRun()
				} else {
					tds[i] = td
				}
				d := done.Add(1)
				if cfg.Progress != nil {
					report(int(d))
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: canceled after %d of %d transients: %w",
			done.Load(), len(jobs), err)
	}
	// The first recorded error in job order is surfaced (later jobs may
	// have been skipped by the fail-fast cancellation).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, p := range jobs {
		res.td[p] = tds[i]
	}
	return res, nil
}
