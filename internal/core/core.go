// Package core is the public facade of the mpsram library: one Study
// object that wires the technology description, the patterning engines,
// the parasitic extractor, the SPICE simulator, the analytical model and
// the Monte-Carlo machinery into the paper's experiments.
//
// Experiments are addressed through the workload registry: Run executes
// any registered workload by name with typed, schema-validated
// parameters, Workloads lists the registry, and RunAll executes the
// paper-order plan. Typical use:
//
//	study, _ := core.NewStudy()
//	res, _ := study.Run("table4", nil)      // Table IV as a Result
//	res.Write(os.Stdout, report.FormatJSON) // any format, one encoder
//	res, _ = study.Run("fig4", nil)         // Fig. 4 from one SPICE sweep
//	study.RunAll(os.Stdout)                 // every table and figure
//
// The typed rows of a workload are res.Data, asserted to the workload's
// row type (for example []exp.Table1Row for table1).
package core

import (
	"context"
	"fmt"
	"io"

	"mpsram/internal/analytic"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/sram"
	"mpsram/internal/stats"
	"mpsram/internal/tech"
)

// Study is a configured reproduction environment.
type Study struct {
	Env exp.Env
}

// Option customizes a Study.
type Option func(*exp.Env)

// WithProcess replaces the primary technology preset.
func WithProcess(p tech.Process) Option { return func(e *exp.Env) { e.Proc = p } }

// WithProcesses replaces the node comparison set of the cross-process
// workloads (nodes, table4xp). The default set is the full
// registry: N10, N7, N5.
func WithProcesses(procs ...tech.Process) Option {
	return func(e *exp.Env) { e.Procs = append([]tech.Process(nil), procs...) }
}

// LookupProcess resolves a preset name against the default registry. An
// unknown name returns an error listing the valid names — CLIs should
// surface it verbatim.
func LookupProcess(name string) (tech.Process, error) {
	return tech.Default().Lookup(name)
}

// ProcessNames returns the default registry's preset names in order.
func ProcessNames() []string { return tech.Default().Names() }

// WithCapModel selects the capacitance model (default Sakurai–Tamaru).
func WithCapModel(cm extract.CapModel) Option { return func(e *exp.Env) { e.Cap = cm } }

// WithMC overrides the Monte-Carlo configuration. A progress callback
// already installed with WithProgress survives unless cfg brings its own,
// so the two options compose in either order.
func WithMC(cfg mc.Config) Option {
	return func(e *exp.Env) {
		if cfg.Progress == nil {
			cfg.Progress = e.MC.Progress
		}
		e.MC = cfg
	}
}

// WithOverlay sets the LE3 overlay 3σ budget in metres.
func WithOverlay(ol float64) Option { return func(e *exp.Env) { e.Proc = e.Proc.WithOL(ol) } }

// WithBuild overrides the SRAM column construction options.
func WithBuild(b sram.BuildOptions) Option { return func(e *exp.Env) { e.Build = b } }

// WithContext attaches a cancellation context to the Monte-Carlo
// experiments: canceling it aborts a running study between trial blocks.
func WithContext(ctx context.Context) Option { return func(e *exp.Env) { e.Ctx = ctx } }

// WithProgress installs a progress callback on both engines: the
// Monte-Carlo engine invokes it as trial blocks complete and the SPICE
// sweep engine as transients complete, each with (done, total). Both
// serialize their calls with strictly increasing done values; a new
// stream restarts from a lower done.
func WithProgress(fn func(done, total int)) Option {
	return func(e *exp.Env) {
		e.MC.Progress = fn
		e.Sweep.Progress = fn
	}
}

// WithWorkers sets the worker-pool size of both the Monte-Carlo and the
// SPICE sweep engines (0 = GOMAXPROCS). Results are bit-identical for any
// worker count.
func WithWorkers(n int) Option {
	return func(e *exp.Env) {
		e.MC.Workers = n
		e.Sweep.Workers = n
	}
}

// NewStudy builds a study on the N10 preset with the paper's defaults
// and the full node registry as the cross-process comparison set.
func NewStudy(opts ...Option) (*Study, error) {
	env := exp.DefaultEnv()
	for _, o := range opts {
		o(&env)
	}
	if err := env.Proc.Validate(); err != nil {
		return nil, err
	}
	for _, p := range env.Procs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	if env.Cap == nil {
		return nil, fmt.Errorf("core: nil capacitance model")
	}
	return &Study{Env: env}, nil
}

// Run executes a registered workload by name with schema-validated
// parameters — the one experiment surface. The environment's context,
// budget, process and worker configuration all apply; the result carries
// the typed rows, the tabular view for the shared csv/md/json encoders
// and the paper-style text.
func (s *Study) Run(name string, p exp.Params) (*exp.Result, error) {
	return exp.Run(nil, s.Env, name, p)
}

// Workloads lists the experiment registry in listing order.
func (s *Study) Workloads() []exp.Workload { return exp.Workloads() }

// Model returns the analytical formula parameters for this study.
func (s *Study) Model() (analytic.Params, error) { return s.Env.Model() }

// Ratios extracts the variability ratios for a sample.
func (s *Study) Ratios(o litho.Option, smp litho.Sample) (extract.Ratios, error) {
	return extract.VarRatios(s.Env.Proc, o, smp, s.Env.Cap)
}

// TdpDistribution runs a Monte-Carlo tdp distribution at array size n for
// option o with this study's sample budget.
func (s *Study) TdpDistribution(o litho.Option, n int) (stats.Summary, error) {
	m, err := s.Model()
	if err != nil {
		return stats.Summary{}, err
	}
	ctx := s.Env.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := mc.TdpDistribution(ctx, s.Env.Proc, o, m, s.Env.Cap, n, s.Env.MC)
	if err != nil {
		return stats.Summary{}, err
	}
	return res.Summary, nil
}

// RunAll executes every experiment of the paper-order plan — the
// registry workloads marked for it, including the shared-sweep
// spicetables composite — and writes the paper-style report.
func (s *Study) RunAll(w io.Writer) error {
	res, err := s.Run("all", nil)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, res.Text)
	return err
}
