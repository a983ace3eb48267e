// The SPICE-in-the-loop Monte-Carlo driver: the statistical companion to
// Fig. 4 / Table III, with every tdp sample measured by a full read
// transient instead of the closed-form formula. Not a figure of the paper
// itself — the paper reports formula-driven distributions (Fig. 5,
// Table IV) — but the experiment its simulation-measured tables rest on,
// made affordable by the resident-engine trial path (sram.ColumnBuilder +
// spice.Engine.Reset).
package exp

import (
	"context"
	"fmt"
	"strings"

	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/sram"
	"mpsram/internal/stats"
)

func init() {
	Register(Workload{
		Name: "mcspice", Summary: "SPICE-in-the-loop Monte-Carlo tdp distributions (one transient per draw)",
		Order: 110,
		Params: []ParamSpec{
			{Name: "n", Kind: IntParam, Default: 64, Help: "array word-line count"},
			{Name: "sizes", Kind: StringParam, Default: "",
				Help: "comma-separated word-line counts (overrides -n)"},
			{Name: "cv", Kind: BoolParam, Default: false,
				Help: "control-variate estimator: pair every transient with the analytic formula on the same draw"},
			{Name: "adaptive", Kind: BoolParam, Default: false,
				Help: "adaptive step-doubling transient integrator (accuracy-gated, ~7× fewer steps)"},
		},
		// Every sample costs a full read transient, so the preferred
		// budget is the re-baselined 200 draws, not the analytic 10k.
		// With -cv each paired draw is worth ~1/(1−ρ̂²) plain draws, so
		// ~20 already buy comparable σ accuracy.
		Hints: Hints{Samples: 200, CVSamples: 20, Cost: 4000},
		Run: func(ctx context.Context, e Env, p Params) (*Result, error) {
			sizes := []int{p.Int("n")}
			if s := p.String("sizes"); s != "" {
				var err error
				if sizes, err = ParseSizes(s); err != nil {
					return nil, err
				}
			}
			if p.Bool("adaptive") {
				e.Sim.Adaptive = true
			}
			if p.Bool("cv") {
				return spiceMCCVResult(e, sizes)
			}
			rows, err := SpiceMC(e, sizes)
			if err != nil {
				return nil, err
			}
			return &Result{
				Data:   rows,
				Tables: []*report.Table{SpiceMCReport(rows)},
				Text:   FormatSpiceMC(rows, e.MC.Samples),
			}, nil
		},
	})
}

// SpiceMCRow is one (option, size) cell of the SPICE-in-the-loop
// Monte-Carlo: the distribution of the simulated tdp penalty in percent.
type SpiceMCRow struct {
	Option   litho.Option
	N        int
	Summary  stats.Summary
	Rejected int
}

// SpiceMC runs one SPICE-in-the-loop Monte-Carlo stream per patterning
// option at the given array sizes under the environment's sample budget.
// Each draw's lithography-perturbed parasitics are simulated at every
// size, so the per-option transient count is Samples × len(sizes) — size
// the budget accordingly (hundreds of samples, not the analytic path's
// tens of thousands). Results are bit-identical for any worker count.
func SpiceMC(e Env, sizes []int) ([]SpiceMCRow, error) {
	nom, nomTd, err := e.spiceNominals(sizes)
	if err != nil {
		return nil, fmt.Errorf("spice mc: %w", err)
	}
	var rows []SpiceMCRow
	for _, o := range litho.Options {
		vr, err := mc.SpiceTdpAcrossSizes(e.ctx(), e.Proc, o, e.Cap, sizes, nom, nomTd, e.Build, e.Sim, e.MC)
		if err != nil {
			return nil, fmt.Errorf("spice mc %v: %w", o, err)
		}
		for j, n := range sizes {
			rows = append(rows, SpiceMCRow{Option: o, N: n, Summary: vr.Summary(j), Rejected: vr.Rejected})
		}
	}
	return rows, nil
}

// spiceNominals resolves the option-independent inputs every SPICE-MC
// stream of a driver shares: the nominal per-cell parasitics and the
// nominal read time per size (the tdp denominators), extracted and
// simulated once for all options.
func (e Env) spiceNominals(sizes []int) (sram.CellParasitics, []float64, error) {
	if e.Cap == nil {
		return sram.CellParasitics{}, nil, fmt.Errorf("nil capacitance model")
	}
	if len(sizes) == 0 {
		return sram.CellParasitics{}, nil, fmt.Errorf("no array sizes requested")
	}
	seed := sram.NewColumnBuilder(e.Proc, e.Cap)
	nom, err := seed.Nominal()
	if err != nil {
		return sram.CellParasitics{}, nil, fmt.Errorf("nominal extraction: %w", err)
	}
	nomTd, err := seed.NominalTds(sizes, e.Build, e.Sim)
	if err != nil {
		return sram.CellParasitics{}, nil, err
	}
	return nom, nomTd, nil
}

// FormatSpiceMC renders the distributions paper-style. samples is the
// configured draw budget; the header spells out the actual transient
// count, which is draws × the number of distinct sizes in rows.
func FormatSpiceMC(rows []SpiceMCRow, samples int) string {
	distinct := map[int]bool{}
	for _, r := range rows {
		distinct[r.N] = true
	}
	nsizes := len(distinct)
	if nsizes == 0 {
		nsizes = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SPICE-in-the-loop Monte-Carlo tdp distributions (%d draws × %d size(s) = %d read transients per option)\n",
		samples, nsizes, samples*nsizes)
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %10s %10s %10s\n",
		"option", "array", "mean", "std", "p05", "median", "p95")
	for _, r := range rows {
		s := r.Summary
		fmt.Fprintf(&b, "%-8v 10x%-5d %+9.3f%% %9.3f%% %+9.3f%% %+9.3f%% %+9.3f%%\n",
			r.Option, r.N, s.Mean, s.Std, s.P05, s.Median, s.P95)
	}
	return b.String()
}

// SpiceMCReport converts the rows for csv/md output.
func SpiceMCReport(rows []SpiceMCRow) *report.Table {
	t := report.New("SPICE-in-the-loop Monte-Carlo tdp distributions",
		"option", "wordlines", "samples", "rejected", "mean_pct", "std_pct", "p05_pct", "median_pct", "p95_pct")
	for _, r := range rows {
		s := r.Summary
		_ = t.Appendf(r.Option.String(), r.N, s.N, r.Rejected, s.Mean, s.Std, s.P05, s.Median, s.P95)
	}
	return t
}
