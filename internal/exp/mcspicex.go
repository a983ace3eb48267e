// The full-DOE SPICE-MC surface: SPICE-measured versus analytic tdp σ
// across array sizes and patterning options — the statistical analogue of
// table4x with every SPICE sample costing a real read transient. Both
// paths consume the same deterministic (Seed, trial) sample stream, so
// the per-cell σ delta isolates the measurement method (full transient
// versus closed-form formula), not the sampling.
//
// This file is also the registry's proof of surface: the workload below
// registers itself with one init() block and needs no edits anywhere else
// — not the CLI dispatch, not the usage text, not the smoke harness.
package exp

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/report"
	"mpsram/internal/stats"
)

func init() {
	Register(Workload{
		Name: "mcspicex", Summary: "SPICE-measured vs analytic tdp sigma across the array DOE (full-DOE SPICE-MC)",
		Order: 115,
		Params: []ParamSpec{
			{Name: "sizes", Kind: StringParam, Default: "16,64,256,1024",
				Help: "comma-separated array word-line counts"},
			{Name: "cv", Kind: BoolParam, Default: false,
				Help: "control-variate estimator: one paired SPICE+formula stream instead of two parallel streams"},
			{Name: "adaptive", Kind: BoolParam, Default: false,
				Help: "adaptive step-doubling transient integrator (accuracy-gated, ~7× fewer steps)"},
		},
		// Transient budget: Samples × sizes per option. 120 draws keeps
		// the full DOE in SPICE-MC territory (~minutes, not hours); the
		// smoke override trims the DOE to the two smallest arrays. With
		// -cv the paired estimator's variance reduction makes ~16 draws
		// comparable.
		Hints: Hints{Samples: 120, CVSamples: 16, Smoke: Params{"sizes": "8,16"}, Cost: 4000},
		Run: func(ctx context.Context, e Env, p Params) (*Result, error) {
			sizes, err := ParseSizes(p.String("sizes"))
			if err != nil {
				return nil, err
			}
			if p.Bool("adaptive") {
				e.Sim.Adaptive = true
			}
			if p.Bool("cv") {
				return spiceMCCVResult(e, sizes)
			}
			rows, err := MCSpiceX(e, sizes)
			if err != nil {
				return nil, err
			}
			return &Result{
				Data:   rows,
				Tables: []*report.Table{MCSpiceXReport(rows)},
				Text:   FormatMCSpiceX(rows, e.MC.Samples),
			}, nil
		},
	})
}

// ParseSizes parses a comma-separated word-line count list.
func ParseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid array size %q (want comma-separated positive integers)", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no array sizes in %q", s)
	}
	return sizes, nil
}

// MCSpiceXRow is one (option, size) cell: the simulated and the analytic
// tdp distribution over the same sample stream.
type MCSpiceXRow struct {
	Option   litho.Option
	N        int
	Spice    stats.Summary // tdp measured by full read transients
	Analytic stats.Summary // tdp from the closed-form formula
	Rejected int           // rejected draws on the SPICE path
}

// SigmaDeltaPct is the relative σ deviation of the SPICE measurement from
// the analytic prediction, in percent.
func (r MCSpiceXRow) SigmaDeltaPct() float64 {
	if r.Analytic.Std == 0 {
		return 0
	}
	return (r.Spice.Std/r.Analytic.Std - 1) * 100
}

// MCSpiceX runs the paired SPICE/analytic Monte-Carlo across the DOE: per
// option, one SPICE-in-the-loop stream (full read transient per draw and
// size, nominal transients shared across options) and one analytic stream
// with the same (Seed, trial) deviates, summarized side by side. Results
// are bit-identical for any worker count on both paths.
func MCSpiceX(e Env, sizes []int) ([]MCSpiceXRow, error) {
	nom, nomTd, err := e.spiceNominals(sizes)
	if err != nil {
		return nil, fmt.Errorf("mcspicex: %w", err)
	}
	m, err := e.Model()
	if err != nil {
		return nil, fmt.Errorf("mcspicex: %w", err)
	}
	var rows []MCSpiceXRow
	for _, o := range litho.Options {
		sp, err := mc.SpiceTdpAcrossSizes(e.ctx(), e.Proc, o, e.Cap, sizes, nom, nomTd, e.Build, e.Sim, e.MC)
		if err != nil {
			return nil, fmt.Errorf("mcspicex %v (spice): %w", o, err)
		}
		an, err := mc.TdpAcrossSizes(e.ctx(), e.Proc, o, m, e.Cap, sizes, e.MC)
		if err != nil {
			return nil, fmt.Errorf("mcspicex %v (analytic): %w", o, err)
		}
		for j, n := range sizes {
			rows = append(rows, MCSpiceXRow{
				Option:   o,
				N:        n,
				Spice:    sp.Summary(j),
				Analytic: an.Summary(j),
				Rejected: sp.Rejected,
			})
		}
	}
	return rows, nil
}

// FormatMCSpiceX renders the comparison paper-style. samples is the
// configured draw budget per option.
func FormatMCSpiceX(rows []MCSpiceXRow, samples int) string {
	distinct := map[int]bool{}
	for _, r := range rows {
		distinct[r.N] = true
	}
	nsizes := len(distinct)
	if nsizes == 0 {
		nsizes = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SPICE-measured vs analytic tdp σ across the array DOE (%d draws × %d size(s) = %d read transients per option)\n",
		samples, nsizes, samples*nsizes)
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s %12s %12s\n",
		"option", "array", "σ_spice", "σ_formula", "Δσ", "mean_spice", "mean_form")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v 10x%-5d %11.3f%% %11.3f%% %+9.2f%% %+11.3f%% %+11.3f%%\n",
			r.Option, r.N, r.Spice.Std, r.Analytic.Std, r.SigmaDeltaPct(),
			r.Spice.Mean, r.Analytic.Mean)
	}
	return b.String()
}

// MCSpiceXReport converts the rows for csv/md/json output.
func MCSpiceXReport(rows []MCSpiceXRow) *report.Table {
	t := report.New("SPICE-measured vs analytic tdp sigma across the array DOE",
		"option", "wordlines", "samples", "rejected",
		"spice_sigma_pct", "ana_sigma_pct", "sigma_delta_pct",
		"spice_mean_pct", "ana_mean_pct")
	for _, r := range rows {
		_ = t.Appendf(r.Option.String(), r.N, r.Spice.N, r.Rejected,
			r.Spice.Std, r.Analytic.Std, r.SigmaDeltaPct(),
			r.Spice.Mean, r.Analytic.Mean)
	}
	return t
}
