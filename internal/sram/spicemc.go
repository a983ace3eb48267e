// SPICE-in-the-loop Monte-Carlo support: the per-worker trial function
// behind mc.SpiceTdpAcrossSizes. Where the analytic Monte-Carlo evaluates
// the paper's closed-form tdp formula on each process-variation draw, this
// path realizes the drawn lithography sample into perturbed parasitics and
// runs the full read transient per array size — the experiment the paper's
// Tables II–IV actually rest on. The ColumnBuilder session keeps the cost
// per trial sane: one reusable netlist scratch and one resident SPICE
// engine (re-targeted with spice.Engine.Reset) per worker, so the hot loop
// performs no per-trial engine construction.
package sram

import (
	"fmt"
	"math/rand"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
)

// NominalTds simulates the nominal read at every size, the denominators of
// the per-trial tdp observables. Deterministic — callers compute it once
// and share it read-only across workers.
func (b *ColumnBuilder) NominalTds(sizes []int, bopt BuildOptions, sopt SimOptions) ([]float64, error) {
	nom, err := b.Nominal()
	if err != nil {
		return nil, err
	}
	tds := make([]float64, len(sizes))
	for j, n := range sizes {
		td, err := b.MeasureTd(n, nom, bopt, sopt)
		if err != nil {
			return nil, fmt.Errorf("sram: nominal td at n=%d: %w", n, err)
		}
		if td <= 0 {
			return nil, fmt.Errorf("sram: non-positive nominal td %g at n=%d", td, n)
		}
		tds[j] = td
	}
	return tds, nil
}

// TrialFunc returns the SPICE-in-the-loop Monte-Carlo trial function for
// option o: each invocation draws one Gaussian lithography sample from
// rng (litho.Draw — the same canonical stream the analytic
// mc.SampleRatios consumes, so the two paths see identical draws),
// extracts the variability ratios, and simulates the read at every size,
// writing the tdp penalty in percent into out[j] for sizes[j]. Draws whose
// geometry collapses (extraction error) or whose transient fails reject
// the trial by returning false.
//
// nomTd must hold the nominal read times for sizes (see NominalTds). The
// returned closure drives this builder's netlist scratch and resident
// engine, so it inherits the session's concurrency contract: one builder
// per worker.
func (b *ColumnBuilder) TrialFunc(o litho.Option, sizes []int, nomTd []float64, bopt BuildOptions, sopt SimOptions) func(*rand.Rand, []float64) bool {
	measure := b.trial(o, sizes, nomTd, bopt, sopt)
	return func(rng *rand.Rand, out []float64) bool {
		_, ok := measure(rng, out)
		return ok
	}
}

// PairedTrialFunc is TrialFunc's control-variate companion: the same
// draw → extract → transient trial writes the SPICE-measured penalty into
// y[j], and ctrl — a cheap model of the tdp penalty as a function of the
// array size and the extracted variability ratios (in practice the
// paper's closed-form formula) — evaluated on the *same* extracted ratios
// fills x[j]. Because both observables share one draw and one extraction,
// the pair is maximally correlated by construction and the SPICE stream
// is bitwise identical to TrialFunc's for the same (Seed, trial).
//
// ctrl must be deterministic and reentrant: one closure is shared across
// workers (it closes over read-only model parameters, not sessions).
func (b *ColumnBuilder) PairedTrialFunc(o litho.Option, sizes []int, nomTd []float64, ctrl func(n int, r extract.Ratios) float64, bopt BuildOptions, sopt SimOptions) func(*rand.Rand, []float64, []float64) bool {
	measure := b.trial(o, sizes, nomTd, bopt, sopt)
	return func(rng *rand.Rand, y, x []float64) bool {
		r, ok := measure(rng, y)
		if !ok {
			return false
		}
		for j, n := range sizes {
			x[j] = ctrl(n, r)
		}
		return true
	}
}

// trial is the draw → extract → scale → measure loop both trial functions
// share: it writes the tdp penalty per size into out and returns the
// extracted ratios, or false when the draw is rejected.
func (b *ColumnBuilder) trial(o litho.Option, sizes []int, nomTd []float64, bopt BuildOptions, sopt SimOptions) func(*rand.Rand, []float64) (extract.Ratios, bool) {
	params := litho.Params(b.Proc, o)
	return func(rng *rand.Rand, out []float64) (extract.Ratios, bool) {
		s := litho.Draw(params, rng)
		r, err := extract.VarRatios(b.Proc, o, s, b.Cap)
		if err != nil {
			return r, false
		}
		nom, err := b.Nominal()
		if err != nil {
			return r, false
		}
		cp := nom.Scale(r)
		for j, n := range sizes {
			td, err := b.MeasureTd(n, cp, bopt, sopt)
			if err != nil {
				return r, false
			}
			out[j] = (td/nomTd[j] - 1) * 100
		}
		return r, true
	}
}
