package stats

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzStream generates a random stream whose family is picked by shape:
// Gaussian, uniform, heavy-tailed (exponentiated Gaussian) or bimodal —
// the marker-stressing distributions for the P² estimator.
func fuzzStream(rng *rand.Rand, shape uint8, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch shape % 4 {
		case 0:
			vals[i] = rng.NormFloat64()
		case 1:
			vals[i] = rng.Float64()*20 - 10
		case 2:
			vals[i] = math.Exp(rng.NormFloat64())
		default:
			m := -3.0
			if rng.Intn(2) == 1 {
				m = 3.0
			}
			vals[i] = m + 0.5*rng.NormFloat64()
		}
	}
	return vals
}

// p2Tolerance returns the acceptance band for an estimate over a stream
// with the given spread: P² is an O(1)-memory approximation, so the band
// is a fraction of the observed range — tight for long light-tailed
// streams, wider for short ones. For the stress families the band
// degrades to the hard [min, max] envelope: five markers cannot summarize
// a short stream, the parabolic update assumes a locally smooth CDF (the
// centre marker is known to lag in the empty gap of a bimodal stream),
// and heavy-tailed streams make range-relative bounds meaningless because
// one extreme observation stretches the range arbitrarily — all
// documented limitations of the algorithm, not defects of this
// implementation.
func p2Tolerance(n int, spread float64, strict, merged bool) float64 {
	if n < 64 || !strict {
		return spread
	}
	tol := 0.3 * spread
	if n >= 1024 {
		tol = 0.15 * spread
	}
	if merged {
		// The CDF-resampling Merge stacks a second approximation on top
		// of the sketches it combines.
		tol *= 1.5
	}
	return tol + 1e-12
}

// FuzzControlVariate checks the paired accumulator's merge invariance on
// random correlated streams: splitting the stream at an arbitrary point
// and merging must agree with single-stream accumulation and with the
// exact two-pass paired statistics within floating-point tolerance, and
// the derived regression quantities must stay finite and in range.
func FuzzControlVariate(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(100))
	f.Add(int64(2015), uint8(1), uint16(2))
	f.Add(int64(-4), uint8(2), uint16(777))
	f.Add(int64(33), uint8(3), uint16(256))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16) {
		n := 1 + int(nRaw)%4000
		rng := rand.New(rand.NewSource(seed))
		xs := fuzzStream(rng, shape, n)
		ys := make([]float64, n)
		noise := 0.1 + float64(shape%8)/4 // correlation strength varies
		for i, x := range xs {
			ys[i] = 1.5*x - 2 + noise*rng.NormFloat64()
		}
		split := rng.Intn(n + 1)

		var single, lo, hi ControlVariate
		for i := range ys {
			single.Add(ys[i], xs[i])
			if i < split {
				lo.Add(ys[i], xs[i])
			} else {
				hi.Add(ys[i], xs[i])
			}
		}
		merged := lo
		merged.Merge(hi)

		if merged.N() != n || single.N() != n {
			t.Fatalf("lost observations: merged %d single %d of %d", merged.N(), single.N(), n)
		}
		// Merged and single-stream accumulation agree to fp tolerance.
		mpy, mpx := merged.Primary(), merged.Control()
		spy, spx := single.Primary(), single.Control()
		checks := []struct {
			name     string
			got, ref float64
		}{
			{"meanY", mpy.Mean(), spy.Mean()},
			{"meanX", mpx.Mean(), spx.Mean()},
			{"comoment", merged.cxy, single.cxy},
			{"beta", merged.Beta(), single.Beta()},
			{"resid", merged.ResidualVar(), single.ResidualVar()},
		}
		if n >= 2 {
			meanY, meanX, varY, varX, cov := exactPaired(ys, xs)
			my, mx := merged.Primary(), merged.Control()
			checks = append(checks,
				struct {
					name     string
					got, ref float64
				}{"exact meanY", my.Mean(), meanY},
				struct {
					name     string
					got, ref float64
				}{"exact meanX", mx.Mean(), meanX},
				struct {
					name     string
					got, ref float64
				}{"exact varY", my.Std() * my.Std(), varY},
				struct {
					name     string
					got, ref float64
				}{"exact varX", mx.Std() * mx.Std(), varX},
				struct {
					name     string
					got, ref float64
				}{"exact cov", merged.cxy / float64(merged.N()-1), cov},
			)
		}
		for _, c := range checks {
			if math.IsNaN(c.got) || math.IsInf(c.got, 0) {
				t.Fatalf("%s: non-finite %v", c.name, c.got)
			}
			if !relClose(c.got, c.ref, 1e-6) {
				t.Fatalf("%s: %v != %v", c.name, c.got, c.ref)
			}
		}
		if r := merged.Corr(); r < -1-1e-9 || r > 1+1e-9 || math.IsNaN(r) {
			t.Fatalf("correlation out of range: %v", r)
		}
		if vr := merged.VarianceReduction(); vr < 1-1e-9 || math.IsNaN(vr) {
			t.Fatalf("variance reduction below 1: %v", vr)
		}
		if rv := merged.ResidualVar(); rv < 0 {
			t.Fatalf("negative residual variance: %v", rv)
		}
	})
}

// FuzzP2Quantile checks the P² sketch against exact quantiles on random
// streams: estimates must be exact below formation (n < 5), stay inside
// the observed [min, max] envelope, never go NaN for a non-empty stream,
// and track the exact sample quantile within a range-relative tolerance —
// for both a single sketch and a deterministic two-sketch Merge split at
// an arbitrary point.
func FuzzP2Quantile(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(100))
	f.Add(int64(2015), uint8(1), uint16(3))
	f.Add(int64(-9), uint8(2), uint16(1000))
	f.Add(int64(77), uint8(3), uint16(257))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, nRaw uint16) {
		n := 1 + int(nRaw)%4000
		rng := rand.New(rand.NewSource(seed))
		vals := fuzzStream(rng, shape, n)
		split := rng.Intn(n + 1)

		for _, p := range []float64{0.05, 0.5, 0.95} {
			single := NewP2(p)
			lo, hi := NewP2(p), NewP2(p)
			for i, v := range vals {
				single.Add(v)
				if i < split {
					lo.Add(v)
				} else {
					hi.Add(v)
				}
			}
			merged := lo
			merged.Merge(hi)

			sorted := append([]float64(nil), vals...)
			Summarize(sorted) // sorts in place
			exact := Quantile(sorted, p)
			min, max := sorted[0], sorted[n-1]

			for _, c := range []struct {
				name string
				est  float64
				got  int
				tol  float64
			}{
				{"single", single.Quantile(), single.N(), p2Tolerance(n, max-min, shape%4 <= 1, false)},
				{"merged", merged.Quantile(), merged.N(), p2Tolerance(n, max-min, shape%4 <= 1, true)},
			} {
				if c.got != n {
					t.Fatalf("%s p=%g: folded %d of %d observations", c.name, p, c.got, n)
				}
				if math.IsNaN(c.est) || math.IsInf(c.est, 0) {
					t.Fatalf("%s p=%g: estimate %v on non-empty stream", c.name, p, c.est)
				}
				if c.est < min || c.est > max {
					t.Fatalf("%s p=%g: estimate %v outside sample range [%v, %v]", c.name, p, c.est, min, max)
				}
				if n < 5 && c.name == "single" && c.est != exact {
					t.Fatalf("single p=%g: pre-formation estimate %v != exact %v (n=%d)", p, c.est, exact, n)
				}
				if d := math.Abs(c.est - exact); d > c.tol {
					t.Fatalf("%s p=%g n=%d: |%v - %v| = %g exceeds tolerance %g",
						c.name, p, n, c.est, exact, d, c.tol)
				}
			}
		}
	})
}
