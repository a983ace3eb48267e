package stats

import (
	"math"
	"math/rand"
	"testing"
)

// exactPaired computes two-pass reference statistics for a paired stream.
func exactPaired(ys, xs []float64) (meanY, meanX, varY, varX, cov float64) {
	n := float64(len(ys))
	for i := range ys {
		meanY += ys[i]
		meanX += xs[i]
	}
	meanY /= n
	meanX /= n
	for i := range ys {
		varY += (ys[i] - meanY) * (ys[i] - meanY)
		varX += (xs[i] - meanX) * (xs[i] - meanX)
		cov += (ys[i] - meanY) * (xs[i] - meanX)
	}
	varY /= n - 1
	varX /= n - 1
	cov /= n - 1
	return
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(s, 1e-300) || d <= 1e-12
}

// TestControlVariateAgainstExact pins the streaming accumulator to the
// two-pass paired statistics on a correlated synthetic stream and checks
// the derived regression quantities against their definitions.
func TestControlVariateAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	ys := make([]float64, n)
	xs := make([]float64, n)
	var cv ControlVariate
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 2.5
		y := 3 + 1.7*x + 0.3*rng.NormFloat64() // strongly correlated pair
		xs[i], ys[i] = x, y
		cv.Add(y, x)
	}
	meanY, meanX, varY, varX, cov := exactPaired(ys, xs)
	if cv.N() != n {
		t.Fatalf("N = %d", cv.N())
	}
	py, px := cv.Primary(), cv.Control()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"meanY", py.Mean(), meanY},
		{"meanX", px.Mean(), meanX},
		{"varY", py.Std() * py.Std(), varY},
		{"varX", px.Std() * px.Std(), varX},
		{"cov", cv.cxy / float64(cv.N()-1), cov},
		{"beta", cv.Beta(), cov / varX},
		{"corr", cv.Corr(), cov / math.Sqrt(varY*varX)},
		{"resid", cv.ResidualVar(), varY - cov*cov/varX},
	} {
		if !relClose(c.got, c.want, 1e-9) {
			t.Errorf("%s: streaming %v != exact %v", c.name, c.got, c.want)
		}
	}
	rho := cv.Corr()
	if rho < 0.98 {
		t.Fatalf("synthetic pair should be strongly correlated, ρ = %v", rho)
	}
	if vr := cv.VarianceReduction(); !relClose(vr, 1/(1-rho*rho), 1e-12) || vr < 10 {
		t.Errorf("variance reduction %v inconsistent with ρ = %v", vr, rho)
	}
	if ess := cv.EffectiveN(); !relClose(ess, float64(n)*cv.VarianceReduction(), 1e-12) {
		t.Errorf("effective N drifted: %v", ess)
	}
	// The corrected estimators with the true control moments must land
	// nearer the truth than the plain paired-sample estimators do here:
	// with ρ ≈ 0.99 the residual term is ~2% of the variance.
	muX, sigmaX := 0.0, 2.5
	if got := cv.MeanCorrected(muX); math.Abs(got-3) > math.Abs(py.Mean()-3)+1e-12 {
		t.Errorf("corrected mean %v no better than plain %v", got, py.Mean())
	}
	trueStd := math.Sqrt(1.7*1.7*sigmaX*sigmaX + 0.09)
	if got := cv.StdCorrected(sigmaX); math.Abs(got/trueStd-1) > 0.05 {
		t.Errorf("corrected std %v far from truth %v", got, trueStd)
	}
}

// TestControlVariateDegenerate covers the guard rails: empty and
// single-sample accumulators, and a spread-free control (β unidentifiable
// → corrected estimators degrade to the plain ones).
func TestControlVariateDegenerate(t *testing.T) {
	var cv ControlVariate
	if cv.N() != 0 || cv.Beta() != 0 || cv.Corr() != 0 ||
		cv.ResidualVar() != 0 || cv.VarianceReduction() != 1 || cv.EffectiveN() != 0 {
		t.Fatal("zero accumulator not inert")
	}
	cv.Add(2, 5)
	if cv.N() != 1 || cv.Beta() != 0 || cv.VarianceReduction() != 1 {
		t.Fatal("single sample must stay degenerate")
	}
	var flat ControlVariate
	for i := 0; i < 10; i++ {
		flat.Add(float64(i), 42) // control carries no information
	}
	if flat.Beta() != 0 || flat.Corr() != 0 {
		t.Fatalf("spread-free control must zero β/ρ: β=%v ρ=%v", flat.Beta(), flat.Corr())
	}
	plain := flat.Primary()
	if got := flat.MeanCorrected(40); got != plain.Mean() {
		t.Fatalf("corrected mean with dead control drifted: %v != %v", got, plain.Mean())
	}
	if got := flat.StdCorrected(1); !relClose(got, plain.Std(), 1e-12) {
		t.Fatalf("corrected std with dead control drifted: %v != %v", got, plain.Std())
	}
	// A perfectly correlated pair reports unbounded (infinite) reduction.
	var perfect ControlVariate
	for i := 0; i < 8; i++ {
		perfect.Add(float64(2*i), float64(i))
	}
	if vr := perfect.VarianceReduction(); !math.IsInf(vr, 1) && vr < 1e6 {
		t.Fatalf("perfect pair VR = %v", vr)
	}
}

// TestControlVariateMergeDeterministic: merging per-block accumulators in
// block order must be bit-identical regardless of how trials were grouped
// into evaluation batches — the engine's worker-count-invariance contract.
func TestControlVariateMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, block = 1037, 256
	ys := make([]float64, n)
	xs := make([]float64, n)
	for i := range ys {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + 0.2*rng.NormFloat64()
	}
	fold := func() ControlVariate {
		var total ControlVariate
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			var b ControlVariate
			for i := lo; i < hi; i++ {
				b.Add(ys[i], xs[i])
			}
			total.Merge(b)
		}
		return total
	}
	a, b := fold(), fold()
	if a != b {
		t.Fatalf("block fold not deterministic: %+v != %+v", a, b)
	}
	// Merging the empty accumulator in either direction is the identity.
	var empty ControlVariate
	c := a
	c.Merge(empty)
	if c != a {
		t.Fatal("merge with empty changed the accumulator")
	}
	empty.Merge(a)
	if empty != a {
		t.Fatal("merge into empty did not adopt")
	}
}
