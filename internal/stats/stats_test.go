package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean: %+v", s)
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max: %+v", s)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Fatalf("median = %g", s.Median)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary")
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Fatalf("single: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4}
	if Quantile(sorted, 0) != 0 || Quantile(sorted, 1) != 4 {
		t.Fatal("extremes")
	}
	if Quantile(sorted, 0.5) != 2 {
		t.Fatal("median")
	}
	if got := Quantile(sorted, 0.25); got != 1 {
		t.Fatalf("q25 = %g", got)
	}
	if got := Quantile(sorted, 0.125); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("q12.5 = %g", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("single quantile")
	}
}

func TestWelfordMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Welford
	var vals []float64
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64()*2.5 + 1
		w.Add(v)
		vals = append(vals, v)
	}
	s := Summarize(vals)
	if math.Abs(w.Mean()-s.Mean) > 1e-9 {
		t.Fatalf("mean %g vs %g", w.Mean(), s.Mean)
	}
	if math.Abs(w.Std()-s.Std) > 1e-9 {
		t.Fatalf("std %g vs %g", w.Std(), s.Std)
	}
	if w.Min() != s.Min || w.Max() != s.Max || w.N() != s.N {
		t.Fatal("min/max/n mismatch")
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		var all, a, b Welford
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			all.Add(v)
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(b)
		return math.Abs(a.Mean()-all.Mean()) < 1e-10 &&
			math.Abs(a.Std()-all.Std()) < 1e-10 &&
			a.N() == all.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordSummary(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 6, 8} {
		w.Add(v)
	}
	s := w.Summary()
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 {
		t.Fatalf("summary %+v", s)
	}
	if s.Std != w.Std() {
		t.Fatalf("std %g vs %g", s.Std, w.Std())
	}
	// Order statistics are unrecoverable from streaming moments.
	for name, v := range map[string]float64{"median": s.Median, "p05": s.P05, "p95": s.P95, "skew": s.Skew} {
		if !math.IsNaN(v) {
			t.Fatalf("%s = %g, want NaN", name, v)
		}
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 {
		t.Fatal("merge empty broke accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty broken")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1, 2.5, 9.999, -1, 10, 15} {
		h.Add(v)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts %v", h.Counts)
	}
	if math.Abs(h.BinCenter(0)-1) > 1e-12 {
		t.Fatalf("bin center %g", h.BinCenter(0))
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "(outliers: 1 below, 2 above)") {
		t.Fatalf("render: %q", out)
	}
	// Render with a silly width still works.
	if h.Render(0) == "" {
		t.Fatal("render with zero width")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(5, 5, 10); err == nil {
		t.Fatal("empty range must error")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero bins must error")
	}
}

func TestHistogramEdgeBinning(t *testing.T) {
	h, _ := NewHistogram(0, 1, 10)
	// Value exactly at Hi−ulp must not panic or land out of range.
	h.Add(math.Nextafter(1, 0))
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 1 {
		t.Fatal("edge value lost")
	}
}

func TestSkewSign(t *testing.T) {
	// A right-tailed sample has positive skew (the paper's LE3 tdp
	// distributions are right-skewed).
	vals := []float64{0, 0, 0, 0, 1, 1, 2, 8}
	s := Summarize(vals)
	if s.Skew <= 0 {
		t.Fatalf("skew = %g, want positive", s.Skew)
	}
}
