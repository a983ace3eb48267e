package mc

import (
	"context"
	"math"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/sram"
)

// TestAdaptiveSigmaMatchesFixed is the distribution-level half of the
// adaptive accuracy gate (the td-level DOE gate lives in internal/sram):
// running the SPICE-in-the-loop Monte-Carlo with the adaptive integrator
// must reproduce the fixed-step σ and mean of the tdp distribution within
// tight tolerances for every patterning option. The per-transient bias is
// systematic and mostly cancels in the tdp ratio (both the trial and the
// nominal denominators use the same integrator), so the distribution
// tolerance is ≈ 1 % on σ — measured drift is ≤ 0.34 %.
func TestAdaptiveSigmaMatchesFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop σ gate (≈ 300 transients); run without -short")
	}
	sizes := []int{16, 64}
	cfg := Config{Samples: 24, Seed: 2015}
	for _, o := range litho.Options {
		fixed, err := spiceTdp(t, context.Background(), o, sizes, sram.SimOptions{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := spiceTdp(t, context.Background(), o, sizes, sram.SimOptions{Adaptive: true}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, n := range sizes {
			sf, sa := fixed.Summary(j), adapt.Summary(j)
			if sf.N != sa.N {
				t.Fatalf("%v n=%d: sample counts diverged (%d vs %d)", o, n, sf.N, sa.N)
			}
			if rel := math.Abs(sa.Std/sf.Std - 1); rel > 0.01 {
				t.Errorf("%v n=%d: adaptive σ off by %.3f%% (%.4f vs %.4f)",
					o, n, rel*100, sa.Std, sf.Std)
			}
			if d := math.Abs(sa.Mean - sf.Mean); d > 0.02 {
				t.Errorf("%v n=%d: adaptive mean shifted %.4f pp", o, n, d)
			}
		}
	}
}
