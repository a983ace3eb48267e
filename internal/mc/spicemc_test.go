package mc

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

// spiceMCCfg keeps the SPICE-in-the-loop tests affordable: tiny arrays and
// a trial budget of a few dozen transients total.
var spiceMCSizes = []int{4, 8}

func spiceMCCfg(samples, workers int) Config {
	return Config{Samples: samples, Seed: 2015, Workers: workers}
}

// spiceNominals resolves the nominal inputs SpiceTdpAcrossSizes takes:
// the nominal parasitics and the nominal read time per size.
func spiceNominals(t *testing.T, p tech.Process, cm extract.CapModel, sizes []int, sopt sram.SimOptions) (sram.CellParasitics, []float64) {
	t.Helper()
	b := sram.NewColumnBuilder(p, cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	nomTd, err := b.NominalTds(sizes, sram.BuildOptions{}, sopt)
	if err != nil {
		t.Fatal(err)
	}
	return nom, nomTd
}

// spiceTdp runs SpiceTdpAcrossSizes for option o on N10 with nominal
// inputs resolved by spiceNominals.
func spiceTdp(t *testing.T, ctx context.Context, o litho.Option, sizes []int, sopt sram.SimOptions, cfg Config) (*VectorResult, error) {
	t.Helper()
	p, cm := tech.N10(), extract.SakuraiTamaru{}
	nom, nomTd := spiceNominals(t, p, cm, sizes, sopt)
	return SpiceTdpAcrossSizes(ctx, p, o, cm, sizes, nom, nomTd, sram.BuildOptions{}, sopt, cfg)
}

func runSpiceMC(t *testing.T, ctx context.Context, cfg Config) (*VectorResult, error) {
	t.Helper()
	return spiceTdp(t, ctx, litho.EUV, spiceMCSizes, sram.SimOptions{}, cfg)
}

func TestSpiceTdpAcrossSizesBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop MC in -short mode")
	}
	r1, err := runSpiceMC(t, context.Background(), spiceMCCfg(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := runSpiceMC(t, context.Background(), spiceMCCfg(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Stats, r8.Stats) {
		t.Fatalf("Welford stats differ between 1 and 8 workers:\n%+v\n%+v", r1.Stats, r8.Stats)
	}
	if !reflect.DeepEqual(r1.Quantiles, r8.Quantiles) {
		t.Fatal("P² sketches differ between 1 and 8 workers")
	}
	if r1.Rejected != r8.Rejected {
		t.Fatalf("rejected %d vs %d", r1.Rejected, r8.Rejected)
	}
	// Sanity on the physics: a perturbed EUV read must move td, so the
	// spread at each size is positive and finite.
	for j := range spiceMCSizes {
		s := r1.Summary(j)
		if !(s.Std > 0) || s.Std > 100 {
			t.Fatalf("size %d: implausible tdp spread %+v", spiceMCSizes[j], s)
		}
	}
}

// TestSpiceTdpAcrossSizesMatchesSerialTrialLoop pins the engine plumbing
// to ground truth: the parallel WorkerState path must reproduce, trial by
// trial, what one fresh builder evaluating the same seeded draws computes
// serially.
func TestSpiceTdpAcrossSizesMatchesSerialTrialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop MC in -short mode")
	}
	const samples = 8
	cfg := spiceMCCfg(samples, 4)
	cfg.Collect = true
	res, err := runSpiceMC(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	p, cm := tech.N10(), extract.SakuraiTamaru{}
	b := sram.NewColumnBuilder(p, cm)
	nomTd, err := b.NominalTds(spiceMCSizes, sram.BuildOptions{}, sram.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trial := b.TrialFunc(litho.EUV, spiceMCSizes, nomTd, sram.BuildOptions{}, sram.SimOptions{})
	rng := rand.New(rand.NewSource(0))
	out := make([]float64, len(spiceMCSizes))
	var want [][]float64
	for i := 0; i < samples; i++ {
		rng.Seed(trialSeed(cfg.Seed, i))
		if !trial(rng, out) {
			continue
		}
		want = append(want, append([]float64(nil), out...))
	}
	if got := res.Accepted(); got != len(want) {
		t.Fatalf("accepted %d, serial loop accepted %d", got, len(want))
	}
	for k := range want {
		for j := range spiceMCSizes {
			if res.Values[j][k] != want[k][j] {
				t.Fatalf("trial %d size %d: parallel %v vs serial %v",
					k, spiceMCSizes[j], res.Values[j][k], want[k][j])
			}
		}
	}
}

func TestSpiceTdpAcrossSizesCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-in-the-loop MC in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One worker emits blocks in order and checks the context before
	// taking the next one, so the cancel from the first frontier report
	// always leaves a partial run. With two, a worker stalled on block 0
	// could let the other finish every later block before the first
	// report, and the run would complete before the cancel.
	cfg := spiceMCCfg(768, 1)
	var (
		mu       sync.Mutex
		lastDone int
		total    int
	)
	cfg.Progress = func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		// Partial-progress invariant: serialized, strictly increasing,
		// never past the total.
		if done <= lastDone || done > tot {
			t.Errorf("progress went %d -> %d of %d", lastDone, done, tot)
		}
		lastDone, total = done, tot
		cancel()
	}
	start := time.Now()
	// Coarse-step trials (forced 1 ps step, tiny column) keep the
	// block-granular cancellation latency cheap: accuracy is irrelevant
	// here, only the engine's control flow.
	_, err := spiceTdp(t, ctx, litho.EUV, []int{2}, sram.SimOptions{Dt: 1e-12}, cfg)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	mu.Lock()
	defer mu.Unlock()
	if lastDone == 0 || lastDone >= total {
		t.Fatalf("expected a partial run, got %d of %d", lastDone, total)
	}
	// Promptness: one block after the cancel at most, not the full 600
	// trials (which would take minutes).
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestSpiceTdpAcrossSizesValidatesInputs(t *testing.T) {
	ctx, p, cm := context.Background(), tech.N10(), extract.SakuraiTamaru{}
	_, m := model(t)
	nomTd := make([]float64, len(spiceMCSizes))
	for _, c := range []struct {
		name  string
		cm    extract.CapModel
		sizes []int
		nomTd []float64
	}{
		{"nil capacitance model", nil, spiceMCSizes, nomTd},
		{"empty size list", cm, nil, nil},
		{"nominal/size length mismatch", cm, spiceMCSizes, nomTd[:1]},
	} {
		if _, err := SpiceTdpAcrossSizes(ctx, p, litho.EUV, c.cm, c.sizes, sram.CellParasitics{}, c.nomTd,
			sram.BuildOptions{}, sram.SimOptions{}, spiceMCCfg(4, 1)); err == nil {
			t.Fatalf("plain: %s accepted", c.name)
		}
		if _, err := SpiceTdpCVAcrossSizes(ctx, p, litho.EUV, m, c.cm, c.sizes, sram.CellParasitics{}, c.nomTd,
			sram.BuildOptions{}, sram.SimOptions{}, spiceMCCfg(4, 1)); err == nil {
			t.Fatalf("paired: %s accepted", c.name)
		}
	}
}

// TestSpiceAndAnalyticConsumeIdenticalDraws pins the draw-for-draw
// comparability contract: for the same seeded PRNG state, the analytic
// path's SampleRatios and the SPICE-MC path's litho.Draw + VarRatios must
// produce bit-identical ratios (both are views over the one canonical
// litho.Draw stream).
func TestSpiceAndAnalyticConsumeIdenticalDraws(t *testing.T) {
	p, cm := tech.N10(), extract.SakuraiTamaru{}
	for _, o := range litho.Options {
		params := litho.Params(p, o)
		rngA := rand.New(rand.NewSource(0))
		rngB := rand.New(rand.NewSource(0))
		for i := 0; i < 50; i++ {
			seed := trialSeed(2015, i)
			rngA.Seed(seed)
			rngB.Seed(seed)
			ra, okA := SampleRatios(p, o, cm, rngA)
			rb, errB := extract.VarRatios(p, o, litho.Draw(params, rngB), cm)
			okB := errB == nil
			if okA != okB {
				t.Fatalf("%v trial %d: analytic ok=%v, spice-path ok=%v", o, i, okA, okB)
			}
			if okA && ra != rb {
				t.Fatalf("%v trial %d: ratios diverge: %+v vs %+v", o, i, ra, rb)
			}
		}
	}
}
