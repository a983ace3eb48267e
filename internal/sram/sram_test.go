package sram

import (
	"math"
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

var cm = extract.SakuraiTamaru{}

func nominal(t *testing.T) (tech.Process, CellParasitics) {
	t.Helper()
	p := tech.N10()
	cp, err := NominalParasitics(p, cm)
	if err != nil {
		t.Fatal(err)
	}
	return p, cp
}

func TestNominalParasiticsBands(t *testing.T) {
	_, cp := nominal(t)
	if cp.Rbl < 2 || cp.Rbl > 20 {
		t.Fatalf("Rbl per cell %.3g Ω outside band", cp.Rbl)
	}
	if cp.Cbl < 10e-18 || cp.Cbl > 60e-18 {
		t.Fatalf("Cbl per cell %.3g F outside band", cp.Cbl)
	}
	if math.Abs(cp.Rvss-cp.Rbl) > 1e-9 {
		t.Fatalf("nominal VSS and BL rails are same-width wires: %g vs %g", cp.Rvss, cp.Rbl)
	}
}

func TestScaleRatios(t *testing.T) {
	_, cp := nominal(t)
	r := extract.Ratios{Rvar: 0.9, Cvar: 1.5, RvssVar: 1.1}
	s := cp.Scale(r)
	if math.Abs(s.Rbl-0.9*cp.Rbl) > 1e-12*cp.Rbl ||
		math.Abs(s.Cbl-1.5*cp.Cbl) > 1e-12*cp.Cbl ||
		math.Abs(s.Rvss-1.1*cp.Rvss) > 1e-12*cp.Rvss {
		t.Fatalf("Scale broken: %+v", s)
	}
}

func TestBuildColumnErrors(t *testing.T) {
	p, cp := nominal(t)
	if _, err := BuildColumn(p, 0, cp, BuildOptions{}); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := BuildColumn(p, 16, CellParasitics{}, BuildOptions{}); err == nil {
		t.Fatal("zero parasitics must error")
	}
}

func TestSegmentSelection(t *testing.T) {
	cases := []struct {
		n    int
		opt  BuildOptions
		want int
	}{
		{16, BuildOptions{}, 16},
		{1024, BuildOptions{}, 64},
		{1024, BuildOptions{Segments: 8}, 8},
		{4, BuildOptions{Segments: 99}, 4},
		{1024, BuildOptions{Lumped: true}, 1},
	}
	for _, c := range cases {
		if got := c.opt.segments(c.n); got != c.want {
			t.Errorf("segments(n=%d, %+v) = %d, want %d", c.n, c.opt, got, c.want)
		}
	}
}

func TestLadderConservesTotals(t *testing.T) {
	p, cp := nominal(t)
	for _, n := range []int{1, 16, 64, 1000, 1024} {
		for _, opt := range []BuildOptions{{}, {Segments: 7}, {Lumped: true}} {
			if e := ladderCapError(p, n, cp, opt); e > 1e-12 {
				t.Errorf("n=%d %+v: ladder capacitance error %g", n, opt, e)
			}
			rTot, _ := LadderTotals(p, n, cp, opt)
			if math.Abs(rTot-float64(n)*cp.Rbl) > 1e-9*rTot {
				t.Errorf("n=%d %+v: ladder resistance %g, want %g", n, opt, rTot, float64(n)*cp.Rbl)
			}
		}
	}
}

func TestColumnNetlistShape(t *testing.T) {
	p, cp := nominal(t)
	col, err := BuildColumn(p, 16, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	// 6 cell transistors + 2 precharge devices.
	if got := len(col.Netlist.Ms); got != 8 {
		t.Fatalf("device count %d, want 8", got)
	}
	// 16 segments on bl, blb, vss + taps + 2 init helpers.
	if got := len(col.Netlist.Rs); got != 16*3+1+2 {
		t.Fatalf("resistor count %d", got)
	}
}

func TestReadTdNominalBandsAndMonotonicity(t *testing.T) {
	p, cp := nominal(t)
	prev := 0.0
	for _, n := range []int{16, 64, 256} {
		col, err := BuildColumn(p, n, cp, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := col.MeasureTd(cp, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Td <= prev {
			t.Fatalf("td not increasing with n: %g after %g", rr.Td, prev)
		}
		// Superlinear: td(4n) > 2·td(n) once the array load dominates.
		if prev > 0 && rr.Td < 2*prev {
			t.Fatalf("td growth sublinear: %g -> %g", prev, rr.Td)
		}
		prev = rr.Td
		// Bands: single to hundreds of ps.
		if rr.Td < 1e-12 || rr.Td > 1e-9 {
			t.Fatalf("td(n=%d) = %g s outside sanity band", n, rr.Td)
		}
	}
}

func TestReadWaveformHealth(t *testing.T) {
	p, cp := nominal(t)
	col, err := BuildColumn(p, 16, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := col.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := rr.Result
	// The cell must start in the q=0 state (nodeset worked).
	q0 := res.NodeWave(col.Q)[0]
	qb0 := res.NodeWave(col.QB)[0]
	if q0 > 0.05 || qb0 < 0.65 {
		t.Fatalf("initial cell state q=%g qb=%g (metastable DC solution?)", q0, qb0)
	}
	// BLB floats near vdd for the whole read.
	for _, v := range res.NodeWave(col.BLBSense) {
		if v < 0.67 {
			t.Fatalf("blb drooped to %g", v)
		}
	}
	// Read disturb on q stays below the flip threshold.
	if peak := col.SenseMargin(res); peak > 0.3 {
		t.Fatalf("read disturb peak %g V", peak)
	}
	// BL at the far (cell) end leads the sense end during discharge.
	far := res.NodeWave(col.BLFar)
	sense := res.NodeWave(col.BLSense)
	mid := len(far) / 2
	if far[mid] > sense[mid]+1e-4 {
		t.Fatalf("far end (%g) above sense end (%g) during discharge", far[mid], sense[mid])
	}
}

// worstCaseTdp simulates the paper's worst-case read-time penalty
// (td/tdnom − 1)·100 for option o at array size n on the fresh-engine
// read path.
func worstCaseTdp(t *testing.T, o litho.Option, n int) float64 {
	t.Helper()
	p, nom := nominal(t)
	wc, err := extract.WorstCase(p, o, cm)
	if err != nil {
		t.Fatal(err)
	}
	read := func(cp CellParasitics) float64 {
		col, err := BuildColumn(p, n, cp, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := col.MeasureTd(cp, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rr.Td
	}
	return (read(nom.Scale(wc.Ratios))/read(nom) - 1) * 100
}

func TestWorstCaseTdpFig4Shape(t *testing.T) {
	// Fig. 4 reproduction gate at n=64: LE3 tdp in the 15–30 % band,
	// SADP and EUV below 5 %.
	tdps := map[litho.Option]float64{}
	for _, o := range litho.Options {
		tdps[o] = worstCaseTdp(t, o, 64)
	}
	if tdps[litho.LE3] < 12 || tdps[litho.LE3] > 32 {
		t.Errorf("LE3 tdp %.2f%% outside the ~20%% band", tdps[litho.LE3])
	}
	if tdps[litho.SADP] < 0 || tdps[litho.SADP] > 5 {
		t.Errorf("SADP tdp %.2f%% outside <5%% band", tdps[litho.SADP])
	}
	if tdps[litho.EUV] < 0 || tdps[litho.EUV] > 6 {
		t.Errorf("EUV tdp %.2f%% outside band", tdps[litho.EUV])
	}
	if !(tdps[litho.LE3] > tdps[litho.EUV] && tdps[litho.LE3] > tdps[litho.SADP]) {
		t.Errorf("LE3 must dominate: %+v", tdps)
	}
}

func TestEUVTdpTurnsNegativeAtLargeArrays(t *testing.T) {
	// Paper Fig. 4: EUV tdp is negative at n=1024 (Rvar·Cvar < 1 drives
	// the quadratic term below nominal).
	if testing.Short() {
		t.Skip("large-array transient")
	}
	tdp := worstCaseTdp(t, litho.EUV, 1024)
	if tdp >= 0.5 {
		t.Fatalf("EUV tdp at n=1024 = %.2f%%, want near/below zero", tdp)
	}
	// SADP stays positive at n=1024 (the RVSS anti-correlation effect).
	tdpS := worstCaseTdp(t, litho.SADP, 1024)
	if tdpS <= 0 {
		t.Fatalf("SADP tdp at n=1024 = %.2f%%, want positive (RVSS effect)", tdpS)
	}
}

func TestIntegratorAgreement(t *testing.T) {
	// Trapezoidal and backward Euler must agree on td within a percent.
	p, cp := nominal(t)
	col, err := BuildColumn(p, 32, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := col.MeasureTd(cp, SimOptions{Method: spice.Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	col2, _ := BuildColumn(p, 32, cp, BuildOptions{})
	b, err := col2.MeasureTd(cp, SimOptions{Method: spice.BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Td-b.Td)/a.Td > 0.02 {
		t.Fatalf("integrators disagree: %g vs %g", a.Td, b.Td)
	}
}

func TestLumpedVsDistributed(t *testing.T) {
	// The lumped ablation must give a td in the same ballpark but not
	// identical (distributed line delays the sense end).
	p, cp := nominal(t)
	colD, _ := BuildColumn(p, 64, cp, BuildOptions{})
	d, err := colD.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colL, _ := BuildColumn(p, 64, cp, BuildOptions{Lumped: true})
	l, err := colL.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Td-l.Td)/d.Td > 0.25 {
		t.Fatalf("lumped %g vs distributed %g diverge too much", l.Td, d.Td)
	}
}

func TestVssTapOption(t *testing.T) {
	// Double-ended VSS strapping shortens the read slightly.
	p, cp := nominal(t)
	colA, _ := BuildColumn(p, 256, cp, BuildOptions{})
	a, err := colA.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colB, _ := BuildColumn(p, 256, cp, BuildOptions{VssTapBothEnds: true})
	b, err := colB.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Td >= a.Td {
		t.Fatalf("double-tap td %g not faster than single-tap %g", b.Td, a.Td)
	}
}

func TestMeasureTdErrors(t *testing.T) {
	p, cp := nominal(t)
	b := NewColumnBuilder(p, cm)
	if _, err := b.MeasureTd(0, cp, BuildOptions{}, SimOptions{}); err == nil {
		t.Fatal("builder must propagate column build errors")
	}
	// A sub-picosecond window never reaches the sense threshold, on the
	// resident engine and on a fresh one alike.
	short := SimOptions{TEnd: 1e-15}
	if _, err := b.MeasureTd(16, cp, BuildOptions{}, short); err == nil {
		t.Fatal("resident-engine read must fail when the sense threshold is never reached")
	}
	col, err := BuildColumn(p, 16, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.MeasureTd(cp, short); err == nil {
		t.Fatal("fresh-engine read must fail when the sense threshold is never reached")
	}
	if _, err := b.NominalTds([]int{16}, BuildOptions{}, short); err == nil {
		t.Fatal("NominalTds must propagate read errors")
	}
}

func TestCFE(t *testing.T) {
	f := tech.N10().FEOL
	want := f.WPassGate * f.CJPerM
	if math.Abs(CFE(f)-want) > 1e-30 {
		t.Fatalf("CFE = %g, want %g", CFE(f), want)
	}
}

func TestLeakageIsCommonMode(t *testing.T) {
	// Pass-gate leakage droops the floating blb, but differential
	// sensing rejects the common-mode shift: td moves only slightly
	// while the absolute blb level visibly sags.
	p, cp := nominal(t)
	colA, err := BuildColumn(p, 64, cp, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := colA.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colB, err := BuildColumn(p, 64, cp, BuildOptions{LeakagePerCell: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := colB.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blbLeaky := b.Result.NodeWave(colB.BLBSense)
	last := blbLeaky[len(blbLeaky)-1]
	if last > 0.699 {
		t.Fatalf("blb with leakage should droop below precharge: %g", last)
	}
	if math.Abs(b.Td-a.Td)/a.Td > 0.10 {
		t.Fatalf("leakage shifted td too much: %g vs %g", b.Td, a.Td)
	}
}

func TestAdaptiveReadAgreesWithFixed(t *testing.T) {
	p, cp := nominal(t)
	colF, _ := BuildColumn(p, 64, cp, BuildOptions{})
	fixed, err := colF.MeasureTd(cp, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colA, _ := BuildColumn(p, 64, cp, BuildOptions{})
	adaptive, err := colA.MeasureTd(cp, SimOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adaptive.Td-fixed.Td)/fixed.Td > 0.03 {
		t.Fatalf("adaptive td %g vs fixed %g", adaptive.Td, fixed.Td)
	}
}
