package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
	"mpsram/internal/sram"
	"mpsram/internal/tech"
)

func TestNewStudyDefaults(t *testing.T) {
	s, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Proc.Name != "N10" {
		t.Fatal("default process")
	}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStudyOptions(t *testing.T) {
	p := tech.N10()
	p.Name = "custom"
	s, err := NewStudy(
		WithProcess(p),
		WithCapModel(extract.PlateFringe{}),
		WithMC(mc.Config{Samples: 123, Seed: 5}),
		WithOverlay(3e-9),
		WithBuild(sram.BuildOptions{Lumped: true}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Proc.Name != "custom" || s.Env.Proc.Var.OL3Sigma != 3e-9 {
		t.Fatal("process options not applied")
	}
	if s.Env.Cap.Name() != "plate-fringe" || s.Env.MC.Samples != 123 || !s.Env.Build.Lumped {
		t.Fatal("options not applied")
	}
}

func TestNewStudyRejectsInvalid(t *testing.T) {
	bad := tech.N10()
	bad.M1.Width = -1
	if _, err := NewStudy(WithProcess(bad)); err == nil {
		t.Fatal("invalid process accepted")
	}
	if _, err := NewStudy(WithCapModel(nil)); err == nil {
		t.Fatal("nil cap model accepted")
	}
}

func TestStudyRatios(t *testing.T) {
	s, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Ratios(litho.EUV, litho.Sample{CDEUV: 3e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cvar <= 1 || r.Rvar >= 1 {
		t.Fatalf("ratios %+v", r)
	}
}

func TestStudyTdpDistribution(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 800, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.TdpDistribution(litho.SADP, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 800 || sum.Std <= 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestWithMCPreservesProgress(t *testing.T) {
	fired := false
	// WithProgress before WithMC: the budget override must not silently
	// drop the callback.
	s, err := NewStudy(
		WithProgress(func(done, total int) { fired = true }),
		WithMC(mc.Config{Samples: 300, Seed: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.MC.Samples != 300 || s.Env.MC.Progress == nil {
		t.Fatalf("config not composed: %+v", s.Env.MC)
	}
	if _, err := s.TdpDistribution(litho.EUV, 16); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("progress callback dropped by WithMC")
	}
}

func TestStudySigmaSurface(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 600, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("table4x", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]mc.SigmaSurfaceRow)
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != 4 {
			t.Fatalf("%v: cells %d", r.Option, len(r.Cells))
		}
	}
}

func TestStudyContextAndProgress(t *testing.T) {
	var mu sync.Mutex
	var last int
	s, err := NewStudy(
		WithMC(mc.Config{Samples: 500, Seed: 4}),
		WithContext(context.Background()),
		WithProgress(func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done > last {
				last = done
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TdpDistribution(litho.EUV, 64); err != nil {
		t.Fatal(err)
	}
	if last != 500 {
		t.Fatalf("progress stopped at %d", last)
	}
	// A canceled context aborts the facade's Monte-Carlo entry points.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2, err := NewStudy(WithMC(mc.Config{Samples: 500, Seed: 4}), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run("table4", nil); err == nil {
		t.Fatal("canceled study must not run Table IV")
	}
}

// TestRunAllEndToEnd is the whole-pipeline integration test: every
// experiment in paper order into one report.
func TestRunAllEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	s, err := NewStudy(WithMC(mc.Config{Samples: 1000, Seed: 2015}))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.RunAll(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table I:", "Fig. 2:", "Fig. 3:", "Fig. 4:",
		"Table II:", "Table III:", "Fig. 5:", "Table IV:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWithWorkersAndProgressReachBothEngines(t *testing.T) {
	var mu sync.Mutex
	fired := 0
	s, err := NewStudy(
		WithMC(mc.Config{Samples: 300, Seed: 1}),
		WithWorkers(3),
		WithProgress(func(done, total int) {
			mu.Lock()
			fired++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.MC.Workers != 3 || s.Env.Sweep.Workers != 3 {
		t.Fatalf("worker count not propagated: mc=%d sweep=%d",
			s.Env.MC.Workers, s.Env.Sweep.Workers)
	}
	if s.Env.MC.Progress == nil || s.Env.Sweep.Progress == nil {
		t.Fatal("progress callback not propagated to both engines")
	}
	// The sweep engine reports through the shared callback.
	res, err := s.Run("table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data.([]exp.Table2Row)) == 0 {
		t.Fatal("no Table II rows")
	}
	mu.Lock()
	defer mu.Unlock()
	if fired == 0 {
		t.Fatal("sweep progress never fired")
	}
}

// TestProcessRegistryThroughFacade covers the process-axis surface of the
// facade: name lookup (including the valid-names error contract), the
// default node set, per-node study construction and the cross-node
// comparison.
func TestProcessRegistryThroughFacade(t *testing.T) {
	if got := ProcessNames(); len(got) != 3 || got[0] != "N10" {
		t.Fatalf("process names %v", got)
	}
	p, err := LookupProcess("N7")
	if err != nil || p.Name != "N7" {
		t.Fatalf("LookupProcess(N7): %v %v", p.Name, err)
	}
	if _, err := LookupProcess("N3"); err == nil || !strings.Contains(err.Error(), "N10") {
		t.Fatalf("unknown process error must list valid names, got %v", err)
	}
	s, err := NewStudy(WithProcess(p), WithMC(mc.Config{Samples: 400, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Proc.Name != "N7" || len(s.Env.Procs) != 3 {
		t.Fatalf("env: proc %s, %d nodes", s.Env.Proc.Name, len(s.Env.Procs))
	}
	res, err := s.Run("nodes", exp.Params{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Data.([]exp.NodesRow)
	if len(rows) != 3*6 {
		t.Fatalf("%d node rows", len(rows))
	}
	// Trimming the node set trims the comparison.
	s2, err := NewStudy(WithProcesses(p), WithMC(mc.Config{Samples: 400, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run("nodes", exp.Params{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	rows2 := res2.Data.([]exp.NodesRow)
	if len(rows2) != 6 || rows2[0].Process != "N7" {
		t.Fatalf("trimmed node set: %d rows, first %q", len(rows2), rows2[0].Process)
	}
	// An invalid preset in the node set fails construction.
	bad := p
	bad.M1.Width = -1
	if _, err := NewStudy(WithProcesses(bad)); err == nil {
		t.Fatal("invalid node-set preset must fail NewStudy")
	}
}
