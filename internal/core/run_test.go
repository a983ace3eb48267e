package core

import (
	"encoding/json"
	"strings"
	"testing"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/report"
)

// TestStudyRunSurface covers the registry-facing facade: listing,
// dispatch, the unknown-name contract and parameter validation.
func TestStudyRunSurface(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 50, Seed: 2015}))
	if err != nil {
		t.Fatal(err)
	}
	ws := exp.Workloads()
	if len(ws) < 15 {
		t.Fatalf("registry too small: %d", len(ws))
	}
	if _, err := s.Run("bogus", nil); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("unknown workload must list the registry, got %v", err)
	}
	if _, err := s.Run("nodes", exp.Params{"n": "x"}); err == nil {
		t.Fatal("bad param accepted")
	}
	res, err := s.Run("table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" || len(res.Tables) == 0 || res.Data == nil {
		t.Fatalf("incomplete result %+v", res)
	}
}

// TestCheapWorkloadRows keeps the fast workloads covered on the short
// path: each returns its documented typed rows through Run, and a
// malformed size list is rejected before any trial runs.
func TestCheapWorkloadRows(t *testing.T) {
	s, err := NewStudy(WithMC(mc.Config{Samples: 20, Seed: 2015}))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, p exp.Params) any {
		t.Helper()
		res, err := s.Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Data
	}
	if rows := run("table1", nil).([]exp.Table1Row); len(rows) != 3 {
		t.Fatalf("table1: %d rows", len(rows))
	}
	if rows := run("fig2", nil).([]exp.Fig2Entry); len(rows) != 3 {
		t.Fatalf("fig2: %d rows", len(rows))
	}
	if rows := run("fig3", nil).([]exp.Fig3Row); len(rows) != 4 {
		t.Fatalf("fig3: %d rows", len(rows))
	}
	if rows := run("fig5", exp.Params{"n": 64, "ol": 8.0}).([]exp.Fig5Result); len(rows) != 3 {
		t.Fatalf("fig5: %d rows", len(rows))
	}
	if rows := run("nodes", nil).([]exp.NodesRow); len(rows) != 18 {
		t.Fatalf("nodes: %d rows", len(rows))
	}
	if surfs := run("table4xp", nil).([]mc.ProcessSurface); len(surfs) != 3 {
		t.Fatalf("table4xp: %d surfaces", len(surfs))
	}
	if _, err := s.Run("mcspice", exp.Params{"sizes": ","}); err == nil {
		t.Fatal("mcspice with no sizes must fail")
	}
}

// TestAllWorkloadsSmoke runs every registered workload at a tiny budget
// through Study.Run — the single smoke gate that replaces per-workload
// CI steps. A newly registered workload is covered here automatically;
// its Hints.Smoke parameters keep heavyweight DOEs affordable.
func TestAllWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-backed workloads in -short mode")
	}
	s, err := NewStudy(WithMC(mc.Config{Samples: 4, Seed: 2015}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range exp.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := s.Run(w.Name, w.Hints.Smoke)
			if err != nil {
				t.Fatal(err)
			}
			if res.Text == "" {
				t.Fatal("empty text rendering")
			}
			if len(res.Tables) == 0 || res.Data == nil {
				t.Fatalf("incomplete result: %d tables, data %T", len(res.Tables), res.Data)
			}
			// Every workload speaks every encoder; JSON must decode.
			var b strings.Builder
			for _, f := range []report.Format{report.FormatCSV, report.FormatMarkdown} {
				if err := res.Write(&b, f); err != nil {
					t.Fatalf("format %v: %v", f, err)
				}
			}
			b.Reset()
			if err := res.Write(&b, report.FormatJSON); err != nil {
				t.Fatal(err)
			}
			var doc []struct {
				Rows []map[string]any `json:"rows"`
			}
			if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
				t.Fatalf("invalid json: %v\n%s", err, b.String())
			}
			if len(doc) != len(res.Tables) {
				t.Fatalf("json tables %d, result tables %d", len(doc), len(res.Tables))
			}
		})
	}
}
