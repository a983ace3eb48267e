package sram

import (
	"testing"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

// TestColumnBuilderMatchesOneShotPath pins the resident-engine read
// against the fresh-engine one: a new Column per read (BuildColumn +
// Column.MeasureTd) must give the same td, bit for bit, for nominal and
// perturbed parasitics at several sizes on one reused session.
func TestColumnBuilderMatchesOneShotPath(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	wc, err := extract.WorstCase(p, litho.SADP, cm)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []CellParasitics{nom, nom.Scale(wc.Ratios)} {
		for _, n := range []int{16, 64} {
			got, err := b.MeasureTd(n, cp, BuildOptions{}, SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			col, err := BuildColumn(p, n, cp, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := col.MeasureTd(cp, SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Td {
				t.Fatalf("n=%d: builder td %g != fresh-engine td %g", n, got, want.Td)
			}
		}
	}
}

func TestColumnBuilderScratchReuse(t *testing.T) {
	p := tech.N10()
	cm := extract.SakuraiTamaru{}
	b := NewColumnBuilder(p, cm)
	nom, err := b.Nominal()
	if err != nil {
		t.Fatal(err)
	}
	// Reference netlist from the allocating path.
	ref, err := BuildColumn(p, 32, nom, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Build something bigger first so the second build runs in dirty,
	// larger-capacity scratch.
	if _, err := b.Build(64, nom, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	col, err := b.Build(32, nom, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Netlist != b.scratch {
		t.Fatal("Build must reuse the session scratch netlist")
	}
	if got, want := col.Netlist.WriteSpice("x"), ref.Netlist.WriteSpice("x"); got != want {
		t.Fatalf("reused-scratch netlist differs from fresh build:\n%s\nvs\n%s", got, want)
	}
	if col.BLSense != ref.BLSense || col.BLFar != ref.BLFar || col.Q != ref.Q {
		t.Fatal("probe node ids differ between fresh and reused builds")
	}
}
