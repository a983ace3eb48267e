package sram

import (
	"mpsram/internal/circuit"
	"mpsram/internal/device"
	"mpsram/internal/extract"
	"mpsram/internal/spice"
	"mpsram/internal/tech"
)

// ColumnBuilder is a per-worker column construction and simulation
// session — the resident-engine read path behind the SPICE sweep engine
// and the SPICE-in-the-loop Monte-Carlo. Building a fresh Column
// (BuildColumn + Column.MeasureTd) re-instantiates the device cards,
// reallocates the whole netlist and constructs a new engine for every
// read; a ColumnBuilder amortizes all three across however many
// (sample, size) points a sweep visits: it caches the nominal per-cell
// parasitics, shares one NMOS/PMOS model card pair across builds,
// rebuilds every column into one reusable netlist and re-targets one
// resident SPICE engine.
//
// Results are bit-identical to the fresh-engine path: construction is
// deterministic, the cached values are pure functions of the inputs and
// spice.Engine.Reset matches a fresh engine, so reuse only removes
// recomputation, never changes a float.
//
// A ColumnBuilder is not safe for concurrent use; give each worker its
// own.
type ColumnBuilder struct {
	Proc tech.Process
	Cap  extract.CapModel

	nmos *device.MOS
	pmos *device.MOS

	haveNom bool
	nom     CellParasitics

	// scratch is the reused netlist; the Column returned by Build aliases
	// it and stays valid only until the next Build call.
	scratch *circuit.Netlist

	// eng is the resident SPICE engine, re-targeted with
	// spice.Engine.Reset on every MeasureTd so the sparse matrices, the
	// Newton scratch and the waveform storage survive across trials.
	eng *spice.Engine
}

// NewColumnBuilder returns a session for process p and capacitance model
// cm.
func NewColumnBuilder(p tech.Process, cm extract.CapModel) *ColumnBuilder {
	return &ColumnBuilder{
		Proc: p,
		Cap:  cm,
		nmos: device.NewNMOS(p.FEOL),
		pmos: device.NewPMOS(p.FEOL),
	}
}

// Nominal returns the nominal per-cell parasitics, extracting them on the
// first call and serving the cached value afterwards.
func (b *ColumnBuilder) Nominal() (CellParasitics, error) {
	if !b.haveNom {
		nom, err := NominalParasitics(b.Proc, b.Cap)
		if err != nil {
			return CellParasitics{}, err
		}
		b.nom, b.haveNom = nom, true
	}
	return b.nom, nil
}

// SetNominal seeds the nominal-parasitics cache, letting a sweep
// coordinator extract once and share the value across per-worker builders.
func (b *ColumnBuilder) SetNominal(nom CellParasitics) {
	b.nom, b.haveNom = nom, true
}

// Build constructs the column into the session's reusable netlist scratch.
// The returned Column (and its Netlist) aliases that scratch and is valid
// only until the next Build call on this session.
func (b *ColumnBuilder) Build(n int, cp CellParasitics, opt BuildOptions) (*Column, error) {
	if b.scratch == nil {
		b.scratch = circuit.New()
	} else {
		b.scratch.Reset()
	}
	return buildColumnInto(b.scratch, b.nmos, b.pmos, b.Proc, n, cp, opt)
}

// MeasureTd builds the column for parasitics cp at size n and runs the
// read transient on the session's resident engine, returning td in
// seconds. The first call constructs the engine; later calls re-target it
// with spice.Engine.Reset, which reuses every internal allocation and is
// bit-identical to a fresh engine.
func (b *ColumnBuilder) MeasureTd(n int, cp CellParasitics, bopt BuildOptions, sopt SimOptions) (float64, error) {
	col, err := b.Build(n, cp, bopt)
	if err != nil {
		return 0, err
	}
	opts := spice.Options{Method: sopt.Method}
	if b.eng == nil {
		b.eng, err = spice.New(col.Netlist, opts)
	} else {
		err = b.eng.Reset(col.Netlist, opts)
	}
	if err != nil {
		return 0, err
	}
	res, err := col.measureTdOn(b.eng, cp, sopt)
	if err != nil {
		return 0, err
	}
	return res.Td, nil
}
