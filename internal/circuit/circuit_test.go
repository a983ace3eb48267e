package circuit

import (
	"strings"
	"testing"

	"mpsram/internal/device"
	"mpsram/internal/tech"
)

func TestNodeNaming(t *testing.T) {
	n := New()
	if n.NumNodes() != 1 {
		t.Fatal("fresh netlist must have only ground")
	}
	a := n.Node("a")
	if a == Ground {
		t.Fatal("new node must not be ground")
	}
	if n.Node("a") != a {
		t.Fatal("Node must be idempotent")
	}
	if n.Node("gnd") != Ground || n.Node("GND") != Ground || n.Node("0") != Ground {
		t.Fatal("ground aliases broken")
	}
	if n.NodeName(a) != "a" || n.NodeName(Ground) != "0" {
		t.Fatal("NodeName broken")
	}
	if n.NodeName(NodeID(99)) != "n99" {
		t.Fatal("out-of-range NodeName must be synthesized")
	}
}

func TestValidateAcceptsGoodNetlist(t *testing.T) {
	f := tech.N10().FEOL
	n := New()
	a, b := n.Node("a"), n.Node("b")
	n.AddR("r", a, b, 100)
	n.AddC("c", b, Ground, 1e-15)
	n.AddV("v", a, Ground, DC(1))
	n.AddI("i", b, Ground, DC(1e-6))
	n.AddM("m", b, a, Ground, device.NewNMOS(f), 20e-9)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.Stats(), "3 nodes") {
		t.Fatalf("Stats = %q", n.Stats())
	}
}

func TestValidateRejections(t *testing.T) {
	f := tech.N10().FEOL
	cases := []struct {
		name  string
		build func(*Netlist)
	}{
		{"negative R", func(n *Netlist) { n.AddR("r", n.Node("a"), Ground, -1) }},
		{"zero C", func(n *Netlist) { n.AddC("c", n.Node("a"), Ground, 0) }},
		{"nil V wave", func(n *Netlist) { n.AddV("v", n.Node("a"), Ground, nil) }},
		{"bad V rs", func(n *Netlist) { v := n.AddV("v", n.Node("a"), Ground, DC(1)); v.RS = 0 }},
		{"nil I wave", func(n *Netlist) { n.AddI("i", n.Node("a"), Ground, nil) }},
		{"nil model", func(n *Netlist) { n.AddM("m", n.Node("a"), Ground, Ground, nil, 1e-9) }},
		{"zero width", func(n *Netlist) {
			n.AddM("m", n.Node("a"), Ground, Ground, device.NewNMOS(f), 0)
		}},
		{"bad model", func(n *Netlist) {
			bad := device.NewNMOS(f)
			bad.Alpha = 0
			n.AddM("m", n.Node("a"), Ground, Ground, bad, 1e-9)
		}},
		{"node out of range", func(n *Netlist) { n.Rs = append(n.Rs, Resistor{A: 99, B: 0, R: 1}) }},
	}
	for _, c := range cases {
		n := New()
		c.build(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestWriteSpice(t *testing.T) {
	f := tech.N10().FEOL
	n := New()
	a, b := n.Node("bl"), n.Node("wl")
	n.AddR("bl0", a, b, 3.98)
	n.AddC("bl0", a, Ground, 25e-18)
	n.AddV("vdd", b, Ground, DC(0.7))
	n.AddV("wl", b, Ground, Pulse{V0: 0, V1: 0.7, Rise: 1e-12, Width: 1})
	n.AddI("leak", a, Ground, DC(1e-9))
	n.AddM("pd", a, b, Ground, device.NewNMOS(f), 30e-9)
	deck := n.WriteSpice("test deck")
	for _, want := range []string{
		"* test deck",
		"Rbl0 bl wl 3.98",
		"Cbl0 bl 0 2.5e-17",
		"Vvdd wl 0 DC 0.7",
		"PULSE(0 0.7 0",
		"Ileak bl 0 DC 1e-09",
		"Mpd bl wl 0 0 n10_nmos W=3e-08",
		".end",
	} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

// ramp is a waveform the deck writer has no SPICE card for.
type ramp struct{ v0 float64 }

func (r ramp) At(t float64) float64 { return r.v0 + t }

func TestWaveformFallbackInWriter(t *testing.T) {
	n := New()
	n.AddV("ramp", n.Node("a"), Ground, ramp{v0: 0.3})
	deck := n.WriteSpice("ramp")
	if !strings.Contains(deck, "Vramp a 0 DC 0.3") {
		t.Fatalf("waveform fallback missing: %s", deck)
	}
}

func TestResetReusesStorage(t *testing.T) {
	n := New()
	a, b := n.Node("a"), n.Node("b")
	n.AddR("r", a, b, 10)
	n.AddC("c", b, Ground, 1e-15)
	n.AddV("v", a, Ground, DC(1))
	n.AddI("i", a, Ground, DC(1e-9))
	n.AddM("m", a, b, Ground, device.NewNMOS(tech.N10().FEOL), 20e-9)

	n.Reset()
	if n.NumNodes() != 1 {
		t.Fatalf("reset netlist has %d nodes, want 1 (ground)", n.NumNodes())
	}
	if len(n.Rs)+len(n.Cs)+len(n.Vs)+len(n.Is)+len(n.Ms) != 0 {
		t.Fatal("reset netlist retains elements")
	}
	if cap(n.Rs) == 0 || cap(n.names) < 3 {
		t.Fatal("Reset must keep allocated storage")
	}
	// Rebuilding after Reset assigns the same ids in the same order.
	if got := n.Node("x"); got != a {
		t.Fatalf("first node after Reset = %d, want %d", got, a)
	}
	if n.Node("gnd") != Ground {
		t.Fatal("ground alias broken after Reset")
	}
	n.AddR("r2", n.Node("x"), Ground, 5)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
