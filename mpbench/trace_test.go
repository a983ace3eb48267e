package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "core.Run", Start: 0, End: 100 * ms, Count: 1},
		// Two overlapping children cover [10,50) once, not 60 ms.
		{ID: 2, Parent: 1, Name: "litho.Draw", Start: 10 * ms, End: 40 * ms, Count: 3},
		{ID: 3, Parent: 1, Name: "litho.Draw", Start: 20 * ms, End: 50 * ms, Count: 3},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "extract.VarRatios", Start: 90 * ms, End: 120 * ms, Count: 1},
		// A grandchild is charged to its own parent, not the root.
		{ID: 5, Parent: 4, Name: "analytic.TdpPct", Start: 95 * ms, End: 105 * ms, Count: 10},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 30 * ms, 3: 30 * ms, 4: 20 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	names := byName(spans)
	if c := names["litho.Draw"]; c.Self != 60*ms || c.Calls != 6 || c.perCall() != 10*ms {
		t.Errorf("litho.Draw stats = %+v", c)
	}
	layers := byLayer(spans)
	if c := layers["analytic"]; c.Self != 10*ms || c.Calls != 10 {
		t.Errorf("analytic layer = %+v", c)
	}
	if c := layers["core"]; c.Self != 50*ms || c.Calls != 1 {
		t.Errorf("core layer = %+v", c)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("core.Run", 0, 1)
	tr.end(id, 1)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	live := newTracer()
	a := live.begin("serve.request", 0, 7)
	b := live.begin("core.Key", a, 7)
	live.end(b, 1)
	live.end(a, 1)
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != a || got[0].Run != 7 || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}
