package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API. Spans of one operation share Run; Parent is
// the ID of the span that caused this one (0 for a root). Count is the
// number of calls the span covers: a span around a batch of K
// nanosecond-scale calls carries Count K, so per-call costs are not
// swamped by the clock reads of per-call spans.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int64         `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Count  int           `json:"count"`
}

// layer is the module a span's name belongs to: the part before the
// first dot ("litho.Draw" → "litho").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced phases call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, run int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, Count: 1})
	return len(t.spans)
}

// end closes span id, recording that it covered count calls.
func (t *tracer) end(id, count int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent calls) are counted once, through the union of their
// intervals clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// callStats aggregates self time and call counts per span name.
type callStats struct {
	Self  time.Duration
	Calls int
	Spans int
}

// perCall is the mean self time of one call.
func (c callStats) perCall() time.Duration {
	if c.Calls == 0 {
		return 0
	}
	return c.Self / time.Duration(c.Calls)
}

// byName sums self times and counts over spans with the same name.
func byName(spans []span) map[string]callStats {
	self := selfTimes(spans)
	out := make(map[string]callStats)
	for _, s := range spans {
		c := out[s.Name]
		c.Self += self[s.ID]
		c.Calls += s.Count
		c.Spans++
		out[s.Name] = c
	}
	return out
}

// byLayer sums self times and counts per layer (module) name.
func byLayer(spans []span) map[string]callStats {
	out := make(map[string]callStats)
	for name, c := range byName(spans) {
		l := span{Name: name}.layer()
		a := out[l]
		a.Self += c.Self
		a.Calls += c.Calls
		a.Spans += c.Spans
		out[l] = a
	}
	return out
}
