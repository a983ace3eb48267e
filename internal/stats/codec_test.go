package stats

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// decodeAll runs one Decode over b and requires it to consume the whole
// buffer: each accumulator is a fixed-size record, so leftover bytes mean
// a malformed encoding.
func decodeAll(b []byte, decode func(*CodecReader)) error {
	r := NewCodecReader(b)
	decode(r)
	if err := r.Err(); err != nil {
		return err
	}
	if r.Rest() != 0 {
		return fmt.Errorf("stats: %d trailing bytes", r.Rest())
	}
	return nil
}

// encodeW is the canonical byte form used for bit-identity comparisons
// (NaN-safe, unlike struct equality).
func encodeW(w Welford) []byte { return w.AppendBinary(nil) }

func TestWelfordCodecRoundTrip(t *testing.T) {
	var w Welford
	for _, v := range []float64{1.5, -2.25, 3.75, 0.125, 1e-300, -1e300} {
		w.Add(v)
	}
	b := encodeW(w)
	if len(b) != 1+5*8 {
		t.Fatalf("encoded size %d, want %d", len(b), 1+5*8)
	}
	var got Welford
	if err := decodeAll(b, got.Decode); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("round trip drifted: got %+v want %+v", got, w)
	}
	// Merging a decoded accumulator must be bit-identical to merging the
	// original: fold both into the same base and compare encodings.
	var base1, base2 Welford
	base1.Add(42)
	base2.Add(42)
	base1.Merge(w)
	base2.Merge(got)
	if !bytes.Equal(encodeW(base1), encodeW(base2)) {
		t.Fatal("merge after round trip is not bit-identical")
	}
}

func TestWelfordCodecZeroValue(t *testing.T) {
	var w Welford
	var got Welford
	got.Add(1) // dirty the target; decode must fully overwrite
	if err := decodeAll(encodeW(w), got.Decode); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("zero-value round trip drifted: %+v", got)
	}
}

func TestP2CodecRoundTrip(t *testing.T) {
	e := NewP2(0.95)
	for i := 0; i < 100; i++ {
		e.Add(float64(i%17) * 1.25)
	}
	b := e.AppendBinary(nil)
	if len(b) != 1+2*8+4*5*8 {
		t.Fatalf("encoded size %d, want %d", len(b), 1+2*8+4*5*8)
	}
	var got P2
	if err := decodeAll(b, got.Decode); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip drifted: got %+v want %+v", got, e)
	}
	// Below-formation sketches (raw values still buffered) round-trip too.
	small := NewP2(0.5)
	small.Add(3)
	small.Add(-1)
	var sgot P2
	if err := decodeAll(small.AppendBinary(nil), sgot.Decode); err != nil {
		t.Fatal(err)
	}
	if sgot != small {
		t.Fatalf("pre-formation round trip drifted: got %+v want %+v", sgot, small)
	}
}

// TestP2CodecRejectsImpossibleMarkers: Decode refuses every sketch whose
// markers no sequence of Add and Merge produces. Merge binary-searches
// the heights and interpolates between positions, so such a sketch must
// not reach the reducer: merging the first case, a median sketch with
// heights {5, NaN, 1, 0, 9}, indexes out of range.
func TestP2CodecRejectsImpossibleMarkers(t *testing.T) {
	formed := NewP2(0.5)
	for i := 0; i < 9; i++ {
		formed.Add(float64(i))
	}
	unformed := NewP2(0.5)
	unformed.Add(2)
	unformed.Add(1)
	nan := math.NaN()
	for _, c := range []struct {
		name string
		base P2
		edit func(*P2)
	}{
		{"NaN and unordered heights", formed, func(e *P2) { e.q = [5]float64{5, nan, 1, 0, 9} }},
		{"decreasing heights", formed, func(e *P2) { e.q[3] = e.q[2] - 1 }},
		{"infinite height", formed, func(e *P2) { e.q[4] = math.Inf(1) }},
		{"NaN position", formed, func(e *P2) { e.pos[2] = nan }},
		{"position below 1", formed, func(e *P2) { e.pos[0] = 0 }},
		{"position beyond n", formed, func(e *P2) { e.pos[4] = float64(e.n) + 1 }},
		{"decreasing positions", formed, func(e *P2) { e.pos[1], e.pos[2] = e.pos[2], e.pos[1] }},
		{"foreign increments", formed, func(e *P2) { e.inc = NewP2(0.95).inc }},
		{"unformed NaN value", unformed, func(e *P2) { e.q[1] = nan }},
		{"unformed foreign increments", unformed, func(e *P2) { e.inc[4] = 2 }},
		{"target outside (0,1)", formed, func(e *P2) { e.p = 1.5 }},
		{"negative count", formed, func(e *P2) { e.n = -1 }},
	} {
		e := c.base
		c.edit(&e)
		if err := decodeAll(e.AppendBinary(nil), new(P2).Decode); err == nil {
			t.Errorf("%s: decoded %+v", c.name, e)
		}
	}
	// The sketches Add and Merge produce still decode, and merge.
	merged := formed
	merged.Merge(unformed)
	for _, e := range []P2{NewP2(0.5), unformed, formed, merged} {
		var got P2
		if err := decodeAll(e.AppendBinary(nil), got.Decode); err != nil {
			t.Fatalf("legitimate sketch %+v refused: %v", e, err)
		}
		got.Merge(formed)
	}
}

func TestControlVariateCodecRoundTrip(t *testing.T) {
	var c ControlVariate
	for i := 0; i < 64; i++ {
		y := float64(i) * 0.5
		c.Add(y, 2*y+0.125)
	}
	b := c.AppendBinary(nil)
	if want := 1 + 2*(1+5*8) + 8; len(b) != want {
		t.Fatalf("encoded size %d, want %d", len(b), want)
	}
	var got ControlVariate
	if err := decodeAll(b, got.Decode); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip drifted: got %+v want %+v", got, c)
	}
}

// TestCodecRejectsVersionMismatch pins the versioning contract: a bumped
// version byte must refuse to decode, never decode silently wrong.
func TestCodecRejectsVersionMismatch(t *testing.T) {
	var w Welford
	w.Add(1)
	b := encodeW(w)
	b[0] = 99
	if err := decodeAll(b, new(Welford).Decode); err == nil {
		t.Fatal("Welford decoded a foreign version byte")
	}
	e := NewP2(0.5)
	pb := e.AppendBinary(nil)
	pb[0] = 99
	if err := decodeAll(pb, new(P2).Decode); err == nil {
		t.Fatal("P2 decoded a foreign version byte")
	}
	var c ControlVariate
	c.Add(1, 2)
	cb := c.AppendBinary(nil)
	cb[0] = 99
	if err := decodeAll(cb, new(ControlVariate).Decode); err == nil {
		t.Fatal("ControlVariate decoded a foreign version byte")
	}
	// The nested Welford versions inside a ControlVariate are checked too.
	cb2 := c.AppendBinary(nil)
	cb2[1] = 99
	if err := decodeAll(cb2, new(ControlVariate).Decode); err == nil {
		t.Fatal("ControlVariate decoded a foreign nested Welford version")
	}
}

// TestCodecRejectsTruncation pins the truncation contract at every
// prefix length: no partial buffer may decode.
func TestCodecRejectsTruncation(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(-3)
	wb := encodeW(w)
	for i := 0; i < len(wb); i++ {
		if err := decodeAll(wb[:i], new(Welford).Decode); err == nil {
			t.Fatalf("Welford decoded a %d-byte truncation", i)
		}
	}
	e := NewP2(0.5)
	for i := 0; i < 9; i++ {
		e.Add(float64(i))
	}
	pb := e.AppendBinary(nil)
	for i := 0; i < len(pb); i++ {
		if err := decodeAll(pb[:i], new(P2).Decode); err == nil {
			t.Fatalf("P2 decoded a %d-byte truncation", i)
		}
	}
	var c ControlVariate
	c.Add(1, 2)
	cb := c.AppendBinary(nil)
	for i := 0; i < len(cb); i++ {
		if err := decodeAll(cb[:i], new(ControlVariate).Decode); err == nil {
			t.Fatalf("ControlVariate decoded a %d-byte truncation", i)
		}
	}
}

// TestCodecRejectsTrailingBytes: a fixed-size record leaves the bytes
// after it unconsumed, which is how a whole-buffer decode detects them.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	var w Welford
	w.Add(1)
	b := append(encodeW(w), 0)
	if err := decodeAll(b, new(Welford).Decode); err == nil {
		t.Fatal("Welford accepted trailing bytes")
	}
}

// TestCodecStreamingDecode: Decode consumes exactly one record and
// leaves the rest on the reader — the artifact reader's access pattern.
func TestCodecStreamingDecode(t *testing.T) {
	var w1, w2 Welford
	w1.Add(1)
	w2.Add(2)
	w2.Add(5)
	buf := w1.AppendBinary(nil)
	buf = w2.AppendBinary(buf)
	r := NewCodecReader(buf)
	var g1, g2 Welford
	g1.Decode(r)
	if r.Err() != nil || r.Rest() != len(encodeW(w2)) {
		t.Fatalf("first decode: err=%v rest=%d", r.Err(), r.Rest())
	}
	g2.Decode(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Rest() != 0 || g1 != w1 || g2 != w2 {
		t.Fatalf("streaming decode drifted: %+v %+v rest=%d", g1, g2, r.Rest())
	}
	if math.IsNaN(g2.Mean()) {
		t.Fatal("decoded mean is NaN")
	}
}
