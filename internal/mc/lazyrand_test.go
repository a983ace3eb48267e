package mc

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzLazySource checks lazySource bit for bit against math/rand, which
// stays the reference: the fuzz input picks a seed, then a program of
// draws (Uint64, Int63, NormFloat64, Intn) with long runs that cross the
// rngTap and rngLen marks, and reseeds mid-stream.
func FuzzLazySource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 2015, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, []byte{0x3f, 0xff, 0x41, 0x82, 0xc3, 0x10})
	}
	f.Add(trialSeed(2015, 0), []byte{0x8e, 0x00, 0xf1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		ref := rand.New(rand.NewSource(0))
		got := rand.New(newLazySource(0))
		ref.Seed(seed)
		got.Seed(seed)
		for pc, op := range prog {
			reps := 1 + int(op&0x3f)*20 // up to 1 261 draws per op
			for r := 0; r < reps; r++ {
				var a, b uint64
				switch op >> 6 {
				case 0:
					a, b = ref.Uint64(), got.Uint64()
				case 1:
					a, b = uint64(ref.Int63()), uint64(got.Int63())
				case 2:
					a, b = math.Float64bits(ref.NormFloat64()), math.Float64bits(got.NormFloat64())
				default:
					n := 1 + int(op)<<uint(r%48) // crosses Int31n and Int63n
					a, b = uint64(ref.Intn(n)), uint64(got.Intn(n))
				}
				if a != b {
					t.Fatalf("seed %d op %d (%#x) draw %d: lazy %#x, math/rand %#x", seed, pc, op, r, b, a)
				}
			}
			if op&0x3f == 0 && pc+9 <= len(prog) {
				// A zero-length run reseeds from the next 8 bytes.
				s := int64(binary.LittleEndian.Uint64(prog[pc+1:]))
				ref.Seed(s)
				got.Seed(s)
			}
		}
	})
}

// TestEngineStreamMatchesMathRand pins the engine's per-trial stream to
// math/rand: trial i of a run sees exactly rand.NewSource seeded with
// trialSeed(Seed, i), the stream every golden number was drawn from.
func TestEngineStreamMatchesMathRand(t *testing.T) {
	cfg := Config{Samples: 64, Seed: 2015, Collect: true}
	vr, err := RunVector(context.Background(), cfg, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < cfg.Samples; i++ {
		rng.Seed(trialSeed(cfg.Seed, i))
		if want := rng.NormFloat64(); vr.Values[0][i] != want {
			t.Fatalf("trial %d: %g != math/rand %g", i, vr.Values[0][i], want)
		}
	}
}

// BenchmarkTrialReseed prices one trial's reseed plus eight normal
// draws (a litho sample) on math/rand's source, which rebuilds its
// 607-word table on every Seed, and on the engine's lazySource.
func BenchmarkTrialReseed(b *testing.B) {
	for _, arm := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(0)},
		{"lazy", newLazySource(0)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			rng := rand.New(arm.src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng.Seed(trialSeed(2015, i))
				for k := 0; k < 8; k++ {
					rng.NormFloat64()
				}
			}
		})
	}
}
