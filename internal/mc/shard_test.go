package mc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mpsram/internal/stats"
)

// encodeResult renders a VectorResult through the stats codecs — the
// NaN-safe canonical form used for bit-identity comparisons.
func encodeResult(r *VectorResult) []byte {
	var b []byte
	for _, w := range r.Stats {
		b = w.AppendBinary(b)
	}
	for _, q := range r.Quantiles {
		b = appendSketch(b, q)
	}
	for _, vs := range r.Values {
		for _, v := range vs {
			b = stats.AppendF64(b, v)
		}
	}
	b = append(b, byte(r.Rejected), byte(r.Rejected>>8))
	return b
}

// shardedRun executes cfg as `count` shards with the given worker count,
// round-trips every artifact through the payload codec, and reduces.
func shardedRun(t *testing.T, cfg Config, count, workers, nobs int, f VectorFunc) *VectorResult {
	t.Helper()
	parts := make([]*ShardPayload, count)
	for i := 0; i < count; i++ {
		sr, err := NewShardRun(ShardSpec{Index: i, Count: count})
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Workers = workers
		scfg.Shard = sr
		if _, err := RunVector(context.Background(), scfg, nobs, f); err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		p, err := DecodeShardPayload(sr.EncodePayload())
		if err != nil {
			t.Fatalf("shard %d payload round trip: %v", i, err)
		}
		parts[i] = p
	}
	rp, err := NewReplay(parts)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Replay = rp
	res, err := RunVector(context.Background(), rcfg, nobs, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Done(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardReduceBitIdentical is the tentpole gate: reduce(shards) must
// be bit-identical to the single-process run for multiple partitions and
// per-shard worker counts, in both streaming and collect modes.
func TestShardReduceBitIdentical(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		if rng.Float64() < 0.02 {
			return false
		}
		out[0] = rng.NormFloat64()
		out[1] = rng.ExpFloat64()
		return true
	}
	for _, collect := range []bool{false, true} {
		cfg := Config{Samples: 1100, Seed: 7, Collect: collect}
		direct, err := RunVector(context.Background(), cfg, 2, f)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeResult(direct)
		for _, count := range []int{1, 3} {
			for _, workers := range []int{1, 8} {
				got := shardedRun(t, cfg, count, workers, 2, f)
				if !reflect.DeepEqual(encodeResult(got), want) {
					t.Fatalf("collect=%t %d shards × %d workers: reduce diverges from single-process", collect, count, workers)
				}
				if collect && !reflect.DeepEqual(got.Values, direct.Values) {
					t.Fatalf("collect=%t %d shards × %d workers: collected values diverge", collect, count, workers)
				}
			}
		}
	}
}

// TestShardReducePairedBitIdentical covers the control-variate path.
func TestShardReducePairedBitIdentical(t *testing.T) {
	f := func(_ any, rng *rand.Rand, y, x []float64) bool {
		v := rng.NormFloat64()
		x[0] = v
		y[0] = 2*v + 0.1*rng.NormFloat64()
		return true
	}
	cfg := Config{Samples: 900, Seed: 3}
	direct, err := RunVectorPaired(context.Background(), cfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, c := range direct.CV {
		want = c.AppendBinary(want)
	}
	for _, count := range []int{1, 3} {
		for _, workers := range []int{1, 8} {
			parts := make([]*ShardPayload, count)
			for i := 0; i < count; i++ {
				sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
				scfg := cfg
				scfg.Workers = workers
				scfg.Shard = sr
				if _, err := RunVectorPaired(context.Background(), scfg, 1, f); err != nil {
					t.Fatal(err)
				}
				p, err := DecodeShardPayload(sr.EncodePayload())
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = p
			}
			rp, err := NewReplay(parts)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Replay = rp
			res, err := RunVectorPaired(context.Background(), rcfg, 1, f)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for _, c := range res.CV {
				got = c.AppendBinary(got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards × %d workers: paired reduce diverges", count, workers)
			}
			if !reflect.DeepEqual(encodeResult(&res.VectorResult), encodeResult(&direct.VectorResult)) {
				t.Fatalf("%d shards × %d workers: paired primary view diverges", count, workers)
			}
		}
	}
}

// TestShardMultiStream: a run comprising several engine invocations (the
// registry norm — SigmaSurface runs one stream per option) captures and
// replays each stream by invocation order.
func TestShardMultiStream(t *testing.T) {
	run := func(cfg Config) ([]*VectorResult, error) {
		var out []*VectorResult
		for _, seed := range []int64{11, 12, 13} {
			c := cfg
			c.Seed = seed
			r, err := RunVector(context.Background(), c, 1, func(rng *rand.Rand, o []float64) bool {
				o[0] = rng.NormFloat64()
				return true
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	direct, err := run(Config{Samples: 700})
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	parts := make([]*ShardPayload, count)
	for i := 0; i < count; i++ {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		if _, err := run(Config{Samples: 700, Shard: sr}); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = DecodeShardPayload(sr.EncodePayload()); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := NewReplay(parts)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := run(Config{Samples: 700, Replay: rp})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Done(); err != nil {
		t.Fatal(err)
	}
	for s := range direct {
		if !reflect.DeepEqual(encodeResult(reduced[s]), encodeResult(direct[s])) {
			t.Fatalf("stream %d diverges after multi-stream reduce", s)
		}
	}
}

// TestShardCheckpointResume is the kill-mid-run gate at the engine
// boundary: cancel a shard run partway, persist its payload, resume from
// the decoded checkpoint, and require (a) the final artifact equals an
// uninterrupted shard run's bit for bit, and (b) the resumed leg
// re-executes no trial below the checkpoint frontier and every trial at
// or after it exactly once — the torn-block invariant.
func TestShardCheckpointResume(t *testing.T) {
	const samples = 2000
	const seed = 5
	plain := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}

	// Uninterrupted reference shard run.
	ref, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	if _, err := RunVector(context.Background(), Config{Samples: samples, Seed: seed, Workers: 2, Shard: ref}, 1, plain); err != nil {
		t.Fatal(err)
	}
	want := ref.EncodePayload()

	// The trial functions fingerprint each trial by its first draw, which
	// is a pure function of (seed, trial index).
	firstDraw := make(map[float64]int, samples)
	{
		probe := rand.New(rand.NewSource(0))
		for i := 0; i < samples; i++ {
			probe.Seed(trialSeed(seed, i))
			firstDraw[probe.NormFloat64()] = i
		}
	}
	nblocks := (samples + blockSize - 1) / blockSize

	// Killed run: cancel mid-stream, keep whatever the frontier reached.
	// The cancel fires from the first frontier report, so at least one
	// block is emitted; trials of the last block wait for the cancel, so
	// the frontier cannot reach the end whatever the scheduling.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	_, err := RunVector(ctx, Config{Samples: samples, Seed: seed, Workers: 2, Shard: killed,
		Progress: func(done, total int) { cancel() }}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		if firstDraw[out[0]] >= (nblocks-1)*blockSize {
			<-ctx.Done()
		}
		return true
	})
	if err == nil {
		t.Fatal("canceled shard run reported success")
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Fatalf("unexpected cancel error: %v", err)
	}
	ckpt, err := DecodeShardPayload(killed.EncodePayload())
	if err != nil {
		t.Fatal(err)
	}
	frontier := len(ckpt.streams[0].recs)
	if frontier == 0 || frontier >= (samples+blockSize-1)/blockSize {
		t.Fatalf("checkpoint frontier %d not strictly mid-run", frontier)
	}

	// Resume. The histogram of executed trials directly witnesses the
	// invariant.
	resumed, err := ResumeShardRun(ShardSpec{Index: 0, Count: 1}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var counts [samples]atomic.Int32
	_, err = RunVector(context.Background(), Config{Samples: samples, Seed: seed, Workers: 2, Shard: resumed}, 1, func(rng *rand.Rand, out []float64) bool {
		v := rng.NormFloat64()
		out[0] = v
		if i, ok := firstDraw[v]; ok {
			counts[i].Add(1)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < samples; i++ {
		got := counts[i].Load()
		if i < frontier*blockSize && got != 0 {
			t.Fatalf("trial %d below the frontier (%d blocks) re-executed %d times on resume", i, frontier, got)
		}
		if i >= frontier*blockSize && got != 1 {
			t.Fatalf("trial %d at/after the frontier executed %d times on resume, want exactly 1", i, got)
		}
	}
	if !reflect.DeepEqual(resumed.EncodePayload(), want) {
		t.Fatal("kill + resume payload differs from the uninterrupted run")
	}
}

// TestShardCancelCountMatchesFrontier pins the partial-progress
// invariant: the trial count in the cancellation error equals the trials
// of the contiguous emitted prefix — the exact set a checkpoint persists
// — never including torn or unmerged out-of-order blocks.
func TestShardCancelCountMatchesFrontier(t *testing.T) {
	const samples = 3000
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int32
	sr, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	_, err := RunVector(ctx, Config{Samples: samples, Seed: 9, Workers: 4, Shard: sr}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		if seen.Add(1) == 1200 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	p, derr := DecodeShardPayload(sr.EncodePayload())
	if derr != nil {
		t.Fatal(derr)
	}
	frontierTrials := 0
	for _, rec := range p.streams[0].recs {
		lo, hi := blockBounds(rec.Block, samples)
		frontierTrials += hi - lo
	}
	if want := fmtCanceled(frontierTrials, samples); !strings.Contains(err.Error(), want) {
		t.Fatalf("cancel error %q does not report the frontier count (%s)", err, want)
	}
}

// fmtCanceled renders the engine's cancellation count fragment.
func fmtCanceled(done, total int) string {
	return fmt.Sprintf("canceled after %d of %d trials", done, total)
}

// TestShardPayloadRejects pins the artifact-robustness contract:
// version-mismatched, truncated and trailing-garbage payloads refuse to
// decode.
func TestShardPayloadRejects(t *testing.T) {
	sr, _ := NewShardRun(ShardSpec{Index: 0, Count: 1})
	if _, err := RunVector(context.Background(), Config{Samples: 300, Seed: 1, Shard: sr}, 1, func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	good := sr.EncodePayload()
	if _, err := DecodeShardPayload(good); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := DecodeShardPayload(bad); err == nil {
		t.Fatal("decoded a foreign payload version")
	}
	bad = append([]byte(nil), good...)
	bad[9] = 99 // stream header version byte
	if _, err := DecodeShardPayload(bad); err == nil {
		t.Fatal("decoded a foreign stream header version")
	}
	for _, cut := range []int{0, 1, 5, 9, len(good) / 2, len(good) - 1} {
		if _, err := DecodeShardPayload(good[:cut]); err == nil {
			t.Fatalf("decoded a %d-byte truncation", cut)
		}
	}
	if _, err := DecodeShardPayload(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("decoded trailing garbage")
	}
}

// TestReplayValidation: the reducer refuses drifted runs — wrong seed,
// missing shards, incomplete artifacts, leftover streams.
func TestReplayValidation(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	mkPart := func(i, count int, cfg Config) *ShardPayload {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		c := cfg
		c.Shard = sr
		if _, err := RunVector(context.Background(), c, 1, f); err != nil {
			t.Fatal(err)
		}
		p, err := DecodeShardPayload(sr.EncodePayload())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := Config{Samples: 600, Seed: 2}

	// Seed drift between artifact and reduce run.
	rp, err := NewReplay([]*ShardPayload{mkPart(0, 1, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Replay = rp
	if _, err := RunVector(context.Background(), bad, 1, f); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("seed drift not rejected: %v", err)
	}

	// Missing shard: only one of two partitions supplied.
	if _, err := NewReplay([]*ShardPayload{mkPart(0, 2, cfg)}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("missing shard not rejected: %v", err)
	}

	// Leftover stream: the reduce run performs fewer engine invocations
	// than the shards recorded.
	rp2, err := NewReplay([]*ShardPayload{mkPart(0, 1, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp2.Done(); err == nil || !strings.Contains(err.Error(), "consumed 0 of 1") {
		t.Fatalf("leftover stream not reported: %v", err)
	}

	// Exhausted replay: more invocations than recorded.
	rp3, _ := NewReplay([]*ShardPayload{mkPart(0, 1, cfg)})
	good := cfg
	good.Replay = rp3
	if _, err := RunVector(context.Background(), good, 1, f); err != nil {
		t.Fatal(err)
	}
	if _, err := RunVector(context.Background(), good, 1, f); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhausted replay not rejected: %v", err)
	}
}

// TestShardEmptyRange: more shards than blocks — the surplus shard's
// range is empty, its run must succeed with an empty (not erroring)
// partial result, and the reduce must still be exact.
func TestShardEmptyRange(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	cfg := Config{Samples: 300, Seed: 4} // 2 blocks, 5 shards
	direct, err := RunVector(context.Background(), cfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	const count = 5
	parts := make([]*ShardPayload, count)
	for i := 0; i < count; i++ {
		sr, _ := NewShardRun(ShardSpec{Index: i, Count: count})
		c := cfg
		c.Shard = sr
		res, err := RunVector(context.Background(), c, 1, f)
		if err != nil {
			t.Fatalf("empty-range shard %d errored: %v", i, err)
		}
		_ = res
		if parts[i], err = DecodeShardPayload(sr.EncodePayload()); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := NewReplay(parts)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Replay = rp
	got, err := RunVector(context.Background(), rcfg, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encodeResult(got), encodeResult(direct)) {
		t.Fatal("empty-range partition diverges from single-process")
	}
}

// TestShardSpecValidate covers the coordinate guards.
func TestShardSpecValidate(t *testing.T) {
	// {2⁶⁰, 2⁶¹} would overflow Index·nblocks in blockRange.
	for _, s := range []ShardSpec{{0, 0}, {-1, 3}, {3, 3}, {5, 2}, {1 << 60, 1 << 61}, {0, maxShards + 1}} {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v validated", s)
		}
	}
	for _, s := range []ShardSpec{{2, 3}, {maxShards - 1, maxShards}} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardFrontierAccessors pins the external progress surface: the
// live ShardRun frontier after a completed run covers exactly the
// shard's trial range, and the at-rest payload (what the serve layer's
// child-process poller reads) reports the identical frontier.
func TestShardFrontierAccessors(t *testing.T) {
	f := func(rng *rand.Rand, out []float64) bool {
		out[0] = rng.NormFloat64()
		return true
	}
	spec := ShardSpec{Index: 0, Count: 2}
	sr, err := NewShardRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Spec() != spec {
		t.Fatalf("Spec() %+v, want %+v", sr.Spec(), spec)
	}
	cfg := Config{Samples: 1100, Seed: 7, Workers: 1, Shard: sr}
	if _, err := RunVector(context.Background(), cfg, 1, f); err != nil {
		t.Fatal(err)
	}
	done, total := sr.Frontier()
	if done != total || done <= 0 || done >= 1100 {
		t.Fatalf("completed shard frontier (%d, %d): want equal, positive, a strict partial of 1100", done, total)
	}
	p, err := DecodeShardPayload(sr.EncodePayload())
	if err != nil {
		t.Fatal(err)
	}
	if pd, pt := p.Frontier(spec); pd != done || pt != total {
		t.Fatalf("payload frontier (%d, %d) != live frontier (%d, %d)", pd, pt, done, total)
	}
}
