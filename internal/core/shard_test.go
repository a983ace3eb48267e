package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/report"
)

// render produces the byte-comparison view of a result: the paper-style
// text plus (when tabular) the JSON tables, which marshal float64s with
// the shortest exact round-trip — any numeric drift shows up.
func render(t *testing.T, res *exp.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Write(&buf, report.FormatText); err != nil {
		t.Fatalf("render text: %v", err)
	}
	if len(res.Tables) > 0 {
		if err := res.Write(&buf, report.FormatJSON); err != nil {
			t.Fatalf("render json: %v", err)
		}
	}
	return buf.Bytes()
}

// shardReduce runs spec split into count shards (each with the given
// worker count), reduces the artifacts and renders the result.
func shardReduce(t *testing.T, spec RunSpec, count, workers int) []byte {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, count)
	for i := range paths {
		paths[i] = filepath.Join(dir, "part"+string(rune('0'+i))+".shard")
		err := RunShard(spec, mc.ShardSpec{Index: i, Count: count}, paths[i],
			ShardRunOptions{}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
	}
	res, err := Reduce(paths)
	if err != nil {
		t.Fatalf("reduce %d shards: %v", count, err)
	}
	return render(t, res)
}

// TestShardReduceMatchesDirect is the tentpole acceptance test at the
// core layer: for plain, collect and paired engine paths, every shard
// partition × worker count must reduce to output byte-identical to the
// direct single-process run.
func TestShardReduceMatchesDirect(t *testing.T) {
	full := []struct{ shards, workers int }{{1, 1}, {1, 4}, {3, 1}, {3, 4}}
	quick := []struct{ shards, workers int }{{1, 4}, {3, 2}} // SPICE trials are slow; cover both partitions once
	specs := []struct {
		spec  RunSpec
		parts []struct{ shards, workers int }
	}{
		{RunSpec{Workload: "fig3"}, full},                                                        // analytic MC, plain streaming path
		{RunSpec{Workload: "fig5", Samples: 600, Params: exp.Params{"n": 64}}, full},             // collect path (raw values)
		{RunSpec{Workload: "mcspice", Samples: 24, Params: exp.Params{"cv": true}}, quick},       // paired control-variate path
		{RunSpec{Workload: "mcspice", Samples: 24, Params: exp.Params{"sizes": "16,32"}}, quick}, // multi-stream SPICE MC
	}
	for _, tc := range specs {
		spec, parts := tc.spec, tc.parts
		t.Run(spec.Workload+"/"+exp.CanonicalParams(spec.Params), func(t *testing.T) {
			t.Parallel()
			direct, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := render(t, direct)
			for _, part := range parts {
				got := shardReduce(t, spec, part.shards, part.workers)
				if !bytes.Equal(got, want) {
					t.Errorf("%d shards × %d workers diverged from direct run:\n got %q\nwant %q",
						part.shards, part.workers, got, want)
				}
			}
		})
	}
}

// TestShardCheckpointResumeEndToEnd kills a shard run mid-flight (context
// cancel from the progress hook), verifies the persisted checkpoint is a
// strict partial, resumes it to completion, and reduces — byte-identical
// to the uninterrupted run.
func TestShardCheckpointResumeEndToEnd(t *testing.T) {
	spec := RunSpec{Workload: "fig5", Samples: 2000, Params: exp.Params{"n": 64}}
	direct, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, direct)

	dir := t.TempDir()
	path := filepath.Join(dir, "part0.shard")
	shard := mc.ShardSpec{Index: 0, Count: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	err = RunShard(spec, shard, path, ShardRunOptions{}, WithContext(ctx),
		WithProgress(func(done, total int) {
			if done >= total/4 && !fired.Swap(true) {
				cancel()
			}
		}))
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("interrupted shard run: %v", err)
	}
	art, err := ReadShardArtifact(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	if art.Header.Complete {
		t.Fatal("interrupted run persisted a complete artifact")
	}

	// An incomplete checkpoint must refuse to reduce.
	ckpt := filepath.Join(dir, "ckpt.shard")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce([]string{ckpt}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("reduced an incomplete checkpoint: %v", err)
	}

	// Resuming with a different spec must refuse the artifact.
	other := spec
	other.Seed = 7
	if err := RunShard(other, shard, path, ShardRunOptions{Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("resumed a foreign checkpoint: %v", err)
	}

	if err := RunShard(spec, shard, path, ShardRunOptions{Resume: true}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	res, err := Reduce([]string{path})
	if err != nil {
		t.Fatalf("reduce resumed artifact: %v", err)
	}
	if got := render(t, res); !bytes.Equal(got, want) {
		t.Errorf("kill-and-resume diverged from direct run:\n got %q\nwant %q", got, want)
	}

	// A second resume of the now-complete artifact is a no-op success.
	if err := RunShard(spec, shard, path, ShardRunOptions{Resume: true}); err != nil {
		t.Fatalf("resume of complete artifact: %v", err)
	}
}

// TestShardPeriodicCheckpoint: with CheckpointEvery set, the artifact
// file exists (as an incomplete checkpoint) before the run finishes.
func TestShardPeriodicCheckpoint(t *testing.T) {
	spec := RunSpec{Workload: "fig5", Samples: 1500, Params: exp.Params{"n": 64}}
	path := filepath.Join(t.TempDir(), "part0.shard")
	var sawCheckpoint atomic.Bool
	err := RunShard(spec, mc.ShardSpec{Index: 0, Count: 1}, path,
		ShardRunOptions{CheckpointEvery: 1}, // 1ns: every frontier advance writes
		WithProgress(func(done, total int) {
			if done == 0 || done >= total {
				return
			}
			if art, err := ReadShardArtifact(path); err == nil && !art.Header.Complete {
				sawCheckpoint.Store(true)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !sawCheckpoint.Load() {
		t.Fatal("no mid-run checkpoint observed on disk")
	}
	art, err := ReadShardArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Header.Complete {
		t.Fatal("finished run left an incomplete artifact")
	}
}

// TestReduceRejects covers the artifact-set validation: foreign files,
// tampered run keys, wrong set sizes, duplicates.
func TestReduceRejects(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Workload: "fig3"}
	mk := func(name string, sh mc.ShardSpec) string {
		p := filepath.Join(dir, name)
		if err := RunShard(spec, sh, p, ShardRunOptions{}); err != nil {
			t.Fatalf("shard %s: %v", name, err)
		}
		return p
	}
	p0 := mk("a0.shard", mc.ShardSpec{Index: 0, Count: 2})
	p1 := mk("a1.shard", mc.ShardSpec{Index: 1, Count: 2})

	if _, err := Reduce(nil); err == nil || !strings.Contains(err.Error(), "no shard artifacts") {
		t.Fatalf("empty set: %v", err)
	}
	if _, err := Reduce([]string{p0}); err == nil || !strings.Contains(err.Error(), "got 1 artifacts") {
		t.Fatalf("missing shard: %v", err)
	}
	if _, err := Reduce([]string{p0, p0}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard: %v", err)
	}

	// A shard of a different run in the set.
	foreign := filepath.Join(dir, "foreign.shard")
	if err := RunShard(RunSpec{Workload: "fig3", Seed: 7}, mc.ShardSpec{Index: 1, Count: 2},
		foreign, ShardRunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce([]string{p0, foreign}); err == nil || !strings.Contains(err.Error(), "belongs to run") {
		t.Fatalf("mixed runs: %v", err)
	}

	// Not an artifact at all.
	junk := filepath.Join(dir, "junk.shard")
	if err := os.WriteFile(junk, []byte("not a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce([]string{junk, p1}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("junk file: %v", err)
	}

	// Tampered run key: the recomputed key no longer reproduces the
	// recorded one, which is exactly how a stale EngineVersion artifact
	// (rewritten to claim the current version) or schema drift surfaces.
	art, err := ReadShardArtifact(p0)
	if err != nil {
		t.Fatal(err)
	}
	h := art.Header
	h.Seed++ // changes the spec, so the recorded RunKey goes stale
	data, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.BigEndian.Uint32(data[len(shardMagic):]))
	payload := data[len(shardMagic)+4+hlen:]
	stale := filepath.Join(dir, "stale.shard")
	if err := writeShardArtifact(stale, h, payload); err != nil {
		t.Fatal(err)
	}
	// Pair it with a matching tampered sibling so set-consistency checks
	// pass and the key recomputation is what fires.
	h1 := h
	h1.ShardIndex = 1
	data1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	hlen1 := int(binary.BigEndian.Uint32(data1[len(shardMagic):]))
	stale1 := filepath.Join(dir, "stale1.shard")
	if err := writeShardArtifact(stale1, h1, data1[len(shardMagic)+4+hlen1:]); err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce([]string{stale, stale1}); err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("stale run key: %v", err)
	}

	// A stale engine version refuses at read time.
	h2 := art.Header
	h2.EngineVersion = "v0"
	old := filepath.Join(dir, "old.shard")
	if err := writeShardArtifact(old, h2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardArtifact(old); err == nil || !strings.Contains(err.Error(), "engine v0") {
		t.Fatalf("stale engine version: %v", err)
	}
}

// TestShardArtifactStreamRoundTrip: the io.Writer/io.Reader flavors of
// the artifact codec produce exactly the on-disk bytes and decode them
// back — the contract the remote fabric relies on to ship artifacts
// over HTTP and land them bit-identical to a local run.
func TestShardArtifactStreamRoundTrip(t *testing.T) {
	spec := RunSpec{Workload: "fig3"}
	path := filepath.Join(t.TempDir(), "part0.shard")
	shard := mc.ShardSpec{Index: 0, Count: 2}
	if err := RunShard(spec, shard, path, ShardRunOptions{}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art, err := ReadShardArtifactFrom(bytes.NewReader(onDisk))
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	hlen := int(binary.BigEndian.Uint32(onDisk[len(shardMagic):]))
	payload := onDisk[len(shardMagic)+4+hlen:]
	var buf bytes.Buffer
	if err := WriteShardArtifactTo(&buf, art.Header, payload); err != nil {
		t.Fatalf("stream write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("stream re-encode diverged from the on-disk artifact bytes")
	}

	// WriteShardArtifactFile lands raw bytes with the same atomic
	// discipline; the result must read back identically.
	copied := filepath.Join(t.TempDir(), "copy.shard")
	if err := WriteShardArtifactFile(copied, onDisk); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(copied)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, onDisk) {
		t.Fatal("WriteShardArtifactFile changed the bytes")
	}
	if _, err := os.Stat(copied + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// Stream decode refuses junk just like the path flavor.
	if _, err := ReadShardArtifactFrom(bytes.NewReader([]byte("nope"))); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("junk stream: %v", err)
	}
}

// TestShardArtifactVerify pins the acceptance checks both ends of the
// remote fabric run before trusting shipped bytes.
func TestShardArtifactVerify(t *testing.T) {
	spec := RunSpec{Workload: "fig3"}
	path := filepath.Join(t.TempDir(), "part0.shard")
	shard := mc.ShardSpec{Index: 0, Count: 2}
	if err := RunShard(spec, shard, path, ShardRunOptions{}); err != nil {
		t.Fatal(err)
	}
	art, err := ReadShardArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	key := art.Header.RunKey

	if err := art.Verify(key, shard); err != nil {
		t.Fatalf("matching artifact refused: %v", err)
	}
	if err := art.Verify("", shard); err != nil {
		t.Fatalf("internal-consistency check refused: %v", err)
	}
	if err := art.Verify(key, mc.ShardSpec{Index: 1, Count: 2}); err == nil ||
		!strings.Contains(err.Error(), "covers shard") {
		t.Fatalf("wrong coordinates: %v", err)
	}
	other := strings.Repeat("0", len(key))
	if err := art.Verify(other, shard); err == nil ||
		!strings.Contains(err.Error(), "belongs to run") {
		t.Fatalf("foreign run key: %v", err)
	}
	drifted := *art
	drifted.Header.Seed++ // spec no longer reproduces the recorded key
	if err := drifted.Verify(drifted.Header.RunKey, shard); err == nil ||
		!strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("drifted spec: %v", err)
	}
	// A shipped header's key is outside input: an empty one is an error,
	// never a slice-bounds panic.
	blank := *art
	blank.Header.RunKey = ""
	if err := blank.Verify(key, shard); err == nil ||
		!strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("empty header key: %v", err)
	}
}

// TestShardHeaderSpecRoundTrip: the JSON header reconstructs a spec that
// normalizes back to the same key (params survive the float64 round
// trip).
func TestShardHeaderSpecRoundTrip(t *testing.T) {
	spec := RunSpec{Workload: "mcspice", Samples: 64, Params: exp.Params{"n": 32, "cv": true}}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := key(t, n)
	h := ShardHeader{Workload: n.Workload, Params: n.Params, Process: n.Process,
		Seed: n.Seed, Samples: n.Samples}
	blob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardHeader
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if got := key(t, back.spec()); got != want {
		t.Fatalf("header round trip changed the run key: %s != %s", got, want)
	}
}

// TestShardArtifactName pins the scratch-file naming convention the
// serve layer's fan-out dir relies on across restarts.
func TestShardArtifactName(t *testing.T) {
	if got := ShardArtifactName("abc123", 1, 3); got != "abc123.shard1-of3" {
		t.Fatalf("ShardArtifactName = %q", got)
	}
}
