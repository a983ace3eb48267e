package mc_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/mc"
)

// checkpointPayload runs one shard of spec through core.RunShard,
// canceling after the first recorded block when stop is set, and returns
// the mc payload of the artifact it persisted — the bytes a coordinator
// ships to POST /v1/shards.
func checkpointPayload(f *testing.F, spec core.RunSpec, shard mc.ShardSpec, stop bool) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.shard")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := core.RunShard(spec, shard, path, core.ShardRunOptions{Progress: func(done, _ int) {
		if stop && done > 0 {
			cancel()
		}
	}}, core.WithContext(ctx), core.WithWorkers(1))
	if err != nil && !stop {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// Container: 8-byte magic, 4-byte header length, JSON header, payload.
	return data[12+binary.BigEndian.Uint32(data[8:]):]
}

// FuzzDecodeShardPayload gates the network-facing decoder: POST
// /v1/shards hands DecodeShardPayload whatever checkpoint bytes a caller
// sends. Arbitrary bytes must never panic; every payload it accepts must
// satisfy the record-count rule resume and reduce size their buffers
// from, and must fold through the reducer's merge (through NewReplay and
// the engine's replay path when it is a complete one-shard run); and a
// payload ResumeShardRun accepts must re-encode to exactly the input
// bytes (the decoder admits one spelling per payload). Seeds
// are real checkpoints: a fig5 collect stream stopped after its first
// block, and a control-variate mcspice run (paired plus plain streams).
func FuzzDecodeShardPayload(f *testing.F) {
	fig5 := core.RunSpec{Workload: "fig5", Samples: 1000}
	f.Add(checkpointPayload(f, fig5, mc.ShardSpec{Index: 1, Count: 2}, true), uint16(1), uint16(2))
	cv := core.RunSpec{Workload: "mcspice", Samples: 4, Params: exp.Params{"sizes": "8", "cv": true}}
	f.Add(checkpointPayload(f, cv, mc.ShardSpec{Index: 0, Count: 1}, false), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, index, count uint16) {
		p, err := mc.DecodeShardPayload(data)
		if err != nil {
			return
		}
		if err := mc.RecordCountRule(p); err != nil {
			t.Fatalf("decoder accepted a record no run produces: %v", err)
		}
		// Decodes implies merges: every accepted payload folds, and one
		// that is a whole single-shard run reduces through NewReplay.
		// The replay may refuse the payload (every trial rejected, say);
		// only a panic fails.
		mc.FoldPayload(p)
		if rp, err := mc.NewReplay([]*mc.ShardPayload{p}); err == nil {
			_ = mc.ReplayStreams(rp)
		}
		sr, err := mc.ResumeShardRun(mc.ShardSpec{Index: int(index), Count: int(count)}, p)
		if err != nil {
			return
		}
		if got := sr.EncodePayload(); !bytes.Equal(got, data) {
			t.Fatalf("resumed payload re-encodes to %d bytes that differ from the %d input bytes", len(got), len(data))
		}
	})
}
