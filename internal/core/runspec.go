// RunSpec: the canonical identity of one deterministic experiment
// execution, and the run-key hashing behind the serve layer's
// content-addressed result cache. Every engine in this repository is
// bit-deterministic in (workload, parameters, seed, sample budget,
// process) — worker counts never change results — so those fields, plus
// an engine version that moves when the numerics or the key's pre-image
// move, ARE the identity of a result. Two specs with equal keys produce
// byte-identical rendered output.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/tech"
)

// EngineVersion names the current bit-level behaviour of the execution
// engines. It is part of every run key: bump it whenever a change alters
// numeric results (i.e. whenever the golden CSVs under
// internal/exp/testdata/golden are regenerated with different values),
// so stale cached results age out by key instead of being served as
// current. Bump it too when the key's pre-image (canonical) changes
// shape, so peers that hash specs differently refuse each other through
// the health and drift checks. Pure refactors that keep the goldens and
// the pre-image byte-identical must NOT bump it — cache continuity
// across deploys is the point.
const EngineVersion = "v2"

// DefaultSeed is the repository-wide Monte-Carlo seed (the paper year);
// a RunSpec with Seed 0 normalizes to it, mirroring the CLI default.
const DefaultSeed = 2015

// DefaultSamples is the analytic Monte-Carlo budget used when neither
// the spec nor the workload's budget hint chooses one.
const DefaultSamples = 10000

// RunSpec identifies one deterministic workload execution. The zero
// value of every optional field means "the default": empty Process is
// the registry's N10, Seed 0 is DefaultSeed, Samples 0 adopts the
// workload's Hints.Samples budget (or DefaultSamples without one), and a
// nil Params map takes every schema default; Samples above
// mc.MaxSamples is refused. Worker counts are absent on purpose —
// results are bit-identical for any worker count, so they are execution
// detail, not identity.
type RunSpec struct {
	Workload string
	Params   exp.Params
	Process  string
	Seed     int64
	Samples  int
}

// Normalize resolves the spec to its canonical form: the workload name
// validated against the registry, parameters schema-coerced and
// default-filled (exp.NormalizeParams), the process name trimmed,
// case-folded and replaced by the registry's canonical spelling, and the
// seed and sample budget defaulted. A sample budget above mc.MaxSamples
// is an error, so servers refuse it before queueing anything. Two specs that denote the same run
// normalize to equal specs; errors carry the registries' valid-names
// text so HTTP handlers can surface them verbatim.
func (s RunSpec) Normalize() (RunSpec, error) {
	out := s
	w, err := exp.LookupWorkload(strings.TrimSpace(s.Workload))
	if err != nil {
		return RunSpec{}, err
	}
	out.Workload = w.Name
	if out.Params, err = exp.NormalizeParams(w.Name, s.Params); err != nil {
		return RunSpec{}, err
	}
	name := strings.TrimSpace(s.Process)
	if name == "" {
		// DefaultEnv's primary process — the paper's N10 preset.
		name = tech.N10().Name
	}
	proc, err := tech.Default().Lookup(name)
	if err != nil {
		return RunSpec{}, err
	}
	out.Process = proc.Name
	if out.Seed == 0 {
		out.Seed = DefaultSeed
	}
	if out.Samples <= 0 {
		if w.Hints.Samples > 0 {
			out.Samples = w.Hints.Samples
		} else {
			out.Samples = DefaultSamples
		}
	}
	if out.Samples > mc.MaxSamples {
		return RunSpec{}, fmt.Errorf("core: samples %d exceeds the limit of %d", out.Samples, mc.MaxSamples)
	}
	return out, nil
}

// EstimatedCost scores a spec's execution cost in analytic-trial
// equivalents: the normalized sample budget times the workload's
// Hints.Cost weight. Zero means the workload declared no per-sample cost
// — its runtime is not dominated by the shardable Monte-Carlo stream
// (analytic corner studies, pure SPICE sweeps, registry listings) — so
// schedulers deciding whether to fan a run out over shards should leave
// it single-process.
func (s RunSpec) EstimatedCost() (float64, error) {
	n, err := s.Normalize()
	if err != nil {
		return 0, err
	}
	w, err := exp.LookupWorkload(n.Workload)
	if err != nil {
		return 0, err
	}
	return float64(n.Samples) * w.Hints.Cost, nil
}

// canonical renders a normalized spec as the frozen pre-image of Key.
func (s RunSpec) canonical() string {
	return fmt.Sprintf("mpsram-run|engine=%s|workload=%s|process=%s|seed=%d|samples=%d|params=%s",
		EngineVersion, s.Workload, s.Process, s.Seed, s.Samples,
		exp.CanonicalParams(s.Params))
}

// Key normalizes the spec and returns its content address: the SHA-256
// hex digest of the canonical rendering. Equal keys guarantee
// byte-identical results (same engines, same inputs, same PRNG stream),
// which is the whole contract the serve layer's result cache and
// single-flight dedup rest on.
func (s RunSpec) Key() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(n.canonical()))
	return hex.EncodeToString(sum[:]), nil
}

// ShortKey abbreviates a run key to at most 12 bytes for messages. Keys
// from outside the process (dispatches, artifact headers) may be shorter
// than a digest, so every abbreviation goes through here, never a bare
// [:12] slice.
func ShortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// NewStudy builds a Study configured exactly as the normalized spec
// describes (process preset, Monte-Carlo seed/budget/stream); extra
// options — context, progress, worker counts — apply on top and must not
// change results (they are not part of the key).
func (s RunSpec) NewStudy(extra ...Option) (*Study, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	proc, err := tech.Default().Lookup(n.Process)
	if err != nil {
		return nil, err
	}
	opts := append([]Option{
		WithProcess(proc),
		WithMC(mc.Config{Samples: n.Samples, Seed: n.Seed}),
	}, extra...)
	return NewStudy(opts...)
}

// Run normalizes the spec, builds its Study and executes the workload —
// the one-call path the serve layer's executors use.
func (s RunSpec) Run(extra ...Option) (*exp.Result, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	study, err := n.NewStudy(extra...)
	if err != nil {
		return nil, err
	}
	return study.Run(n.Workload, n.Params)
}
