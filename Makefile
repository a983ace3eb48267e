# One entry point for humans and CI (.github/workflows/ci.yml calls these
# same targets).

GO ?= go

# Coverage ratchet: CI fails if total -short coverage drops below this.
# Raise it when coverage grows; never lower it without a written reason.
COVER_MIN ?= 80.5

.PHONY: all build test test-race bench bench-smoke bench-json fuzz-smoke cover cover-check lint deadcode fmt clean

all: build lint test

build:
	$(GO) build ./...

# Fast feedback: skips the long SPICE sweeps (testing.Short gates).
test:
	$(GO) test -short ./...

# The CI gate: full suite under the race detector.
test-race:
	$(GO) test -race ./...

# Full benchmark harness — regenerates every paper table and figure.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# CI smoke: every benchmark once, just to prove the harness still runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable fan-out benchmarks: the serve-layer fan-out pair
# (direct vs 3 shards), the shard run/reduce split that bounds its
# speedup, the remote-fabric dispatch round trip (its per-shard overhead
# floor), and the SPICE-MC control-variate baseline — emitted as one
# JSON object per benchmark into BENCH_10.json (CI uploads it as an
# artifact; numbers are per-machine, so the file is advisory, not a gate).
bench-json:
	@{ $(GO) test -run '^$$' -bench 'ServeFanout' -benchmem -benchtime 2x ./internal/serve; \
	   $(GO) test -run '^$$' -bench 'BenchmarkShard' -benchmem -benchtime 2x ./internal/core; \
	   $(GO) test -run '^$$' -bench 'RemoteShardRoundtrip' -benchmem -benchtime 5x ./internal/remote; \
	   $(GO) test -run '^$$' -bench 'SpiceMCCV$$' -benchmem -benchtime 1x .; } | \
	awk 'BEGIN { print "[" } \
	     /^Benchmark/ { ns="null"; bop="null"; aop="null"; \
	       for (i = 2; i < NF; i++) { \
	         if ($$(i+1) == "ns/op") ns = $$i; \
	         else if ($$(i+1) == "B/op") bop = $$i; \
	         else if ($$(i+1) == "allocs/op") aop = $$i; \
	       } \
	       if (n++) printf(",\n"); \
	       printf("  {\"name\":\"%s\",\"iters\":%s,\"ns_op\":%s,\"b_op\":%s,\"allocs_op\":%s}", $$1, $$2, ns, bop, aop) } \
	     END { print "\n]" }' > BENCH_10.json
	@cat BENCH_10.json

# Fuzz smoke: ten seconds per target. FuzzNetlistReset proves
# spice.Engine.Reset stays bit-identical to a fresh engine under random
# topology-stable netlist mutations; FuzzP2Quantile checks the P² sketch
# (and its deterministic Merge) against exact quantiles on random streams;
# FuzzControlVariate checks the paired-moment accumulator (β̂, ρ̂, residual
# variance and its split-anywhere Merge) against exact two-pass statistics.
# The three *Codec targets gate the shard-artifact serialization surface
# (AppendBinary/Decode, the one codec pair artifacts use):
# encode→decode→Merge must stay bit-identical to merging the live
# accumulators, on random streams split at random points.
# FuzzLazySource checks the engine's lazily seeded PRNG source bit for bit
# against rand.NewSource over random seeds, draw mixes and reseeds.
# FuzzDecodeShardPayload feeds the checkpoint decoder POST /v1/shards
# exposes arbitrary bytes (seeded with real fig5 and mcspicecv
# checkpoints): no panic, every accepted record holds counts a run could
# produce, and a resumable payload re-encodes to its input bytes.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzNetlistReset' -fuzztime 10s ./internal/spice
	$(GO) test -run '^$$' -fuzz 'FuzzP2Quantile' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzControlVariate$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzWelfordCodec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzP2Codec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzControlVariateCodec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzLazySource' -fuzztime 10s ./internal/mc
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeShardPayload' -fuzztime 10s ./internal/mc

# Coverage over the -short suite (the fast deterministic core).
cover:
	$(GO) test -short -coverprofile=coverage.out ./...

# Ratcheted gate: fail when total coverage drops below COVER_MIN.
cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t=$$total -v m=$(COVER_MIN) 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage ratchet failed: $$total% < $(COVER_MIN)%"; exit 1; }

lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Advisory, not a CI gate: list the mpsram/internal functions no program
# links. It builds cmd/mpvar, examples/* and mpbench with inlining off
# (every call stays a symbol), takes the functions each internal package
# declares from its export data (go list -export), and prints those no
# binary holds. Compiler-generated wrappers ((*T).M for a declared T.M,
# promoted and interface-method wrappers) are dropped. The expected
# output is the intentional keeps: analytic's PolyCoeffs and
# AsymptoticTdpPct (tests pin paper claims with them), TdElmore and
# TdpElmorePct (ROADMAP item 3's measurement decides them),
# sparse.DenseSolve and internal/field (test oracles) and
# stats.Welford's Mean/Min/Max (the accumulator tests read through them);
# plus interface methods no program calls on that type
# (extract.PlateFringe.Name, layout.Layer.String).
deadcode:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -gcflags=all=-l -o "$$tmp/" ./cmd/mpvar ./examples/...; \
	(cd mpbench && $(GO) build -gcflags=all=-l -o "$$tmp/mpbench" .); \
	for b in "$$tmp"/*; do $(GO) tool nm "$$b"; done | \
		awk '$$2 == "T" && $$3 ~ /^mpsram\/internal\// { print $$3 }' | sort -u > "$$tmp/linked"; \
	for a in $$($(GO) list -export -f '{{.Export}}' ./internal/...); do $(GO) tool objdump "$$a"; done | \
		awk '$$1 == "TEXT" && $$2 ~ /^mpsram\/internal\// && $$3 != "<autogenerated>" { sub(/\(SB\)$$/, "", $$2); print $$2 }' | \
		grep -Ev '\.func[0-9]|\.gowrap[0-9]|\.init(\.|$$)|\[' | sort -u > "$$tmp/declared"; \
	comm -23 "$$tmp/declared" "$$tmp/linked"

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
