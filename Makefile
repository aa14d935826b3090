GO ?= go
FUZZTIME ?= 10s
STATICCHECK ?= staticcheck

.PHONY: all build test vet staticcheck race check-race bench bench-snapshot bench-wire bench-shard bench-reconfig benchstat fuzz chaos conform conform-sessions store health cover check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available and degrades to a notice
# otherwise (the gate must not require network access to install tools).
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck not installed; skipping (go vet still gates)"; \
	fi

race:
	$(GO) test -race ./...

# check-race is the standalone race-detector lane CI runs in parallel with
# the main gate: build plus the full test suite under -race, uncached so
# every run actually exercises the detector.
check-race: build
	$(GO) test -race -count=1 ./...

# chaos replays the committed fixed-seed plan corpus (including the three
# join/leave reconfiguration plans) and the randomized acceptance sweep
# through the nemesis runner, plus the membership-change acceptance tests
# (round-trip convergence, a leader kill mid-epoch-transition, pair-aware
# shrinking). Failing plans are shrunk and dumped as replayable JSON next
# to the test binary's working dir (see `hambench -exp chaos -plan-json`).
chaos:
	$(GO) test -run 'TestCorpus|TestRandomizedPlans|TestShardMixConverges|TestShardFaultIsolation|TestReconfig' -count=1 -v ./internal/chaos

# conform runs the refinement conformance gate: the fixed-seed corpus
# (fault-free and fault-plan workloads across the counter/orset/bankmap
# classes, checked deterministic), every committed chaos corpus plan, the
# multi-shard plans checked shard by shard, plus the harness's own mutation
# controls (an injected apply-order bug must be caught and shrunk to <= 8
# calls; cross-wired shards must be caught as identity violations). See
# `hambench -exp conform` for the exploratory version.
conform:
	$(GO) test -run 'TestConformCorpus|TestCorpusConforms|TestMutated|TestShardedConformance|TestCrossWireMutationCaught' -count=1 -v ./internal/conform

# conform-sessions runs the client-session gate: the session-guarantee
# checker's unit histories, live sessions across an epoch change (monotonic
# reads, read-your-writes, writes-follow-reads spanning replica switches),
# and the stale-read mutation control (must be caught and shrunk to <= 6
# events).
conform-sessions:
	$(GO) test -run 'TestSession|TestStaleRead' -count=1 -v ./internal/conform

# store runs the sharded multi-object store gate: exact footprint
# accounting against the per-node arena, typed budget errors, freed-memory
# reuse under concurrent open/close, cross-shard doorbell coalescing and
# shard-tagged trace decomposition.
store:
	$(GO) test -count=1 -v ./internal/store

# health runs the introspection gate: the watchdog rule unit tests and the
# zero-alloc snapshot guarantee (internal/health), the fault-plan
# cross-check over the chaos corpus (every firing predicted by an injected
# fault, fault-free runs silent, schedules unperturbed), the metrics-export
# completeness pin, and the fixed-seed `-exp health` run itself (nonzero
# exit on unexpected firings, an unobserved fault run, or a noisy control).
health:
	$(GO) test -count=1 -v ./internal/health
	$(GO) test -run 'TestWatchdog|TestKindRules' -count=1 -v ./internal/chaos
	$(GO) test -run 'TestMetricsExportCompleteness' -count=1 -v ./internal/bench
	$(GO) run ./cmd/hambench -exp health -ops 600

# cover prints per-package statement coverage so test gaps stay visible.
cover:
	$(GO) test -cover ./... | grep -v 'no test files'

# check is the full pre-merge gate: tier-1 build + tests, static analysis,
# the race detector, a short fuzz budget over the wire-format parsers, the
# chaos plan corpus and the refinement conformance corpus.
check: build vet staticcheck test race fuzz chaos conform conform-sessions store health

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/metrics ./internal/ring

# bench-snapshot regenerates the canonical benchmark snapshot committed at
# the repo root (deterministic: same ops+seed give identical bytes).
SNAPSHOT ?= BENCH_PR8.json
bench-snapshot:
	$(GO) run ./cmd/hambench -exp snapshot -snapshot-out $(SNAPSHOT)

# bench-wire runs the δ-vs-full wire-efficiency ablation: bytes on the wire
# per op, reduction, and wire-stage latency share per class.
bench-wire:
	$(GO) run ./cmd/hambench -exp wire

# bench-shard runs the sharded-store experiment: object-count and Zipfian
# skew sweeps with hot-key reporting, cross-shard chained-WR counts and the
# shared-vs-private doorbell-coalescer ablation.
SHARDS ?= 16
bench-shard:
	$(GO) run ./cmd/hambench -exp shard -shards $(SHARDS)

# bench-reconfig runs the membership-change experiment: windowed throughput
# around a leave/join round-trip with dip and recovery-time reporting.
bench-reconfig:
	$(GO) run ./cmd/hambench -exp reconfig

# benchstat compares two snapshots: make benchstat OLD=a.json NEW=b.json.
# MAXREGRESS, when nonzero, fails the target if any fig8 point's throughput
# drops by more than that percentage — the CI regression gate.
OLD ?= BENCH_PR7.json
NEW ?= BENCH_PR8.json
MAXREGRESS ?= 0
benchstat:
	$(GO) run ./cmd/hambench -exp benchstat -old $(OLD) -new $(NEW) -max-regress $(MAXREGRESS)

# Each fuzz target gets a short fixed budget; go test only allows one
# -fuzz pattern per package invocation.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReaderPoll -fuzztime=$(FUZZTIME) ./internal/ring
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEntry -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRaw -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDeltaEntry -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzPlanJSON -fuzztime=$(FUZZTIME) ./internal/chaos
