# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# build/vet/race-test sequence.

GO ?= go

# Minimum total statement coverage (percent) `make cover` enforces.
COVER_FLOOR ?= 70
# Where bench-guard writes the measured numbers (the CI artifact). Point
# it at BENCH_baseline.json to refresh the committed baseline.
BENCH_GUARD_OUT ?= bench-current.json
# Allowed fractional slowdown vs BENCH_baseline.json. The committed
# baseline encodes one machine class; after a runner/hardware change,
# refresh the baseline (see BENCH_GUARD_OUT) rather than widening this.
BENCH_GUARD_THRESHOLD ?= 0.30

.PHONY: build test race vet fmt size fuzz walls check cover bench bench-smoke bench-guard staticcheck serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The size ratchet (cmd/sizeguard): prints every package's non-test Go
# lines and DESIGN.md's bytes beside their record in SIZE.json, writes
# them to size-current.json, and fails when one exceeds its record or has
# none. A change that shrinks them commits size-current.json as SIZE.json.
size:
	$(GO) run ./cmd/sizeguard

# Seconds of native fuzzing: arbitrary bytes through the column payload
# decoder and the op record decoder (a positioned error or a canonical
# encoding, never a panic; generated ops of every kind through
# encode→decode), arbitrary bytes as a data dir's last log segment or
# newest snapshot through recovery (a valid prefix, the previous
# generation or a positioned error, and no allocation beyond the input's
# size), and arbitrary key sequences through the executor's typed key
# table against a Go map (group numbers and join chains, and a reset
# table numbering as a new one), arbitrary bytes through the SQL parser
# (no panic, and a parsed WHERE prints to text that parses back to the same
# text), arbitrary text through POST /v1/query, buffered, streamed and
# async (one well-formed envelope or a coded error; a stream that ends in
# its trailer or an error line), arbitrary bytes as its request body (no
# 5xx, a coded refusal, or exactly the statement json.Unmarshal reads in
# them, answered as a twin server answers it), generated SELECTs held to the reference
# interpreter along every answer path, and those SELECTs, cached, held to
# it again after every INSERT, UPDATE, DELETE and compaction of a seeded
# run. go test -fuzz takes one target per run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzFillPayload -fuzztime 5s -fuzzminimizetime 2s ./internal/storage
	$(GO) test -run xxx -fuzz FuzzOpCodec -fuzztime 5s -fuzzminimizetime 2s ./internal/storage
	$(GO) test -run xxx -fuzz FuzzWALRecover -fuzztime 5s -fuzzminimizetime 2s ./internal/wal
	$(GO) test -run xxx -fuzz FuzzKeyTable -fuzztime 5s -fuzzminimizetime 2s ./internal/engine/exec
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 5s -fuzzminimizetime 2s ./internal/sqlparse
	$(GO) test -run xxx -fuzz FuzzQueryHTTP -fuzztime 5s -fuzzminimizetime 2s ./internal/server
	$(GO) test -run xxx -fuzz 'FuzzQueryBody$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/server
	$(GO) test -run xxx -fuzz 'FuzzGeneratedSelects$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/server
	$(GO) test -run xxx -fuzz 'FuzzCachedSelectsUnderDML$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/server

# The expansion's allocation wall, twenty times over: what it bounds —
# adding a column and filling it; no model, vote, label buffer or Gram
# matrix of its own (they are the expansion workspace's), no list of the
# table's ids, nothing that grows with the table's width — must not depend
# on where the garbage collector happens to be.
walls:
	$(GO) test -run 'TestSpaceExpansionAllocationIsWidthIndependent$$' -count 20 ./internal/core

check: build fmt vet race walls fuzz

# Coverage over every package; fails below COVER_FLOOR% total statement
# coverage so the wall only ever moves up. CI runs this.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	ok=$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { print (t+0 >= f+0) ? 1 : 0 }'); \
	if [ "$$ok" != "1" ]; then echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; fi

# Reproduction + serving benchmarks (compact report; see DESIGN.md §5–§7).
bench:
	$(GO) test -bench . -benchmem .

# One-shot run of the planner/executor, batching, and workload-subsystem
# benchmarks (DESIGN.md §10–§11, §13) so perf regressions surface in PR
# logs without a full bench sweep. The TopN number should stay well under
# the sort-everything baseline (≥5×); BatchedElicitation should report a
# ≥2× charge reduction; CachedSelect should sit ≥20× under the uncached
# baseline; SpeculativeHitMerge should report columns-per-charge of 2.
# A benchmark that fails is named again at the end and fails the target:
# in two screens of -cpu 1,4 lines its `--- FAIL` scrolls past.
bench-smoke:
	@{ $(GO) test -run xxx -bench 'TopNSelect|SortEverythingBaseline|BenchmarkHashJoin|StreamingSelect|BatchedElicitation|PointLookup|RangeScan|CachedSelect|UncachedSelectBaseline|SpeculativeHitMerge|ParallelScanFilter|ParallelHashJoin|ScanDuringFill|VectorizedFilter|PerRowFilterBaseline|CompactedScan|InstrumentedSelect|DeleteRangeIndexed|DeleteNoMatch|UpdatePointWide|SnapshotWrite|SnapshotRestore|ServeGroupBy|ServeCachedPoint|BenchmarkRunJob|SpaceExpansionWide' -benchtime 1x -benchmem -cpu 1,4 . ; echo "go test exit status $$?"; } | tee bench-smoke.txt
	@if ! grep -q '^go test exit status 0$$' bench-smoke.txt; then echo "bench-smoke: FAILED:"; grep -A1 '^--- FAIL' bench-smoke.txt; exit 1; fi

# Bench-regression wall: run the guarded benchmarks with enough
# repetitions for a stable minimum, emit ns/op, B/op and allocs/op as JSON
# ($(BENCH_GUARD_OUT), uploaded as a CI artifact), and fail if a guarded
# benchmark regressed >30% against the committed BENCH_baseline.json — on
# ns/op for every name in BENCH_GUARDED, on B/op and allocs/op too for the
# ones whose allocations do not depend on timing (BENCH_GUARDED_MEM).
# -cpu 1,4 runs every guarded bench serial AND morsel-parallel: benchguard
# keeps the minimum of each metric over all lines of a name, so the
# baseline (measured serially) can only be beaten by the parallel run,
# never tripped by it. The names in BENCH_SCALING are held to themselves
# as well: their dop-4 run may not be slower than their dop-1 run of the
# same process (beyond the same 30% of noise), nor allocate over 4× its
# bytes — the cliff a per-row copy at the exchange would reopen. With
# their parallel line bounded so, they are held to the baseline (and
# recorded in it) by their -cpu 1 lines alone: BenchmarkSVCPredictAll's
# -cpu 4 line reads 5.8 ms when it finds the build box's second vCPU free
# and 9–12 ms when it does not, so a minimum over both lines passed or
# failed by luck.
# BenchmarkWideRangeTopN is guarded but not among them: its serial run
# allocates 22 KB in all, so the exchange's fixed buffers at four workers
# (a held selection per morsel of the claim window: 130 KB, none of it per
# row) already read as 6.8×; it joins once
# TopN folds per-worker heaps instead of reading through a Gather
# (ROADMAP item 7(a)).
BENCH_GUARDED = BenchmarkServeGroupBy BenchmarkServeCachedPoint BenchmarkSnapshotWrite BenchmarkSnapshotRestore BenchmarkDeleteRangeIndexed BenchmarkDeleteNoMatch BenchmarkUpdatePointWide BenchmarkWideRangeTopN BenchmarkGroupByManyGroups BenchmarkTopNSelect BenchmarkWALReplay BenchmarkPointLookup BenchmarkRangeScan BenchmarkCachedSelect BenchmarkSpeculativeHitMerge BenchmarkParallelScanFilter BenchmarkParallelHashJoin BenchmarkScanDuringFill BenchmarkVectorizedFilter BenchmarkCompactedScan BenchmarkInstrumentedSelect BenchmarkStreamingSelect BenchmarkSpaceExpansion BenchmarkSpaceExpansionWide BenchmarkSpaceTrainingHarness BenchmarkSVCPredictAll BenchmarkRunJob160x5 BenchmarkRunJob300x10
BENCH_GUARDED_MEM = BenchmarkServeGroupBy BenchmarkServeCachedPoint BenchmarkSnapshotWrite BenchmarkSnapshotRestore BenchmarkDeleteRangeIndexed BenchmarkDeleteNoMatch BenchmarkUpdatePointWide BenchmarkWideRangeTopN BenchmarkGroupByManyGroups BenchmarkTopNSelect BenchmarkPointLookup BenchmarkRangeScan BenchmarkCachedSelect BenchmarkParallelScanFilter BenchmarkParallelHashJoin BenchmarkVectorizedFilter BenchmarkCompactedScan BenchmarkStreamingSelect BenchmarkSpaceExpansion BenchmarkSpaceExpansionWide BenchmarkSpaceTrainingHarness BenchmarkSVCPredictAll BenchmarkRunJob160x5 BenchmarkRunJob300x10
BENCH_SCALING = BenchmarkGroupByManyGroups BenchmarkTopNSelect BenchmarkStreamingSelect BenchmarkParallelScanFilter BenchmarkSVCPredictAll
empty :=
space := $(empty) $(empty)
comma := ,
bench-guard:
	$(GO) test -run xxx -bench '$(subst $(space),$$|,$(BENCH_GUARDED))$$' -benchtime 5x -count 3 -cpu 1,4 -benchmem . | tee bench-guard.txt
	$(GO) run ./cmd/benchguard -input bench-guard.txt -baseline BENCH_baseline.json \
		-out $(BENCH_GUARD_OUT) -require $(subst $(space),$(comma),$(BENCH_GUARDED)) \
		-require-mem $(subst $(space),$(comma),$(BENCH_GUARDED_MEM)) \
		-scaling $(subst $(space),$(comma),$(BENCH_SCALING)) \
		-threshold $(BENCH_GUARD_THRESHOLD)

# Static analysis beyond go vet; pinned in CI (see ci.yml), best-effort
# locally if the binary is on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; CI runs the pinned version"; fi

# Run the HTTP server on :8080 with the demo movie universe.
serve:
	$(GO) run ./cmd/crowdserve
