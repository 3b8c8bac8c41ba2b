# Verification lanes. `make check` is the full pre-merge gate:
# vet + the regular test suite + the benchmark module's self-test + the
# race-detector lane that exercises the concurrent batch engine against
# live insert traffic + the crash lane that re-runs the WAL crash/recovery
# sweep several times.

GO ?= go

# Pinned development-tool versions. `make tools` installs them; the CI
# workflow uses the same pins, so a local `make tools && make check`
# reproduces exactly what CI runs. sglint itself is part of the module
# (cmd/sglint) and needs no installation or network access.
# golang.org/x/perf publishes no tagged releases, hence `latest`.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4
BENCHSTAT_VERSION ?= latest

.PHONY: build test perfbench-test vet race crash fuzz check fmt lint lint-fix-list staticcheck vuln tools bench bench-json bench-kernels bench-decode bench-throughput bench-recall server-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark (perfbench/) is its own module, so `go test ./...` never
# builds it. Its self-test (about 2 s, offline) runs every workload at a
# tiny scale, so a change to an API it uses fails here rather than at
# benchmark time.
perfbench-test:
	cd perfbench && $(GO) test ./...

vet:
	$(GO) vet ./...

# The race lane matters here: queries run lock-free over pinned epoch
# snapshots while writers publish new ones, and the batch engine fans
# them across a worker pool, so every snapshot pin/release,
# executor/batch/observer and cache path runs under the race detector
# (including the dedicated eight-worker batch lane in snapshot_test.go).
race:
	$(GO) test -race ./...

# The crash lane severs the write stream at points swept across a
# randomized insert/delete workload and asserts that WAL recovery restores
# an equivalent tree every time. Repeated runs vary scheduling around the
# crash points.
crash:
	$(GO) test -run Crash -count=3 ./internal/storage/...

# End-to-end service smoke test: primary + WAL-shipped read replica over
# real HTTP, gated on replication lag reaching 0 and clean shutdown.
server-smoke:
	sh scripts/server_smoke.sh

# Short fuzz passes over every fuzz target (codec decoding and the fast
# decoder against its reference loop, dataset parsing, WAL replay, and
# the two arms of the kernel differential harness — word-level in bitset,
# metric-level in signature). Each target needs its own invocation: go
# test accepts a single -fuzz pattern per run.
fuzz:
	$(GO) test -fuzz FuzzCodecDecode -fuzztime 5s -run '^$$' ./internal/signature
	$(GO) test -fuzz FuzzDecodeIntoDifferential -fuzztime 5s -run '^$$' ./internal/signature
	$(GO) test -fuzz FuzzReadDataset -fuzztime 5s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzWALReplay -fuzztime 5s -run '^$$' ./internal/storage
	$(GO) test -fuzz FuzzKernelEquivalence -fuzztime 5s -run '^$$' ./internal/bitset
	$(GO) test -fuzz FuzzKernelEquivalence -fuzztime 5s -run '^$$' ./internal/signature
	$(GO) test -fuzz FuzzSketchEquivalence -fuzztime 5s -run '^$$' ./internal/sketch

check: vet fmt lint test perfbench-test race crash

# fmt fails (and lists the offenders) when any file needs gofmt, so the
# lane can gate merges; run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The lint lane runs sglint, the repo's own invariant-analyzer suite:
# the syntactic wave (lock discipline, page pin/unpin pairing, runUpdate
# undo scopes, atomic counter access, banned APIs) plus the dataflow wave
# (epoch scan contracts, replica fencing, ctx threading, and the
# //sglint:hotpath allocation gate) — see DESIGN.md §9. All ten analyzers
# share one export-data load per run, and the suite builds from the module
# itself, so it works offline and needs no `make tools`.
lint:
	$(GO) run ./cmd/sglint ./...

# Audits every //sglint:ignore suppression in the tree with its recorded
# justification — the worklist for burning down waived findings.
lint-fix-list:
	$(GO) run ./cmd/sglint -suppressions ./...

# External analyzers live in their own targets so `make lint` (and
# therefore `make check`) stays dependency-free; CI runs both after
# `make tools`.
staticcheck:
	staticcheck ./...

vuln:
	govulncheck ./...

# Installs the pinned external tools into GOBIN. Needs network access;
# the import stanza in tools/tools.go records the same set for
# `go mod tidy` inside the nested tools module.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	$(GO) install golang.org/x/perf/cmd/benchstat@$(BENCHSTAT_VERSION)

# The bench lane measures the query-path benchmarks with allocation
# counts and, when benchstat is on PATH, compares the run against the
# checked-in baseline (BENCH_baseline.txt, refreshed with `make
# bench BENCH_UPDATE=1`). Without benchstat the raw numbers still print.
# The default package is the root API benchmarks that the baseline covers;
# override with BENCH_PKGS=./... for the full sweep.
BENCH_PKGS ?= .
BENCH_TIME ?= 2s
BENCH_COUNT ?= 5

bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -run '^$$' $(BENCH_PKGS) | tee BENCH_latest.txt
ifeq ($(BENCH_UPDATE),1)
	cp BENCH_latest.txt BENCH_baseline.txt
else
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_baseline.txt BENCH_latest.txt; \
	else \
		echo "benchstat not installed; skipping baseline comparison"; \
	fi
endif

# The kernel micro-benchmark lane: the popcount/distance kernels of
# internal/bitset, including the scalar-loop baselines kept for
# comparison (BenchmarkKernelScalar*) and the batched slab kernels.
# Numbers land in BENCH_kernels_latest.txt and compare against the
# checked-in BENCH_kernels_baseline.txt (refresh with
# `make bench-kernels BENCH_UPDATE=1`); run with SGTREE_NO_ASM=1 to
# measure the pure-Go fallback on the same hardware.
bench-kernels:
	$(GO) test -bench Kernel -benchtime 300ms -count $(BENCH_COUNT) -run '^$$' ./internal/bitset | tee BENCH_kernels_latest.txt
ifeq ($(BENCH_UPDATE),1)
	cp BENCH_kernels_latest.txt BENCH_kernels_baseline.txt
else
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_kernels_baseline.txt BENCH_kernels_latest.txt; \
	else \
		echo "benchstat not installed; skipping baseline comparison"; \
	fi
endif

# The node-miss micro-benchmark lane (report-only): the sparse and dense
# signature decode of one Quest-like 1000-bit signature, a steady-state
# buffer-pool miss, and one query-path node read that misses both the
# decoded-node cache and the buffer pool. Together they price what a
# node-cache miss costs; -benchmem shows the allocations per miss.
bench-decode:
	$(GO) test -bench 'CodecDecode(Sparse|Dense)$$' -benchmem -benchtime 300ms -count $(BENCH_COUNT) -run '^$$' ./internal/signature
	$(GO) test -bench 'BufferPoolMiss$$' -benchmem -benchtime 300ms -count $(BENCH_COUNT) -run '^$$' ./internal/storage
	$(GO) test -bench 'ReadNodeMiss$$' -benchmem -benchtime 300ms -count $(BENCH_COUNT) -run '^$$' ./internal/core

# Refresh the checked-in throughput reports (used to track QPS between
# revisions; see BENCH_throughput_w{1,4,8,16}.json). The worker sweep
# doubles as the reader-scalability lane for the lock-free MVCC read
# path: on a multi-core host the w4/w1 kNN QPS ratio is the headline
# number (the CI throughput job prints it, report-only). Numbers are
# only comparable when regenerated on the same host; note the files
# record a single-core container for this revision.
bench-throughput:
	$(GO) run ./cmd/sgbench -workers 1 > BENCH_throughput_w1.json
	$(GO) run ./cmd/sgbench -workers 4 > BENCH_throughput_w4.json
	$(GO) run ./cmd/sgbench -workers 8 > BENCH_throughput_w8.json
	$(GO) run ./cmd/sgbench -workers 16 > BENCH_throughput_w16.json

# Back-compat alias for the old target name.
bench-json: bench-throughput

# Refresh the checked-in recall/QPS sweep of the approximate sketch tier
# (BENCH_recall.json): measured recall and speedup-vs-exact for both
# route and answer modes across the recall-target grid, scored against a
# brute-force oracle. `make bench-recall BENCH_UPDATE=1` also refreshes
# the baseline the CI recall-bench job compares against. Like the other
# BENCH files, numbers are only comparable when regenerated on the same
# host, but measured recall is host-independent — that is the number CI
# tracks.
bench-recall:
	$(GO) run ./cmd/sgbench -recall-sweep > BENCH_recall.json
ifeq ($(BENCH_UPDATE),1)
	cp BENCH_recall.json BENCH_recall_baseline.json
endif
