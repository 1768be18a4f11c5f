# Single entry points for the checks CI runs, so the analysis gate is
# reproducible locally with the same commands and versions.
#
#   make check         build + unit tests
#   make analysis      offline static gate: gofmt, go vet, topkvet,
#                      escapecheck
#   make ci-analysis   full gate: analysis + staticcheck + govulncheck
#   make gate-negative plant violations in a scratch copy, assert the
#                      allocation/atomics gates actually fail
#   make benchgate     full e15/e17/e18/e19 run, diffed against the
#                      committed BENCH_*.json baselines
#   make fuzz-smoke    10s per fuzz target, crashers fail the run
#   make fleet-smoke   boot a real 3-member fleet + gateway, assert
#                      stitched traces and federated metrics end to end
#
# staticcheck and govulncheck are external, version-pinned tools;
# `make tools` installs them (needs network once). The offline targets
# never require them.

STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4
FUZZTIME := 10s

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all check build test race fmt-check vet topkvet escapecheck \
	analysis gate-negative benchgate staticcheck govulncheck \
	ci-analysis fuzz-smoke fleet-smoke tools

all: check analysis

check: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# gofmt -l lists every unformatted file, test files and testdata
# modules included; any output fails the gate.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	go vet ./...

# The project invariant suite (lock ordering, snapshot pinning,
# sentinel comparison, label cardinality, context threading,
# allocation-free hot paths, atomics copy discipline).
topkvet:
	go run ./cmd/topkvet ./...

# Compiler-escape leg of the //topk:nomalloc gate: rebuilds with
# -gcflags=-m and fails on any heap escape inside an annotated
# function. Complements the allocfree analyzer, which sees allocation
# shapes but not escape decisions.
escapecheck:
	go run ./cmd/topkvet escapecheck ./...

analysis: fmt-check vet topkvet escapecheck

# Negative test of the gates: copy the tree to a scratch dir, plant
# one violation per gate (static alloc, heap escape, atomic-struct
# copy), and assert each gate fails with findings.
gate-negative:
	sh scripts/gate_negative.sh

# Bench regression gate: run the four serving-layer experiments in
# full mode into a scratch dir and diff against the committed
# baselines. Wall-clock qps on a small shared-core container swings
# with host load by tens of percent across EVERY experiment (measured
# over a day: uniform 0.7-1.0x ratios with identical allocs), so the
# qps budgets are wide — 50% for the in-process benches, 60% for the
# HTTP-fleet ones — and catch only collapse-class regressions (a lost
# amortization, a serialized fan-out). The tight signal is allocs/op
# (10%+0.5 budget): hardware-independent, stable to a fraction of a
# percent run to run, and a single new allocation on a hot path
# fails it even when throughput looks fine.
BENCH_FRESH_DIR := $(or $(RUNNER_TEMP),/tmp)/topk-bench-fresh
benchgate:
	mkdir -p $(BENCH_FRESH_DIR)
	go run ./cmd/topkbench -exp e15 -json -out $(BENCH_FRESH_DIR)
	go run ./cmd/topkbench -exp e17 -json -out $(BENCH_FRESH_DIR)
	go run ./cmd/topkbench -exp e18 -json -out $(BENCH_FRESH_DIR)
	go run ./cmd/topkbench -exp e19 -json -out $(BENCH_FRESH_DIR)
	go run ./cmd/topkvet benchgate -baseline BENCH_e15.json -fresh $(BENCH_FRESH_DIR)/BENCH_e15.json -max-qps-drop 0.5
	go run ./cmd/topkvet benchgate -baseline BENCH_e17.json -fresh $(BENCH_FRESH_DIR)/BENCH_e17.json -max-qps-drop 0.5
	go run ./cmd/topkvet benchgate -baseline BENCH_e18.json -fresh $(BENCH_FRESH_DIR)/BENCH_e18.json -max-qps-drop 0.6
	go run ./cmd/topkvet benchgate -baseline BENCH_e19.json -fresh $(BENCH_FRESH_DIR)/BENCH_e19.json -max-qps-drop 0.6

staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; run 'make tools' (needs network)" >&2; exit 1; }
	staticcheck ./...

govulncheck:
	@command -v govulncheck >/dev/null 2>&1 || { \
		echo "govulncheck not found; run 'make tools' (needs network)" >&2; exit 1; }
	govulncheck ./...

ci-analysis: analysis staticcheck govulncheck

# One short fuzz pass per target; go test exits non-zero on a crasher
# and writes it to testdata/fuzz for replay.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzParseRange -fuzztime=$(FUZZTIME) ./cmd/topkd
	go test -run='^$$' -fuzz=FuzzTopKQuery -fuzztime=$(FUZZTIME) ./internal/serve
	go test -run='^$$' -fuzz=FuzzBatchJSON -fuzztime=$(FUZZTIME) ./internal/serve
	go test -run='^$$' -fuzz=FuzzParseTopK -fuzztime=$(FUZZTIME) ./internal/wire

# Process-level observability smoke: real listeners, real scrapes —
# what the in-process httptest suites can't exercise.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Pinned installs, skipped when the binary is already on PATH (the CI
# cache restores $(GOBIN) keyed on this Makefile).
tools:
	@command -v staticcheck >/dev/null 2>&1 || \
		go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	@command -v govulncheck >/dev/null 2>&1 || \
		go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
