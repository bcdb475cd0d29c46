# cfpgrowth — build, test, and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build vet test test-race test-debug test-short check bench bench-pairs fuzz experiments examples clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Same suites with the invariant assertions compiled in (encode/decode
# and CFP-array boundaries panic on corruption instead of misbehaving).
test-debug:
	$(GO) test -tags debugchecks ./...

test-short:
	$(GO) test -short ./...

# The gate for every change: go vet and the full test suite under the
# race detector (cancellation plumbing is concurrency-heavy).
check: vet
	$(GO) test -race ./...

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench . -benchmem ./...

# The repository benchmark (bench/, BENCHMARK.json) on one workload,
# alternating fresh runs of a base revision (checked out into a
# temporary git worktree) and the working tree, which side goes first
# flipping on each pair; prints every run's JSON line, then per-metric
# medians, the median per-pair ratio, and the pairs the working tree
# lost and won. Fails (the CI gate) when an end-to-end
# metric's working-tree median is past its BENCHMARK.json bound or the
# working tree fails more operations than BASE. Example:
#   make bench-pairs BASE=HEAD~1 WORKLOAD=quest-mine PAIRS=5
BASE ?= HEAD
WORKLOAD ?= quest-mine
PAIRS ?= 5
bench-pairs:
	$(GO) run ./cmd/benchpairs -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Short fuzz campaigns over the parsers and serializers, over the
# CFP-tree to CFP-array conversion against its three-walk reference
# (FuzzConvert draws the tree configuration from its input), over the
# flat decode in every walk layout that fits against PathTo
# (FuzzFlatDecode), over CFP-growth against FP-growth
# (FuzzInsertMine draws MaxLen and the conditional builder from its
# input), and over Index.SupportOf against tid-set counts
# (FuzzSupportOf).
fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzReadAll -fuzztime 30s
	$(GO) test ./internal/dataset/ -fuzz FuzzFileScan -fuzztime 30s
	$(GO) test ./internal/dataset/ -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzReadArray -fuzztime 30s
	$(GO) test . -fuzz FuzzReadIndex -fuzztime 30s -run '^$$'
	$(GO) test . -fuzz FuzzUpdatableSnapshot -fuzztime 30s -run '^$$'
	$(GO) test . -fuzz FuzzSupportOf -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzConvert -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzFlatDecode -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzInsertMine -fuzztime 60s -run '^$$'

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/marketbasket
	$(GO) run ./examples/weblog
	$(GO) run ./examples/rules
	$(GO) run ./examples/streaming

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
