# cfpgrowth — build, test, and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build vet lint lint-json lint-fix-check test test-race test-debug test-short check bench fuzz experiments examples clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/analysis, driven by cmd/cfplint):
# goroutinesafe, sinkguard, obsguard, lockorder, atomicfield and
# allochot — preceded by a reporting-free summary phase that publishes
# per-function Effects facts in package dependency order. Each survived
# a mutation audit (DESIGN.md §5b): a planted bug of its class passes
# every test. Suppress a finding with
# `//cfplint:ignore <analyzer> <reason>` on or above the line; a
# directive naming no analyzer of the suite is itself a finding.
lint:
	$(GO) run ./cmd/cfplint ./...

# Same run, also writing the findings as a JSON artifact (CI uploads
# it so a red lint step is inspectable without replaying the build)
# and gating per-analyzer wall time against the committed baseline
# (fails on >2x drift, a missing entry, or a stale one).
lint-json:
	$(GO) run ./cmd/cfplint -json cfplint.json -budget cmd/cfplint/budget.json ./...

# Every suppression must carry a reason; the analyzers enforce this at
# lint time, and this grep backstops files the lint patterns miss
# (fixtures under testdata are exempt — they test the directive
# machinery itself).
lint-fix-check:
	@! grep -rn --include='*.go' --exclude-dir=testdata -E '//cfplint:ignore +[A-Za-z0-9_,]+ *$$' . \
		|| { echo 'lint-fix-check: //cfplint:ignore directives above must carry a reason' >&2; exit 1; }

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

# The gate for every change: go vet, the cfplint analyzers, and the
# full test suite under the race detector (cancellation plumbing is
# concurrency-heavy).
check: vet lint lint-fix-check
	$(GO) test -race ./...

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench . -benchmem ./...

# Short fuzz campaigns over the parsers and serializers.
fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzReadAll -fuzztime 30s
	$(GO) test ./internal/dataset/ -fuzz FuzzFileScan -fuzztime 30s
	$(GO) test ./internal/dataset/ -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzReadArray -fuzztime 30s
	$(GO) test . -fuzz FuzzReadIndex -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzInsertMine -fuzztime 60s

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
