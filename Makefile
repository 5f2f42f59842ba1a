GO ?= go

# bench-save / bench-compare file locations (override to keep several
# baselines around, e.g. `make bench-save BENCH_OLD=bench_main.txt`).
BENCH_OLD ?= bench_old.txt
BENCH_NEW ?= bench_new.txt
# How many samples benchstat gets per benchmark. The suite is sized for
# -benchtime=1x; raise the count for tighter confidence intervals.
BENCH_COUNT ?= 6

.PHONY: all build vet test test-race lint fuzz serve e2e bench bench-save bench-compare bench-large bench-selftest golden-update loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The determinism contract is only meaningful if the pools are race-clean;
# this is the gate the golden tests rely on.
test-race:
	$(GO) test -race ./...

# The same static-analysis gate CI's lint job runs (.golangci.yml pins the
# linter set). golangci-lint is optional local tooling.
lint:
	@command -v golangci-lint >/dev/null 2>&1 || { \
		echo "golangci-lint not found; install from https://golangci-lint.run or rely on the CI lint job"; exit 1; }
	golangci-lint run ./...

# Short fuzz passes over the attacker-facing surfaces: the network-format
# parser, the cache-key derivation, and the artifact decoder (CI's
# fuzz-smoke job runs the same three targets; plain `go test` replays only
# the seed corpus).
fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s -run '^$$' ./internal/graph/
	$(GO) test -fuzz=FuzzCanonicalHash -fuzztime=30s -run '^$$' .
	$(GO) test -fuzz=FuzzDecodeArtifact -fuzztime=30s -fuzzminimizetime=5s -run '^$$' .

# Run the compile daemon locally (ephemeral port, verbose logging).
serve:
	$(GO) run ./cmd/autoncsd -addr 127.0.0.1:0 -v

# The daemon end-to-end suite against a freshly built binary — cache hits
# bit-identical, 429 beyond capacity, SIGTERM drain.
e2e:
	$(GO) build -o /tmp/autoncsd ./cmd/autoncsd
	AUTONCSD_BIN=/tmp/autoncsd $(GO) test -v -timeout 15m -run TestDaemon ./cmd/autoncsd/

# -short skips the 2000-neuron benchmarks (BenchmarkCompile2000 takes
# minutes per op); see bench-large.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# Old-vs-new comparison workflow:
#   git stash (or checkout the old revision) && make bench-save
#   ...apply the change...                   && make bench-compare
# bench-save records the baseline; bench-compare records the current tree
# and feeds both to benchstat. benchstat is optional tooling — when it is
# not on PATH the raw files are kept and the install hint is printed.
bench-save:
	$(GO) test -short -bench=. -benchmem -count=$(BENCH_COUNT) -benchtime=1x -run='^$$' ./... | tee $(BENCH_OLD)

bench-compare:
	@test -f $(BENCH_OLD) || { echo "no baseline $(BENCH_OLD); run 'make bench-save' on the old revision first"; exit 1; }
	$(GO) test -short -bench=. -benchmem -count=$(BENCH_COUNT) -benchtime=1x -run='^$$' ./... | tee $(BENCH_NEW)
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_OLD) $(BENCH_NEW); \
	else \
		echo "benchstat not found; raw results are in $(BENCH_OLD) and $(BENCH_NEW)"; \
		echo "install with: go install golang.org/x/perf/cmd/benchstat@latest"; \
	fi

bench-large:
	$(GO) test -bench='2000' -benchtime=1x -run='^$$' -timeout=4h ./

# benchmark/ is a nested module that `go test ./...` skips: vet it and run
# its self-tests against the current tree (CI's benchmark-selftest job).
bench-selftest:
	cd benchmark && $(GO) vet . && $(GO) test .

# Regenerate the golden compile summaries after an intentional
# behaviour change. Review the diff before committing.
golden-update:
	$(GO) test -run TestCompileGolden -update ./

# Go lines of the tracked files outside the nested benchmark/ module,
# non-test and test: the net line count each change reports.
loc:
	@echo "non-test Go lines: $$(git ls-files -- '*.go' ':!benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(git ls-files -- '*.go' ':!benchmark/' | grep '_test\.go$$' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
