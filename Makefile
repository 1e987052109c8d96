GO ?= go

# Third-party analyzers CI runs alongside the in-repo suite. Pinned here
# (and mirrored in .github/workflows/ci.yml) because the module has no
# tool dependencies — `go run pkg@version` fetches exactly this version.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build check vet fmt lint lint-extra test race bench bench-smoke bench-scale bench-json cover fuzz-smoke cluster-smoke loc ci clean

# Coverage floor (percent) enforced on internal/serve — the service
# layer is pure coordination logic, so uncovered lines are usually
# unhandled error paths. Raise, don't lower.
SERVE_COVER_FLOOR ?= 85

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 10s

all: check

build:
	$(GO) build ./...

check: vet fmt lint race

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting; prints the offenders.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo's own analyzer suite (internal/analysis, docs/static-analysis.md):
# maporder, seededrand, wallclock, spanhygiene, floatorder, metricname,
# httpbody, errcmp, gateleak, ctxflow. Must exit clean, and the whole run
# (package load + all ten analyzers) must stay under the 30 s budget —
# the canary for the `go list -e -deps -json` load path slowing down as
# the tree grows.
lint:
	$(GO) run ./cmd/smartndrlint -time -budget 30s ./...

# Third-party analyzers; needs network access to fetch the pinned tools,
# so it is a separate target rather than part of `lint`.
lint-extra:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of every benchmark in the repo — catches benchmarks that
# no longer compile or crash, without paying for a measurement. CI runs
# this step. -short keeps the scale benchmarks out; bench-scale owns
# those.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -short ./...

# One iteration of the 100K-sink hierarchical-flow benchmark — the scale
# path's CI canary (generation, partition, per-region smart builds,
# stitch, global balance; ~4 s on one core). The million-sink variant is
# opt-in: SMARTNDR_BENCH_1M=1 make bench-scale.
bench-scale:
	$(GO) test -run '^$$' -bench 'FlowSmart100K|FlowSmart1M' -benchtime=1x -benchmem .

# Machine-readable perf snapshot of the Monte Carlo worker-scaling, flow
# (including the 100K-sink hierarchical point), incremental-STA, and
# session benchmarks (see docs/performance.md). BENCH_PR10.json is
# committed so perf regressions diff in review; earlier snapshots
# (BENCH_PR2/PR3/PR7/PR8) stay as history.
bench-json:
	$(GO) test -bench='MonteCarlo|Flow|Optimize|RepairSkew|Session' -benchmem -run=^$$ . ./internal/core ./internal/serve \
		| $(GO) run ./internal/tools/bench2json -out BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# Per-package coverage summary plus an enforced floor on internal/serve.
# Writes cover.out (uploaded as a CI artifact) and prints the func-level
# breakdown for the service package.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=cover.out | grep '^smartndr/internal/serve/' || true
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}')"; \
	echo "total coverage: $$total%"
	@serve="$$($(GO) test -cover ./internal/serve/ | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}')"; \
	echo "internal/serve coverage: $$serve% (floor $(SERVE_COVER_FLOOR)%)"; \
	awk -v c="$$serve" -v f="$(SERVE_COVER_FLOOR)" 'BEGIN { exit (c+0 >= f+0) ? 0 : 1 }' || \
		{ echo "internal/serve coverage $$serve% is below the $(SERVE_COVER_FLOOR)% floor"; exit 1; }

# Ten seconds of fuzzing per target — enough to shake out shallow
# decoder and canonicalization bugs on every CI run without burning
# minutes. `go test` allows one -fuzz pattern per invocation, hence one
# line per target. Corpus seeds live in testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFlowRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSweepRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSessionRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecCanonical$$' -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzDEFLiteChunked$$' -fuzztime $(FUZZTIME) ./internal/sio/

# The 3-node cluster differential smoke: a frontend sharding across two
# workers (HTTP and loopback transports) plus the full daemon fleet
# test must return single-node bytes on every endpoint, under -race,
# and a worker's request error must reach the client as its 4xx
# without taking healthy workers out of rotation.
# CI runs this as its own step so a cluster-layer regression is named
# in the job list, not buried in `race`.
cluster-smoke:
	$(GO) test -race -count=1 \
		-run 'TestClusterFlowByteIdenticalToSingleNode|TestClusterSweepByteIdenticalAtAnyWorkerCount|TestClusterBatchByteIdenticalToSingleNode|TestClusterSweepThroughputScales|TestClusterHedgingCutsTailLatency|TestClusterFrontendRelaysWorker400' \
		./internal/cluster/
	$(GO) test -race -count=1 -run 'TestDaemonClusterRoles' ./cmd/smartndrd/

# Non-test Go lines, the size figure the ROADMAP tracks next to ns/op
# and allocs/op. perfbench (its own module) and testdata are excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

# What CI runs (.github/workflows/ci.yml): everything check does plus a
# plain build, the full test suite, the benchmark smoke pass, the scale
# canary, the fuzz smoke pass, and the coverage floor. CI also runs
# lint-extra, which needs network access for the pinned tools.
ci: build vet fmt lint test race cluster-smoke bench-smoke bench-scale fuzz-smoke cover

clean:
	$(GO) clean ./...
