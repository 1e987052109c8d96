GO ?= go

# Third-party analyzers CI runs alongside the in-repo suite (`make
# lint-extra`). Pinned only here because the module has no tool
# dependencies — `go run pkg@version` fetches exactly this version.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build check vet fmt lint lint-extra test race bench bench-smoke bench-scale cover fuzz-smoke cluster-smoke perfbench-check experiments-check loc ci clean

# Coverage floor (percent) enforced on internal/serve — the service
# layer is pure coordination logic, so uncovered lines are usually
# unhandled error paths. Raise, don't lower.
SERVE_COVER_FLOOR ?= 90

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
# stitch, global balance; about 1.1–1.2 s on a 2-vCPU VM, see
# docs/performance.md). The million-sink variant is opt-in:
# SMARTNDR_BENCH_1M=1 make bench-scale.
bench-scale:
	$(GO) test -run '^$$' -bench 'FlowSmart100K|FlowSmart1M' -benchtime=1x -benchmem .

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

# Vet and test the benchmark (perfbench, its own module compiled against
# this one), so an engine API change that breaks the benchmark fails here
# rather than in a benchmark run. Offline, about 2 s, writes nothing.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Re-run the full experiment suite and compare it with the committed
# archive: stdout with docs/experiments_full.txt, and every CSV with its
# copy in data/. T3's build/optimize/total columns and t3_runtime.csv are
# wall-clock measurements, so T3_MASK keeps only T3's sinks and nodes
# columns and the CSV is skipped. About 15 s on a 2-vCPU box.
T3_MASK = /^T3:/ { t3 = 1 } /^$$/ { t3 = 0 } t3 && $$1 ~ /^[0-9]+$$/ { print $$1, $$2; next } { print }

experiments-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -data "$$tmp" > "$$tmp/stdout.txt" || exit 1; \
	awk '$(T3_MASK)' docs/experiments_full.txt > "$$tmp/want.txt"; \
	awk '$(T3_MASK)' "$$tmp/stdout.txt" > "$$tmp/got.txt"; \
	diff "$$tmp/want.txt" "$$tmp/got.txt" || \
		{ echo "experiments-check: tables differ from docs/experiments_full.txt"; exit 1; }; \
	for f in data/*.csv "$$tmp"/*.csv; do \
		b="$$(basename "$$f")"; \
		[ "$$b" = t3_runtime.csv ] && continue; \
		cmp "data/$$b" "$$tmp/$$b" || \
			{ echo "experiments-check: $$b differs from data/$$b"; exit 1; }; \
	done; \
	echo "experiments-check: tables and CSVs match the archive"

# Non-test Go lines, the size figure the ROADMAP tracks next to ns/op
# and allocs/op. perfbench (its own module) and testdata are excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

# What CI runs (.github/workflows/ci.yml, one step per target): everything
# check does plus a plain build, the full test suite, the benchmark module
# check, the experiment archive check, the benchmark smoke pass, the scale
# canary, the fuzz smoke pass, and the coverage floor. CI also runs
# lint-extra, which needs network access for the pinned tools.
ci: build vet fmt lint test race cluster-smoke perfbench-check experiments-check bench-smoke bench-scale fuzz-smoke cover

clean:
	$(GO) clean ./...
