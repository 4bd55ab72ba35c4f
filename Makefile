# Build, test, smoke and fuzz targets, plus the two ways into the
# repository's benchmark (BENCHMARK.json, benchmark/): `bench` is the
# ledger every performance claim cites, `bench-smoke` checks that the
# harness and the Go benchmarks the docs quote still run.

GO      ?= go
BENCH_OUT ?= .bench_build/report.json
BENCH_PKGS ?= . ./internal/walk ./internal/word2vec ./internal/f32 ./internal/vecstore ./internal/knn \
	./internal/snapshot ./internal/server

.PHONY: build test race vet check-benchmark bench bench-smoke serve-smoke router-smoke crash-smoke \
	fuzz clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also runs for arm64, so that an assembly file without its
# portable twin fails here and not on an arm64 machine, and checks that
# the float64 kernels compile there to no fused multiply-add: arm64
# would otherwise round s + d*d once where amd64 rounds twice, and
# every Euclidean score would differ between the two
# (internal/f32/kernels_f64.go).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build -gcflags=-S ./internal/f32 2>&1 | awk \
		'/kernels_f64\.go:[0-9]+\)/ { n++ } /kernels_f64\.go:[0-9]+\)[ \t]+F(N)?M(ADD|SUB)/ { print; bad++ } \
		END { if (!n) print "no arm64 assembly of kernels_f64.go to check"; exit !n || bad }'

# benchmark/ is a module of its own, outside ./...: vet it and run
# its unit and smoke tests against this checkout.
check-benchmark:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark -short ./...

# The whole module under the race detector. Hogwild training
# serialises itself under -race (internal/word2vec/race_off.go), so
# the trainer's runs check the walk producers, not SGD; vecstore
# takes most of the time.
race:
	$(GO) test -race ./...

# End-to-end serving smoke tests: builds the v2v binary, serves a
# snapshot on a random port, issues one query per endpoint — including
# a hot reload, /v1/upsert and /v1/delete (visibility without reload,
# 404 after delete) — scrapes and validates the /metrics exposition,
# and asserts a clean SIGTERM shutdown; plus the live-reload
# shape-mismatch test (clean 400, previous generation keeps serving).
# Set METRICS_SNAPSHOT_OUT to save the scraped /metrics page (CI
# uploads it as an artifact).
METRICS_SNAPSHOT_OUT ?=
serve-smoke:
	METRICS_SNAPSHOT_OUT=$(METRICS_SNAPSHOT_OUT) $(GO) test -run 'TestServeSmokeE2E|TestReloadShapeMismatchKeepsServing|TestOverloadSheddingE2E' -count 1 -v .

# Distributed serving smoke: builds the real binary, spawns four
# shard processes plus a scatter-gather router over them, and requires
# every read endpoint to answer byte-for-byte identically to an
# in-process `-shards 4` server on the same bundle; then SIGKILLs one
# shard and asserts the documented degraded behavior (503 naming the
# outage, fast — never a hang — with membership visible in /stats and
# /metrics). Set ROUTER_SMOKE_OUT to save the fleet's combined log
# (CI uploads it as an artifact).
ROUTER_SMOKE_OUT ?=
router-smoke:
	ROUTER_SMOKE_OUT=$(ROUTER_SMOKE_OUT) $(GO) test -run TestRouterSmokeE2E -count 1 -v .

# Crash-recovery fault-injection e2e: builds the real binary, serves a
# snapshot with -wal, SIGKILLs the process in the middle of a mixed
# 15%-write load run, restarts over the same directory and fails if
# any acknowledged write was lost. SHARDS=4 runs it against a 4-shard
# serving generation (TestShardedCrashRecoveryE2E), where
# deterministic hash routing must put every acknowledged write back in
# the shard it was served from; SHARDS=1, the default, is one shard.
# SHORT=1 runs the 2 s load of -short instead of 4 s. Writes a
# machine-readable recovery report to CRASH_REPORT_OUT when set (CI
# uploads it as an artifact).
CRASH_REPORT_OUT ?=
SHARDS ?= 1
SHORT ?=
crash-smoke:
	$(if $(filter-out 1 4,$(SHARDS)),$(error crash-smoke runs SHARDS=1 or SHARDS=4, not $(SHARDS)))
	CRASH_REPORT_OUT=$(CRASH_REPORT_OUT) $(GO) test $(if $(SHORT),-short) \
		-run '^Test$(if $(filter 4,$(SHARDS)),Sharded)CrashRecoveryE2E$$' -count 1 -v .

# Fuzz smoke: every fuzz target of every package, found with
# `go test -list`, runs for FUZZTIME in turn. They cover each decoder
# that reads bytes from disk or the network (the WAL frames, the
# snapshot's model section and index trailer, the walk-corpus text,
# both halves of the shard wire — a shard's /shard/v1/* request
# decoders and the router's decoder of search replies — the /metrics
# exposition) and the float32 prefilter
# parity of the exact scan and HNSW. Minimizing a failure is capped at
# 10 runs: a target that keeps state between inputs (the shard wire's
# live shard) does not replay an input the same way twice, so an
# uncapped minimization eats the budget. Crashes land in the package's
# testdata/fuzz for reproduction.
FUZZTIME ?= 15s
fuzz:
	@set -e; pkgs=$$($(GO) list ./...); for pkg in $$pkgs; do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$targets" | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 10x $$pkg; \
		done; \
	done

# The repository's benchmark: all six BENCHMARK.json workloads against
# the real binary, the full report in BENCH_OUT. Compare two reports
# with `bash benchmark/run.sh -compare old.json new.json`.
bench:
	bash benchmark/run.sh -out $(BENCH_OUT)

# Measures nothing: the harness end to end on tiny fixtures (every
# workload, both passes, the kill -9 audit), then one iteration of
# every Go benchmark in BENCH_PKGS at -short sizes.
bench-smoke:
	bash benchmark/run.sh -smoke
	$(GO) test -short -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

clean:
	rm -rf .bench_build/
