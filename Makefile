# Build, test, smoke and fuzz targets, plus the two ways into the
# repository's benchmark (BENCHMARK.json, benchmark/): `bench` is the
# ledger every performance claim cites, `bench-smoke` checks that the
# harness and the Go benchmarks the docs quote still run.

GO      ?= go
BENCH_OUT ?= .bench_build/report.json
BENCH_PKGS ?= ./internal/walk ./internal/word2vec ./internal/f32 ./internal/vecstore ./internal/knn \
	./internal/snapshot ./internal/server

.PHONY: build test race vet check-benchmark bench bench-smoke serve-smoke router-smoke crash-smoke \
	crash-smoke-short crash-smoke-sharded wal-fuzz scan-fuzz hnsw-fuzz snapshot-fuzz shard-wire-fuzz clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# benchmark/ is a module of its own, outside ./...: vet it and run
# its unit and smoke tests against this checkout.
check-benchmark:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark -short ./...

# The whole module under the race detector. Hogwild training
# serialises itself under -race (internal/word2vec/race_off.go), so
# the trainer's runs check the streaming machinery, not SGD; vecstore
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
# any acknowledged write was lost. Writes a machine-readable recovery
# report to CRASH_REPORT_OUT when set (CI uploads it as an artifact).
CRASH_REPORT_OUT ?=
crash-smoke:
	CRASH_REPORT_OUT=$(CRASH_REPORT_OUT) $(GO) test -run TestCrashRecoveryE2E -count 1 -v .

crash-smoke-short:
	CRASH_REPORT_OUT=$(CRASH_REPORT_OUT) $(GO) test -short -run 'TestCrashRecoveryE2E$$' -count 1 -v .

# Same fault-injection run against a 4-shard serving generation:
# SIGKILL mid-load, restart, and prove deterministic hash routing puts
# every acknowledged write back in the shard it was served from.
crash-smoke-sharded:
	$(GO) test -short -run TestShardedCrashRecoveryE2E -count 1 -v .

# WAL replay fuzz smoke: a short bounded -fuzz run over the frame
# decoder (the corpus seeds cover the torn/corrupt taxonomy; the fuzz
# engine mutates from there). CI runs this on every push — crashes
# land in internal/wal/testdata/fuzz for reproduction.
FUZZTIME ?= 15s
wal-fuzz:
	$(GO) test -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal

# Exact-scan prefilter fuzz smoke: stores and queries read out of raw
# float32 bits (NaNs, infinities, subnormals, near-overflow
# magnitudes); the filtered scan must return the IDs and score bits of
# scoring every row in float64. Then the bound's two tests on their
# own, thresholds out of raw bits too: "provably below" and "provably
# above" may never contradict the float64 score, nor each other.
scan-fuzz:
	$(GO) test -run FuzzScanFilterParity -fuzz FuzzScanFilterParity -fuzztime $(FUZZTIME) ./internal/vecstore
	$(GO) test -run FuzzPrefilterSides -fuzz FuzzPrefilterSides -fuzztime $(FUZZTIME) ./internal/vecstore

# HNSW prefilter fuzz smoke: the same raw-bits stores; an index built
# and queried behind the float32 filter must have the adjacency, IDs
# and score bits of one that scores every candidate in float64.
hnsw-fuzz:
	$(GO) test -run FuzzHNSWFilterParity -fuzz FuzzHNSWFilterParity -fuzztime $(FUZZTIME) ./internal/vecstore

# Snapshot decoder fuzz smoke: arbitrary bytes at the decoders a server
# start-up reads its model and index from — the graph section, the
# model section as a stream of unknown length, the sharded section; no
# panic, no allocation sized by a count the stream has not backed, and
# what is accepted (an in-range graph, a model) saves back to the bytes
# it came from.
snapshot-fuzz:
	$(GO) test -run '^FuzzLoadIndex$$' -fuzz '^FuzzLoadIndex$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^FuzzLoadSnapshot$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^FuzzLoadShardedIndex$$' -fuzz '^FuzzLoadShardedIndex$$' -fuzztime $(FUZZTIME) ./internal/snapshot

# Shard wire fuzz smoke: arbitrary bodies at the five /shard/v1/*
# request decoders of a live shard; none may panic, answer 5xx, or be
# accepted with a vector that is not exactly the shard's dimension.
# The shard keeps the writes it accepts, so an input does not replay
# the same way twice: minimizing one is capped, or it eats the budget.
shard-wire-fuzz:
	$(GO) test -run FuzzShardWire -fuzz FuzzShardWire -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/server

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
