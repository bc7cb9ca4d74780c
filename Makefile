GO ?= go

# Total -short coverage recorded when the scenario engine landed; the cover
# target (and CI's coverage lane) fail if the suite drops below it.
COVER_FLOOR ?= 73.0

.PHONY: all vet build test test-short bench bench-campaign bench-obs trace goldens goldens-gen goldens-update scenarios storm service profile fma-lint fuzz cover ci

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Heavy trainings and multi-seed sweeps are guarded by testing.Short().
test-short:
	$(GO) test -short ./...

# Runs every benchmark once, exports the cross-policy provisioning study as
# BENCH_policy.json and the cross-tuner search-strategy study as
# BENCH_tuner.json (cost/JCT per registered tuner), carves the streaming
# matrix runner's numbers (1k- and 100k-cell grids: cells/s + peak heap)
# into BENCH_matrix.json, and re-measures the micro benchmarks with
# -benchmem into BENCH_perf.json (ns/op + allocs/op, diffed against the
# committed pre-optimization baseline in BENCH_baseline.json — benchperf
# prints the delta table and fails the recipe when any tracked benchmark
# regresses past its threshold; StoreQuotes, StepNoise, Environment and
# RevPredScore have no baseline entry, so they are recorded, not gated; the
# CI lane runs
# at 20% because shared 1–2 core runners jitter close to the 10% default).
# All JSON artifacts are uploaded by CI.
# Benchmark output goes through temp files, not pipes, so a failing
# benchmark binary fails the recipe instead of being masked by benchperf's
# exit status.
bench:
	$(GO) test -bench=. -run '^$$' -benchtime 1x . > BENCH_all.txt
	cat BENCH_all.txt
	grep '^BenchmarkMatrixStreaming' BENCH_all.txt | $(GO) run ./cmd/benchperf -out BENCH_matrix.json
	rm -f BENCH_all.txt
	$(GO) test -bench '^(BenchmarkLSTMForwardBackward|BenchmarkRevPredInference|BenchmarkEarlyCurveFit|BenchmarkMarketGenerate|BenchmarkEventQueue|BenchmarkGBTRound|BenchmarkStoreQuotes|BenchmarkStepNoise|BenchmarkEnvironment|BenchmarkRevPredScore)$$' -run '^$$' -benchmem -benchtime 100x . > BENCH_perf.txt
	$(GO) run ./cmd/benchperf -baseline BENCH_baseline.json -threshold 0.2 -out BENCH_perf.json < BENCH_perf.txt
	rm -f BENCH_perf.txt
	$(GO) run ./cmd/benchfigs -fig none -quick -out results -policyjson BENCH_policy.json -tunerjson BENCH_tuner.json

bench-campaign:
	$(GO) test -bench 'BenchmarkCampaign' -run '^$$' -benchtime 5x .

# Flight-recorder overhead lane: the same campaign with and without a live
# recording, gated at 5% through benchperf's ratio check (BENCH_obs.json).
# The disabled path is covered separately by the zero-alloc Nop-tracer test
# in internal/obs.
bench-obs:
	$(GO) test -bench '^(BenchmarkCampaignTraced|BenchmarkCampaignUntraced)$$' -run '^$$' -benchmem -benchtime 50x . > BENCH_obs.txt
	$(GO) run ./cmd/benchperf -ratio CampaignTraced,CampaignUntraced -maxratio 1.05 -out BENCH_obs.json < BENCH_obs.txt
	rm -f BENCH_obs.txt

# Golden trace artifact: the -quick battery with the flight recorder on.
# results/battery.jsonl is the deterministic JSONL trace (byte-identical
# across runs and worker counts), results/battery.jsonl.trace.json the
# chrome://tracing form. The event schema itself is pinned by the committed
# fixture internal/obs/testdata/schema.golden.json (TestSchemaGolden fails
# on any drift).
trace:
	$(GO) run ./cmd/scenarios -quick -out results -trace results/battery.jsonl -trace-format all

# Byte-identical goldens: the cross-policy (BENCH_policy.json) and
# cross-tuner (BENCH_tuner.json) studies, the quick scenario battery CSV
# (scenarios.csv), the battery's flight-recorder trace (battery.jsonl) and
# the standard output of every program under examples/ (example-<name>.txt;
# revpred-eval is the only golden that trains and runs RevPred),
# regenerated into $(GOLDEN_DIR) and checked against the committed sha256
# manifest goldens.sha256. CI runs it in the default build and again with
# GOFLAGS=-tags=purego; both must reproduce every file byte for byte. A
# change that moves a golden on purpose rewrites the manifest with
# `make goldens-update` and says why in CHANGES.md.
GOLDEN_DIR ?= results/goldens
EXAMPLES = earlystop quickstart revpred-eval theta-sweep
GOLDEN_FILES = BENCH_policy.json BENCH_tuner.json scenarios.csv battery.jsonl \
	$(patsubst %,example-%.txt,$(EXAMPLES))

goldens-gen:
	rm -rf $(GOLDEN_DIR)
	$(GO) run ./cmd/benchfigs -fig none -quick -out $(GOLDEN_DIR)/figs \
		-policyjson $(GOLDEN_DIR)/BENCH_policy.json -tunerjson $(GOLDEN_DIR)/BENCH_tuner.json
	$(GO) run ./cmd/scenarios -quick -tuners all -out $(GOLDEN_DIR)
	$(GO) run ./cmd/scenarios -quick -out $(GOLDEN_DIR)/trace -trace $(GOLDEN_DIR)/battery.jsonl
	for ex in $(EXAMPLES); do \
		$(GO) run ./examples/$$ex > $(GOLDEN_DIR)/example-$$ex.txt || exit 1; \
	done

goldens: goldens-gen
	cd $(GOLDEN_DIR) && sha256sum -c $(CURDIR)/goldens.sha256

goldens-update: goldens-gen
	cd $(GOLDEN_DIR) && sha256sum $(GOLDEN_FILES) > $(CURDIR)/goldens.sha256

# The full scenario x tuner x policy matrix at quick fidelity: every regime
# and fault scenario crossed with every registered tuner (search strategy)
# and every registered policy, invariant-audited, per-cell CSV in
# results/scenarios.csv. Exits non-zero on any violation — the rung-heavy
# hyperband/successive-halving cells are the checkpoint-churn stress lane.
# The second lane smokes the streaming path: a replicated grid through the
# seed axis with live progress and aggregate percentiles only.
scenarios:
	$(GO) run ./cmd/scenarios -quick -tuners all -out results
	$(GO) run ./cmd/scenarios -quick -scenarios baseline,calm -replicates 25 -stream

# Chaos storm battery: the seeded adversarial fault schedules (revocation
# storms, blackout fronts, mid-notice blackouts, mixed) crossed with every
# tuner and every recovery strategy, invariant-audited — the resilience
# layer's acceptance lane. Exits non-zero on any violation; battery-wide
# survival rate, lost-work percentiles, and degradation transitions land in
# results/BENCH_resilience.json (uploaded by CI). Same -chaos-seed, same
# storm: a violating schedule replays bit-identically.
storm:
	$(GO) run ./cmd/scenarios -quick -storm all -chaos-seed 1 -tuners all -strategies all \
		-out results/storm -resiliencejson results/BENCH_resilience.json

# Sharded multi-tenant service lane. First the throughput benchmark: 1k and
# 10k tenants through the world engine with contention on (campaigns/s, peak
# heap, cost p99); the benchmark itself fails if the 10k-tenant peak heap
# exceeds 2x the 1k figure — the bounded-memory gate — and the numbers land
# in BENCH_service.json (uploaded by CI). Then a 1k-tenant contention
# battery through cmd/scenarios: shared per-type capacity, surge pricing,
# weighted-fair admission, audited by the capacity-oversubscription
# invariant — exits non-zero on any violation. Last the smallest smoke: 8
# tenants, whose per-tenant attribution table is printed, with tenant
# t-00003's campaign flight-recorded (the explain-this-tenant path). Same
# temp-file discipline as bench: a failing benchmark binary fails the recipe.
service:
	$(GO) test -bench '^BenchmarkServiceThroughput$$' -run '^$$' -benchtime 1x . > BENCH_service.txt
	grep '^BenchmarkServiceThroughput' BENCH_service.txt | $(GO) run ./cmd/benchperf -out BENCH_service.json
	rm -f BENCH_service.txt
	$(GO) run ./cmd/scenarios -quick -tenants 1000 -shards 8 -admission weighted-fair
	$(GO) run ./cmd/scenarios -quick -tenants 8 -shards 2 -trace-tenant t-00003 -trace results/t-00003.jsonl

# CPU profiles, each followed by its cumulative table, the tables the
# ROADMAP's per-call-path CPU shares are read from. First the deploy path:
# a contended service run (4,096 tenants on 2 shards, 8 in flight each,
# shared capacity 4 per type, surge slope 0.5), the service settings of the
# tenants-contended benchmark workload, into results/deploy.pprof. Then the
# solo path: BenchmarkSoloCampaigns, which mirrors the solo-revpred
# workload (sequential RunPolicy campaigns on trained RevPred predictors),
# 200 ops of 64 campaigns into results/solo.pprof. Last the battery path:
# BenchmarkBatteryStream, which mirrors the battery-stream workload (every
# regime and fault scenario × policy × tuner × strategy streamed on 2
# workers), 5 ops of 8 replicates into results/battery.pprof. The test
# binaries go to results/ too, not the working directory.
profile:
	mkdir -p results
	$(GO) run ./cmd/scenarios -quick -tenants 4096 -shards 2 -inflight 8 -capacity 4 -surge 0.5 -cpuprofile results/deploy.pprof
	$(GO) tool pprof -top -cum results/deploy.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkSoloCampaigns$$' -benchtime 200x -cpuprofile results/solo.pprof -o results/solo.test .
	$(GO) tool pprof -top -cum results/solo.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkBatteryStream$$' -benchtime 5x -cpuprofile results/battery.pprof -o results/battery.test .
	$(GO) tool pprof -top -cum results/battery.pprof

# Fused multiply-add lint. The generic kernels promise the SSE2 kernels'
# bits on every platform, so each product must round before it is added
# (written float64(a*b)); a bare a*b + c is fused into one FMADDD by the
# arm64 compiler. Cross-compiles ./internal/kernels for arm64 and fails on
# any fused instruction in its assembly listing.
fma-lint:
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/kernels 2>&1) || { echo "$$asm"; exit 1; }; \
	echo "$$asm" | grep -q 'STEXT' || { echo "fma-lint: no assembly listing for ./internal/kernels"; exit 1; }; \
	if echo "$$asm" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'; then \
		echo "fma-lint: fused multiply-adds in the arm64 build of ./internal/kernels"; exit 1; \
	fi; \
	echo "fma-lint: no fused multiply-adds in the arm64 build of ./internal/kernels"

# Native fuzz targets, run briefly (CI runs the same lane). Corpus finds are
# committed under the packages' testdata/fuzz directories.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceCSVRoundTrip -fuzztime 10s ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzCatalog -fuzztime 10s ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesTrace -fuzztime 10s ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzCursorMatchesStore -fuzztime 10s ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzCheckpointCodec -fuzztime 10s ./internal/trial
	$(GO) test -run '^$$' -fuzz FuzzChaosSchedule -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzServiceConfig -fuzztime 10s ./internal/service

# Coverage gate: total -short statement coverage must stay at or above
# COVER_FLOOR (the level recorded when the scenario engine landed).
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

ci: vet build test-short bench-campaign bench-obs goldens scenarios storm service
