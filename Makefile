GO ?= go

# All build artifacts land in a per-checkout bin directory (gitignored),
# never in /tmp with fixed names: concurrent checkouts on one machine
# must not clobber each other's binaries or bench transcripts.
BIN := $(CURDIR)/bin

.PHONY: build test verify check bench bench-obs bench-parallel bench-hot bench-guard bench-dense bench-service fuzz fuzz-nightly lint trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI gate: compile everything, vet, and run the full test
# suite under the race detector.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# check arms the runtime invariant checker everywhere: the full test
# suite with checks forced on (build tag `checkall`), then the four
# headline configurations, an 802.11 dense highway, and the
# fault-degradation grid through the CLI gates. Any recorded violation
# is a non-zero exit.
check:
	$(GO) test -tags=checkall ./...
	$(GO) build -o $(BIN)/vanetsim-check ./cmd/vanetsim
	$(BIN)/vanetsim-check -check -trial 1 > /dev/null
	$(BIN)/vanetsim-check -check -trial 2 > /dev/null
	$(BIN)/vanetsim-check -check -trial 3 > /dev/null
	$(BIN)/vanetsim-check -check -trial 0 -mac 802.11 -packet 500 > /dev/null
	$(BIN)/vanetsim-check -check -dense 240 -mac 802.11 -duration 8 > /dev/null
	$(GO) build -o $(BIN)/eblreport-check ./cmd/eblreport
	$(BIN)/eblreport-check -check -degrade > /dev/null

# bench regenerates the paper's evaluation as benchmark metrics.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-obs measures the telemetry subsystem's overhead (instrumented vs
# baseline trial 1).
bench-obs:
	$(GO) test -bench='BenchmarkTrial1(Baseline|Instrumented)$$' -benchmem -run='^$$' .

# bench-parallel measures the run engine's fan-out speedup on the
# 16-point perf sweep (sequential vs one worker per CPU).
bench-parallel:
	$(GO) test -bench='BenchmarkParallelSweep16' -benchtime=2x -run='^$$' .

# bench-hot runs the discrete-event hot-path benchmarks tracked in
# BENCH_PR3.json: scheduler push/pop and cancel/reschedule, trace
# encode/decode, MSER-5 warm-up detection on a trial-3-sized series
# (catches a return to the O(n²) scan), the end-to-end trial, the trial
# with the span recorder disarmed (pinning the nil-check-only span
# overhead), and trial 3 (pinning the pooled 802.11 frame path). Fixed
# -benchtime values keep runs comparable across machines and commits.
bench-hot:
	$(GO) test -bench='BenchmarkScheduler(HotPath|CancelReschedule)$$' -benchmem -benchtime=2s -run='^$$' ./internal/sim
	$(GO) test -bench='BenchmarkTrace(Encode|Decode)$$' -benchmem -benchtime=2s -run='^$$' ./internal/trace
	$(GO) test -bench='BenchmarkTruncationIndexTrial3Size$$' -benchmem -benchtime=2s -run='^$$' ./internal/metrics
	$(GO) test -bench='BenchmarkTrial1(Baseline|SpansDisarmed)$$' -benchmem -benchtime=5x -run='^$$' .
	$(GO) test -bench='BenchmarkTrial3$$' -benchmem -benchtime=3x -run='^$$' .

# bench-guard is the benchmark-regression gate: run the tracked hot-path
# benchmarks and judge them against BENCH_PR3.json with cmd/benchguard
# (any alloc/op regression, or >20% ns/op by default, fails).
bench-guard:
	$(GO) build -o $(BIN)/benchguard ./cmd/benchguard
	$(MAKE) --no-print-directory bench-hot | tee $(BIN)/bench-hot.txt
	$(BIN)/benchguard -baseline BENCH_PR3.json -input $(BIN)/bench-hot.txt

# bench-dense is the broadcast-scaling gate: per-transmission PHY cost
# over a dense highway line, spatial-index culling against the all-radios
# scan (plus the index under continuous mobility refresh), judged against
# BENCH_DENSE.json. The culled path must stay allocation-free, ~flat in
# the fleet size, and >=5x under the scan at n=1000.
bench-dense:
	$(GO) build -o $(BIN)/benchguard ./cmd/benchguard
	$(GO) test -bench='BenchmarkBroadcast(Scan|Culled|CulledMoving)' -benchmem -benchtime=1s -run='^$$' ./internal/phy | tee $(BIN)/bench-dense.txt
	$(BIN)/benchguard -baseline BENCH_DENSE.json -input $(BIN)/bench-dense.txt

# bench-service is the vanetsimd service gate: the canonical-hash cache
# key (pinned allocation-free — every request pays it before the cache
# is consulted), the disk cache's hit path, and the full HTTP cache-hit
# round trip, judged against BENCH_SERVICE.json.
bench-service:
	$(GO) build -o $(BIN)/benchguard ./cmd/benchguard
	$(GO) test -bench='BenchmarkCanonicalHash$$' -benchmem -benchtime=2s -run='^$$' ./internal/service/canon | tee $(BIN)/bench-service.txt
	$(GO) test -bench='Benchmark(CacheGet|ServeCachedResult)$$' -benchmem -benchtime=1s -run='^$$' ./internal/service | tee -a $(BIN)/bench-service.txt
	$(BIN)/benchguard -baseline BENCH_SERVICE.json -input $(BIN)/bench-service.txt

# trace runs the quickstart example (trial 1) with causal span tracing
# armed and writes a Chrome trace-event file: open trial1-spans.json in
# chrome://tracing or https://ui.perfetto.dev to browse every packet's
# lifecycle per node. The NDJSON twin lands next to it for jq/scripting.
trace:
	$(GO) build -o $(BIN)/vanetsim-trace ./cmd/vanetsim
	$(BIN)/vanetsim-trace -trial 1 -spans trial1-spans.ndjson -spans-chrome trial1-spans.json > /dev/null
	@echo "wrote trial1-spans.json (chrome://tracing) and trial1-spans.ndjson"

# fuzz exercises the trace-line round trip for a short burst.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseLine -fuzztime=30s ./internal/trace

# fuzz-nightly is the scheduled CI fuzz budget: the trace codec, the
# full-stack topology-conservation target, the service's JSON config
# canonicaliser (hash stable under field reordering, and injective on
# hashed fields: perturbing any `canon`-keyed field of the resolved
# config moves it), and the O(n) MSER-5 against the exact O(n²) scan
# (identical cut on any series), a couple of minutes each.
FUZZTIME ?= 2m
fuzz-nightly:
	$(GO) test -run='^$$' -fuzz=FuzzParseLine -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -tags=checkall -run='^$$' -fuzz=FuzzTopologyConservation -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalRoundTrip -fuzztime=$(FUZZTIME) ./internal/service/canon
	$(GO) test -run='^$$' -fuzz=FuzzTruncationIndex -fuzztime=$(FUZZTIME) ./internal/metrics

# lint runs the static analyzers CI uses; tools are expected on PATH
# (CI installs them, see .github/workflows/ci.yml).
lint:
	$(GO) vet ./...
	staticcheck ./...
	govulncheck ./...
