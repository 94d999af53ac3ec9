GO ?= go

# All build artifacts land in a per-checkout bin directory (gitignored),
# never in /tmp with fixed names: concurrent checkouts on one machine
# must not clobber each other's binaries or bench transcripts.
BIN := $(CURDIR)/bin

.PHONY: build test verify check bench bench-guard fuzz fuzz-nightly lint trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI gate: compile everything, require gofmt-clean sources,
# vet (the bench/ module too: it is a separate module over the internal
# packages, so the root build never compiles it), and run the full test
# suite under the race detector.
verify:
	$(GO) build ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) test -race ./...

# check arms the runtime invariant checker everywhere: the full test
# suite with checks forced on (build tag `checkall`), then the four
# headline configurations, an 802.11 dense highway, the full evaluation
# report (its trials and replication study) and the fault-degradation
# grid through the CLI gates. Any recorded violation is a non-zero exit.
check:
	$(GO) test -tags=checkall ./...
	$(GO) build -o $(BIN)/vanetsim-check ./cmd/vanetsim
	$(BIN)/vanetsim-check -check -trial 1 > /dev/null
	$(BIN)/vanetsim-check -check -trial 2 > /dev/null
	$(BIN)/vanetsim-check -check -trial 3 > /dev/null
	$(BIN)/vanetsim-check -check -trial 0 -mac 802.11 -packet 500 > /dev/null
	$(BIN)/vanetsim-check -check -dense 240 -mac 802.11 -duration 8 -spans $(BIN)/dense-spans.ndjson > /dev/null
	$(GO) build -o $(BIN)/eblreport-check ./cmd/eblreport
	$(BIN)/eblreport-check -check > /dev/null
	$(BIN)/eblreport-check -check -degrade > /dev/null

# bench regenerates the paper's evaluation as benchmark metrics.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-guard is the benchmark-regression gate: run every benchmark
# BENCH.json tracks into one transcript and judge it with one
# cmd/benchguard call (any alloc/op regression, or ns/op beyond
# MAX_NS_REGRESSION, fails; a benchmark that fails to report is a
# missing row, which fails too). A new row needs its benchmark added to
# one of the lines below. Fixed -benchtime values keep runs comparable
# across machines and commits.
# CI widens the ns/op tolerance for shared runners:
# make bench-guard MAX_NS_REGRESSION=0.5.
MAX_NS_REGRESSION ?= 0.20
bench-guard:
	$(GO) build -o $(BIN)/benchguard ./cmd/benchguard
	: > $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkScheduler(HotPath|CancelReschedule|Fanout|PaperScale)$$' -benchmem -benchtime=2s -run='^$$' ./internal/sim | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkTrace(Encode|Decode)$$' -benchmem -benchtime=2s -run='^$$' ./internal/trace | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkTruncationIndexTrial3Size$$' -benchmem -benchtime=2s -run='^$$' ./internal/metrics | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkTrial1(Baseline|SpansDisarmed)$$' -benchmem -benchtime=5x -run='^$$' . | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkTrial3$$' -benchmem -benchtime=3x -run='^$$' . | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkBroadcast(Scan|Culled|CulledMoving)' -benchmem -benchtime=1s -run='^$$' ./internal/phy | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkAODVRecvRREQ$$' -benchmem -benchtime=2s -run='^$$' ./internal/aodv | tee -a $(BIN)/bench.txt
	$(GO) test -bench='BenchmarkCanonicalHash$$' -benchmem -benchtime=2s -run='^$$' ./internal/service/canon | tee -a $(BIN)/bench.txt
	$(GO) test -bench='Benchmark(CacheGet|ServeCachedResult)$$' -benchmem -benchtime=1s -run='^$$' ./internal/service | tee -a $(BIN)/bench.txt
	$(BIN)/benchguard -baseline BENCH.json -input $(BIN)/bench.txt -max-ns-regression $(MAX_NS_REGRESSION)

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
# config moves it), the O(n) MSER-5 against the exact O(n²) scan
# (identical cut on any series), and the interface queues' own books
# (accepted = dequeued + evicted + queued, drops = rejected + evicted,
# hook events matching every call), the event queue against a
# container/heap reference (same firing order, clock and profile), and
# the PHY's culled broadcast against the full scan over random fleets
# (same deliveries and counters), a couple of minutes each.
FUZZTIME ?= 2m
fuzz-nightly:
	$(GO) test -run='^$$' -fuzz=FuzzParseLine -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -tags=checkall -run='^$$' -fuzz=FuzzTopologyConservation -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalRoundTrip -fuzztime=$(FUZZTIME) ./internal/service/canon
	$(GO) test -run='^$$' -fuzz=FuzzTruncationIndex -fuzztime=$(FUZZTIME) ./internal/metrics
	$(GO) test -run='^$$' -fuzz=FuzzQueueAccounting -fuzztime=$(FUZZTIME) ./internal/queue
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerMatchesReference -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzCulledMatchesScan -fuzztime=$(FUZZTIME) ./internal/phy

# lint runs the static analyzers CI uses; tools are expected on PATH
# (CI installs them, see .github/workflows/ci.yml).
lint:
	$(GO) vet ./...
	staticcheck ./...
	govulncheck ./...
