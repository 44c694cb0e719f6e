# Build, test and benchmark entry points. `make ci` is the tier-1 gate:
# build + vet + tests, as ROADMAP.md specifies.

GO ?= go

.PHONY: build test race race-hot vet bench bench-smoke ci figures-output audit check-stats bench-json serve-smoke soak-smoke telemetry-smoke tenant-smoke cluster-smoke bench-diff fmt-check fuzz-smoke perfbench-test test-386

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-386 runs the tests on a 32-bit word size, where int and pointers are
# 4 bytes: size expectations and int-typed extremes must follow the host.
test-386:
	GOARCH=386 $(GO) test ./...

# race-hot covers the packages with real concurrency (the root package holds
# the Sweep pool the figure drivers use; internal/serve runs every admitted
# job on its own goroutine against one priority-ordered slot queue, so its
# TestPool, TestServer, TestSlotQueue, TestAllHit and TestPartialHit tests
# put admission, slot grants by priority and shutdown aborts under the race
# detector; sim and hashmap are what the simulations hammer; obs holds the
# metrics registry every service goroutine counts into while scrapes render
# it; obs/svclog the event log every job appends to while endpoints, the SSE
# stream and subscribers read it).
race-hot:
	$(GO) test -race ./internal/sim ./internal/hashmap ./internal/obs ./internal/obs/svclog .
	$(GO) test -race -run '^Test(Pool|Server|SlotQueue|AllHit|PartialHit)' ./internal/serve

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-smoke runs each benchmark once — compile + one iteration, a CI-speed
# check that the benchmarks still work — then pins the profiler-disabled
# record paths, metrics-registry counting, the floor-attached Resource
# calendar, hashmap lookups and overwrites, cache and local-memory accesses
# and fills, the SSE handler's JobEvent encoding and each machine's warmed
# remote Access (internal/frame) at zero allocations (the alloc-regression
# gate).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...
	$(GO) test -run 'ZeroAlloc' ./internal/obs ./internal/obs/svclog ./internal/sim ./internal/hashmap ./internal/cache ./internal/frame

ci: build vet test race-hot

# figures_output.txt is a build artifact (gitignored), regenerated on demand.
figures-output:
	$(GO) run ./cmd/figures -quick > figures_output.txt

# audit runs the per-transaction coherence auditor on one configuration per
# machine type, plus two AGG runs: radix at 95% pressure on a quarter of the
# D-nodes, which pages out (about 1,500 pageouts), so D-node page mapping,
# unmapping and SharedList reuse run under the auditor; and swim at 25%
# pressure on 32 D-nodes, which ends with 57,600 of its 65,536 Data slots
# never used, so slots are handed out from the never-used tail under the
# auditor. Any protocol-invariant violation fails the target.
audit:
	$(GO) run ./cmd/aggsim -arch agg  -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch numa -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch coma -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch agg  -app radix -scale 0.05 -threads 8 -pressure 0.95 -dratio 4 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch agg  -app swim -scale 0.3 -threads 32 -pressure 0.25 -audit >/dev/null
	@echo "audit: all three machine types clean, AGG also while paging out and with most Data slots never used"

# check-stats is the perf-regression gate: the fixed baseline matrix must
# match testdata/golden_stats.json within per-metric tolerances, and the
# gate must itself catch an injected 5% latency regression (self-test).
# Regenerate the golden deliberately with `go run ./cmd/checkstats -update`.
check-stats:
	$(GO) run ./cmd/checkstats
	@if $(GO) run ./cmd/checkstats -inject 0.05 >/dev/null 2>&1; then \
		echo "check-stats: SELF-TEST FAILED - injected 5% regression not caught"; exit 1; \
	else echo "check-stats: self-test ok (injected 5% regression caught)"; fi

# serve-smoke is the aggsimd end-to-end gate, run under the race detector:
# boot the daemon on an ephemeral port, submit a small Figure 6 batch twice
# (the second must be served byte-identical from cache, proven by the
# engine-cycle counters), storm it at 4x the admission window (bounded-queue
# rejections), shut down gracefully, and restart against the persisted
# cache index.
serve-smoke:
	$(GO) test -race -count 1 -run 'TestServeSmoke|TestSmokeMetricsArtifact' ./cmd/aggsimd

# soak-smoke is the observability/SLO gate, run under the race detector: a
# concurrent client storm through the real daemon, audited by the soak
# harness — p99 submit/status latency SLOs, bounded 429 pushback, the
# exactly-once simulation proof from the engine counters, complete ordered
# lifecycle event chains for every job, and a /metrics.prom exposition that
# passes the strict Prometheus text parser.
soak-smoke:
	$(GO) test -race -count 1 -run 'TestSoakSmoke' -v ./cmd/aggsimd

# telemetry-smoke is the flight-recorder end-to-end gate, run under the race
# detector: every job head-sampled into the recorder, results byte-identical
# to a direct run (record-only proof), all three artifacts served over HTTP,
# the perf diff naming a dominant phase between two architectures, and the
# artifact store surviving a daemon restart.
telemetry-smoke:
	$(GO) test -race -count 1 -run 'TestTelemetrySmoke' -v ./cmd/aggsimd

# tenant-smoke is the multi-tenant end-to-end gate, run under the race
# detector: boot the daemon with a tenants file, reject unauthenticated and
# wrong-key requests (401) and over-ceiling priorities (403), prove quota
# isolation between a quota-bounded noisy tenant and a quiet one via the
# soak harness, check every per-tenant /metrics.prom family sums exactly to
# its global counterpart under the strict Prometheus parser, and restart the
# daemon against the persisted usage ledger.
tenant-smoke:
	$(GO) test -race -count 1 -run 'TestTenantSmoke|TestTenantFlagHygiene' -v ./cmd/aggsimd

# cluster-smoke is the multi-node gate, run under the race detector: a
# 3-node in-process cluster (gossip membership, consistent-hash ownership,
# forwarding, replication) byte-compared against a single-node reference,
# with the exactly-once proof (cluster-wide engine-run counters equal the
# distinct key count) held through a node kill and restart, and an
# imbalanced front door whose jobs still simulate at their keys' owners.
cluster-smoke:
	$(GO) test -race -count 1 -run 'TestCluster' -v ./internal/cluster/harness

# bench-json snapshots simulator wall-clock throughput into a dated JSON
# file; committing snapshots over time tracks the perf trajectory.
bench-json:
	$(GO) run ./cmd/benchjson > BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# bench-diff renders the committed BENCH trajectory over the two newest
# snapshots. Advisory about perf by design (host throughput is machine-
# dependent) — only a missing or malformed snapshot fails the target.
bench-diff:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-diff: need two committed BENCH_*.json snapshots"; exit 1; fi; \
	echo "bench-diff: $$1 -> $$2"; \
	$(GO) run ./cmd/pimdsm diff -bench $$1 $$2

# fmt-check fails when any Go file is not gofmt-formatted, listing them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# fuzz-smoke runs the fourteen fuzz targets for a short fixed time each on top
# of their checked-in seed corpora: the result-envelope decoder (one-pass
# decoder vs json.Unmarshal), the client's JSON scanner (vs json.Valid),
# the floor-pruned Resource calendar (vs the unpruned calendar), the packed
# hashmap.Map (vs the builtin map and the three-array layout it replaced),
# the Prometheus round trip (obs.Registry.WritePrometheus read back by the
# strict svclog.ParsePromText to the same labels and values), the cluster
# replicate endpoint (accepts exactly the replicas whose key re-derives and
# whose result could come from running their spec; anything else leaves
# the cache as it was), the hand-written wire codecs of JobEvent,
# JobStatus and JobSpec (vs json.Marshal, json.Encoder, json.Unmarshal and
# a DisallowUnknownFields json.Decoder), the event log's packed per-job
# chains (Job rebuilds == the events Append returned), the cache key
# (canonicalizing is idempotent; == canonical specs get equal keys), the
# D-node Data-slot order (lazily created slots vs an eager FreeList holding
# every slot from the start), the daemon's restart files (any bytes as the
# cache index, artifact index and usage ledger: New fails, or serves only
# valid canonical results and artifact files inside its directory), and
# the tenants file (load and reload accept the same bytes; a rejected reload
# changes nothing).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResultEnvelope$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzScanJSON$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzResourceFloor$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzMap$$' -fuzztime 10s ./internal/hashmap
	$(GO) test -run '^$$' -fuzz '^FuzzPromRoundTrip$$' -fuzztime 10s ./internal/obs/svclog
	$(GO) test -run '^$$' -fuzz '^FuzzClusterReplicate$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzJobEventCodec$$' -fuzztime 10s ./internal/obs/svclog
	$(GO) test -run '^$$' -fuzz '^FuzzJobStatusCodec$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpecDecode$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzEventLogChain$$' -fuzztime 10s ./internal/obs/svclog
	$(GO) test -run '^$$' -fuzz '^FuzzConfigSpecKey$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDMemSlots$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTenantsFile$$' -fuzztime 10s ./internal/serve

# perfbench-test runs the benchmark module's own tests (perfbench/ has its
# own go.mod): among them the exact check of the simulator workloads'
# Results against perfbench/reference.json, which otherwise runs only when
# the benchmark does.
perfbench-test:
	cd perfbench && $(GO) test ./...
