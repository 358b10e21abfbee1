# Verify loop for the StarT-Voyager reproduction.
#
#   make             build + unit tests (tier-1)
#   make lint        gofmt + go vet + voyager-vet analyzer suite + race tests
#   make vet-json    voyager-vet findings as JSON -> VET_findings.json
#   make bench-json  canonical instrumented run -> BENCH_observability.json (+ trace)
#   make bench-diff  headline latencies byte-compared to BENCH_baseline.json
#   make faults      fault-injection smoke matrix -> FAULTS_matrix.json
#   make faults-check  parallel (-parallel 4) fault matrix byte-compared to sequential
#   make bench-micro   simulation-core microbenchmarks -> BENCH_micro.json
#   make fuzz        one minute of event-queue fuzzing (not in ci)
#   make bench-scale   64/256/1024-node footprint + scale sweep vs BENCH_scale.json
#   make bench-scale-baseline  refresh the committed scale baseline
#   make series      windowed telemetry sample byte-compared to SERIES_* goldens
#   make series-baseline  refresh the committed series goldens
#   make prof        simulated-time profile byte-compared to PROF_sample.* goldens
#   make prof-baseline  refresh the committed profile goldens
#   make chaos       short-budget chaos sweep, byte-compared to CHAOS_findings.json
#   make ci          everything CI runs

GO ?= go

.PHONY: all build test fmt vet voyager-vet vet-json race lint bench-json bench-diff bench-baseline faults faults-check bench-micro fuzz bench-scale bench-scale-baseline series series-baseline prof prof-baseline chaos ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l prints offending files; any output is a failure.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The full analyzer suite (nowalltime, noglobalrand, nomaporder,
# nogoroutine, simtimeunits, spanleak, noalloc). Any finding — including a
# new allocation in a //voyager:noalloc function — fails the build. -novet
# because `make lint` runs go vet itself.
voyager-vet:
	$(GO) run ./cmd/voyager-vet -novet ./...

# Machine-readable analyzer findings -> VET_findings.json (an empty array
# when the tree is clean). Exits nonzero on findings, like voyager-vet, but
# always leaves the artifact behind for CI upload.
vet-json:
	@$(GO) run ./cmd/voyager-vet -novet -json ./... > VET_findings.json; \
	st=$$?; cat VET_findings.json; exit $$st

# The engine and core protocol layers drive every sim.Proc coroutine switch.
# Coroutines are race-instrumented like goroutines, so a handoff that lost
# its ordering would still be reported; run their tests under the race
# detector.
race:
	$(GO) test -race ./internal/sim/... ./internal/core/...

lint: fmt vet voyager-vet race

# The canonical instrumented run: metrics registry dump plus a Perfetto
# trace, both byte-identical across invocations (diffable in CI).
bench-json:
	$(GO) run ./cmd/voyager-bench -fig none \
		-metrics BENCH_observability.json -trace TRACE_observability.json

# Headline latency gate: recompute the per-mechanism traced end-to-end
# means and byte-compare them with the committed baseline. They are
# deterministic, so any change, faster or slower, fails until
# `make bench-baseline` refreshes the file on purpose.
bench-diff:
	$(GO) run ./cmd/voyager-bench -fig none -headline /tmp/BENCH_baseline.json
	cmp /tmp/BENCH_baseline.json BENCH_baseline.json
	@echo "bench-diff: headline latencies match BENCH_baseline.json"

# Refresh the committed baseline after an intentional performance change.
bench-baseline:
	$(GO) run ./cmd/voyager-bench -fig none -headline BENCH_baseline.json

# The fault-injection smoke matrix: {drop, corrupt, outage, node-death} x
# three seeds of reliable traffic, with every cell's metrics registry dumped
# to one JSON artifact. A cell that loses or duplicates a message panics.
faults:
	$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
		-fault-seeds 1,2,3 -faults-json FAULTS_matrix.json -parallel 4

# Determinism gate for the parallel run harness: the fault matrix fanned
# across 4 workers must be byte-for-byte the sequential run, artifact
# included.
faults-check:
	$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
		-fault-seeds 1,2,3 -faults-json /tmp/FAULTS_seq.json \
		| grep -v '^fault metrics:' > /tmp/FAULTS_seq.txt
	$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
		-fault-seeds 1,2,3 -faults-json /tmp/FAULTS_par.json -parallel 4 \
		| grep -v '^fault metrics:' > /tmp/FAULTS_par.txt
	cmp /tmp/FAULTS_seq.json /tmp/FAULTS_par.json
	cmp /tmp/FAULTS_seq.txt /tmp/FAULTS_par.txt
	@echo "faults-check: parallel output is byte-identical to sequential"

# Simulation-core microbenchmarks (event queue schedule/step, Proc handoff,
# queue traffic, whole-node run, empty receive try) -> BENCH_micro.json. Wall-clock numbers are
# host-dependent; the committed artifact records the trajectory and the
# allocs/op invariants, which the unit tests also enforce.
bench-micro:
	$(GO) run ./cmd/voyager-bench -fig none -micro BENCH_micro.json

# Time-boxed fuzzing of the event queue against its heap-only reference.
# Plain `go test` (and so `make ci`) only replays the committed corpus in
# internal/sim/testdata/fuzz; this explores beyond it for a minute. New
# failing inputs land in that directory.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 60s ./internal/sim/

# Machine-size sweep (64/256/1024-node fat trees): per-node heap footprint,
# construction time, MPI allreduce/samplesort completion, and the per-level
# hotspot saturation profile. The gate recomputes the sweep against the
# committed BENCH_scale.json and fails if any bytes/node figure regressed
# >10%, or if any deterministic column (levels, links, allreduce_ns,
# samplesort_ns, hotspot_level_stalls) differs at all, as bench-diff does
# for the headline; wall-clock columns are informational.
bench-scale:
	$(GO) run ./cmd/voyager-bench -fig none -scale-diff BENCH_scale.json

# Refresh the committed scale baseline after an intentional footprint change.
bench-scale-baseline:
	$(GO) run ./cmd/voyager-bench -fig none -scale BENCH_scale.json

# Windowed time-series telemetry golden: a reliable run under a 5% drop
# plan exports its voyager-series/v1 document, and voyager-stats renders
# the link/credit heatmaps and stall attribution; both are byte-compared to
# the committed artifacts, so any drift fails the build.
series:
	$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
		-faults 'seed=7,drop=0.05' -series /tmp/SERIES_sample.json -series-window 20us
	$(GO) run ./cmd/voyager-stats -top 8 /tmp/SERIES_sample.json > /tmp/SERIES_report.txt
	cmp /tmp/SERIES_sample.json SERIES_sample.json
	cmp /tmp/SERIES_report.txt SERIES_report.txt
	@echo "series: telemetry artifacts match the committed goldens"

# Refresh the committed series goldens after an intentional timing or
# metrics change.
series-baseline:
	$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
		-faults 'seed=7,drop=0.05' -series SERIES_sample.json -series-window 20us
	$(GO) run ./cmd/voyager-stats -top 8 SERIES_sample.json > SERIES_report.txt

# Simulated-time profile golden: the headline reliable-ring run captured
# with the profiler and exported in all three formats (voyager-prof/v1 JSON,
# folded flame-graph stacks, pprof protobuf) plus the rendered report, each
# byte-compared to the committed artifact. The inertness tests under
# `make test` prove the profiled run is the same run as the unprofiled one.
prof:
	$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
		-faults 'seed=7,drop=0.05' -prof /tmp/PROF_sample.json \
		-prof-folded /tmp/PROF_sample.folded -prof-pprof /tmp/PROF_sample.pb
	$(GO) run ./cmd/voyager-prof -top 8 /tmp/PROF_sample.json > /tmp/PROF_report.txt
	cmp /tmp/PROF_sample.json PROF_sample.json
	cmp /tmp/PROF_sample.folded PROF_sample.folded
	cmp /tmp/PROF_sample.pb PROF_sample.pb
	cmp /tmp/PROF_report.txt PROF_report.txt
	@echo "prof: profile artifacts match the committed goldens"

# Refresh the committed profile goldens after an intentional timing or
# attribution change.
prof-baseline:
	$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
		-faults 'seed=7,drop=0.05' -prof PROF_sample.json \
		-prof-folded PROF_sample.folded -prof-pprof PROF_sample.pb
	$(GO) run ./cmd/voyager-prof -top 8 PROF_sample.json > PROF_report.txt

# Short-budget chaos sweep: fuzzed fault plans run through the invariant
# oracles (exactly-once, conservation, quiescence, telescoping, metrics,
# memcheck) under the deadlock watchdog, fanned across 4 workers. The report
# is byte-deterministic, so it is compared against the committed baseline
# CHAOS_findings.json (empty findings = the machine is clean); any diff —
# a new violation or a changed plan stream — fails the build. voyager-chaos
# itself exits nonzero on findings, so CHAOS_found.json survives for upload.
chaos:
	$(GO) run ./cmd/voyager-chaos -cells 8 -msgs 6 -nodes 3 -parallel 4 \
		-shrink -out CHAOS_found.json
	cmp CHAOS_found.json CHAOS_findings.json
	@echo "chaos: sweep matches the committed baseline (no findings)"

ci: build test lint bench-json bench-diff bench-scale faults faults-check series prof chaos
