# Verify loop for the StarT-Voyager reproduction.
#
#   make             build + unit tests (tier-1)
#   make lint        gofmt + go vet + voyager-vet analyzer suite + race tests
#   make vet-json    voyager-vet findings as JSON -> VET_findings.json
#   make bench-json  canonical instrumented run byte-compared to BENCH_observability.json (+ trace)
#   make bench-json-baseline  refresh the committed instrumented-run goldens
#   make bench-diff  headline latencies byte-compared to BENCH_baseline.json
#   make faults      fault-injection smoke matrix byte-compared to FAULTS_matrix.json
#   make faults-baseline  refresh the committed fault-matrix golden
#   make faults-check  parallel (-parallel 4) fault matrix byte-compared to sequential
#   make bench-micro   simulation-core microbenchmarks -> BENCH_micro.json
#   make fuzz        time-boxed fuzzing of every fuzz target (not in ci)
#   make bench-scale   64/256/1024-node footprint + scale sweep vs BENCH_scale.json
#   make bench-scale-baseline  refresh the committed scale baseline
#   make series      windowed telemetry sample byte-compared to SERIES_* goldens
#   make series-baseline  refresh the committed series goldens
#   make prof        simulated-time profile byte-compared to PROF_sample.* goldens
#   make prof-baseline  refresh the committed profile goldens
#   make chaos       short-budget chaos sweep, byte-compared to CHAOS_findings.json
#   make figs        every published figure byte-compared to FIGS_report.txt
#   make figs-baseline  refresh the committed figure golden
#   make ci          everything CI runs

GO ?= go

# The gates write each run's own output under GATE_OUT before comparing it
# with its committed golden; CI uploads this directory, so a failed gate's
# artifact is the output that differed.
GATE_OUT := gate-out

# Each golden's generator is written once, as a function of the directory
# it writes into ($(1)). A gate calls it with $(GATE_OUT) and compares the
# output with the committed golden; the gate's -baseline twin calls it with
# the repo root, so a refresh always runs exactly what the gate checks.
define gen-bench-json
$(GO) run ./cmd/voyager-bench -fig none \
	-metrics $(1)/BENCH_observability.json -trace $(1)/TRACE_observability.json
endef

define gen-bench-diff
$(GO) run ./cmd/voyager-bench -fig none -headline $(1)/BENCH_baseline.json
endef

define gen-faults
$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
	-fault-seeds 1,2,3 -faults-json $(1)/FAULTS_matrix.json -parallel 4
endef

define gen-series
$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
	-faults 'seed=7,drop=0.05' -series $(1)/SERIES_sample.json -series-window 20us
$(GO) run ./cmd/voyager-stats -top 8 $(1)/SERIES_sample.json > $(1)/SERIES_report.txt
endef

define gen-prof
$(GO) run ./cmd/voyager-run -nodes 4 -mech reliable -count 50 \
	-faults 'seed=7,drop=0.05' -prof $(1)/PROF_sample.json
$(GO) run ./cmd/voyager-prof -folded $(1)/PROF_sample.folded -pprof $(1)/PROF_sample.pb \
	$(1)/PROF_sample.json
$(GO) run ./cmd/voyager-prof -top 8 $(1)/PROF_sample.json > $(1)/PROF_report.txt
endef

define gen-figs
$(GO) run ./cmd/voyager-bench -fig all > $(1)/FIGS_report.txt
endef

.PHONY: all build test fmt vet voyager-vet vet-json race lint bench-json bench-json-baseline bench-diff bench-baseline faults faults-baseline faults-check bench-micro fuzz bench-scale bench-scale-baseline series series-baseline prof prof-baseline chaos figs figs-baseline ci

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
# trace, both byte-identical across invocations, so both are byte-compared
# to the committed goldens; any drift fails until `make bench-json-baseline`
# refreshes them on purpose.
bench-json:
	@mkdir -p $(GATE_OUT)
	$(call gen-bench-json,$(GATE_OUT))
	cmp $(GATE_OUT)/BENCH_observability.json BENCH_observability.json
	cmp $(GATE_OUT)/TRACE_observability.json TRACE_observability.json
	@echo "bench-json: metrics and trace match the committed goldens"

# Refresh the committed instrumented-run goldens after an intentional timing,
# metrics or trace change.
bench-json-baseline:
	$(call gen-bench-json,.)

# Headline latency gate: recompute the per-mechanism traced end-to-end
# means and byte-compare them with the committed baseline. They are
# deterministic, so any change, faster or slower, fails until
# `make bench-baseline` refreshes the file on purpose.
bench-diff:
	@mkdir -p $(GATE_OUT)
	$(call gen-bench-diff,$(GATE_OUT))
	cmp $(GATE_OUT)/BENCH_baseline.json BENCH_baseline.json
	@echo "bench-diff: headline latencies match BENCH_baseline.json"

# Refresh the committed baseline after an intentional performance change.
bench-baseline:
	$(call gen-bench-diff,.)

# The fault-injection smoke matrix: {drop, corrupt, outage, node-death} x
# three seeds of reliable traffic, with every cell's metrics registry dumped
# to one JSON artifact. A cell that loses or duplicates a message panics.
# The artifact is deterministic, so it is byte-compared to the committed
# FAULTS_matrix.json.
faults:
	@mkdir -p $(GATE_OUT)
	$(call gen-faults,$(GATE_OUT))
	cmp $(GATE_OUT)/FAULTS_matrix.json FAULTS_matrix.json
	@echo "faults: fault matrix matches FAULTS_matrix.json"

# Refresh the committed fault-matrix golden after an intentional change.
faults-baseline:
	$(call gen-faults,.)

# Determinism gate for the parallel run harness: the fault matrix fanned
# across 4 workers must be byte-for-byte the sequential run, artifact
# included.
faults-check:
	@mkdir -p $(GATE_OUT)
	$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
		-fault-seeds 1,2,3 -faults-json $(GATE_OUT)/FAULTS_seq.json \
		| grep -v '^fault metrics:' > $(GATE_OUT)/FAULTS_seq.txt
	$(GO) run ./cmd/voyager-bench -fig none -fault-matrix \
		-fault-seeds 1,2,3 -faults-json $(GATE_OUT)/FAULTS_par.json -parallel 4 \
		| grep -v '^fault metrics:' > $(GATE_OUT)/FAULTS_par.txt
	cmp $(GATE_OUT)/FAULTS_seq.json $(GATE_OUT)/FAULTS_par.json
	cmp $(GATE_OUT)/FAULTS_seq.txt $(GATE_OUT)/FAULTS_par.txt
	@echo "faults-check: parallel output is byte-identical to sequential"

# Simulation-core microbenchmarks (event queue schedule/step, Proc handoff,
# queue traffic, whole-node run, empty receive try) -> BENCH_micro.json. Wall-clock numbers are
# host-dependent; the committed artifact records the trajectory and the
# allocs/op invariants, which the unit tests also enforce.
bench-micro:
	$(GO) run ./cmd/voyager-bench -fig none -micro BENCH_micro.json

# Time-boxed fuzzing: the event queue against its heap-only reference, the
# paged SRAM and sub-paged DRAM against dense arrays, the frame decoder with
# fuzzed header fields under a recomputed checksum, and the round trips of
# the fault plan, the -nodes list and the fault-plan time grammar. Plain `go test` (and so `make ci`) only replays each target's
# committed corpus in its package's testdata/fuzz; this explores beyond it.
# New failing inputs land in those directories.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 60s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSRAMPages$$' -fuzztime 30s ./internal/niu/sram/
	$(GO) test -run '^$$' -fuzz '^FuzzDRAMPages$$' -fuzztime 30s ./internal/mem/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameFields$$' -fuzztime 30s ./internal/niu/txrx/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 30s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTime$$' -fuzztime 30s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseNodeList$$' -fuzztime 30s ./internal/bench/

# Machine-size sweep (64/256/1024-node fat trees): per-node heap footprint,
# construction time, MPI allreduce/samplesort completion, the allreduce's
# event count, and the per-level hotspot saturation profile. The gate
# recomputes the sweep against the committed BENCH_scale.json and fails if
# any bytes/node figure regressed >10%, or if any deterministic column
# (levels, links, events, allreduce_ns, samplesort_ns,
# hotspot_level_stalls) differs at all, as bench-diff does for the
# headline; the construction wall-clock is informational.
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
	@mkdir -p $(GATE_OUT)
	$(call gen-series,$(GATE_OUT))
	cmp $(GATE_OUT)/SERIES_sample.json SERIES_sample.json
	cmp $(GATE_OUT)/SERIES_report.txt SERIES_report.txt
	@echo "series: telemetry artifacts match the committed goldens"

# Refresh the committed series goldens after an intentional timing or
# metrics change.
series-baseline:
	$(call gen-series,.)

# Simulated-time profile golden: the headline reliable-ring run captured
# with the profiler as voyager-prof/v1 JSON, which voyager-prof re-exports
# as folded flame-graph stacks and pprof protobuf and renders as the
# report; each is byte-compared to the committed artifact. The inertness
# tests under `make test` prove the profiled run is the same run as the
# unprofiled one.
prof:
	@mkdir -p $(GATE_OUT)
	$(call gen-prof,$(GATE_OUT))
	cmp $(GATE_OUT)/PROF_sample.json PROF_sample.json
	cmp $(GATE_OUT)/PROF_sample.folded PROF_sample.folded
	cmp $(GATE_OUT)/PROF_sample.pb PROF_sample.pb
	cmp $(GATE_OUT)/PROF_report.txt PROF_report.txt
	@echo "prof: profile artifacts match the committed goldens"

# Refresh the committed profile goldens after an intentional timing or
# attribution change.
prof-baseline:
	$(call gen-prof,.)

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

# Figure golden: `voyager-bench -fig all` prints every figure and table the
# repo publishes (EXPERIMENTS.md quotes them). The simulator is
# deterministic, so its stdout is byte-compared to the committed
# FIGS_report.txt; any change to a simulated number fails until
# `make figs-baseline` refreshes the golden on purpose.
figs:
	@mkdir -p $(GATE_OUT)
	$(call gen-figs,$(GATE_OUT))
	cmp $(GATE_OUT)/FIGS_report.txt FIGS_report.txt
	@echo "figs: every figure matches FIGS_report.txt"

# Refresh the committed figure golden after an intentional change to a
# simulated result.
figs-baseline:
	$(call gen-figs,.)

ci: build test lint bench-json bench-diff bench-scale faults faults-check series prof chaos figs
