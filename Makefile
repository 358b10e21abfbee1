# Verify loop for the StarT-Voyager reproduction.
#
#   make             build + unit tests (tier-1)
#   make lint        gofmt + go vet + voyager-vet analyzer suite + race tests
#   make vet-json    voyager-vet findings as JSON -> VET_findings.json
#   make bench-json  canonical instrumented run byte-compared to BENCH_observability.json (+ trace)
#   make bench-json-baseline  refresh the committed instrumented-run goldens
#   make bench-diff  headline latencies byte-compared to BENCH_baseline.json
#   make faults      eight faulted voyager-run runs' metrics byte-compared to FAULTS/
#   make faults-baseline  refresh the committed fault goldens
#   make faults-check  voyager-run's seed sweep at -parallel 4 byte-compared to -parallel 1
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
#   make deadcode    functions no CLI, figure or example run reaches, diffed with DEADCODE_allow.txt
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

# The fault goldens' one run: 30 one-byte reliable messages from node 1
# to node 0, under the plan given after it.
FAULT_RUN = $(GO) run ./cmd/voyager-run -nodes 2 -mech reliable -count 30 -size 1

define gen-faults
@mkdir -p $(1)/FAULTS
for s in 1 2 3; do \
	$(FAULT_RUN) -faults "seed=$$s,drop.low=0.05" -metrics $(1)/FAULTS/drop-seed$$s.json && \
	$(FAULT_RUN) -faults "seed=$$s,corrupt.low=0.05" -metrics $(1)/FAULTS/corrupt-seed$$s.json || exit 1; \
done
$(FAULT_RUN) -faults 'outage=1-0@20us:200us' -metrics $(1)/FAULTS/outage.json
$(FAULT_RUN) -faults 'death=0@50us' -metrics $(1)/FAULTS/node-death.json
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

define gen-deadcode
GO=$(GO) sh scripts/deadcode.sh $(1)
endef

.PHONY: all build test fmt vet voyager-vet vet-json race lint bench-json bench-json-baseline bench-diff bench-baseline faults faults-baseline faults-check bench-micro fuzz bench-scale bench-scale-baseline series series-baseline prof prof-baseline chaos figs figs-baseline deadcode ci

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
# its ordering would still be reported; run their tests, and those of the
# firmware and NIU layers, under the race detector. `make chaos` runs
# S-COMA cells on 4 workers, so every record pool must belong to a node,
# never to a package: the S-COMA-only chaos case runs 1 worker against 4
# under the detector to catch a pool shared across machines.
race:
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/firmware/... ./internal/niu/...
	$(GO) test -race -run 'TestRunDeterministicAcrossWorkers/scoma' ./internal/chaos/

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

# The fault goldens: reliable traffic under a 5% low-lane drop and a 5%
# corrupt rate at seeds 1, 2 and 3, a 180 us outage of the 1->0 link, and
# the receiving node's death at 50 us. Each run's voyager-metrics/v1 document
# names its plan in the run header and is byte-compared to its copy under
# FAULTS/. The delivery outcome is in each document: every send delivered
# (node0/fault/rel_delivered = 30) except under node death, where sends
# fail with an error (node1/fault/rel_failures) rather than hang.
faults:
	$(call gen-faults,$(GATE_OUT))
	diff -r $(GATE_OUT)/FAULTS FAULTS
	@echo "faults: every fault run matches FAULTS/"

# Refresh the committed fault goldens after an intentional change.
faults-baseline:
	$(call gen-faults,.)

# Determinism gate for the parallel run harness: voyager-run's seed sweep
# of the drop plan fanned across 4 workers must print byte-for-byte the
# table of the sequential sweep.
faults-check:
	@mkdir -p $(GATE_OUT)
	$(FAULT_RUN) -faults drop.low=0.05 -seeds 1,2,3 -parallel 1 > $(GATE_OUT)/FAULTS_seq.txt
	$(FAULT_RUN) -faults drop.low=0.05 -seeds 1,2,3 -parallel 4 > $(GATE_OUT)/FAULTS_par.txt
	cmp $(GATE_OUT)/FAULTS_seq.txt $(GATE_OUT)/FAULTS_par.txt
	@echo "faults-check: the parallel seed sweep is byte-identical to the sequential one"

# Simulation-core microbenchmarks (event queue schedule/step, Proc handoff,
# queue traffic, whole-node run, empty receive try) -> BENCH_micro.json. Wall-clock numbers are
# host-dependent; the committed artifact records the trajectory and the
# allocs/op invariants, which the unit tests also enforce.
bench-micro:
	$(GO) run ./cmd/voyager-bench -fig none -micro BENCH_micro.json

# Time-boxed fuzzing: the event queue against its heap-only reference, the
# paged SRAM (bare and over an image) and sub-paged DRAM against dense
# arrays, the frame decoder with fuzzed header fields under a recomputed
# checksum, the round trips of the fault plan, the -nodes list and the
# fault-plan time grammar, and the series and profile readers through the
# voyager-stats and voyager-prof renderers. Plain `go test` (and so
# `make ci`) only replays each target's committed corpus in its package's
# testdata/fuzz; this explores beyond it. New failing inputs land in those
# directories.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 60s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSRAMPages$$' -fuzztime 30s ./internal/niu/sram/
	$(GO) test -run '^$$' -fuzz '^FuzzDRAMPages$$' -fuzztime 30s ./internal/mem/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameFields$$' -fuzztime 30s ./internal/niu/txrx/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 30s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTime$$' -fuzztime 30s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseNodeList$$' -fuzztime 30s ./internal/bench/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSeries$$' -fuzztime 30s ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzRegistryPath$$' -fuzztime 30s ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzReadDoc$$' -fuzztime 30s ./internal/prof/

# Machine-size sweep (64/256/1024-node fat trees): per-node heap footprint,
# MPI allreduce/samplesort completion, the allreduce's event count, and the
# per-level hotspot saturation profile. The gate recomputes the sweep
# against the committed BENCH_scale.json and fails if any bytes/node figure
# moved more than 10%, or if any deterministic column (levels, links,
# events, allreduce_ns, samplesort_ns, hotspot_level_stalls) differs at
# all, as bench-diff does for the headline. The sweep it compared is left
# in $(GATE_OUT)/BENCH_scale.json.
bench-scale:
	@mkdir -p $(GATE_OUT)
	$(GO) run ./cmd/voyager-bench -fig none -scale $(GATE_OUT)/BENCH_scale.json \
		-scale-diff BENCH_scale.json

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

# Every capability has a caller (DESIGN §5): every CLI and example is built
# with coverage over the whole module and driven through the run list in
# scripts/deadcode.sh, which checks each run's exit status. The functions
# that ran 0% are compared with DEADCODE_allow.txt, whose every entry needs
# one of its six classes and a reason. A "+" line in the diff is a function
# nothing runs: delete it, or list it with its reason. A "-" line is a listed
# function that now runs: unlist it. So the list only shrinks.
deadcode:
	@mkdir -p $(GATE_OUT)
	$(call gen-deadcode,$(GATE_OUT))
	@awk '!/^#/ && NF { if (NF < 3 || $$2 !~ /^(keep-list|layer-0-api|accessor|method-set|finding|unreached-model-path)$$/) { \
		print "DEADCODE_allow.txt:" NR ": want <function> <class> <reason>: " $$0; bad = 1 } } END { exit bad }' DEADCODE_allow.txt
	@awk '!/^#/ && NF { print $$1 }' DEADCODE_allow.txt | LC_ALL=C sort | \
		diff -u --label DEADCODE_allow.txt --label $(GATE_OUT)/DEADCODE_report.txt - $(GATE_OUT)/DEADCODE_report.txt || \
		{ echo "deadcode: + no run reaches it (delete it, or list it with a class and a reason); - listed but now runs (unlist it)"; exit 1; }
	@echo "deadcode: every function no run reaches is in DEADCODE_allow.txt"

ci: build test lint bench-json bench-diff bench-scale faults faults-check series prof chaos figs deadcode
