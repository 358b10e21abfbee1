#!/bin/sh
# deadcode.sh OUT — the "every capability has a caller" sweep (DESIGN §5).
#
# Builds every CLI and example with statement coverage over the whole
# module, drives the fixed run list below, and writes the sorted list of
# functions that no run reached to OUT/DEADCODE_report.txt, one per line,
# keyed by package path and name (internal/cache.(*Cache).addrOf) so that
# moving code does not change a key. Every run's exit status is checked:
# a run that failed quietly would turn live code into a report line.
#
# Run it from the repository root; `make deadcode` does, and diffs the
# report with DEADCODE_allow.txt. The binaries and their coverage data
# live in a temporary directory that is removed on exit.
set -eu

out=$1
GO=${GO:-go}
mkdir -p "$out"
w=$(mktemp -d)
trap 'rm -rf "$w"' EXIT
mkdir -p "$w/bin" "$w/cov"

$GO build -cover -coverpkg=startvoyager/... -o "$w/bin/" ./cmd/... ./examples/...

# run WANT PATTERN TOOL ARGS... runs one entry of the list and stops the
# sweep unless it exits WANT and, when PATTERN is set, prints a line
# matching it.
run() {
	want=$1 pattern=$2 tool=$3
	shift 3
	st=0
	GOCOVERDIR=$w/cov "$w/bin/$tool" "$@" >"$w/run.out" 2>&1 || st=$?
	if [ "$st" -ne "$want" ] || { [ -n "$pattern" ] && ! grep -q -- "$pattern" "$w/run.out"; }; then
		echo "deadcode: $tool $* exited $st, want $want${pattern:+ with output matching '$pattern'}" >&2
		tail -n 20 "$w/run.out" >&2
		exit 1
	fi
}
ok() { run 0 '' "$@"; }

# Every figure, the instrumented-run artifacts, the headline, the
# microbenchmarks, and the scale sweep with its diff.
ok voyager-bench -fig all
ok voyager-bench -fig none -metrics "$w/m.json" -trace "$w/t.json" -series "$w/s.json" \
	-prof "$w/p.json" -headline "$w/h.json" -parallel 2
ok voyager-bench -fig none -micro "$w/micro.json"
ok voyager-bench -fig none -nodes 64 -scale "$w/scale.json"
ok voyager-bench -fig none -nodes 64 -scale-diff "$w/scale.json"

# Each mechanism with every artifact, and with the critical-path report.
for mech in basic express tagon dma reliable; do
	ok voyager-run -mech $mech -trace "$w/t-$mech.json" -metrics "$w/m-$mech.json" -dump 5 \
		-series "$w/s-$mech.json" -prof "$w/p-$mech.json"
	ok voyager-run -nodes 2 -count 8 -size 32 -mech $mech -path "$w/path-$mech.json" -waterfall 3 \
		-metrics "$w/pm-$mech.json" -trace "$w/pt-$mech.json"
done

# Reliable delivery under every fault kind, a seed sweep, a machine-size
# sweep, and a trace ring too small for -strict-trace.
ok voyager-run -mech reliable \
	-faults 'seed=7,drop=0.05,corrupt=0.02,dup=0.02,delay=0.1@2us,death=2@50us'
ok voyager-run -mech reliable -faults 'outage=1-0@20us:200us'
ok voyager-run -mech reliable -faults 'seed=7,drop=0.05' -seeds 1,2,3,4 -parallel 2
ok voyager-run -nodes 4,8
run 1 'strict-trace: ring dropped' voyager-run -mech reliable -strict-trace -trace-cap 16

# The series and profile renderers.
ok voyager-stats -top 8 "$w/s-reliable.json"
ok voyager-stats -match bus "$w/s-reliable.json"
ok voyager-prof -top 8 "$w/p-reliable.json"
ok voyager-prof -folded "$w/p.folded" -pprof "$w/p.pb" "$w/p-reliable.json"
ok voyager-prof -diff "$w/p-basic.json" "$w/p-reliable.json"

ok voyager-net -nodes 16,64 -trace "$w/nt.json" -metrics "$w/nm.json"

# A clean chaos sweep, and a budget too short for any cell, whose two
# findings are shrunk.
ok voyager-chaos -cells 24 -parallel 2 -out "$w/chaos.json"
run 1 ': 2 findings' voyager-chaos -cells 2 -budget 5us -shrink -out "$w/found.json"

ok voyager-vet -novet ./...
ok voyager-vet -novet -json ./...

for ex in blocktransfer mpi-allreduce quickstart reflective samplesort scoma-stencil; do
	ok $ex
done

# covdata names a method *T.m, or, for a generic receiver, m alone: read
# that receiver from the declaration, then key by package directory.
$GO tool covdata func -i="$w/cov" | awk '$NF == "0.0%" { print $1, $2 }' |
	while read -r pos name; do
		file=${pos%%:*}
		file=${file#startvoyager/}
		case $name in
		*.*) ;;
		*)
			line=${pos#*:}
			line=${line%%:*}
			recv=$(sed -n "${line}s/^func ([A-Za-z0-9_]* *\(\**[A-Za-z0-9_]*\).*/\1./p" "$file")
			name=$recv$name
			;;
		esac
		echo "${file%/*}.$name" | sed 's/\.\*\([A-Za-z0-9_]*\)\./.(*\1)./'
	done | LC_ALL=C sort >"$out/DEADCODE_report.txt"
