#!/bin/sh
# Tiered verification for the repo. Each tier's commands are written
# here once; CI runs one job per tier, each calling this script with its
# tier number.
#
#   scripts/verify.sh          # tier 1 only: build + tests (the CI gate)
#   scripts/verify.sh N        # tier N alone, N in 1-8
#   scripts/verify.sh all      # tiers 1-8: + vet/race, + fault determinism,
#                              #   + oracle soak, + chaos, + multilevel,
#                              #   + batch/async daemon-client e2e, + cluster
#
# Tier 1  gofmt -l (must list nothing) + go build + go test — must
#         always pass (ROADMAP gate), plus go vet + go test of the
#         perfbench benchmark module
# Tier 2  go vet + go test -race         — static checks and race detection,
#         plus a 1-iteration Solve benchmark smoke run, the serving
#         layer twice more, the job-retention and drain tests x20, the
#         link check (scripts/linkcheck: every function a non-test file
#         declares is linked by a shipped binary or allowlisted) and the
#         paper tables (prbench's default run must reproduce results/
#         byte for byte)
# Tier 3  go test -run 'Fault|Differential|Determinism' -count=5
#         — re-runs the seeded fault-injection tests, the differential
#         greedy-vs-exact validation and the parallel-search determinism
#         tests five times over the packages that depend on seed
#         stability, so any hidden source of nondeterminism (map order,
#         shared RNG, time dependence, scheduling) shows up as a flaky
#         -count run.
# Tier 4  prcheck -soak — the independent verification oracle (DESIGN.md
#         §10) re-derives feasibility, semantics and replayed cost for
#         200 seeded synthetic solves, plus metamorphic relations and a
#         differential pass against the exact solver. Deterministic for
#         the fixed seed; the nightly CI job runs more seeds.
# Tier 5  go test -run 'Chaos' -count=2 — the crash-safety end-to-end
#         (DESIGN.md §11): kill-and-restart cycles over the persistent
#         store under seeded disk-fault injection, asserting
#         byte-identity with `prpart -json`, ledger integrity after
#         every recovery and counter determinism across seeded runs.
# Tier 6  go test -run Multilevel -count=2 — the multilevel engine's
#         differential, property, metamorphic and huge-scale suites
#         (DESIGN.md §12), including the 10^3-mode acceptance solve at
#         Workers=4, twice over, so the seeded coarsening and
#         refinement chain proves bit-stable across processes. Then the
#         parallel-refinement identity contract (DESIGN.md §14) under
#         the race detector: Workers must change wall-clock time and
#         nothing else, so the serial-vs-parallel suites re-run with
#         -race over the partition and multilevel packages, together
#         with the pooled-scratch identity suites (DESIGN.md §9). Then
#         the committed benchmark baselines are gated along the chain
#         pr3 -> pr4 (-tol 10: the incremental engine must keep every
#         headline metric byte-identical), pr4 -> pr7 and pr7 -> pr9
#         (-tol 25: reports from different sessions carry cross-host
#         drift; a perf PR must not regress the huge tier), and a fresh
#         prbench -json report is compared with itself to check the
#         report schema and the comparator end to end.
# Tier 7  go test -run Remote — the batch/async daemon-client e2e
#         (DESIGN.md §13): the 100-design sweep driven through
#         /v1/solve/batch and the async job API against a booted
#         daemon, asserting metric-identical outcomes to the
#         in-process sweep — including across a mid-sweep daemon
#         kill/restart with no lost or duplicated jobs — plus both
#         prbench -daemon surfaces as CLI smoke.
# Tier 8  the cluster suite (DESIGN.md §15): the multi-node chaos e2e
#         under the race detector — three shared-nothing daemons on one
#         consistent-hash ring must answer byte-identically to
#         `prpart -json` from every node, survive a mid-sweep node
#         kill with no lost or corrupted responses, and never serve
#         bad bytes under seeded peer-transport fault injection — then
#         the seeded determinism contract -count=3 over the cluster
#         unit suites (same seeds => identical cluster.* counters),
#         and the benchmark baseline gate pr9 -> pr10 (solve metrics
#         must stay byte-identical: clustering serves results, it must
#         not change them).
set -e
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

tier1() {
	echo "== tier 1: gofmt + build + test =="
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l lists unformatted files:"
		echo "$unformatted"
		exit 1
	fi
	go build ./...
	go test ./...
	# perfbench is a module of its own, so ./... never builds it.
	(cd perfbench && go vet . && go test .)
}

tier2() {
	echo "== tier 2: vet + race =="
	go vet ./...
	go test -race ./...

	echo "== tier 2: solver benchmark smoke =="
	# One iteration of each Solve benchmark: compiles the benchmark
	# harness and catches crashes in the allocation-tracked hot path
	# without paying for a full measurement run.
	go test -run '^$' -bench Solve -benchtime 1x ./internal/partition/

	echo "== tier 2: serving-layer race re-runs (x2) =="
	# The serve suite is the repo's most concurrency-heavy code (worker
	# pool, singleflight, LRU, drain); run it twice under the detector so
	# scheduling-dependent races get a second chance to appear.
	go test -race -count=2 ./internal/serve/ ./cmd/prpartd/ ./cmd/prpart/

	echo "== tier 2: retention-order, drain and job-withdrawal stress (x20) =="
	# Two tests that once failed only under load: a job evicted by
	# retention must never be live once Done fires, and a drain probe
	# admitted before the drain must not hang the in-flight solve. The
	# next two pin a job's withdrawal from a flight it leads: a DELETE
	# cancels the job alone, its own deadline records 504. The last pins
	# the same rule for a batch member waiting for bulk capacity.
	go test -race -count=20 -run 'TestJobPersistAndLoad|TestGracefulShutdownDrains|TestJobOwnTimeoutIs504|TestFollowerOutlivesJobCancel|TestFollowerOutlivesBatchLeaderBlockedInAdmission' ./internal/jobs/ ./internal/serve/

	echo "== tier 2: link check =="
	go run ./scripts/linkcheck

	echo "== tier 2: paper tables pinned to results/ =="
	# The default prbench run (seed 1, n=1000) must regenerate every
	# committed CSV and the text report byte for byte: a change that
	# moves a paper number updates results/ in the same change.
	mkdir "$tmp/tables"
	go run ./cmd/prbench -csv "$tmp/tables" > "$tmp/tables/prbench_all.txt"
	diff -r -x 'BENCH_*' results "$tmp/tables"
}

tier3() {
	echo "== tier 3: fault-injection, differential and determinism re-runs (x5) =="
	go test -run 'Fault|Differential|Determinism' -count=5 \
		./internal/faults/ ./internal/icap/ ./internal/adaptive/ ./cmd/prsim/ ./internal/partition/
}

tier4() {
	echo "== tier 4: verification-oracle soak =="
	go run ./cmd/prcheck -soak -seed 1 -n 200
}

tier5() {
	echo "== tier 5: crash-safety chaos (x2) =="
	# Honours PRPART_CHAOS_DIR: the daemon loop keeps its store there.
	go test -run 'Chaos' -count=2 ./internal/store/ ./internal/serve/ ./cmd/prpartd/
}

tier6() {
	echo "== tier 6: multilevel engine re-runs (x2) =="
	# Includes the 10^3-mode acceptance solve at Workers=4
	# (TestMultilevelParallelIdentityHuge). Honours
	# PRPART_MULTILEVEL_ARTIFACTS: failing designs are dumped there.
	go test -run Multilevel -count=2 ./internal/multilevel/

	echo "== tier 6: parallel-refinement identity under the race detector =="
	go test -race -run 'ParallelIdentity|RefineWorkers|PooledScratch|ScanMemo|Interned|TransferRows' ./internal/multilevel/ ./internal/partition/

	echo "== tier 6: benchmark baseline gates (pr3 -> pr4 -> pr7 -> pr9) =="
	go run ./scripts -tol 10 results/BENCH_pr3.json results/BENCH_pr4.json
	go run ./scripts -tol 25 results/BENCH_pr4.json results/BENCH_pr7.json
	go run ./scripts -tol 25 results/BENCH_pr7.json results/BENCH_pr9.json

	echo "== tier 6: fresh benchmark report against itself =="
	go run ./cmd/prbench -json -rev "${GITHUB_SHA:-local}" -n 100 -o "$tmp/BENCH_fresh.json"
	go run ./scripts -tol 10 "$tmp/BENCH_fresh.json" "$tmp/BENCH_fresh.json"
}

tier7() {
	echo "== tier 7: batch/async daemon sweep e2e (kill/restart) =="
	# Honours PRPART_JOBS_ARTIFACTS: the shared store is pinned there.
	go test -run Remote ./internal/experiments/
	go run ./cmd/prbench -exp claims -n 40 -daemon > /dev/null
	go run ./cmd/prbench -exp claims -n 40 -daemon -daemon-mode async > /dev/null
}

tier8() {
	echo "== tier 8: cluster chaos e2e under the race detector =="
	# Honours PRPART_CLUSTER_DIR: every node's store is pinned there.
	go test -race -run Cluster ./internal/e2e/ ./internal/serve/ ./cmd/prpartd/

	echo "== tier 8: cluster seeded determinism re-runs (x3) =="
	go test -run 'Ring|Peer|FaultTransport' -count=3 ./internal/cluster/

	echo "== tier 8: benchmark baseline gate (pr9 -> pr10) =="
	go run ./scripts -tol 25 results/BENCH_pr9.json results/BENCH_pr10.json
}

case "${1:-1}" in
all) for t in 1 2 3 4 5 6 7 8; do "tier$t"; done ;;
[1-8]) "tier$1" ;;
*)
	echo "usage: scripts/verify.sh [1-8|all]" >&2
	exit 2
	;;
esac

echo "verify: OK"
