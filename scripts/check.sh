#!/usr/bin/env bash
# Repository gate: vet, build, full tests, race-checked tests for the
# concurrency-sensitive packages, and the observability overhead guard
# (asserts an idle event bus adds <2% to a RunSingle-class benchmark).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (obs, sim, fault, feedback, alloc, server, persist, cli, parallel, replica, cluster, failover)"
go test -race ./internal/obs/... ./internal/sim/... ./internal/fault/... \
    ./internal/feedback/... ./internal/alloc/... ./internal/server/... \
    ./internal/persist/... ./internal/cli/... ./internal/parallel/... \
    ./internal/replica/... ./internal/cluster/... ./internal/failover/...

echo "== parallel-step determinism guard (serial vs workers {1,2,8}, faults + snapshot/restore)"
# Bit-identical results, event streams, and statuses at every StepWorkers
# setting — the contract that makes -step-workers a pure execution knob.
go test -race -count=1 \
    -run 'TestParallelStepEquivalence|TestParallelSnapshotRestoreEquivalence' \
    ./internal/sim/

echo "== one apply path guard (boot on every record prefix == follower, recovery, replication)"
# Leader, follower and boot recovery change daemon state through the same
# per-kind journal handlers: a daemon booted on any record prefix must stand
# where a follower that applied it stands, and recover to the reference.
go test -race -count=1 -run 'TestRecoverEveryRecordPrefix|TestRecovery|TestFollower' ./internal/server/
go test -race -count=1 -run 'TestClusterCrashRecovery' ./internal/cluster/

echo "== benchmark harness checks (perfbench)"
# The benchmark is its own module (perfbench/, run by perfbench/run.sh); its
# tests pin the workload checks and statistics without running a workload.
(cd perfbench && go test .)

echo "== journal decoder fuzz (5s)"
go test -run '^$' -fuzz FuzzScanBytes -fuzztime 5s ./internal/persist/

echo "== deterministic replay guard (same seed+spec => identical chaos report)"
a="$(go run ./cmd/abgexp -exp chaos -scale small)"
b="$(go run ./cmd/abgexp -exp chaos -scale small)"
if [ "$a" != "$b" ]; then
    echo "chaos report is not replay-deterministic:" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
    exit 1
fi

echo "== event-bus overhead guard (<2% on idle bus)"
ABG_BENCH_GUARD=1 go test -run TestEventBusOverheadGuard -v ./internal/sim/ | grep -v '^=== '

echo "== service e2e smoke (live abgd on a random port, virtual time)"
# Boots the daemon binary, submits a batch over HTTP, drains on SIGTERM, and
# asserts the live run's makespan and responses match the batch simulator.
go test -run 'TestE2E' -count=1 ./internal/server/

echo "== load-generator smoke (>=1000 closed-loop submissions, ABG vs A-Greedy)"
go run ./cmd/abgload -selftest -jobs 1000 -clients 32 -kind batch -shrink 8 -P 64 -L 200

echo "== cluster load smoke (2-shard front end, routed + drained clean)"
# Drives the sharded front door closed-loop; abgload exits nonzero unless
# every job completes and the drain is clean. The JSON summary must carry
# the cluster-only fields (per-shard admits, routing imbalance).
clusterjson="$(go run ./cmd/abgload -cluster 2 -jobs 200 -clients 16 -kind batch -shrink 8 -P 64 -L 200 -json)"
grep -q '"shardAdmits"' <<<"$clusterjson" || {
    echo "cluster load summary lacks shardAdmits:" >&2
    printf '%s\n' "$clusterjson" >&2
    exit 1
}

echo "== kill-recover smoke (SIGKILL abgd mid-run, recover from journal, compare to reference)"
# Builds the real binaries, crashes the daemon at random quanta, and asserts
# the recovered run's per-job results DeepEqual an uninterrupted replay of
# the journal — fault-free and under an active fault plan.
bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/abgd" ./cmd/abgd
go build -o "$bindir/abgload" ./cmd/abgload
"$bindir/abgload" -crash -abgd "$bindir/abgd" -jobs 30 -crashes 3 -timeout 3m
"$bindir/abgload" -crash -abgd "$bindir/abgd" -jobs 30 -crashes 3 -timeout 3m \
    -fault "drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11"

echo "== failover chaos soak (3 leader SIGKILLs, self-healing elections, compare to reference)"
# Three-member group, every member running the election supervisor. The soak
# SIGKILLs whichever daemon leads, three times, with zero manual promotes:
# the survivors must elect the most-caught-up follower under a new fencing
# epoch while one group-aware client rides every outage (reads rotate,
# writes re-discover the leader). Final results must DeepEqual an
# uninterrupted replay of the last leader's journal, and every member's
# journal must be a byte copy of it — clean and faulted.
"$bindir/abgload" -failover -abgd "$bindir/abgd" -jobs 24 -kills 3 -timeout 3m
"$bindir/abgload" -failover -abgd "$bindir/abgd" -jobs 24 -kills 3 -timeout 3m \
    -fault "drop=0.3,cap=churn:0.5:4,seed=5"

echo "== all checks passed"
