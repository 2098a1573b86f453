#!/usr/bin/env bash
# Tier-1 CI gate for DenseVLC. Run from anywhere inside the repo:
#
#     ./scripts/ci.sh
#
# Steps, in order (fail fast):
#   1. gofmt        — no unformatted files
#   2. go vet       — standard static checks
#   3. go build     — everything compiles
#   4. lint fixtures — the analyzer test suite itself (fast, -short), so a
#                     broken analyzer fails before it can silently pass the
#                     repo in step 5
#   5. vlclint      — domain invariants: the six intraprocedural rules
#                     (determinism, maporder, floatcmp, errdrop, apipanic,
#                     unitsafety) plus the eight interprocedural rules over
#                     the module call graph (hotalloc, sharedmut, seedflow,
#                     ctxflow, lockorder, lockscope, chanleak, atomicmix),
#                     filtered through the audited baseline
#                     scripts/lint_baseline.json (see DESIGN.md
#                     "Interprocedural analysis" and "Concurrency
#                     discipline")
#   6. go test      — the full unit/integration/property/golden suite,
#                     with a statement-coverage profile (coverage.out);
#                     it includes internal/lint's TestHotpathAlignment,
#                     which fails when a testing.AllocsPerRun-pinned
#                     function is renamed or loses //lint:hotpath
#   7. coverage gate — total coverage must not fall below
#                     scripts/coverage_baseline.txt; raise the baseline
#                     when coverage durably improves, never lower it to
#                     make a PR pass
#   8. go test -race — every package, including the parallel experiment
#                     engine; the determinism test runs here so the
#                     byte-identical guarantee is checked under the race
#                     detector, and the transport/node/chaos suites assert
#                     the testutil goroutine-leak checker (chanleak's
#                     dynamic twin) after every Close/RunContext; the
#                     incremental-vs-scratch equivalence properties also get
#                     an explicit -race invocation (see below)
#   9. chaos smoke  — one fault-injected end-to-end run per engine
#                     (tx-blackout preset), a clock-skew run through the
#                     waveform data phase, plus the resilience experiment;
#                     goroutine teardown after each run is the leak
#                     checker's territory and is asserted by the -race
#                     suites in step 8
#  10. cluster-scale smoke — the building-scale clusterscale experiment at
#                     full size (N=1024 TXs, M=256 RXs, heuristic per
#                     cluster) under the race detector, time-bounded so a
#                     solver regression cannot hang the gate
#  11. churn smoke  — both engines under the workload engine (-churn), the
#                     asynchronous runtime with churn and chaos together,
#                     plus the churn experiment, all under the race detector
#                     and time-bounded: population churn exercises the
#                     handover and admission paths end to end
#  12. short fuzz   — a few seconds of the frame-codec, MAC-decode,
#                     Reed–Solomon block-decode and reference-equivalence,
#                     Manchester round-trip, correlation-peak reference-
#                     equivalence, chaos-spec, cluster-spec and
#                     workload-spec grammar fuzzers, enough to catch
#                     regressions on the seeded corpora plus fresh mutations
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> lint fixtures (analyzer test suite)"
go test -short ./internal/lint/

echo "==> vlclint ./... (baseline: scripts/lint_baseline.json)"
if ! go run ./cmd/vlclint -baseline scripts/lint_baseline.json ./...; then
    # Re-emit the unbaselined findings as JSON so CI can publish them as an
    # artifact (.github/workflows/ci.yml uploads vlclint-findings.json on
    # failure).
    go run ./cmd/vlclint -json -baseline scripts/lint_baseline.json ./... > vlclint-findings.json || true
    echo "vlclint: findings written to vlclint-findings.json" >&2
    exit 1
fi

echo "==> go test ./... (with coverage profile)"
go test -coverprofile=coverage.out ./...

echo "==> coverage gate"
total=$(go tool cover -func=coverage.out | awk '$1 == "total:" { gsub(/%/, "", $NF); print $NF }')
baseline=$(tr -d '[:space:]' < scripts/coverage_baseline.txt)
awk -v total="$total" -v baseline="$baseline" 'BEGIN {
    if (total + 0 < baseline + 0) {
        printf "coverage gate: total %.1f%% fell below the %.1f%% baseline (scripts/coverage_baseline.txt)\n", total, baseline > "/dev/stderr"
        exit 1
    }
    printf "coverage: %.1f%% of statements (baseline %.1f%%)\n", total, baseline
}'

echo "==> go test -race ./..."
go test -race ./...

# The -race pass above already runs TestParallelDeterminism, but run it once
# more at an elevated worker count so the gate exercises real contention even
# on few-core runners.
echo "==> determinism under -race (explicit)"
go test -race -run 'TestParallelDeterminism' ./internal/experiments/

# The incremental re-allocation machinery promises bit-identical results to
# from-scratch solves at every layer (column refresh, all-dirty workspace
# re-solve, triggered controller, batch solver). The full -race pass covers
# these, but run them once more explicitly so the equivalence contract is
# named in the gate and a future rename cannot silently drop it.
echo "==> incremental-vs-scratch equivalence under -race (explicit)"
go test -race -run 'TestIncrementalVsScratch' \
    ./internal/channel/ ./internal/scenario/ ./internal/cluster/ \
    ./internal/mac/ ./internal/alloc/ ./internal/workload/

# Chaos smoke: one fault-injected end-to-end run per engine. The tx-blackout
# preset kills every receiver's best server mid-run; the commands fail on any
# runtime error, and the dedicated chaos tests assert the recovery properties.
echo "==> chaos smoke (tx-blackout, both engines; clock-skew through the waveform data phase; resilience experiment)"
go run ./cmd/densevlc -rounds 4 -udp=false -chaos tx-blackout > /dev/null
go run ./cmd/densevlc -rounds 4 -udp=false -async -chaos tx-blackout > /dev/null
go run ./cmd/densevlc -rounds 4 -udp=false -waveform -chaos clock-skew > /dev/null
go run ./cmd/experiments -quick resilience > /dev/null

# Cluster-scale smoke: the full building floor (N=1024, M=256) through the
# sharded heuristic ladder, under the race detector. timeout(1) bounds the
# gate: the run finishes in seconds today, so ten minutes only trips on a
# genuine scaling regression or a deadlock in the per-cluster fan-out.
echo "==> cluster-scale smoke (N=1024, M=256, -race, time-bounded)"
timeout 600 go run -race ./cmd/experiments clusterscale > /dev/null

# Churn smoke: the workload engine end to end through both engines (the
# synchronous simulator with the incremental trigger, and the asynchronous
# goroutine-per-node runtime, alone and composed with a chaos schedule)
# plus the churn experiment, all under the race detector. timeout(1) bounds
# the gate the same way the cluster-scale smoke is bounded.
echo "==> churn smoke (both engines + churn experiment, -race, time-bounded)"
timeout 600 go run -race ./cmd/densevlc -rounds 6 -udp=false -churn -arrival-rate 1.5 -fleet 6 -incremental > /dev/null
timeout 600 go run -race ./cmd/densevlc -rounds 4 -udp=false -async -churn -arrival-rate 2 -fleet 4 > /dev/null
timeout 600 go run -race ./cmd/densevlc -rounds 8 -udp=false -async -churn -arrival-rate 2 -fleet 4 -chaos rx-shadow > /dev/null
timeout 600 go run -race ./cmd/experiments -quick churn > /dev/null

# Short fuzz budget: -fuzz requires exactly one matching target per package,
# so each fuzzer gets its own invocation.
echo "==> short fuzz (frame codec, Reed–Solomon decoder, Manchester demodulator, correlation peak, chaos spec, cluster spec, workload spec)"
go test -run='^$' -fuzz='^FuzzDownlinkRoundTrip$' -fuzztime=10s ./internal/frame/
go test -run='^$' -fuzz='^FuzzDecodeMAC$' -fuzztime=5s ./internal/frame/
go test -run='^$' -fuzz='^FuzzDecodeBlock$' -fuzztime=5s ./internal/rs/
go test -run='^$' -fuzz='^FuzzDecodeBlockMatchesReference$' -fuzztime=5s ./internal/rs/
go test -run='^$' -fuzz='^FuzzManchesterRoundTrip$' -fuzztime=10s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzManchesterDecode$' -fuzztime=5s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzCorrelationPeakMatchesReference$' -fuzztime=5s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzChaosSpec$' -fuzztime=5s ./internal/chaos/
go test -run='^$' -fuzz='^FuzzClusterSpec$' -fuzztime=5s ./internal/cluster/
go test -run='^$' -fuzz='^FuzzWorkloadSpec$' -fuzztime=5s ./internal/workload/

echo "==> ci.sh: all gates passed"
