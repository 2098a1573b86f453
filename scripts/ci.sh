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
#                     unitsafety) plus the four interprocedural rules over
#                     the module call graph (hotalloc, ctxflow, lockorder,
#                     lockscope); accepted findings carry inline
#                     //lint:ignore directives, and a directive that
#                     covers no finding fails the step too (see DESIGN.md
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
#                     detector over every registered generator (the gate
#                     for data races and shared random streams), and the
#                     transport/node/chaos/mac/parallel suites assert the
#                     testutil goroutine-leak checker after every
#                     Close/RunContext/Map (the gate for leaked
#                     goroutines); the incremental-vs-scratch equivalence
#                     properties also get an explicit -race invocation
#                     (see below), and so does
#                     the runtime agreement: sim and node, which share one
#                     epoch driver, must score every round bit-identically,
#                     static and under churn, three runs over
#   9. chaos smoke  — one fault-injected end-to-end run per engine
#                     (tx-blackout preset; the asynchronous run under the
#                     race detector), a full blockage of one receiver
#                     through the asynchronous runtime under the race
#                     detector, a clock-skew run through the waveform
#                     data phase, plus the resilience experiment;
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
#  12. UDP smoke    — the CLI's default path over UDP loopback, once
#                     synchronous and once asynchronous under the race
#                     detector, time-bounded: every other densevlc smoke runs
#                     in memory (-udp=false); then two synchronous UDP runs
#                     at once, which must print what each prints alone (the
#                     downlink multicast of one run never reaches the other)
#  13. short fuzz   — a few seconds each of the downlink round-trip,
#                     MAC-decode and downlink-decode fuzzers (frame), the
#                     control-message codecs (report, ack, allocation, pilot
#                     schedule), Reed–Solomon block-decode, encode/decode
#                     round-trip and reference-equivalence, Manchester
#                     round-trip and decode, correlation-peak (any
#                     template, and the chip templates the screened search
#                     takes), waveform Transmit and Lambertian gain reference-equivalence,
#                     the optimal solver's fused line-search step against
#                     the separate project/value/move calls, and the
#                     chaos-spec and cluster-spec grammars, enough
#                     to catch regressions on the seeded corpora plus fresh
#                     mutations
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

echo "==> vlclint ./..."
if ! go run ./cmd/vlclint ./...; then
    # Re-emit the findings as JSON so CI can publish them as an
    # artifact (.github/workflows/ci.yml uploads vlclint-findings.json on
    # failure).
    go run ./cmd/vlclint -json ./... > vlclint-findings.json || true
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

# Both runtimes run one epoch driver (sim.Drive), which keeps one round
# record (sim.RoundMetrics) for either, and must agree round for round on
# the fields both fill: throughput bits, active TXs, chaos events, dark,
# dead and starved counts, report arrival and, under churn, population
# steps. The full -race pass covers these tests; run them again, three
# times, so the runtime contract is named in the gate and a record that
# depends on goroutine scheduling cannot pass on one lucky run.
echo "==> runtime agreement under -race (explicit)"
go test -race -count=3 -run 'TestRuntimesAgree' ./internal/node/

# Chaos smoke: one fault-injected end-to-end run per engine. The tx-blackout
# preset kills every receiver's best server mid-run; the commands fail on any
# runtime error, and the dedicated chaos tests assert the recovery properties.
# The asynchronous runs go under the race detector: their goroutine-per-node
# runtime is where a data race in the fault path would show. The full
# blockage leaves RX 0 unheard by every transmitter for rounds 2-4; the run
# must carry on serving the others and serve RX 0 again from round 5.
echo "==> chaos smoke (tx-blackout, both engines, async under -race; full RX blockage, async under -race; clock-skew through the waveform data phase; resilience experiment)"
go run ./cmd/densevlc -rounds 4 -udp=false -chaos tx-blackout > /dev/null
go run -race ./cmd/densevlc -rounds 4 -udp=false -async -chaos tx-blackout > /dev/null
go run -race ./cmd/densevlc -rounds 8 -udp=false -async -chaos '2:rxblock:0:0;5:rxunblock:0' > /dev/null
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
timeout 600 go run -race ./cmd/densevlc -rounds 6 -udp=false -churn -arrival-rate 1.5 -fleet 6 -trigger-delta 0.05 > /dev/null
timeout 600 go run -race ./cmd/densevlc -rounds 4 -udp=false -async -churn -arrival-rate 2 -fleet 4 > /dev/null
timeout 600 go run -race ./cmd/densevlc -rounds 8 -udp=false -async -churn -arrival-rate 2 -fleet 4 -chaos rx-shadow > /dev/null
timeout 600 go run -race ./cmd/experiments -quick churn > /dev/null

# UDP smoke: cmd/densevlc's default transport is UDP over loopback, which the
# smokes above bypass with -udp=false. Run it once per engine, the
# asynchronous one under the race detector, bounded like the smokes above.
echo "==> UDP smoke (default transport, both engines, async under -race, time-bounded)"
timeout 600 go run ./cmd/densevlc -rounds 4 > /dev/null
timeout 600 go run -race ./cmd/densevlc -rounds 4 -async > /dev/null

# Two UDP runs at once, one on the seed of a solo run and one on another
# seed. Each joins the same multicast group on its own port; a frame that
# crossed between them would change the rounds. Every output but its first
# line (the controller's address) must equal the solo run with its seed.
echo "==> UDP smoke (two concurrent runs match their solo runs)"
udpdir=$(mktemp -d)
trap 'rm -rf "$udpdir"' EXIT
go build -o "$udpdir/densevlc" ./cmd/densevlc
for seed in 1 2; do
    timeout 600 "$udpdir/densevlc" -rounds 6 -seed "$seed" | tail -n +2 > "$udpdir/solo-$seed.txt"
done
timeout 600 "$udpdir/densevlc" -rounds 6 -seed 1 > "$udpdir/both-1.txt" &
pid1=$!
timeout 600 "$udpdir/densevlc" -rounds 6 -seed 2 > "$udpdir/both-2.txt" &
pid2=$!
wait "$pid1"
wait "$pid2"
for seed in 1 2; do
    if ! tail -n +2 "$udpdir/both-$seed.txt" | diff "$udpdir/solo-$seed.txt" - >&2; then
        echo "UDP smoke: the concurrent seed-$seed run differs from its solo run" >&2
        exit 1
    fi
done

# Short fuzz budget: -fuzz requires exactly one matching target per package,
# so each fuzzer gets its own invocation.
echo "==> short fuzz (frame codec, control-message codecs, Reed–Solomon codec, Manchester demodulator, correlation peak, waveform Transmit, Lambertian gain, solver step, chaos spec, cluster spec)"
go test -run='^$' -fuzz='^FuzzDownlinkRoundTrip$' -fuzztime=10s ./internal/frame/
go test -run='^$' -fuzz='^FuzzDecodeMAC$' -fuzztime=5s ./internal/frame/
go test -run='^$' -fuzz='^FuzzDecodeDownlink$' -fuzztime=5s ./internal/frame/
go test -run='^$' -fuzz='^FuzzControlCodecs$' -fuzztime=5s ./internal/mac/
go test -run='^$' -fuzz='^FuzzDecodeBlock$' -fuzztime=5s ./internal/rs/
go test -run='^$' -fuzz='^FuzzEncodeDecode$' -fuzztime=5s ./internal/rs/
go test -run='^$' -fuzz='^FuzzDecodeBlockMatchesReference$' -fuzztime=5s ./internal/rs/
go test -run='^$' -fuzz='^FuzzManchesterRoundTrip$' -fuzztime=10s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzManchesterDecode$' -fuzztime=5s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzCorrelationPeakMatchesReference$' -fuzztime=5s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzCorrelationPeakChipTemplate$' -fuzztime=5s ./internal/dsp/
go test -run='^$' -fuzz='^FuzzTransmitMatchesReference$' -fuzztime=5s ./internal/phy/
go test -run='^$' -fuzz='^FuzzGainMatchesReference$' -fuzztime=5s ./internal/optics/
go test -run='^$' -fuzz='^FuzzStepMatchesSeparate$' -fuzztime=5s ./internal/alloc/
go test -run='^$' -fuzz='^FuzzChaosSpec$' -fuzztime=5s ./internal/chaos/
go test -run='^$' -fuzz='^FuzzClusterSpec$' -fuzztime=5s ./internal/cluster/

echo "==> ci.sh: all gates passed"
