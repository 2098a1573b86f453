#!/usr/bin/env bash
# Profile the optimal-allocator hot path: runs the Fig. 11 heuristic-vs-
# optimal sweep benchmark under the CPU and heap profilers and prints the
# top-10 flat hot spots of each. Artefacts land in profiles/ (gitignored)
# for interactive follow-up with `go tool pprof`. Usage:
#
#     ./scripts/profile.sh [bench-regexp]
#
# The default regexp is the Fig. 11 sweep — the macro workload the PR 4
# fast-path work targets; pass e.g. 'GlobalDecision1024$' to profile a single
# building-scale allocation decision instead.
set -euo pipefail

cd "$(dirname "$0")/.."

bench="${1:-Fig11HeuristicVsOptimal$}"
mkdir -p profiles

echo "==> go test -bench '$bench' with -cpuprofile/-memprofile"
go test -run='^$' -bench "$bench" -benchtime=1x -count=1 \
    -cpuprofile profiles/cpu.out -memprofile profiles/mem.out \
    -o profiles/bench.test .

echo
echo "==> top-10 flat CPU"
go tool pprof -top -flat -nodecount=10 profiles/bench.test profiles/cpu.out

echo
echo "==> top-10 flat allocated space"
go tool pprof -top -flat -sample_index=alloc_space -nodecount=10 profiles/bench.test profiles/mem.out

echo
echo "==> profiles kept in profiles/ — e.g. go tool pprof profiles/bench.test profiles/cpu.out"
