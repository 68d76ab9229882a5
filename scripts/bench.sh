#!/usr/bin/env bash
# bench.sh — measure the committed hot-path benchmarks against a paired
# baseline and regenerate BENCH_fig1.json at the repository root.
#
# Usage: scripts/bench.sh [reps] [pre-commit]
#
# Four benchmarks are tracked:
#   fig1_full    BenchmarkFig1Cell        single Figure-1 cell, full fidelity
#   fig1_sampled BenchmarkFig1CellSampled long-measure cell, sampled fidelity
#   l2_heavy     BenchmarkCellL2Heavy     8-core Niagara cell (L2-bound)
#   dram_cell    BenchmarkDRAMCell        fig1_full over the DRAM model (frfcfs)
#
# "pre" is pre-commit (default HEAD, the parent of an uncommitted change);
# "post" is the working tree. Each side's test binary is built once — pre
# from a clean export of the commit — and the two are run alternately,
# `reps` times per benchmark (default 5), swapping which side goes first
# every rep, with -benchtime 4x -benchmem under GOMAXPROCS=1 (the repo's
# convention for committed numbers). Shared hosts drift by tens of percent
# across hours, so only runs paired in the same window are comparable. The
# minimum ns/op of each side is recorded: every source of interference only
# ever slows a run down. B/op and allocs/op are effectively deterministic
# and are taken from the same run. dram_over_fig1_pct is the DRAM model's
# overhead, dram_cell over fig1_full, on each side (see overhead below).
#
# CI's bench-smoke job gates allocs/op and B/op against the committed
# fig1_full post values.
set -euo pipefail
cd "$(dirname "$0")/.."

reps="${1:-5}"
pre_commit="$(git rev-parse --short "${2:-HEAD}")"
benches=(BenchmarkFig1Cell BenchmarkDRAMCell BenchmarkFig1CellSampled BenchmarkCellL2Heavy)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/pre"
git archive "$pre_commit" | tar -x -C "$work/pre"
(cd "$work/pre" && go test -c -o "$work/pre.test" .)
go test -c -o "$work/post.test" .

# run <pre|post> <bench>: one rep, its result line appended to $work/<side>.<bench>
run() {
  local dir=.
  if [ "$1" = pre ]; then dir="$work/pre"; fi
  (cd "$dir" && GOMAXPROCS=1 "$work/$1.test" -test.run '^$' -test.bench "^${2}\$" \
    -test.benchtime 4x -test.benchmem -test.timeout 30m) |
    awk -v b="$2" '$1 == b { print }' >>"$work/$1.$2"
}

for rep in $(seq 1 "$reps"); do
  for b in "${benches[@]}"; do
    if [ $((rep % 2)) -eq 1 ]; then
      run pre "$b"
      run post "$b"
    else
      run post "$b"
      run pre "$b"
    fi
  done
done

# best <pre|post> <bench> -> "ns bytes allocs" (min-ns rep)
best() {
  awk '
    {
      for (i = 1; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      if (min == "" || ns + 0 < min + 0) { min = ns; mbytes = bytes; mallocs = allocs }
    }
    END { print min, mbytes, mallocs }
  ' "$work/$1.$2"
}

# overhead <pre|post> -> dram_cell over fig1_full in percent: the median over
# reps of each rep's ratio (one rep's two runs are seconds apart, so a slow
# stretch of the host inflates both; the ratio of the two minimums could
# pair runs from different stretches)
overhead() {
  local ns='{ for (i = 1; i <= NF; i++) if ($i == "ns/op") print $(i-1) }'
  paste <(awk "$ns" "$work/$1.BenchmarkFig1Cell") <(awk "$ns" "$work/$1.BenchmarkDRAMCell") |
    awk '{ print 100 * ($2 / $1 - 1) }' | sort -g |
    awk '{ v[NR] = $1 } END { printf "%.1f", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# block <key> <bench> [,]
block() {
  local key="$1" bench="$2" comma="${3:-}"
  read -r pns pbytes pallocs <<<"$(best pre "$bench")"
  read -r ns bytes allocs <<<"$(best post "$bench")"
  cat <<EOF
    "$key": {
      "benchmark": "$bench",
      "pre": {
        "commit": "$pre_commit",
        "ns_per_op": $pns,
        "bytes_per_op": $pbytes,
        "allocs_per_op": $pallocs
      },
      "post": {
        "ns_per_op": $ns,
        "bytes_per_op": $bytes,
        "allocs_per_op": $allocs
      },
      "improvement_pct": $(awk -v a="$pns" -v b="$ns" 'BEGIN { printf "%.1f", 100 * (1 - b / a) }')
    }$comma
EOF
}

pre_over=$(overhead pre)
post_over=$(overhead post)

{
  cat <<EOF
{
  "method": "min of $reps runs each, go test -benchtime 4x -benchmem, GOMAXPROCS=1; pre = commit $pre_commit, its test binary run alternately with post's in one time window; dram_over_fig1_pct = median over reps of each rep's dram_cell/fig1_full ratio",
  "cells": {
    "fig1_full": "xeon/default/MediaWiki(rw)/8 cores, scale 64, warmup 1, measure 2",
    "fig1_sampled": "xeon/default/MediaWiki(rw)/8 cores, scale 32, warmup 1, measure 64, fidelity sampled",
    "l2_heavy": "niagara/default/MediaWiki(rw)/8 cores, scale 64, warmup 1, measure 2",
    "dram_cell": "fig1_full with memsched frfcfs: the banked DRAM model under the same cell"
  },
  "benchmarks": {
EOF
  block fig1_full BenchmarkFig1Cell ,
  block dram_cell BenchmarkDRAMCell ,
  block fig1_sampled BenchmarkFig1CellSampled ,
  block l2_heavy BenchmarkCellL2Heavy
  cat <<EOF
  },
  "dram_over_fig1_pct": {
    "pre": $pre_over,
    "post": $post_over
  }
}
EOF
} >BENCH_fig1.json

read -r full _ <<<"$(best post BenchmarkFig1Cell)"
echo "BENCH_fig1.json: fig1_full ${full} ns/op; dram_cell ${post_over}% over fig1_full (pre ${pre_over}%)"
