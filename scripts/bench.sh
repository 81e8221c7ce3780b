#!/usr/bin/env bash
# Performance and A/B benches, each emitting a JSON artifact.
#
#   ./scripts/bench.sh             # full runs: the scenario matrix
#                                  # (artifact_out/scorecards/*.json +
#                                  # summary.csv, E21),
#                                  # BENCH_planning.json
#                                  # (25/50/100/100-dispersed fleets),
#                                  # BENCH_traffic.json (25/50/100-
#                                  # balloon meshes, ≥5k aggregate
#                                  # flows, plus the 1M-flow
#                                  # hierarchical tier),
#                                  # BENCH_snf_ab.json (E18),
#                                  # BENCH_custody_ab.json (E19)
#                                  # and BENCH_sharding.json (E22:
#                                  # 1000-balloon sharded epoch vs the
#                                  # 100-balloon global budget),
#                                  # then the benchmark of record:
#                                  # `tssdn-e2e --all` (four whole-loop
#                                  # workloads, untraced + traced,
#                                  # artifact_out/e2e/results.json)
#   ./scripts/bench.sh --smoke     # quick runs, wired into verify.sh:
#                                  # planning writes no file but proves
#                                  # the bit-identity equivalence gate;
#                                  # the other bins still write their
#                                  # artifacts (full gates, smaller
#                                  # fleets/iters) — under
#                                  # artifact_out/, never over the
#                                  # committed full-mode BENCH_*.json
#                                  # at the repo root; `tssdn-e2e --all
#                                  # --smoke` runs 30-step windows
#                                  # (checks on, numbers not
#                                  # comparable with a full run)
#   ./scripts/bench.sh --out DIR   # write every artifact under DIR
#                                  # (created if missing) instead of
#                                  # the repo root; composes with
#                                  # --smoke. `tssdn-e2e` takes no
#                                  # destination: it always writes
#                                  # artifact_out/e2e/
#   ./scripts/bench.sh --only NAME # run just the scenario matrix,
#                                  # filtered to the named scenario
#                                  # (e.g. --only chaos_blackout);
#                                  # composes with --smoke/--out
#
# Every bin gets an explicit --out path — no bin-specific default can
# silently collide with another's artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=""
out_dir="."
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke="--smoke"; shift ;;
    --out)
      [ $# -ge 2 ] || { echo "bench.sh: --out needs a directory" >&2; exit 2; }
      out_dir="$2"; shift 2 ;;
    --only)
      [ $# -ge 2 ] || { echo "bench.sh: --only needs a scenario name" >&2; exit 2; }
      only="$2"; shift 2 ;;
    *) echo "bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
mkdir -p "$out_dir"

# Scenario matrix (E21): named end-to-end scenarios with per-scenario
# scorecards, floor assertions, and a rerun byte-identity gate.
# Writes <matrix_out>/scorecards/<name>.json + summary.csv; with the
# default repo-root out dir the scorecards land under artifact_out/
# next to the figure-bin exports. With --only this is the whole bench
# run — the scenario filter makes no sense for the other bins.
matrix_out="$out_dir"
[ "$out_dir" = "." ] && matrix_out="artifact_out"
cargo run --release -q -p tssdn-bench --bin scenario_matrix -- \
  ${smoke:+"$smoke"} ${only:+--only "$only"} --out "$matrix_out"
if [ -n "$only" ]; then
  exit 0
fi

# Planning: in smoke mode the bench is a pure equivalence gate and
# writes no artifact unless a destination was chosen explicitly.
planning_args=(${smoke:+"$smoke"})
if [ "$out_dir" != "." ] || [ -z "$smoke" ]; then
  planning_args+=(--out "$out_dir/BENCH_planning.json")
fi
cargo run --release -q -p tssdn-bench --bin planning_hot_path -- \
  ${planning_args[@]+"${planning_args[@]}"}

# Sharding scale (PR 9): identity gates (single-region collapse,
# worker independence) in both modes; in full mode also the epoch
# gate — one sharded 1000-balloon planning epoch must fit inside the
# measured 100-balloon global epoch. Like planning, smoke writes no
# artifact unless a destination was chosen explicitly.
sharding_args=(${smoke:+"$smoke"})
if [ "$out_dir" != "." ] || [ -z "$smoke" ]; then
  sharding_args+=(--out "$out_dir/BENCH_sharding.json")
fi
cargo run --release -q -p tssdn-bench --bin sharding_scale -- \
  ${sharding_args[@]+"${sharding_args[@]}"}

# Only full-mode numbers live at the repo root: a smoke run with the
# default out dir writes its traffic / A-B artifacts beside the
# scenario matrix under artifact_out/, so verify.sh leaves the
# committed BENCH_*.json untouched.
ab_out="$out_dir"
[ -n "$smoke" ] && ab_out="$matrix_out"
mkdir -p "$ab_out"

# The traffic bench always records the full 25/50/100 flat ladder
# plus the 1000-balloon × 1M-flow hierarchical tier (identity,
# lossless-collapse, tick-budget, and warm≤cold gates in both modes);
# smoke only shrinks the iteration count.
cargo run --release -q -p tssdn-bench --bin traffic_scale -- \
  ${smoke:+"$smoke"} --out "$ab_out/BENCH_traffic.json"

# E18 store-and-forward A/B: gates on rerun identity, strictly higher
# bulk delivery with buffering on, and an untouched Control class.
cargo run --release -q -p tssdn-bench --bin snf_ab -- \
  ${smoke:+"$smoke"} --out "$ab_out/BENCH_snf_ab.json"

# E19 custody-transfer A/B: gates on rerun identity, queued bits
# surviving a warned balloon loss (strictly more drained, strictly
# less backlog lost), an untouched Control class, and the extended
# conservation invariant in both arms.
cargo run --release -q -p tssdn-bench --bin custody_ab -- \
  ${smoke:+"$smoke"} --out "$ab_out/BENCH_custody_ab.json"

# The benchmark of record (BENCHMARK.json, crates/e2e/README.md): the
# four scenario workloads through `Orchestrator::run_until`, each
# untraced then traced in its own process, with the suite's own
# checks (traced-vs-untraced scorecard identity, exact counts). It
# runs last so a failed identity gate above is reported first.
cargo run --release -q -p tssdn-e2e -- --all ${smoke:+"$smoke"}
