#!/usr/bin/env bash
# A/B the whole-loop benchmark (BENCHMARK.json) against another revision.
#
#   ./scripts/ab.sh BASE_REV [--pairs N] [--seed S] [--workload W]... [--layer METRIC]... [--stages]
#                            # defaults: 10 pairs, seed 20220822, all four workloads, no layer rows,
#                            # no stage table
#
# Exports BASE_REV (git archive) into the ignored .bench_build/ab-base, builds
# `tssdn-e2e` there and here, and for each workload runs
# `tssdn-e2e --workload W --trace 0` N times on each side, alternating which
# side goes first. Exits non-zero if any pair's `scorecard` objects differ byte
# for byte. Prints, per workload x end-to-end metric, both medians, their ratio
# tree/base, the base's inter-quartile range, how many pairs the tree won and a
# verdict by BENCHMARK.json's own `better` / `bound` (read, never edited):
#   worse>bound  the tree's median is worse than the base's by more than the bound
#   unresolved   the base's IQR alone is wider than the bound (and the tree's
#                runs are not all better than all of the base's)
#   ok           otherwise
# and exits non-zero on any `worse>bound`. Every run's result line is kept in
# artifact_out/e2e/ab_runs.txt. With `--layer METRIC` (repeatable; a name from
# BENCHMARK.json's `per_layer`, e.g. core.solver.solve_ms), one traced run per
# side and workload follows the untraced pairs and the named metrics are printed
# side by side — where the saving appears, or that a count repeats exactly. One
# traced run is a reading, not a distribution. With `--stages`, `scenario_matrix`
# is built on both sides too and, per workload, N more alternating runs of
# `scenario_matrix --spec` (the workload's spec at seed S, from 00:00 to its
# horizon rather than the e2e window) give the before/after profile: each
# side's median wall seconds and median share of each `Orchestrator::stage_wall`
# stage, side by side (raw lines in artifact_out/e2e/ab_stages.txt). Not part
# of verify.sh or CI.
set -euo pipefail
cd "$(dirname "$0")/.."
usage() { echo "usage: ab.sh BASE_REV [--pairs N] [--seed S] [--workload W]... [--layer METRIC]... [--stages]" >&2; exit 2; }
[ $# -ge 1 ] || usage
base_rev="$1"; shift
pairs=10; seed=20220822; workloads=(); layers=(); stages=0
while [ $# -gt 0 ]; do
  case "$1" in
    --stages) stages=1; shift ;;
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --workload) workloads+=("${2:?}"); shift 2 ;;
    --layer) layers+=("${2:?}"); shift 2 ;;
    *) usage ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(dense50_morning flows24k_day kenya12_3day satdark100_day)
for m in "${layers[@]}"; do
  grep -qF "\"name\": \"$m\"" BENCHMARK.json || { echo "ab.sh: --layer $m: not a metric in BENCHMARK.json" >&2; exit 2; }
done
tree="$PWD"; base="$tree/.bench_build/ab-base"; runs="$tree/artifact_out/e2e/ab_runs.txt"
mkdir -p "$base" "$(dirname "$runs")"; : > "$runs"
# A fresh export of BASE_REV; its target/ is kept so a rerun builds incrementally.
find "$base" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
git archive "$base_rev" | tar -x -C "$base"
(cd "$base" && cargo build --release -q -p tssdn-e2e)
cargo build --release -q -p tssdn-e2e
if [ "$stages" = 1 ]; then
  (cd "$base" && cargo build --release -q -p tssdn-bench --bin scenario_matrix)
  cargo build --release -q -p tssdn-bench --bin scenario_matrix
fi

# run SIDE DIR WORKLOAD: one untraced run; its result line goes to $runs.
run() {
  local line
  line=$(cd "$2" && ./target/release/tssdn-e2e --workload "$3" --seed "$seed" --trace 0 2>/dev/null | tail -n 1)
  echo "$1 $3 $line" >> "$runs"
  sed -n '/"scorecard"/,$p' "$2/artifact_out/e2e/$3.untraced.json" > "$tree/.bench_build/ab-$1.scorecard"
}
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run base "$base" "$w"; run tree "$tree" "$w"
    else run tree "$tree" "$w"; run base "$base" "$w"; fi
    cmp -s "$tree/.bench_build/ab-base.scorecard" "$tree/.bench_build/ab-tree.scorecard" ||
      { echo "ab.sh: $w pair $i: scorecards differ" >&2; exit 1; }
    echo "  $w pair $i/$pairs: scorecards identical" >&2
  done
done

# Per (workload, metric): medians, tree/base, base IQR, pairs the tree won,
# verdict. The first file gives each end-to-end metric's direction and bound.
printf '%-16s %-16s %12s %12s %9s %12s %6s  %s\n' workload metric base_median tree_median tree/base base_iqr wins verdict
awk '
function sort(a, n,   i, j, x) { for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x } }
function q(a, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function str(line) { sub(/^[^:]*: *"/, "", line); sub(/".*/, "", line); return line }
FNR == NR {
  if (/"end_to_end"/) in_e2e = 1
  else if (in_e2e && /^  \]/) in_e2e = 0
  else if (in_e2e && /"name"/) metric[++nm] = str($0)
  else if (in_e2e && /"better"/) higher[metric[nm]] = (str($0) == "higher")
  else if (in_e2e && /"bound"/) { v = $0; sub(/^[^:]*: */, "", v); bound[metric[nm]] = v + 0 }
  next
}
{
  side = $1; w = $2
  if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
  for (m = 1; m <= nm; m++) {
    name = metric[m]
    if (match($0, "\"" name "\": \\{\"value\": [^,]+")) {
      v = substr($0, RSTART, RLENGTH); sub(/.*: /, "", v)
      val[side, w, name, ++cnt[side, w, name]] = v + 0
    }
  }
}
END {
  for (k = 1; k <= nw; k++) for (m = 1; m <= nm; m++) {
    w = order[k]; name = metric[m]; n = cnt["base", w, name]; wins = 0; up = higher[name] ? 1 : -1
    for (i = 1; i <= n; i++) {
      b[i] = val["base", w, name, i]; t[i] = val["tree", w, name, i]
      if ((t[i] - b[i]) * up > 0) wins++
    }
    sort(b, n); sort(t, n)
    bm = q(b, n, 0.5); tm = q(t, n, 0.5); iqr = q(b, n, 0.75) - q(b, n, 0.25)
    clear = up > 0 ? t[1] > b[n] : t[n] < b[1]   # every tree run better than every base run
    verdict = "ok"
    if ((bm - tm) * up > bound[name] * bm) { verdict = "worse>bound"; bad = 1 }
    else if (iqr > bound[name] * bm && !clear) verdict = "unresolved"
    printf "%-16s %-16s %12.4f %12.4f %9.3f %12.4f %3d/%d  %s\n", w, name, bm, tm, bm ? tm / bm : 0, iqr, wins, n, verdict
  }
  exit bad
}' BENCHMARK.json "$runs" || status=$?

# One traced run per side and workload; the named per-layer metrics side by side.
if [ ${#layers[@]} -gt 0 ]; then
  # traced DIR WORKLOAD: the run's one-line JSON result.
  traced() { (cd "$1" && ./target/release/tssdn-e2e --workload "$2" --seed "$seed" --trace 1 2>/dev/null | tail -n 1); }
  # value LINE METRIC
  value() { grep -o "\"${2//./\\.}\": {\"value\": [^,]*" <<< "$1" | sed 's/.*: //'; }
  printf '\n%-16s %-40s %14s %14s %9s\n' workload layer_metric base tree tree/base
  for w in "${workloads[@]}"; do
    b_line=$(traced "$base" "$w"); t_line=$(traced "$tree" "$w")
    for m in "${layers[@]}"; do
      awk -v w="$w" -v m="$m" -v b="$(value "$b_line" "$m")" -v t="$(value "$t_line" "$m")" \
        'BEGIN { printf "%-16s %-40s %14.4f %14.4f %9.3f\n", w, m, b, t, b ? t / b : 0 }'
    done
  done
fi
# Per workload, N alternating `scenario_matrix --spec` runs per side; each
# stage's median share (and the median wall seconds) side by side. Raw
# lines in artifact_out/e2e/ab_stages.txt.
if [ "$stages" = 1 ]; then
  profiles="$tree/artifact_out/e2e/ab_stages.txt"; : > "$profiles"
  # profile SIDE DIR WORKLOAD SPEC: the run's wall seconds and stage shares, one line.
  profile() {
    (cd "$2" && ./target/release/scenario_matrix --spec "$4" 2>/dev/null) |
      awk -v side="$1" -v w="$3" '/ s wall for / { wall = $2 } /^stages / { sub(/^stages [^:]*: /, ""); print side, w, "wall_s", wall ", " $0 }' >> "$profiles"
  }
  printf '\n%-16s %-24s %12s %12s\n' workload stage base_median tree_median
  for w in "${workloads[@]}"; do
    spec="$tree/.bench_build/ab-spec-$w.json"
    sed -E "s/^(  \"seed\": )[0-9]+/\1$seed/" "$tree/crates/e2e/workloads/$w.json" > "$spec"
    for i in $(seq 1 "$pairs"); do
      if [ $((i % 2)) -eq 1 ]; then profile base "$base" "$w" "$spec"; profile tree "$tree" "$w" "$spec"
      else profile tree "$tree" "$w" "$spec"; profile base "$base" "$w" "$spec"; fi
    done
  done
  awk '
  function sort(a, n,   i, j, x) { for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x } }
  function median(key,   a, i, n) { n = cnt[key]; for (i = 1; i <= n; i++) a[i] = val[key, i]; sort(a, n); return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
  {
    side = $1; w = $2; sub(/^[a-z]+ [^ ]+ /, ""); k = split($0, parts, ", ")
    if (!(w in seen_w)) { seen_w[w] = 1; ws[++nw] = w }
    for (i = 1; i <= k; i++) {
      st = parts[i]; v = st; sub(/ [^ ]*$/, "", st); sub(/^.* /, "", v); sub(/%$/, "", v)
      if (!((w, st) in seen)) { seen[w, st] = 1; order[w, ++ns[w]] = st }
      val[side SUBSEP w SUBSEP st, ++cnt[side SUBSEP w SUBSEP st]] = v + 0
    }
  }
  END {
    for (j = 1; j <= nw; j++) for (i = 1; i <= ns[ws[j]]; i++) {
      w = ws[j]; st = order[w, i]
      printf "%-16s %-24s %12.2f %12.2f\n", w, st, median("base" SUBSEP w SUBSEP st), median("tree" SUBSEP w SUBSEP st)
    }
  }' "$profiles"
fi
exit "${status:-0}"
