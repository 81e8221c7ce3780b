#!/usr/bin/env bash
# Tier-1 verification gate: every PR must pass this clean.
#
#   ./scripts/verify.sh          # everything: lint + build + tests +
#                                # smoke benches
#   ./scripts/verify.sh --lint   # fast-fail subset: fmt + clippy
#   ./scripts/verify.sh --build  # build + tests + smoke benches
#
# The test pass includes the chaos soak (tests/chaos_soak.rs), so a
# green run certifies the robustness contract too: no stuck intents,
# bounded post-fault recovery, bit-identical reruns per (seed, plan).
# CI (.github/workflows/ci.yml) runs the two subsets as parallel
# jobs — `--lint` fails fast while `--build` grinds — and a full
# local run is the union of both. Keep gate logic here only, so
# local and CI runs cannot drift.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="all"
case "${1:-}" in
  "") ;;
  --lint) mode="lint" ;;
  --build) mode="build" ;;
  *) echo "verify.sh: unknown argument: $1 (expected --lint or --build)" >&2; exit 2 ;;
esac

if [ "$mode" != "build" ]; then
  echo "==> cargo fmt --check"
  cargo fmt --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
fi

if [ "$mode" != "lint" ]; then
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test -q"
  cargo test -q

  echo "==> scripts/bench.sh --smoke (scenario matrix + planning + sharding + traffic gates + e2e suite)"
  ./scripts/bench.sh --smoke
fi

echo "verify ($mode): OK"
