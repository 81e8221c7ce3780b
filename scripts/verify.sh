#!/usr/bin/env bash
# Tier-1 verification gate: every PR must pass this clean.
#
#   ./scripts/verify.sh          # everything: lint + build + tests +
#                                # smoke benches
#   ./scripts/verify.sh --lint   # fast-fail subset: fmt + doc citations +
#                                # the unsafe gate + the unused-pub-item
#                                # gate + the oracle gate + clippy
#   ./scripts/verify.sh --build  # build + tests + smoke benches +
#                                # scorecard diff and byte-identity
#                                # against baselines/scorecards/
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

  # A section number cited in code goes stale silently when DESIGN.md
  # is renumbered: every `DESIGN.md §N` in a tracked Rust or shell
  # file must name an existing `## N.` heading.
  echo "==> DESIGN.md § citations name existing sections"
  stale=$(git grep -n -o -E 'DESIGN\.md §[0-9]+' -- '*.rs' '*.sh' | awk -F: '
    NR == FNR { if (sub(/^## /, "") && sub(/\..*/, "")) ok[$0] = 1; next }
    { n = $3; sub(/.*§/, "", n); if (!(n in ok)) print $1 ":" $2 ": DESIGN.md has no section " n }
  ' DESIGN.md -)
  if [ -n "$stale" ]; then
    echo "$stale" >&2
    exit 1
  fi

  # A member cited in the docs goes stale silently when the code moves:
  # every backticked `Type::member` in DESIGN.md or README.md whose Type
  # the workspace defines must name a fn, field, const or variant in a
  # file that defines or implements that Type (a derived trait method
  # such as `::default` counts when the file derives the trait).
  # EXPERIMENTS.md is a history and is not checked.
  echo "==> DESIGN.md / README.md cite only members that exist"
  refs=$(awk '
    /^```/ { fence = !fence; next }
    !fence { text = text " " $0 }
    END {
      n = split(text, part, "`")
      for (i = 2; i <= n; i += 2) {
        s = part[i]
        while (match(s, /[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*/)) {
          ref = substr(s, RSTART, RLENGTH)
          pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
          if (pre !~ /[A-Za-z0-9_]/) { sub(/::/, " ", ref); print ref }
          s = substr(s, RSTART + RLENGTH)
        }
      }
    }' DESIGN.md README.md | sort -u)
  src=(-- 'crates/*.rs' 'tests/*.rs' 'examples/*.rs')
  stale=""
  while read -r ty member; do
    [ -n "$ty" ] || continue
    defs=$(git grep -l -E "\b(struct|enum|trait|type|union) $ty\b" "${src[@]}" || true)
    [ -n "$defs" ] || continue # not a workspace type
    impls=$(git grep -l -E "^\s*impl\b[^{]*\b$ty\b" "${src[@]}" || true)
    files=$(printf '%s\n%s\n' "$defs" "$impls" | sort -u | grep -v '^$')
    pat="\bfn $member\b|\b$member\s*:([^:]|$)|\bconst $member\b|^\s*$member\s*([,({=]|$)"
    # shellcheck disable=SC2086
    grep -q -E "$pat" $files && continue
    case "$member" in
      default) derived=Default ;; clone) derived=Clone ;; eq | ne) derived=PartialEq ;;
      cmp) derived=Ord ;; partial_cmp) derived=PartialOrd ;; hash) derived=Hash ;;
      *) derived="" ;;
    esac
    # shellcheck disable=SC2086
    [ -n "$derived" ] && grep -q -E "derive\([^)]*\b$derived\b" $defs && continue
    stale="$stale  $ty::$member"$'\n'
  done <<<"$refs"
  if [ -n "$stale" ]; then
    echo "documentation cites members the workspace does not have:" >&2
    printf '%s' "$stale" >&2
    exit 1
  fi

  # `unsafe` lives in one file, where it is argued: the vendored
  # ChaCha8 generator's SSE2 lanes. Clippy's
  # `undocumented_unsafe_blocks`, denied in that crate, holds every
  # block there to a `// SAFETY:` comment.
  echo "==> unsafe appears only in vendor/rand_chacha/src/lib.rs"
  stray=$(git grep -nw unsafe -- '*.rs' ':!vendor/rand_chacha/src/lib.rs' || true)
  if [ -n "$stray" ]; then
    echo "$stray" >&2
    echo "unsafe outside vendor/rand_chacha/src/lib.rs" >&2
    exit 1
  fi

  # The JSON layer is a leaf, so that any crate can write through it:
  # crates/json/Cargo.toml declares no dependencies, and the old
  # `json` re-export of tssdn-scenario is named only by the frozen
  # crates/e2e it is kept for.
  echo "==> crates/json depends on nothing; tssdn_scenario::json only in crates/e2e"
  deps=$(awk '
    /^\[/ { in_deps = ($0 ~ /^\[(.*\.)?dependencies(\..*)?\]/); next }
    in_deps && !/^[[:space:]]*(#|$)/ { print FILENAME ": " $0 }
  ' crates/json/Cargo.toml)
  if [ -n "$deps" ]; then
    echo "$deps" >&2
    echo "crates/json must stay a leaf: no dependencies" >&2
    exit 1
  fi
  stray=$(git grep -n -F 'tssdn_scenario::json' -- '*.rs' ':!crates/e2e' || true)
  if [ -n "$stray" ]; then
    echo "$stray" >&2
    echo "name tssdn_json, not tssdn_scenario::json, outside crates/e2e" >&2
    exit 1
  fi

  # A `pub` item that no other file names is surface nothing uses.
  # Every `pub fn`, `pub struct`, `pub enum`, `pub trait` and `pub const`
  # outside crates/bench, crates/e2e (binaries and the frozen whole-loop
  # benchmark) and vendor/ (third-party API) must be named in some other
  # tracked Rust file: give it a caller, make it private or delete it.
  # A type its own file names in a `pub` field, a `pub fn` line or an
  # associated `type` cannot be private while that item is public, so
  # it counts as named; the census checks the item that carries it.
  echo "==> every pub fn, struct, enum, trait and const is named outside its own file"
  dead=$(git grep -n -o -E '^\s*pub (fn|struct|enum|trait|const) [A-Za-z_][A-Za-z0-9_]*' -- '*.rs' \
    ':!crates/bench' ':!crates/e2e' ':!vendor' | while IFS=: read -r file line m; do
    name=${m##* }
    git grep -q -w "$name" -- '*.rs' ":!$file" && continue
    case "$m" in
      *"pub fn "* | *"pub const "*) ;;
      *) grep -q -E "(pub [a-z_0-9]+: |pub fn |type [A-Za-z_0-9]+ = ).*\b$name\b" "$file" && continue ;;
    esac
    echo "$file:$line: ${m#"${m%%pub *}"}"
  done)
  if [ -n "$dead" ]; then
    echo "$dead" >&2
    echo "pub items no other file names" >&2
    exit 1
  fi

  # The oracles are specifications for tests, never part of the
  # product: only the integration tests and the bench package may
  # depend on tssdn-oracle, and no crate keeps a `reference` module of
  # its own.
  echo "==> tssdn-oracle only in tests/ and crates/bench; no mod reference in crates/*/src"
  stray=$(git grep -n -w 'tssdn-oracle' -- '*Cargo.toml' ':!Cargo.toml' ':!tests/Cargo.toml' \
    ':!crates/bench/Cargo.toml' ':!crates/oracle/Cargo.toml' || true)
  stray="$stray$(git grep -n -E '^\s*(pub(\([a-z]+\))? )?mod reference\b' -- 'crates/*/src/*.rs' || true)"
  if [ -n "$stray" ]; then
    echo "$stray" >&2
    echo "production crates must not contain or depend on an oracle" >&2
    exit 1
  fi

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

  # The smoke matrix just wrote artifact_out/scorecards/. The tolerant
  # diff (each row's comparison is declared on the scorecard: the table
  # in DESIGN.md §12) catches service-metric slips the ~20 %-margin
  # floors cannot; a PR that means
  # to move a metric or a spec regenerates the baselines in the same
  # change (`scenario_matrix --smoke --out tmp && cp
  # tmp/scorecards/{*.json,summary.csv} baselines/scorecards/`) and
  # passes both. `--diff` reads the JSON artifacts only.
  echo "==> scorecard diff vs baselines/scorecards"
  cargo run --release -q -p tssdn-bench --bin scenario_matrix -- \
    --diff baselines/scorecards artifact_out/scorecards

  # The exact gate: every other PR — refactors, performance work —
  # leaves the smoke scorecards and the summary table written beside
  # them byte for byte what is committed.
  echo "==> smoke scorecards and summary.csv byte-identical to baselines/scorecards"
  status=0
  for got in artifact_out/scorecards/smoke_*.json artifact_out/scorecards/summary.csv; do
    cmp "baselines/scorecards/$(basename "$got")" "$got" || status=1
  done
  [ "$status" -eq 0 ]
fi

echo "verify ($mode): OK"
