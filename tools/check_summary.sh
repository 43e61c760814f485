#!/usr/bin/env bash
# Summary CLI smoke check: seqmine's printed maximal/closed summary must
# agree with its --maximal / --closed filters (docs/ALGORITHM.md,
# "Maximal/closed in O(n·k)"). On one golden-corpus dataset it runs the
# default, --maximal and --closed modes and asserts:
#
#   * the default line's maximal count is the --maximal total;
#   * the default line's closed count is the --closed total;
#   * all three lines report the same maximal count
#     (maximal(closed(S)) = maximal(S), maximal(maximal(S)) = maximal(S)).
#
#   $ tools/check_summary.sh [path/to/seqmine]
#   # default: build/examples/seqmine
set -euo pipefail

SEQMINE="${1:-}"
cd "$(dirname "$0")/.."

if [[ -z "$SEQMINE" ]]; then
  SEQMINE=build/examples/seqmine
  if [[ ! -x "$SEQMINE" ]]; then
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target seqmine >/dev/null
  fi
fi
if [[ ! -x "$SEQMINE" ]]; then
  echo "check_summary.sh: no seqmine binary at $SEQMINE" >&2
  exit 2
fi

DATA=tests/data/quest_dense.spmf
failures=0
fail() {
  echo "check_summary.sh: FAIL: $1" >&2
  failures=$((failures + 1))
}

# Prints "total maximal closed" from the summary line of one seqmine run:
#   disc-all: T patterns (M maximal, C closed), max length L, ...
summary() {
  local out
  out="$("$SEQMINE" "$DATA" --delta=8 "$@")" \
    || { fail "seqmine $* exited $?"; echo "0 0 0"; return; }
  sed -nE 's/^[^ ]+: ([0-9]+) patterns \(([0-9]+) maximal, ([0-9]+) closed\), .*/\1 \2 \3/p' \
    <<< "$out" | head -n 1
}

read -r all_total all_max all_closed <<< "$(summary)"
read -r max_total max_max _ <<< "$(summary --maximal)"
read -r closed_total closed_max _ <<< "$(summary --closed)"

[[ -n "${all_total:-}" && -n "${max_total:-}" && -n "${closed_total:-}" ]] \
  || fail "missing summary line"
[[ "${all_total:-0}" -gt 0 ]] || fail "default run found no patterns"
[[ "${all_max:-}" == "${max_total:-}" ]] \
  || fail "default maximal ${all_max:-?} != --maximal total ${max_total:-?}"
[[ "${all_closed:-}" == "${closed_total:-}" ]] \
  || fail "default closed ${all_closed:-?} != --closed total ${closed_total:-?}"
[[ "${all_max:-}" == "${max_max:-}" && "${all_max:-}" == "${closed_max:-}" ]] \
  || fail "maximal counts differ: default ${all_max:-?}, --maximal \
${max_max:-?}, --closed ${closed_max:-?}"

if [[ "$failures" -gt 0 ]]; then
  echo "check_summary.sh: $failures check(s) failed" >&2
  exit 1
fi
echo "summary cli smoke: ok ($all_total patterns, $all_max maximal, \
$all_closed closed)"
