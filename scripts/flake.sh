#!/usr/bin/env bash
# Loop the gate-carrying tests N times and print a pass rate per test.
#
#   bash scripts/flake.sh N
#
# The gates looped are:
#   - test/test_recovery.exe, scored per alcotest case (its supervised
#     crash-recover cases carry memory-bound verdicts);
#   - `scotbench chaos --smoke` (stall bounds, UAF probe, fuzz);
#   - `scotbench chaos --smoke --scheme debra` (DBR bounds, clean floor
#     against EBR, stall panel).
# A smoke passes a round when it exits 0.  Output is one line per test,
# "passed/N  rate  name", failures first.  If any test failed in any
# round, every round's log is kept, the directory is printed and the
# script exits 1.  Runs from the repository root wherever it is invoked
# from.
set -uo pipefail
cd "$(dirname "$0")/.."

n=${1:-}
if ! [[ $n =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: bash scripts/flake.sh N   (N >= 1 rounds)" >&2
  exit 2
fi

dune build ./test/test_recovery.exe ./bin/scotbench.exe || exit 2
recovery=./_build/default/test/test_recovery.exe
scotbench=./_build/default/bin/scotbench.exe
logs=$(mktemp -d "${TMPDIR:-/tmp}/flake.XXXXXX")
tally="$logs/tally"
: > "$tally"

# One "PASS|FAIL<TAB>name" line per test per round.  Alcotest prints one
# result line per case ("[OK]"/"[FAIL]", the failing one prefixed ">");
# the boxed failure summary repeats them behind "│" and is skipped.
score_alcotest() {
  awk '/^[> ] *\[(OK|FAIL)\]/ {
         verdict = ($0 ~ /\[OK\]/) ? "PASS" : "FAIL"
         sub(/^[> ] *\[(OK|FAIL)\] */, "")
         gsub(/  +/, " ")
         print verdict "\trecovery: " $0
       }' "$1"
}

run_smoke() {
  local name=$1 log=$2
  shift 2
  if "$@" > "$log" 2>&1; then
    printf 'PASS\t%s\n' "$name"
  else
    printf 'FAIL\t%s\n' "$name"
  fi
}

for i in $(seq 1 "$n"); do
  log="$logs/recovery.$i.log"
  run_smoke "test_recovery.exe (whole run)" "$log" "$recovery" >> "$tally"
  score_alcotest "$log" >> "$tally"
  run_smoke "chaos --smoke" "$logs/chaos.$i.log" \
    "$scotbench" chaos --smoke >> "$tally"
  run_smoke "chaos --smoke --scheme debra" "$logs/chaos_debra.$i.log" \
    "$scotbench" chaos --smoke --scheme debra >> "$tally"
  echo "round $i/$n: $(grep -c '^FAIL' "$tally") failures so far" >&2
done

awk -F'\t' -v n="$n" '
  { seen[$2] = 1; if ($1 == "PASS") ok[$2]++ }
  END {
    for (t in seen) printf "%d/%d\t%.2f\t%s\n", ok[t], n, ok[t] / n, t
  }' "$tally" | sort -t$'\t' -k1,1n -k3,3

if grep -q '^FAIL' "$tally"; then
  echo "logs of all rounds kept in $logs" >&2
  exit 1
fi
rm -rf "$logs"
