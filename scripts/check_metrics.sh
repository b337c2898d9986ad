#!/bin/sh
# scripts/check_metrics.sh <metrics.txt> [churn] — validate a /metrics
# scrape from growd's -debug listener. Three gates, all blocking (four
# with "churn"):
#
#   1. Prometheus text format 0.0.4 line parse: every non-comment,
#      non-blank line must be `name{labels} value` (or bare
#      `name value`) with a numeric value.
#   2. Family presence: the per-opcode exec latency and the
#      migration-pause histograms must be declared with `# TYPE ...
#      histogram`, and each must have _bucket/_sum/_count samples; the
#      generic route's reclamation series must be declared.
#   3. Liveness: the scrape must show at least one completed migration
#      (the smoke's prefill outgrows the default table capacity), with
#      a nonzero wall-time histogram count to match.
#   4. With "churn" — a scrape of a growd that served expiring,
#      never-reused keys under an entry budget: entries expired and were
#      evicted, their chains were dropped and arena pages were retired.
#
# The parser is plain awk so CI needs no Prometheus tooling.
set -eu

f=${1:?usage: check_metrics.sh <metrics.txt>}

echo "==> parse: $f"
awk '
  /^#/ { next }                 # comment/TYPE/HELP lines
  /^[[:space:]]*$/ { next }
  {
    # name{label="v",...} value   |   name value
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/) {
      printf "unparseable line %d: %s\n", NR, $0
      bad = 1
    }
  }
  END { exit bad }
' "$f"

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "==> families"
for fam in growd_op_nanos growt_migration_wall_nanos; do
  grep -q "^# TYPE $fam histogram$" "$f" || fail "missing '# TYPE $fam histogram'"
  grep -q "^${fam}_bucket{" "$f"         || fail "$fam has no _bucket samples"
  grep -q "^${fam}_count" "$f"           || fail "$fam has no _count sample"
  grep -q "^${fam}_sum" "$f"             || fail "$fam has no _sum sample"
done
for fam in growt_generic_chains_dropped_total:counter growt_generic_pages_retired_total:counter growt_generic_pages_live:gauge; do
  grep -q "^# TYPE ${fam%:*} ${fam#*:}$" "$f" || fail "missing '# TYPE ${fam%:*} ${fam#*:}'"
done
# Cumulative histograms must end at +Inf.
grep -q 'growd_op_nanos_bucket{[^}]*le="+Inf"}' "$f" || fail "growd_op_nanos lacks a +Inf bucket"

echo "==> migrations happened"
migs=$(awk '/^growt_migrations_total\{/ { s += $2 } END { print s+0 }' "$f")
[ "$migs" -gt 0 ] || fail "no completed migrations in scrape (growt_migrations_total = $migs)"
wallc=$(awk '$1 == "growt_migration_wall_nanos_count" { print $2+0 }' "$f")
[ "${wallc:-0}" -gt 0 ] || fail "migration wall histogram empty (count = ${wallc:-0})"

echo "OK: $migs migrations, wall-histogram count $wallc"

if [ "${2:-}" = churn ]; then
  echo "==> reclamation happened"
  for series in growt_cache_expired_total growt_cache_evicted_total growt_generic_chains_dropped_total growt_generic_pages_retired_total; do
    n=$(awk -v s="$series" '$1 == s { print $2+0 }' "$f")
    [ "${n:-0}" -gt 0 ] || fail "$series = ${n:-0} after a churn run"
    echo "$series $n"
  done
fi
