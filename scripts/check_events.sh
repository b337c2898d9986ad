#!/bin/sh
# scripts/check_events.sh <events.json> — validate a /debug/events
# drain from growd's -debug listener (the flight recorder's recent
# window). Three gates, all blocking:
#
#   1. Well-formed JSON: the body must parse as an array of event
#      objects (python3's json module when available, else a shape
#      check on the envelope and record fields).
#   2. Exec events: the request path must have recorded exec_end
#      events, at least one carrying a request id (a1, nonzero) — the
#      smoke's growload burst ran thousands of ops, so an empty exec
#      stream means the recorder is disconnected from the server.
#   3. Migration phase events: the 20000-key prefill outgrows the
#      default table, so the window (or at least the slower smoke
#      traffic after it) must carry migration phase transitions —
#      any of mig_arm/mig_adopt/mig_copy_slice/mig_drain/mig_flip.
set -eu

f=${1:?usage: check_events.sh <events.json>}

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "==> well-formed JSON: $f"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$f" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    evs = json.load(fh)
if not isinstance(evs, list):
    raise SystemExit("FAIL: /debug/events body is not a JSON array")
for e in evs:
    for field in ("ts_nanos", "kind", "a0", "a1", "a2"):
        if field not in e:
            raise SystemExit(f"FAIL: event missing {field!r}: {e}")
print(f"    {len(evs)} events, all records carry ts_nanos/kind/a0/a1/a2")
EOF
else
  # Envelope + record-shape check without a JSON parser: array
  # brackets and the mandatory fields on every record.
  head -c1 "$f" | grep -q '\[' || fail "body does not start with ["
  grep -q '"ts_nanos"' "$f" || fail "no ts_nanos fields in body"
  grep -q '"kind"' "$f" || fail "no kind fields in body"
fi

echo "==> exec events present, carrying request ids"
grep -q '"kind":"exec_end"' "$f" || fail "no exec_end events in window"
grep -Eq '"kind":"exec_end","a0":[0-9]+,"a1":[1-9]' "$f" ||
  fail "no exec_end event carries a request id (a1)"

echo "==> migration phase events present"
grep -Eq '"kind":"mig_(arm|adopt|copy_slice|drain|flip)"' "$f" ||
  fail "no migration phase events in window (prefill should have grown the table)"

execs=$(grep -o '"kind":"exec_end"' "$f" | wc -l | tr -d ' ')
migs=$(grep -Eo '"kind":"mig_[a-z_]*"' "$f" | wc -l | tr -d ' ')
echo "OK: $execs exec_end events, $migs migration phase events"
