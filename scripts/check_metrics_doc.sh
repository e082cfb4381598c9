#!/bin/sh
# Docs metrics gate, run from scripts/verify.sh and from `dune runtest`
# (test/dune). It runs both ways. Every metric name the code can register
# must be documented: a quoted msmr_* string in lib/ that never appears
# in docs/OBSERVABILITY.md fails the gate (names there are written out in
# full, never brace-compressed, exactly so this check can be literal).
# And every backticked msmr_* name in the doc must still be registered by
# a quoted string in lib/, so a row left behind by a deletion fails too.
# Binary files are skipped: under dune, lib/ also holds build artifacts.
set -eu

cd "$(dirname "$0")/.."

missing=0
for m in $(grep -rIhoE '"msmr_[a-z0-9_]+"' lib/ | tr -d '"' | sort -u); do
  grep -q "$m" docs/OBSERVABILITY.md \
    || { echo "FAIL: metric $m not documented in docs/OBSERVABILITY.md" >&2; missing=1; }
done
for m in $(grep -oE '`msmr_[a-z0-9_]+`' docs/OBSERVABILITY.md | tr -d '`' | sort -u); do
  grep -rIqF "\"$m\"" lib/ \
    || { echo "FAIL: docs/OBSERVABILITY.md documents $m, which nothing in lib/ registers" >&2; missing=1; }
done
[ "$missing" -eq 0 ] || exit 1
echo "docs: $(grep -rIhoE '"msmr_[a-z0-9_]+"' lib/ | sort -u | wc -l) metric names all documented," \
  "$(grep -oE '`msmr_[a-z0-9_]+`' docs/OBSERVABILITY.md | sort -u | wc -l) documented names all registered"
