#!/bin/sh
# Repository verify script: build, tests, docs, and observability smoke.
#
# Tier-1 (ROADMAP.md): dune build && dune runtest.
# On top of that this script builds the odoc documentation (when odoc is
# installed), smoke-tests the trace exporter so docs and the
# observability layer can't rot silently, and runs every BENCH_NNN
# experiment quick through its gates.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== lock-free stress profile (raised QCheck iterations) =="
# The lockfree suite's QCheck properties (multi-producer exactly-once,
# SPSC FIFO across threads, per-key order under stealing) scale their
# iteration counts with MSMR_QCHECK_COUNT; run them harder here than the
# default runtest does.
MSMR_QCHECK_COUNT=120 dune exec test/test_msmr.exe -- test lockfree

if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc =="
  dune build @doc
else
  echo "== dune build @doc skipped (odoc not installed) =="
fi

echo "== trace export smoke =="
trace_file="$(mktemp /tmp/msmr-verify-trace.XXXXXX.json)"
metrics_file="$(mktemp /tmp/msmr-verify-metrics.XXXXXX.json)"
bench_file="$(mktemp /tmp/msmr-verify-bench.XXXXXX.json)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_file"' EXIT

dune exec bench/main.exe -- --trace "$trace_file" --metrics "$metrics_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$trace_file"
  jq empty "$metrics_file"
  events=$(jq '.traceEvents | length' "$trace_file")
  spans=$(jq '[.traceEvents[] | select(.ph == "X")] | length' "$trace_file")
  cats=$(jq -r '[.traceEvents[] | select(.ph == "X") | .cat] | unique | length' "$trace_file")
  echo "trace: $events events, $spans spans, $cats span categories"
  [ "$spans" -gt 0 ] || { echo "FAIL: no spans in trace" >&2; exit 1; }
  [ "$cats" -ge 3 ] || { echo "FAIL: fewer than 3 span categories" >&2; exit 1; }
else
  # No jq: at least ensure both files are non-empty and look like JSON.
  for f in "$trace_file" "$metrics_file"; do
    [ -s "$f" ] || { echo "FAIL: $f empty" >&2; exit 1; }
    case "$(head -c1 "$f")" in
      '{' | '[') ;;
      *) echo "FAIL: $f does not look like JSON" >&2; exit 1 ;;
    esac
  done
  echo "trace: jq not installed, checked files are non-empty JSON"
fi

# Each BENCH_NNN claim is a named gate in bench/main.ml; `check`
# recomputes the gates from the JSON and skips the full-run-only ones on
# a --quick file.
for id in 002 003 004 005 006 007 008 009 010; do
  echo "== bench$id smoke (quick) =="
  dune exec bench/main.exe -- "bench$id" --quick --out "$bench_file"
  dune exec bench/main.exe -- check "$bench_file"
done

echo "== committed bench results gate =="
dune exec bench/main.exe -- check --committed bench/BENCH_*.json

echo "== docs metrics gate =="
# Also part of `dune runtest` (test/dune).
sh scripts/check_metrics_doc.sh

echo "== verify OK =="
