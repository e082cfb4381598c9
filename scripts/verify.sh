#!/bin/sh
# Repository verify script: build, tests, docs, and observability smoke.
#
# Tier-1 (ROADMAP.md): dune build && dune runtest.
# On top of that this script builds the odoc documentation (when odoc is
# installed) and smoke-tests the trace exporter so docs and the
# observability layer can't rot silently.
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
bench3_file="$(mktemp /tmp/msmr-verify-bench3.XXXXXX.json)"
bench4_file="$(mktemp /tmp/msmr-verify-bench4.XXXXXX.json)"
bench5_file="$(mktemp /tmp/msmr-verify-bench5.XXXXXX.json)"
bench6_file="$(mktemp /tmp/msmr-verify-bench6.XXXXXX.json)"
bench7_file="$(mktemp /tmp/msmr-verify-bench7.XXXXXX.json)"
bench8_file="$(mktemp /tmp/msmr-verify-bench8.XXXXXX.json)"
bench9_file="$(mktemp /tmp/msmr-verify-bench9.XXXXXX.json)"
bench10_file="$(mktemp /tmp/msmr-verify-bench10.XXXXXX.json)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_file" "$bench3_file" "$bench4_file" "$bench5_file" "$bench6_file" "$bench7_file" "$bench8_file" "$bench9_file" "$bench10_file"' EXIT

dune exec bin/sim_probe.exe -- --trace "$trace_file" --metrics "$metrics_file"

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

echo "== bench002 smoke (quick) =="
dune exec bench/main.exe -- bench002 --quick --bench-out "$bench_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench_file"
  cores_pts=$(jq '.core_scaling.points | length' "$bench_file")
  exec_pts=$(jq '.executor_scaling.points | length' "$bench_file")
  bad=$(jq '[.core_scaling.points[], .executor_scaling.points[]
             | select(.throughput_rps <= 0)] | length' "$bench_file")
  echo "bench002: $cores_pts core points, $exec_pts executor points"
  [ "$cores_pts" -eq 3 ] || { echo "FAIL: expected 3 core points" >&2; exit 1; }
  [ "$exec_pts" -eq 4 ] || { echo "FAIL: expected 4 executor points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench002" >&2; exit 1; }
else
  [ -s "$bench_file" ] || { echo "FAIL: $bench_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench_file")" in
    '{') ;;
    *) echo "FAIL: $bench_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench002: jq not installed, checked file is non-empty JSON"
fi

echo "== bench003 smoke (quick) =="
dune exec bench/main.exe -- bench003 --quick --bench003-out "$bench3_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench3_file"
  pts=$(jq '.points | length' "$bench3_file")
  bad=$(jq '[.points[] | select(.serial_rps <= 0 or .group_rps <= 0)] | length' \
        "$bench3_file")
  # The tentpole's headline claim: group commit >= 3x serial fsync on
  # every swept core count >= 8.
  slow=$(jq '[.points[] | select(.cores >= 8 and .group_rps < 3 * .serial_rps)]
             | length' "$bench3_file")
  echo "bench003: $pts durable points"
  [ "$pts" -eq 3 ] || { echo "FAIL: expected 3 durable points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench003" >&2; exit 1; }
  [ "$slow" -eq 0 ] || { echo "FAIL: group commit < 3x serial fsync at >= 8 cores" >&2; exit 1; }
else
  [ -s "$bench3_file" ] || { echo "FAIL: $bench3_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench3_file")" in
    '{') ;;
    *) echo "FAIL: $bench3_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench003: jq not installed, checked file is non-empty JSON"
fi

echo "== bench004 smoke (quick) =="
dune exec bench/main.exe -- bench004 --quick --bench004-out "$bench4_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench4_file"
  pts=$(jq '.points | length' "$bench4_file")
  bad=$(jq '[.points[] | select(.static_default_rps <= 0 or .static_best_rps <= 0
                                or .adaptive_rps <= 0)] | length' "$bench4_file")
  echo "bench004 smoke: $pts adaptive points"
  [ "$pts" -gt 0 ] || { echo "FAIL: no points in bench004 smoke" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench004 smoke" >&2; exit 1; }
else
  [ -s "$bench4_file" ] || { echo "FAIL: $bench4_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench4_file")" in
    '{') ;;
    *) echo "FAIL: $bench4_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench004 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench004 committed results gate =="
bench4_committed="bench/BENCH_004.json"
[ -f "$bench4_committed" ] || { echo "FAIL: $bench4_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench4_committed"
  quick=$(jq '.quick' "$bench4_committed")
  pts=$(jq '.points | length' "$bench4_committed")
  schema_bad=$(jq '[.points[] | select((.adaptive_vs_default? and .adaptive_vs_best?
                    and .tuned_wnd_final? and .tuned_bsz_final?) | not)] | length' \
               "$bench4_committed")
  # The tentpole's acceptance gates: the adaptive controller must reach
  # >= 1.2x the static default on at least one swept point, and must
  # stay within 10% of the best static configuration everywhere.
  wins=$(jq '[.points[] | select(.adaptive_vs_default >= 1.2)] | length' \
         "$bench4_committed")
  below=$(jq '[.points[] | select(.adaptive_vs_best < 0.9)] | length' \
          "$bench4_committed")
  echo "bench004 committed: $pts points, $wins at >= 1.2x default, $below below 0.9x best"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench004 was a --quick run" >&2; exit 1; }
  [ "$pts" -ge 9 ] || { echo "FAIL: expected >= 9 committed bench004 points" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench004 point missing required fields" >&2; exit 1; }
  [ "$wins" -ge 1 ] || { echo "FAIL: adaptive never reached 1.2x static default" >&2; exit 1; }
  [ "$below" -eq 0 ] || { echo "FAIL: adaptive below 0.9x static best on some point" >&2; exit 1; }
else
  [ -s "$bench4_committed" ] || { echo "FAIL: $bench4_committed empty" >&2; exit 1; }
  echo "bench004 committed: jq not installed, checked file is non-empty"
fi

echo "== bench005 smoke (quick) =="
dune exec bench/main.exe -- bench005 --quick --bench005-out "$bench5_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench5_file"
  # The quick run is a smoke test: the fault schedule must still leave a
  # safe, converged, reproducible cluster; the throughput gates apply to
  # the committed full run below.
  ok=$(jq '[.crash.safety_ok, .soak.safety_ok, .soak.converged,
            .soak.runs_identical] | all' "$bench5_file")
  echo "bench005 smoke: safety/convergence/reproducibility = $ok"
  [ "$ok" = "true" ] || { echo "FAIL: bench005 smoke chaos run unsafe or non-deterministic" >&2; exit 1; }
else
  [ -s "$bench5_file" ] || { echo "FAIL: $bench5_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench5_file")" in
    '{') ;;
    *) echo "FAIL: $bench5_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench005 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench005 committed results gate =="
bench5_committed="bench/BENCH_005.json"
[ -f "$bench5_committed" ] || { echo "FAIL: $bench5_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench5_committed"
  quick=$(jq '.quick' "$bench5_committed")
  schema_bad=$(jq '[.crash, .soak, .live] | map(select(. == null)) | length' \
               "$bench5_committed")
  crash_bad=$(jq '[.crash | select((.pre_rps? and .post_rps? and .post_over_pre?
                   and .recovery_s? and .view_changes? != null) | not)] | length' \
              "$bench5_committed")
  # Fault-injection acceptance gates: the leader crash must actually
  # have happened (a recovery was measured, views moved), recovery must
  # be bounded, post-recovery throughput must reach >= 90% of pre-crash,
  # and the seeded chaos soak must end safe, converged and bit-identical
  # across its two runs.
  ratio_ok=$(jq '.crash.post_over_pre >= 0.9' "$bench5_committed")
  rec_ok=$(jq '.crash.recovery_s > 0 and .crash.recovery_s <= 2' "$bench5_committed")
  vc_ok=$(jq '.crash.view_changes >= 1' "$bench5_committed")
  soak_ok=$(jq '[.crash.safety_ok, .soak.safety_ok, .soak.converged,
                 .soak.runs_identical] | all' "$bench5_committed")
  echo "bench005 committed: ratio_ok=$ratio_ok recovery_ok=$rec_ok views_ok=$vc_ok soak_ok=$soak_ok"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench005 was a --quick run" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench005 missing crash/soak/live sections" >&2; exit 1; }
  [ "$crash_bad" -eq 0 ] || { echo "FAIL: bench005 crash section missing required fields" >&2; exit 1; }
  [ "$ratio_ok" = "true" ] || { echo "FAIL: post-recovery throughput < 0.9x pre-crash" >&2; exit 1; }
  [ "$rec_ok" = "true" ] || { echo "FAIL: recovery_s absent or out of (0, 2]" >&2; exit 1; }
  [ "$vc_ok" = "true" ] || { echo "FAIL: leader crash caused no view change" >&2; exit 1; }
  [ "$soak_ok" = "true" ] || { echo "FAIL: chaos soak unsafe, diverged or non-deterministic" >&2; exit 1; }
else
  [ -s "$bench5_committed" ] || { echo "FAIL: $bench5_committed empty" >&2; exit 1; }
  echo "bench005 committed: jq not installed, checked file is non-empty"
fi

echo "== bench006 smoke (quick) =="
dune exec bench/main.exe -- bench006 --quick --bench006-out "$bench6_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench6_file"
  pts=$(jq '.points | length' "$bench6_file")
  bad=$(jq '[.points[] | select(.throughput_rps <= 0)] | length' "$bench6_file")
  # Per-group throughputs must sum to the total (the router loses
  # nothing), and the barrier run must actually execute Global commands.
  split_bad=$(jq '[.points[]
                   | select((([.group_throughputs_rps[]] | add)
                             - .throughput_rps | fabs)
                            > 0.01 * .throughput_rps)] | length' "$bench6_file")
  globals=$(jq '.barrier.globals_executed' "$bench6_file")
  echo "bench006 smoke: $pts points, $globals globals through the barrier"
  [ "$pts" -eq 6 ] || { echo "FAIL: expected 6 multi-group points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench006 smoke" >&2; exit 1; }
  [ "$split_bad" -eq 0 ] || { echo "FAIL: per-group throughputs do not sum to the total" >&2; exit 1; }
  [ "$globals" -gt 0 ] || { echo "FAIL: barrier run executed no Global commands" >&2; exit 1; }
else
  [ -s "$bench6_file" ] || { echo "FAIL: $bench6_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench6_file")" in
    '{') ;;
    *) echo "FAIL: $bench6_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench006 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench006 committed results gate =="
bench6_committed="bench/BENCH_006.json"
[ -f "$bench6_committed" ] || { echo "FAIL: $bench6_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench6_committed"
  quick=$(jq '.quick' "$bench6_committed")
  pts=$(jq '.points | length' "$bench6_committed")
  schema_bad=$(jq '[.points[] | select((.groups? and .cores?
                    and .throughput_rps? and .speedup_vs_g1?
                    and .group_throughputs_rps?) | not)] | length' \
               "$bench6_committed")
  # The tentpole's acceptance gate: sharding the ordering path over 4
  # groups must at least double single-group throughput at 24 cores
  # (the single group is NIC-bound at its one leader; each extra group
  # adds another leader NIC to the budget).
  scale_ok=$(jq '[.points[] | select(.groups == 4 and .cores == 24
                  and .speedup_vs_g1 >= 2)] | length >= 1' "$bench6_committed")
  globals=$(jq '.barrier.globals_executed' "$bench6_committed")
  echo "bench006 committed: $pts points, 4-group@24-core >= 2x: $scale_ok, $globals globals"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench006 was a --quick run" >&2; exit 1; }
  [ "$pts" -ge 6 ] || { echo "FAIL: expected >= 6 committed bench006 points" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench006 point missing required fields" >&2; exit 1; }
  [ "$scale_ok" = "true" ] || { echo "FAIL: 4 groups at 24 cores below 2x single-group throughput" >&2; exit 1; }
  [ "$globals" -gt 0 ] || { echo "FAIL: committed barrier run executed no Global commands" >&2; exit 1; }
else
  [ -s "$bench6_committed" ] || { echo "FAIL: $bench6_committed empty" >&2; exit 1; }
  echo "bench006 committed: jq not installed, checked file is non-empty"
fi

echo "== bench007 smoke (quick) =="
dune exec bench/main.exe -- bench007 --quick --bench007-out "$bench7_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench7_file"
  pts=$(jq '.sim.points | length' "$bench7_file")
  bad=$(jq '[.sim.points[] | select(.nosteal_rps <= 0 or .steal_rps <= 0)]
            | length' "$bench7_file")
  # The claim holds even on the quick run: stealing recovers the
  # skew-0.9 convoy.
  speedup_ok=$(jq '.sim.steal_speedup_hot >= 1.5' "$bench7_file")
  echo "bench007 smoke: $pts skew points, steal>=1.5x: $speedup_ok"
  [ "$pts" -eq 3 ] || { echo "FAIL: expected 3 skew points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench007 smoke" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: steal speedup at skew 0.9 below 1.5x" >&2; exit 1; }
else
  [ -s "$bench7_file" ] || { echo "FAIL: $bench7_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench7_file")" in
    '{') ;;
    *) echo "FAIL: $bench7_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench007 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench007 committed results gate =="
bench7_committed="bench/BENCH_007.json"
[ -f "$bench7_committed" ] || { echo "FAIL: $bench7_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench7_committed"
  quick=$(jq '.quick' "$bench7_committed")
  pts=$(jq '.sim.points | length' "$bench7_committed")
  schema_bad=$(jq '[.sim.points[] | select((.skew != null and .nosteal_rps?
                    and .steal_rps? and .speedup? and (.steals != null))
                    | not)] | length' "$bench7_committed")
  speedup_ok=$(jq '.sim.steal_speedup_hot >= 1.5' "$bench7_committed")
  steals_ok=$(jq '[.sim.points[] | select(.skew >= 0.5 and .steals > 0)]
               | length >= 1' "$bench7_committed")
  echo "bench007 committed: $pts points, steal>=1.5x: $speedup_ok"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench007 was a --quick run" >&2; exit 1; }
  [ "$pts" -eq 3 ] || { echo "FAIL: expected 3 committed skew points" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench007 point missing required fields" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: committed steal speedup below 1.5x" >&2; exit 1; }
  [ "$steals_ok" = "true" ] || { echo "FAIL: no skewed committed point recorded steals" >&2; exit 1; }
else
  [ -s "$bench7_committed" ] || { echo "FAIL: $bench7_committed empty" >&2; exit 1; }
  echo "bench007 committed: jq not installed, checked file is non-empty"
fi

echo "== bench008 smoke (quick) =="
dune exec bench/main.exe -- bench008 --quick --bench008-out "$bench8_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench8_file"
  pts=$(jq '.points | length' "$bench8_file")
  bad=$(jq '[.points[] | select(.throughput_rps <= 0)] | length' "$bench8_file")
  # Read safety must hold on every swept point, and the read fast path
  # must beat the ordered-read baseline even on the quick run.
  safe_ok=$(jq '[.points[] | .safety_ok] | all' "$bench8_file")
  stale_bad=$(jq '[.points[] | select(.stale_answers != 0)] | length' "$bench8_file")
  speedup_ok=$(jq '.stale_speedup_95_g1 >= 5' "$bench8_file")
  echo "bench008 smoke: $pts points, safe: $safe_ok, stale>=5x: $speedup_ok"
  [ "$pts" -eq 12 ] || { echo "FAIL: expected 12 read-path points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench008 smoke" >&2; exit 1; }
  [ "$safe_ok" = "true" ] || { echo "FAIL: a bench008 smoke point violated read safety" >&2; exit 1; }
  [ "$stale_bad" -eq 0 ] || { echo "FAIL: bench008 smoke served stale answers" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: stale-read speedup below 5x at 95/5" >&2; exit 1; }
else
  [ -s "$bench8_file" ] || { echo "FAIL: $bench8_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench8_file")" in
    '{') ;;
    *) echo "FAIL: $bench8_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench008 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench008 committed results gate =="
bench8_committed="bench/BENCH_008.json"
[ -f "$bench8_committed" ] || { echo "FAIL: $bench8_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench8_committed"
  quick=$(jq '.quick' "$bench8_committed")
  pts=$(jq '.points | length' "$bench8_committed")
  schema_bad=$(jq '[.points[] | select(((.read_ratio != null) and (.groups != null)
                    and .mode? and .throughput_rps? and (.reads_rps != null)
                    and (.read_rejects != null) and (.stale_answers != null)
                    and (.safety_ok != null)) | not)] | length' \
               "$bench8_committed")
  # The tentpole's acceptance gate: at 95/5 the bounded-staleness fast
  # path must serve >= 5x the ordered-read baseline on one group.
  speedup_ok=$(jq '.stale_speedup_95_g1 >= 5' "$bench8_committed")
  safe_ok=$(jq '([.points[] | .safety_ok] | all)
                and ([.points[] | select(.stale_answers != 0)] | length == 0)' \
            "$bench8_committed")
  # Goldens gate: lease = false is byte-for-byte the seed's all-write
  # path, whatever the read ratio — so the two ordered baselines of each
  # group count (95/5 and 50/50) must report bit-identical throughput.
  golden_ok=$(jq '[.points[] | select(.mode == "ordered")]
                  | group_by(.groups)
                  | [.[] | ([.[] | .throughput_rps] | unique | length == 1)]
                  | all' "$bench8_committed")
  lin_ok=$(jq '[.points[] | select(.mode == "lease" and .reads_rps <= 0)]
               | length == 0' "$bench8_committed")
  echo "bench008 committed: $pts points, stale>=5x: $speedup_ok, safe: $safe_ok, lease-off golden: $golden_ok"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench008 was a --quick run" >&2; exit 1; }
  [ "$pts" -eq 12 ] || { echo "FAIL: expected 12 committed bench008 points" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench008 point missing required fields" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: committed stale-read speedup below 5x at 95/5" >&2; exit 1; }
  [ "$safe_ok" = "true" ] || { echo "FAIL: a committed bench008 point violated read safety" >&2; exit 1; }
  [ "$golden_ok" = "true" ] || { echo "FAIL: lease-off ordered baselines diverge (golden pin broken)" >&2; exit 1; }
  [ "$lin_ok" = "true" ] || { echo "FAIL: a lease point served no fast-path reads" >&2; exit 1; }
else
  [ -s "$bench8_committed" ] || { echo "FAIL: $bench8_committed empty" >&2; exit 1; }
  echo "bench008 committed: jq not installed, checked file is non-empty"
fi

echo "== bench009 smoke (quick) =="
dune exec bench/main.exe -- bench009 --quick --bench009-out "$bench9_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench9_file"
  pts=$(jq '.points | length' "$bench9_file")
  bad=$(jq '[.points[] | select(.throughput_rps <= 0)] | length' "$bench9_file")
  # Even on the quick run: speculation must collapse the commit->execute
  # gap, the spec-off arms must run zero speculation machinery (golden
  # pin), and the chaos-reorder soak must abort frames, stay safe and
  # reproduce bit-identically.
  safe_ok=$(jq '[.points[] | .safety_ok] | all' "$bench9_file")
  off_clean=$(jq '[.points[] | select(.speculate == false
                   and (.spec_dispatched + .spec_confirmed + .spec_aborted) != 0)]
                  | length' "$bench9_file")
  speedup_ok=$(jq '.ce_speedup_skew09_g1 >= 2' "$bench9_file")
  chaos_ok=$(jq '.chaos.spec_aborted > 0 and .chaos.safety_ok
                 and .chaos.deterministic' "$bench9_file")
  echo "bench009 smoke: $pts points, ce>=2x: $speedup_ok, chaos ok: $chaos_ok"
  [ "$pts" -eq 8 ] || { echo "FAIL: expected 8 speculation points" >&2; exit 1; }
  [ "$bad" -eq 0 ] || { echo "FAIL: non-positive throughput in bench009 smoke" >&2; exit 1; }
  [ "$safe_ok" = "true" ] || { echo "FAIL: a bench009 smoke point violated safety" >&2; exit 1; }
  [ "$off_clean" -eq 0 ] || { echo "FAIL: spec-off point ran speculation machinery (golden pin broken)" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: commit->execute speedup below 2x at skew 0.9" >&2; exit 1; }
  [ "$chaos_ok" = "true" ] || { echo "FAIL: bench009 chaos soak aborted nothing, was unsafe or non-deterministic" >&2; exit 1; }
else
  [ -s "$bench9_file" ] || { echo "FAIL: $bench9_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench9_file")" in
    '{') ;;
    *) echo "FAIL: $bench9_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench009 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench009 committed results gate =="
bench9_committed="bench/BENCH_009.json"
[ -f "$bench9_committed" ] || { echo "FAIL: $bench9_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench9_committed"
  quick=$(jq '.quick' "$bench9_committed")
  pts=$(jq '.points | length' "$bench9_committed")
  schema_bad=$(jq '[.points[] | select(((.skew != null) and (.groups != null)
                    and (.speculate != null) and .throughput_rps?
                    and (.commit_exec_latency_s != null)
                    and (.spec_dispatched != null) and (.spec_confirmed != null)
                    and (.spec_aborted != null) and (.safety_ok != null))
                    | not)] | length' "$bench9_committed")
  # The tentpole's acceptance gate: speculation must at least halve the
  # commit->execute latency at skew 0.9 on one group, every point must
  # end safe, the spec-on arms must actually confirm speculations, and
  # the chaos-reorder soak must roll frames back, stay safe and
  # reproduce bit-identically across its two runs.
  speedup_ok=$(jq '.ce_speedup_skew09_g1 >= 2' "$bench9_committed")
  safe_ok=$(jq '[.points[] | .safety_ok] | all' "$bench9_committed")
  off_clean=$(jq '[.points[] | select(.speculate == false
                   and (.spec_dispatched + .spec_confirmed + .spec_aborted) != 0)]
                  | length' "$bench9_committed")
  on_live=$(jq '[.points[] | select(.speculate and .spec_confirmed <= 0)]
                | length' "$bench9_committed")
  chaos_ok=$(jq '.chaos.spec_aborted > 0 and .chaos.safety_ok
                 and .chaos.deterministic' "$bench9_committed")
  echo "bench009 committed: $pts points, ce>=2x: $speedup_ok, safe: $safe_ok, chaos ok: $chaos_ok"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench009 was a --quick run" >&2; exit 1; }
  [ "$pts" -eq 8 ] || { echo "FAIL: expected 8 committed bench009 points" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench009 point missing required fields" >&2; exit 1; }
  [ "$speedup_ok" = "true" ] || { echo "FAIL: committed commit->execute speedup below 2x at skew 0.9" >&2; exit 1; }
  [ "$safe_ok" = "true" ] || { echo "FAIL: a committed bench009 point violated safety" >&2; exit 1; }
  [ "$off_clean" -eq 0 ] || { echo "FAIL: committed spec-off point ran speculation machinery" >&2; exit 1; }
  [ "$on_live" -eq 0 ] || { echo "FAIL: a committed spec-on point confirmed no speculations" >&2; exit 1; }
  [ "$chaos_ok" = "true" ] || { echo "FAIL: committed bench009 chaos soak aborted nothing, was unsafe or non-deterministic" >&2; exit 1; }
else
  [ -s "$bench9_committed" ] || { echo "FAIL: $bench9_committed empty" >&2; exit 1; }
  echo "bench009 committed: jq not installed, checked file is non-empty"
fi

echo "== bench010 smoke (quick) =="
dune exec bench/main.exe -- bench010 --quick --bench010-out "$bench10_file"

if command -v jq >/dev/null 2>&1; then
  jq empty "$bench10_file"
  # Even on the quick run: the full grow/shrink schedule must complete
  # (epoch 6), every arm must stay linearizable, both chaos arms must
  # rerun bit-identically, and the live walk must end back at three
  # voters with the joiner bootstrapped from a snapshot, the removed
  # nodes fenced and the exactly-once audit intact. (The >= 0.9x
  # throughput-ratio gate applies to the committed full run only — a
  # sub-second quick run is mostly reconfiguration window.)
  sim_ok=$(jq '[.sim.static.safety_ok, .sim.reconfig.safety_ok,
                .sim.crash_join.safety_ok, .sim.runs_identical,
                .sim.crash_runs_identical] | all' "$bench10_file")
  sched_ok=$(jq '.sim.reconfig.final_epoch == 6
                 and .sim.crash_join.final_epoch >= 2' "$bench10_file")
  live_ok=$(jq '.live.final_voters == 3 and .live.joiner_snapshot_installs >= 1
                and .live.removed_fenced and .live.exactly_once_ok
                and .live.completed > 0' "$bench10_file")
  echo "bench010 smoke: sim ok: $sim_ok, schedule ok: $sched_ok, live ok: $live_ok"
  [ "$sim_ok" = "true" ] || { echo "FAIL: bench010 smoke sim arm unsafe or non-deterministic" >&2; exit 1; }
  [ "$sched_ok" = "true" ] || { echo "FAIL: bench010 smoke reconfig schedule did not complete" >&2; exit 1; }
  [ "$live_ok" = "true" ] || { echo "FAIL: bench010 smoke live membership walk failed" >&2; exit 1; }
else
  [ -s "$bench10_file" ] || { echo "FAIL: $bench10_file empty" >&2; exit 1; }
  case "$(head -c1 "$bench10_file")" in
    '{') ;;
    *) echo "FAIL: $bench10_file does not look like JSON" >&2; exit 1 ;;
  esac
  echo "bench010 smoke: jq not installed, checked file is non-empty JSON"
fi

echo "== bench010 committed results gate =="
bench10_committed="bench/BENCH_010.json"
[ -f "$bench10_committed" ] || { echo "FAIL: $bench10_committed missing" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
  jq empty "$bench10_committed"
  quick=$(jq '.quick' "$bench10_committed")
  schema_bad=$(jq '[.sim.static, .sim.reconfig, .sim.crash_join]
                   | [.[] | select(((.throughput_rps != null)
                      and (.completed != null) and (.final_epoch != null)
                      and (.reconfigs_applied != null)
                      and (.view_changes != null) and (.safety_ok != null))
                      | not)] | length' "$bench10_committed")
  # The acceptance gates: zero safety violations across the 3->5->3
  # walk, the schedule completes (six consensus-ordered epochs), the
  # reconfig arm keeps >= 0.9x the static baseline's throughput, both
  # chaos arms rerun bit-identically, and on the live runtime the
  # joiner reaches the voting set via snapshot-based state transfer
  # while removed nodes fence themselves and no call is lost or
  # double-executed.
  sim_ok=$(jq '[.sim.static.safety_ok, .sim.reconfig.safety_ok,
                .sim.crash_join.safety_ok, .sim.runs_identical,
                .sim.crash_runs_identical] | all' "$bench10_committed")
  sched_ok=$(jq '.sim.reconfig.final_epoch == 6
                 and .sim.crash_join.final_epoch >= 2' "$bench10_committed")
  ratio_ok=$(jq '.sim.throughput_ratio >= 0.9' "$bench10_committed")
  live_ok=$(jq '.live.final_voters == 3 and .live.joiner_snapshot_installs >= 1
                and .live.reconfigs_applied >= 6 and .live.removed_fenced
                and .live.exactly_once_ok' "$bench10_committed")
  echo "bench010 committed: sim ok: $sim_ok, schedule ok: $sched_ok, ratio ok: $ratio_ok, live ok: $live_ok"
  [ "$quick" = "false" ] || { echo "FAIL: committed bench010 was a --quick run" >&2; exit 1; }
  [ "$schema_bad" -eq 0 ] || { echo "FAIL: bench010 arm missing required fields" >&2; exit 1; }
  [ "$sim_ok" = "true" ] || { echo "FAIL: a committed bench010 arm violated safety or diverged across reruns" >&2; exit 1; }
  [ "$sched_ok" = "true" ] || { echo "FAIL: committed bench010 reconfig schedule did not complete" >&2; exit 1; }
  [ "$ratio_ok" = "true" ] || { echo "FAIL: committed reconfig throughput below 0.9x the static baseline" >&2; exit 1; }
  [ "$live_ok" = "true" ] || { echo "FAIL: committed bench010 live membership walk failed" >&2; exit 1; }
else
  [ -s "$bench10_committed" ] || { echo "FAIL: $bench10_committed empty" >&2; exit 1; }
  echo "bench010 committed: jq not installed, checked file is non-empty"
fi

echo "== docs metrics gate =="
# Every metric name the code can register must be documented: a
# quoted msmr_* string in lib/ that never appears in
# docs/OBSERVABILITY.md fails the build (names there are written out in
# full, never brace-compressed, exactly so this check can be literal).
missing=0
for m in $(grep -rhoE '"msmr_[a-z0-9_]+"' lib/ | tr -d '"' | sort -u); do
  grep -q "$m" docs/OBSERVABILITY.md \
    || { echo "FAIL: metric $m not documented in docs/OBSERVABILITY.md" >&2; missing=1; }
done
[ "$missing" -eq 0 ] || exit 1
echo "docs: $(grep -rhoE '"msmr_[a-z0-9_]+"' lib/ | sort -u | wc -l) metric names all documented"

echo "== verify OK =="
