#!/bin/sh
# Pre-PR gate: a warning-clean build of every target, then the full test
# suite. Run from the repository root before sending changes for review.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all (warnings are errors) =="
out=$(dune build @all 2>&1) || {
  printf '%s\n' "$out"
  echo "check.sh: build failed" >&2
  exit 1
}
if [ -n "$out" ]; then
  printf '%s\n' "$out"
  echo "check.sh: build emitted warnings; fix them before sending a PR" >&2
  exit 1
fi

echo "== dune runtest =="
# Wall-clock of the whole suite is wired into the bench JSON below, so a
# test-time regression is visible next to the census timings.
runtest_start=$(date +%s)
dune runtest
runtest_s=$(( $(date +%s) - runtest_start ))
echo "(test suite took ${runtest_s}s)"

echo "== chaos smoke (fault injection: no crashes, deterministic) =="
# A small seeded fault matrix, run twice: any uncaught exception fails via
# the exit code (3 = internal error), and a diff between the two runs fails
# on a determinism regression.
cli=_build/default/bin/nebby_cli.exe
smoke="--ccas newreno,bbr --families link_flap,burst_loss,truncate_capture,flow_reset \
  --training-runs 3 --max-attempts 2 --seed 1234"
tmp1=$(mktemp) tmp2=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2"' EXIT
"$cli" chaos $smoke >"$tmp1" || {
  echo "check.sh: chaos smoke exited non-zero" >&2
  exit 1
}
"$cli" chaos $smoke >"$tmp2" || {
  echo "check.sh: chaos smoke exited non-zero on second run" >&2
  exit 1
}
if ! cmp -s "$tmp1" "$tmp2"; then
  diff "$tmp1" "$tmp2" || true
  echo "check.sh: chaos smoke is not deterministic for a fixed seed" >&2
  exit 1
fi

echo "== census par-smoke (jobs=4 must match jobs=1 exactly) =="
# The engine's determinism contract, end to end through the CLI: a
# parallel census must be byte-identical to the serial one.
census="--sites 32 --training-runs 3 --seed 1234"
"$cli" census $census --jobs 1 >"$tmp1" || {
  echo "check.sh: serial census smoke exited non-zero" >&2
  exit 1
}
"$cli" census $census --jobs 4 >"$tmp2" || {
  echo "check.sh: parallel census smoke exited non-zero" >&2
  exit 1
}
if ! cmp -s "$tmp1" "$tmp2"; then
  diff "$tmp1" "$tmp2" || true
  echo "check.sh: census --jobs 4 diverged from --jobs 1" >&2
  exit 1
fi

echo "== pool trace gate (census --pool-trace; report/chrome render deterministically) =="
# Task-lifecycle tracing end to end: a traced census must record every
# task, and everything derived from the saved trace — the text report,
# the Chrome export, the HTML page — must be a pure function of it
# (byte-identical across renders).
pool_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2"; rm -rf "$pool_tmp"' EXIT
"$cli" census $census --jobs 4 --pool-trace "$pool_tmp/trace.jsonl" >/dev/null || {
  echo "check.sh: census --pool-trace exited non-zero" >&2
  exit 1
}
if ! grep -q '"pool_trace"' "$pool_tmp/trace.jsonl"; then
  echo "check.sh: pool trace file is missing its header" >&2
  exit 1
fi
tasks=$(( $(wc -l < "$pool_tmp/trace.jsonl") - 1 ))
if [ "$tasks" -ne 32 ]; then
  echo "check.sh: pool trace recorded ${tasks} tasks for a 32-site census" >&2
  exit 1
fi
"$cli" stats --pool "$pool_tmp/trace.jsonl" --chrome-trace "$pool_tmp/chrome1.json" \
  >"$pool_tmp/report1.txt" || {
  echo "check.sh: stats --pool exited non-zero" >&2
  exit 1
}
"$cli" stats --pool "$pool_tmp/trace.jsonl" --chrome-trace "$pool_tmp/chrome2.json" \
  >"$pool_tmp/report2.txt" || {
  echo "check.sh: stats --pool exited non-zero on second run" >&2
  exit 1
}
# the chrome-trace destination path is echoed; normalize it before diffing
sed -i "s|$pool_tmp/chrome1.json|CHROME|" "$pool_tmp/report1.txt"
sed -i "s|$pool_tmp/chrome2.json|CHROME|" "$pool_tmp/report2.txt"
if ! cmp -s "$pool_tmp/report1.txt" "$pool_tmp/report2.txt"; then
  diff "$pool_tmp/report1.txt" "$pool_tmp/report2.txt" || true
  echo "check.sh: pool report is not deterministic for a saved trace" >&2
  exit 1
fi
if ! cmp -s "$pool_tmp/chrome1.json" "$pool_tmp/chrome2.json"; then
  echo "check.sh: chrome-trace export is not deterministic for a saved trace" >&2
  exit 1
fi
"$cli" report "$pool_tmp/trace.jsonl" -o "$pool_tmp/pool1.html" >/dev/null || {
  echo "check.sh: report on the pool trace exited non-zero" >&2
  exit 1
}
"$cli" report "$pool_tmp/trace.jsonl" -o "$pool_tmp/pool2.html" >/dev/null || {
  echo "check.sh: report on the pool trace exited non-zero on second run" >&2
  exit 1
}
if ! cmp -s "$pool_tmp/pool1.html" "$pool_tmp/pool2.html"; then
  echo "check.sh: pool HTML report is not deterministic for a saved trace" >&2
  exit 1
fi

echo "== golden fixtures regenerate bit-identically =="
# Drift caught here and not by test_golden means gen_golden and the test
# disagree about the pinned configuration; drift caught by both means the
# pipeline's numerics changed (regenerate and review the diff if it is
# intentional).
golden_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2"; rm -rf "$pool_tmp" "$golden_tmp"' EXIT
dune exec tools/gen_golden.exe -- "$golden_tmp" >/dev/null
if ! diff -r test/golden "$golden_tmp"; then
  echo "check.sh: golden fixtures are stale (dune exec tools/gen_golden.exe)" >&2
  exit 1
fi

echo "== explain schema-stability gate (golden fixture) =="
# The rendered provenance of a pinned fixture must match the committed
# expectation byte for byte: any schema or numeric drift in the verdict
# report shows up as a diff here. Then the report must survive a round
# trip through --provenance JSONL serialization.
"$cli" explain test/golden/cubic.json >"$tmp1" || {
  echo "check.sh: explain on the golden fixture exited non-zero" >&2
  exit 1
}
if ! diff tools/expect/explain_cubic.txt "$tmp1"; then
  echo "check.sh: explain output drifted from tools/expect/explain_cubic.txt" >&2
  echo "  (if intentional: regenerate with" >&2
  echo "   dune exec bin/nebby_cli.exe -- explain test/golden/cubic.json > tools/expect/explain_cubic.txt)" >&2
  exit 1
fi
prov_tmp=$(mktemp --suffix=.jsonl)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp"; rm -rf "$pool_tmp" "$golden_tmp"' EXIT
"$cli" explain test/golden/cubic.json --provenance "$prov_tmp" >/dev/null || {
  echo "check.sh: explain --provenance exited non-zero" >&2
  exit 1
}
"$cli" explain "$prov_tmp" >"$tmp2" || {
  echo "check.sh: explain on the provenance JSONL exited non-zero" >&2
  exit 1
}
if ! cmp -s "$tmp1" "$tmp2"; then
  diff "$tmp1" "$tmp2" || true
  echo "check.sh: provenance JSONL round trip diverged from the direct render" >&2
  exit 1
fi

echo "== report determinism gate (golden fixture -> HTML) =="
# The HTML report of a pinned fixture must match the committed expectation
# byte for byte: charts, spectrum and candidate table are a pure function
# of the dump, with no wall-clock or host-dependent data.
"$cli" report test/golden/cubic.json -o "$tmp1" >/dev/null || {
  echo "check.sh: report on the golden fixture exited non-zero" >&2
  exit 1
}
if ! diff tools/expect/report_cubic.html "$tmp1"; then
  echo "check.sh: report output drifted from tools/expect/report_cubic.html" >&2
  echo "  (if intentional: regenerate with" >&2
  echo "   dune exec bin/nebby_cli.exe -- report test/golden/cubic.json -o tools/expect/report_cubic.html)" >&2
  exit 1
fi
# A forced low-confidence measurement must produce a flight dump that
# renders byte-identically across two runs.
flight_tmp=$(mktemp --suffix=.jsonl)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp"' EXIT
"$cli" measure --cca cubic --training-runs 3 --seed 1234 \
  --flight-confidence 2 --flight "$flight_tmp" >/dev/null || true
if [ ! -s "$flight_tmp" ]; then
  echo "check.sh: measure --flight-confidence 2 produced no flight dump" >&2
  exit 1
fi
"$cli" report "$flight_tmp" -o "$tmp1" >/dev/null || {
  echo "check.sh: report on the flight dump exited non-zero" >&2
  exit 1
}
"$cli" report "$flight_tmp" -o "$tmp2" >/dev/null || {
  echo "check.sh: report on the flight dump exited non-zero on second run" >&2
  exit 1
}
if ! cmp -s "$tmp1" "$tmp2"; then
  diff "$tmp1" "$tmp2" || true
  echo "check.sh: flight-dump report is not deterministic" >&2
  exit 1
fi

echo "== schema skew gate (a version-99 file of each kind exits 2) =="
# Every subcommand that reads a versioned file must reject a future
# schema version with exit code 2 and exactly one "schema version
# mismatch" line on stderr.
skew_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp" "$skew_tmp"' EXIT
for spec in "nebby_journal|serve --compact-only --store" "nebby_journal|drift" \
  "nebby_serve_status|stats --live" "pool_trace|stats --pool" "flight_dump|report" \
  "provenance|explain" "campaign|campaign --from"; do
  kind=${spec%%|*} cmd=${spec#*|}
  printf '{"kind":"%s","version":99}\n' "$kind" >"$skew_tmp/$kind.v99"
  rc=0
  "$cli" $cmd "$skew_tmp/$kind.v99" >/dev/null 2>"$skew_tmp/err" || rc=$?
  if [ "$rc" -ne 2 ] || [ "$(wc -l <"$skew_tmp/err")" -ne 1 ] \
    || ! grep -q "schema version mismatch" "$skew_tmp/err"; then
    cat "$skew_tmp/err" >&2
    echo "check.sh: $cmd on a version-99 $kind file exited $rc;" \
      "expected 2 with one schema version mismatch line" >&2
    exit 1
  fi
done
rm -rf "$skew_tmp"

echo "== bench engine + baseline gate (census serial vs parallel, bench.json) =="
# --baseline writes BENCH_<date>.json and compares the guarded census
# timings against the committed BENCH_baseline.json; a >25% slowdown
# fails the gate (exit 1). Without a committed baseline it prints a hint
# and passes.
dune exec bench/main.exe -- engine serve --sites 16 --training-runs 3 \
  --json bench.json --runtest-s "$runtest_s" --baseline --tolerance 0.25

echo "== campaign determinism gate (4 seeds, jobs=4 must match jobs=1) =="
# Two 4-seed accuracy campaigns at different worker counts must produce
# byte-identical per-seed stores, summary JSON, and dashboard HTML — the
# statistical layer inherits the engine's determinism contract end to end.
camp_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp" "$camp_tmp"' EXIT
campaign="campaign --seeds 4 --training-runs 3 --bench-json bench.json"
"$cli" $campaign --jobs 1 --out "$camp_tmp/runs1.jsonl" \
  --summary "$camp_tmp/sum1.json" --html "$camp_tmp/dash1.html" >/dev/null || {
  echo "check.sh: campaign --jobs 1 failed its pass gates (or crashed)" >&2
  exit 1
}
"$cli" $campaign --jobs 4 --out "$camp_tmp/runs2.jsonl" \
  --summary "$camp_tmp/sum2.json" --html "$camp_tmp/dash2.html" >/dev/null || {
  echo "check.sh: campaign --jobs 4 failed its pass gates (or crashed)" >&2
  exit 1
}
for pair in runs1.jsonl:runs2.jsonl sum1.json:sum2.json dash1.html:dash2.html; do
  a="$camp_tmp/${pair%%:*}" b="$camp_tmp/${pair#*:}"
  if ! cmp -s "$a" "$b"; then
    diff "$a" "$b" | head -20 || true
    echo "check.sh: campaign --jobs 4 diverged from --jobs 1 (${pair})" >&2
    exit 1
  fi
done
# The campaign's pass gates (exercised by the two runs above via
# --bench-json) subsume the old ad-hoc flight-overhead awk check: the
# accuracy floors per CCA family, the CI-width ceiling, the census
# throughput floor, and the flight/provenance overhead ceilings all
# gate here, on the fresh bench.json.
overhead=$(sed -n 's/.*"census_flight_overhead_frac": \([-0-9.eE+]*\).*/\1/p' bench.json)
echo "(campaign gates green; flight recorder overhead: ${overhead:-unmeasured})"
# Pool task tracing is opt-in, but when enabled it must stay cheap: the
# bench's paired-run measurement of a fully traced census may not cost
# more than 5% CPU time over the untraced one.
trace_ovh=$(sed -n 's/.*"census_trace_overhead_frac": \([-0-9.eE+]*\).*/\1/p' bench.json)
if [ -z "$trace_ovh" ]; then
  echo "check.sh: bench.json is missing census_trace_overhead_frac" >&2
  exit 1
fi
if ! awk -v o="$trace_ovh" 'BEGIN { exit !(o <= 0.05) }'; then
  echo "check.sh: pool trace overhead ${trace_ovh} exceeds the 5% ceiling" >&2
  exit 1
fi
echo "(pool trace overhead: ${trace_ovh})"
# The per-epoch alert engine rides the serve hot path, so its paired-run
# overhead measurement gates on the same 5% CPU-time budget.
alert_ovh=$(sed -n 's/.*"serve_alert_overhead_frac": \([-0-9.eE+]*\).*/\1/p' bench.json)
if [ -z "$alert_ovh" ]; then
  echo "check.sh: bench.json is missing serve_alert_overhead_frac" >&2
  exit 1
fi
if ! awk -v o="$alert_ovh" 'BEGIN { exit !(o <= 0.05) }'; then
  echo "check.sh: serve alert overhead ${alert_ovh} exceeds the 5% ceiling" >&2
  exit 1
fi
echo "(serve alert overhead: ${alert_ovh})"

echo "== serve kill-and-resume gate (SIGKILL mid-census, resume, byte-identical) =="
# The headline recovery invariant: a census SIGKILLed at a seeded commit
# and resumed from its journal must converge to a final store that is
# byte-identical to an uninterrupted run's.
serve_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp" "$camp_tmp" "$serve_tmp"' EXIT
serve="serve --sites 8 --training-runs 3 --seed 1234 --jobs 4"
"$cli" $serve --store "$serve_tmp/ref.journal" >/dev/null || {
  echo "check.sh: reference serve run exited non-zero" >&2
  exit 1
}
# seeded kill point, mid-run but past the first commit
kill_after=$(( 1234 % 11 + 2 ))
if "$cli" $serve --store "$serve_tmp/crash.journal" \
  --kill-after-commits "$kill_after" >/dev/null 2>&1; then
  echo "check.sh: crash-injected serve run unexpectedly survived" >&2
  exit 1
fi
# a SIGKILL can also land mid-write: leave a torn half-record by hand
printf 'deadbeef {"key":"torn' >> "$serve_tmp/crash.journal"
# a second copy of the crashed store resumes below with a 2-entry value
# cache, so the bounded cache filled at open is held to the same bytes
cp "$serve_tmp/crash.journal" "$serve_tmp/crash_bounded.journal"
"$cli" $serve --store "$serve_tmp/crash.journal" \
  2>"$serve_tmp/resume.err" >/dev/null || {
  cat "$serve_tmp/resume.err" >&2
  echo "check.sh: resumed serve run exited non-zero" >&2
  exit 1
}
if ! grep -q "torn" "$serve_tmp/resume.err"; then
  echo "check.sh: resume did not warn about the torn tail record" >&2
  exit 1
fi
if ! cmp -s "$serve_tmp/ref.journal" "$serve_tmp/crash.journal"; then
  cmp "$serve_tmp/ref.journal" "$serve_tmp/crash.journal" || true
  echo "check.sh: resumed store diverged from the uninterrupted run" >&2
  exit 1
fi
"$cli" $serve --max-entries 2 --store "$serve_tmp/crash_bounded.journal" \
  2>"$serve_tmp/resume_bounded.err" >/dev/null || {
  cat "$serve_tmp/resume_bounded.err" >&2
  echo "check.sh: resumed serve run with --max-entries 2 exited non-zero" >&2
  exit 1
}
if ! cmp -s "$serve_tmp/ref.journal" "$serve_tmp/crash_bounded.journal"; then
  cmp "$serve_tmp/ref.journal" "$serve_tmp/crash_bounded.journal" || true
  echo "check.sh: store resumed with --max-entries 2 diverged from the uninterrupted run" >&2
  exit 1
fi
echo "(killed after ${kill_after} commits; resumed store byte-identical, also with --max-entries 2)"

echo "== serve compaction determinism gate (compact twice, byte-identical) =="
"$cli" serve --compact-only --store "$serve_tmp/ref.journal" >/dev/null || {
  echo "check.sh: serve --compact-only exited non-zero" >&2
  exit 1
}
cp "$serve_tmp/ref.journal" "$serve_tmp/once.journal"
"$cli" serve --compact-only --store "$serve_tmp/ref.journal" >/dev/null || {
  echo "check.sh: second serve --compact-only exited non-zero" >&2
  exit 1
}
if ! cmp -s "$serve_tmp/ref.journal" "$serve_tmp/once.journal"; then
  echo "check.sh: journal compaction is not idempotent" >&2
  exit 1
fi

echo "== serve health gate (final status snapshot: jobs=4 must match jobs=1) =="
# The live status file is wall-clock-bearing while running, but the final
# snapshot quotes waits in commit ticks and nulls the rate fields, so it
# inherits the determinism contract: jobs=1 and jobs=4 must leave
# byte-identical JSON (and Prometheus text), and `stats --live` must
# accept the schema.
health="serve --sites 8 --training-runs 3 --seed 1234"
"$cli" $health --jobs 1 --store "$serve_tmp/h1.journal" \
  --status-file "$serve_tmp/h1.status.json" >/dev/null || {
  echo "check.sh: serve --status-file --jobs 1 exited non-zero" >&2
  exit 1
}
"$cli" $health --jobs 4 --store "$serve_tmp/h4.journal" \
  --status-file "$serve_tmp/h4.status.json" >/dev/null || {
  echo "check.sh: serve --status-file --jobs 4 exited non-zero" >&2
  exit 1
}
if ! cmp -s "$serve_tmp/h1.status.json" "$serve_tmp/h4.status.json"; then
  diff "$serve_tmp/h1.status.json" "$serve_tmp/h4.status.json" || true
  echo "check.sh: final status snapshot diverged between jobs=1 and jobs=4" >&2
  exit 1
fi
if ! cmp -s "$serve_tmp/h1.status.json.prom" "$serve_tmp/h4.status.json.prom"; then
  diff "$serve_tmp/h1.status.json.prom" "$serve_tmp/h4.status.json.prom" || true
  echo "check.sh: Prometheus exposition diverged between jobs=1 and jobs=4" >&2
  exit 1
fi
if ! grep -q '"phase":"final"' "$serve_tmp/h1.status.json"; then
  echo "check.sh: final status snapshot is not in phase \"final\"" >&2
  exit 1
fi
"$cli" stats --live "$serve_tmp/h1.status.json" >/dev/null || {
  echo "check.sh: stats --live rejected the status snapshot" >&2
  exit 1
}

echo "== drift determinism gate (migrating census: ledger/dashboard/alert log byte-identical) =="
# The drift observatory end to end: a migrating population (CUBIC -> BBR
# from epoch 1) served at jobs=1 and jobs=4 with per-epoch re-measurement
# (--confidence-floor 1.1; the delta census would otherwise carry stale
# verdicts across the migration) must leave byte-identical stores and
# alert logs, and everything `nebby drift` derives from a store — the
# ledger JSON, the dashboard HTML, the text render — must be a pure
# function of it: analyzing the same store twice, and the two stores
# against each other, must all agree byte for byte.
drift_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp" "$camp_tmp" "$serve_tmp" "$drift_tmp"' EXIT
# same store basename in both dirs: the ledger's subject quotes it
mkdir -p "$drift_tmp/j1" "$drift_tmp/j4"
mig="serve --sites 8 --training-runs 3 --seed 1234 --epochs 3 \
  --migrate cubic:bbr:1:40 --confidence-floor 1.1"
"$cli" $mig --jobs 1 --store "$drift_tmp/j1/m.journal" \
  --alert-log "$drift_tmp/alerts1.jsonl" >/dev/null || {
  echo "check.sh: migrating serve --jobs 1 exited non-zero" >&2
  exit 1
}
"$cli" $mig --jobs 4 --store "$drift_tmp/j4/m.journal" \
  --alert-log "$drift_tmp/alerts4.jsonl" >/dev/null || {
  echo "check.sh: migrating serve --jobs 4 exited non-zero" >&2
  exit 1
}
if ! cmp -s "$drift_tmp/j1/m.journal" "$drift_tmp/j4/m.journal"; then
  echo "check.sh: migrating store diverged between jobs=1 and jobs=4" >&2
  exit 1
fi
if ! cmp -s "$drift_tmp/alerts1.jsonl" "$drift_tmp/alerts4.jsonl"; then
  diff "$drift_tmp/alerts1.jsonl" "$drift_tmp/alerts4.jsonl" || true
  echo "check.sh: alert log diverged between jobs=1 and jobs=4" >&2
  exit 1
fi
for pass in a b; do
  "$cli" drift "$drift_tmp/j1/m.journal" --out "$drift_tmp/$pass.ledger.json" \
    --html "$drift_tmp/$pass.dash.html" >"$drift_tmp/$pass.render.txt" || {
    echo "check.sh: nebby drift exited non-zero (pass $pass)" >&2
    exit 1
  }
done
sed -i "s|$drift_tmp/a|DRIFT|g" "$drift_tmp/a.render.txt"
sed -i "s|$drift_tmp/b|DRIFT|g" "$drift_tmp/b.render.txt"
for pair in a.ledger.json:b.ledger.json a.dash.html:b.dash.html a.render.txt:b.render.txt; do
  x="$drift_tmp/${pair%%:*}" y="$drift_tmp/${pair#*:}"
  if ! cmp -s "$x" "$y"; then
    diff "$x" "$y" | head -20 || true
    echo "check.sh: nebby drift is not deterministic (${pair})" >&2
    exit 1
  fi
done
"$cli" drift "$drift_tmp/j4/m.journal" --out "$drift_tmp/c.ledger.json" \
  --html "$drift_tmp/c.dash.html" >/dev/null || {
  echo "check.sh: nebby drift on the jobs=4 store exited non-zero" >&2
  exit 1
}
if ! cmp -s "$drift_tmp/a.ledger.json" "$drift_tmp/c.ledger.json" \
  || ! cmp -s "$drift_tmp/a.dash.html" "$drift_tmp/c.dash.html"; then
  echo "check.sh: drift artifacts diverged between the jobs=1 and jobs=4 stores" >&2
  exit 1
fi
# the ledger must cover every epoch of the run (the synthetic-truth
# detection accuracy itself is pinned by test/test_drift.ml; the small
# training control here keeps the gate fast, not accurate)
epochs_seen=$(grep -o '"epoch":' "$drift_tmp/a.ledger.json" | wc -l)
if [ "$epochs_seen" -ne 3 ]; then
  echo "check.sh: migrating ledger records ${epochs_seen} epoch points, expected 3" >&2
  exit 1
fi
echo "(migrating store, alert log and drift artifacts byte-identical at jobs=1 vs jobs=4)"

echo "== fuzz smoke (adversarial search: jobs-independent, fixtures replay) =="
# The coverage-guided search must be a pure function of its seed at any
# worker count: a serial and a 4-worker run must produce byte-identical
# summaries, corpus JSONL, and minimized fixture files — and must find at
# least one counterexample at this budget (exit 1 means it found none).
fuzz_tmp=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmp2" "$prov_tmp" "$flight_tmp"; rm -rf "$pool_tmp" "$golden_tmp" "$camp_tmp" "$serve_tmp" "$fuzz_tmp"' EXIT
fuzz="fuzz --budget 24 --seed 1234 --target cubic,vegas,yeah --log-level quiet"
"$cli" $fuzz --jobs 1 --out "$fuzz_tmp/fx1" --corpus "$fuzz_tmp/c1.jsonl" >"$tmp1" || {
  echo "check.sh: fuzz --jobs 1 smoke found no counterexample (or crashed)" >&2
  exit 1
}
"$cli" $fuzz --jobs 4 --out "$fuzz_tmp/fx2" --corpus "$fuzz_tmp/c2.jsonl" >"$tmp2" || {
  echo "check.sh: fuzz --jobs 4 smoke found no counterexample (or crashed)" >&2
  exit 1
}
# the summaries embed the (different) --out/--corpus paths; normalize them
sed -i "s|$fuzz_tmp/fx1|OUT|;s|$fuzz_tmp/c1.jsonl|CORPUS|" "$tmp1"
sed -i "s|$fuzz_tmp/fx2|OUT|;s|$fuzz_tmp/c2.jsonl|CORPUS|" "$tmp2"
if ! cmp -s "$tmp1" "$tmp2"; then
  diff "$tmp1" "$tmp2" || true
  echo "check.sh: fuzz --jobs 4 summary diverged from --jobs 1" >&2
  exit 1
fi
if ! cmp -s "$fuzz_tmp/c1.jsonl" "$fuzz_tmp/c2.jsonl"; then
  diff "$fuzz_tmp/c1.jsonl" "$fuzz_tmp/c2.jsonl" | head -10 || true
  echo "check.sh: fuzz --jobs 4 corpus diverged from --jobs 1" >&2
  exit 1
fi
if ! diff -r "$fuzz_tmp/fx1" "$fuzz_tmp/fx2"; then
  echo "check.sh: fuzz --jobs 4 fixtures diverged from --jobs 1" >&2
  exit 1
fi
# Every committed regression fixture must still reproduce its recorded
# verdict (exit 1 = a fixture went stale; the message names it).
"$cli" fuzz --replay test/adversarial --log-level quiet >/dev/null || {
  echo "check.sh: committed adversarial fixtures no longer replay" >&2
  exit 1
}

echo "check.sh: all green"
