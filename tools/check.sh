#!/bin/sh
# Pre-PR gate: a warning-clean build of every target, then the full test
# suite, then end-to-end gates through the CLI, then the perf gate. Run
# from the repository root before sending changes for review.
#
# The perf gate compares a base tree against the working tree with
# bench/perf. The base is HEAD when lib/, bin/ or bench/ has uncommitted
# changes (the change under test is the working tree), else HEAD^ (the
# change under test is the last commit). It is built in a git worktree
# under the work directory, which the exit trap removes.
set -eu

cd "$(dirname "$0")/.."

cli=_build/default/bin/nebby_cli.exe
work=$(mktemp -d)
trap 'rm -rf "$work"; git worktree prune' EXIT

fail() {
  echo "check.sh: $*" >&2
  exit 1
}

# run_ok WHAT CMD...: run CMD; a non-zero exit fails the gate, naming WHAT.
run_ok() {
  what=$1
  shift
  "$@" || fail "$what exited non-zero"
}

# same A B WHAT: files (or directories) A and B must be byte-identical; a
# difference shows the head of the diff and fails, naming WHAT.
same() {
  if [ -d "$1" ]; then diff -r "$1" "$2" >/dev/null; else cmp -s "$1" "$2"; fi && return 0
  diff -r "$1" "$2" | head -20 || true
  fail "$3"
}

# exits_2 WHAT CMD...: CMD must exit 2 (a usage error) within 60 s,
# neither crashing (3) nor hanging; its stderr is left in $work/err.
exits_2() {
  what=$1
  shift
  rc=0
  timeout 60 "$@" >/dev/null 2>"$work/err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    cat "$work/err" >&2
    fail "$what exited $rc; expected 2"
  fi
}

# one_err_line WHAT: the last exits_2 run printed exactly one stderr line.
one_err_line() {
  if [ "$(wc -l <"$work/err")" -ne 1 ]; then
    cat "$work/err" >&2
    fail "$1 printed $(wc -l <"$work/err") stderr lines; expected one"
  fi
}

# at_most FILE KEY LIMIT: the bench JSON FILE records KEY, at most LIMIT.
at_most() {
  v=$(sed -n "s/.*\"$2\": \\([-0-9.eE+]*\\).*/\\1/p" "$1")
  [ -n "$v" ] || fail "$1 is missing $2"
  awk -v o="$v" -v l="$3" 'BEGIN { exit !(o <= l) }' || fail "$2 ${v} exceeds the ceiling $3"
  echo "($2: ${v})"
}

echo "== dune build @all (warnings are errors) =="
out=$(dune build @all 2>&1) || {
  printf '%s\n' "$out"
  fail "build failed"
}
if [ -n "$out" ]; then
  printf '%s\n' "$out"
  fail "build emitted warnings; fix them before sending a PR"
fi

echo "== dune runtest =="
dune runtest

echo "== chaos smoke (fault injection: no crashes, deterministic) =="
# A small seeded fault matrix, run twice: any uncaught exception fails via
# the exit code (3 = internal error), and a diff between the two runs fails
# on a determinism regression.
smoke="--ccas newreno,bbr --families link_flap,burst_loss,truncate_capture,flow_reset \
  --training-runs 3 --max-attempts 2 --seed 1234"
run_ok "chaos smoke" "$cli" chaos $smoke >"$work/chaos1.txt"
run_ok "chaos smoke (second run)" "$cli" chaos $smoke >"$work/chaos2.txt"
same "$work/chaos1.txt" "$work/chaos2.txt" "chaos smoke is not deterministic for a fixed seed"

echo "== telemetry parity gate (chaos smoke --telemetry: jobs=4 must match jobs=1) =="
# Pool workers hand their spans and counters back through Obs.Collector,
# so a recording is complete at any worker count: after dropping the
# wall-time columns, the span name/count rows, the counter rows and the
# histogram name/count rows of `nebby stats` must be identical. The
# histograms are folded from the spans, so each view must also hold a
# span.simulate histogram row: an empty fold would pass the diff.
# `stats` lists spans by total wall time, so the rows are compared
# sorted: two stages of similar cost can swap places from one run to
# the next.
telemetry_view() {
  "$cli" stats "$1" | awk '
    /^telemetry summary/ { next }
    /^spans$/ { sect = "spans"; next }
    /^counter\/gauge/ { sect = "counters" }
    /^histogram / { sect = "histograms" }
    sect == "spans" || sect == "histograms" { print sect, $1, $2; next }
    { print }'
}
for jobs in 1 4; do
  run_ok "chaos smoke --telemetry --jobs $jobs" \
    "$cli" chaos $smoke --jobs "$jobs" --telemetry "$work/t$jobs.jsonl" >/dev/null
  telemetry_view "$work/t$jobs.jsonl" | sort >"$work/view$jobs.txt"
done
grep -q '^spans simulate ' "$work/view4.txt" ||
  fail "the jobs=4 telemetry recording has no simulate spans"
for jobs in 1 4; do
  grep -q '^histograms span.simulate ' "$work/view$jobs.txt" ||
    fail "stats on the jobs=$jobs recording has no span.simulate histogram row"
done
same "$work/view1.txt" "$work/view4.txt" "telemetry at --jobs 4 diverged from --jobs 1"

echo "== output write failure gate (a full disk exits 2 with one stderr line) =="
# Every output writer closes with close_out, so a failed final flush is a
# Sys_error mapped to exit 2, never a silently lost file or an internal
# error.
for outputs in "--provenance /dev/full --prof-folded /dev/full" "--telemetry /dev/full"; do
  exits_2 "measure $outputs" "$cli" measure --cca cubic --training-runs 3 --seed 1234 $outputs
  one_err_line "measure $outputs"
done

echo "== bad input gate (every bad flag value exits 2, never 3 or a hang) =="
# Flags are typed Cmdliner terms: an unknown name or an out-of-range count
# is a parse error before any work starts, and an unwritable corpus is a
# Sys_error under or_exit_2.
exits_2 "measure --cca bogus" "$cli" measure --cca bogus
exits_2 "trace --cca bogus" "$cli" trace --cca bogus
exits_2 "measure --training-runs 1" "$cli" measure --training-runs 1
exits_2 "explain --training-quic-runs 1" "$cli" explain --training-quic-runs 1 cubic
exits_2 "census --sites=-3" "$cli" census --sites=-3
exits_2 "census --region Mars" "$cli" census --region Mars
exits_2 "serve --batch 0" "$cli" serve --batch 0 --store "$work/batch0.journal"
exits_2 "measure --max-attempts 0" "$cli" measure --max-attempts 0
exits_2 "fuzz --corpus /dev/full" "$cli" fuzz --budget 4 --target cubic --training-runs 2 \
  --corpus /dev/full --out "$work/fuzz-full"
# the overhead ledger is read before any seed is measured
printf '{"census_sites_per_s":' >"$work/truncated.json"
for ledger in missing truncated; do
  exits_2 "campaign --bench-json ($ledger file)" "$cli" campaign --seeds 1 --training-runs 3 \
    --bench-json "$work/$ledger.json" --out "$work/$ledger-runs.jsonl" \
    --summary "$work/$ledger-sum.json" --html "$work/$ledger-dash.html"
  one_err_line "campaign --bench-json ($ledger file)"
done

echo "== census par-smoke (jobs=2 and jobs=4 must match jobs=1 exactly) =="
# The engine's determinism contract, end to end through the CLI: a
# parallel census must be byte-identical to the serial one, down to its
# provenance reports. jobs=2 is the bench's setting and the first count
# with exactly one spawned domain (the caller is worker 0).
census="--sites 32 --training-runs 3 --seed 1234"
for jobs in 1 2 4; do
  run_ok "census smoke (jobs=$jobs)" "$cli" census $census --jobs "$jobs" \
    --provenance "$work/prov$jobs.jsonl" >"$work/census$jobs.txt"
  # the summary echoes the provenance path; normalize it before diffing
  sed -i "s|$work/prov$jobs.jsonl|PROV|" "$work/census$jobs.txt"
done
for jobs in 2 4; do
  same "$work/census1.txt" "$work/census$jobs.txt" "census --jobs $jobs diverged from --jobs 1"
  same "$work/prov1.jsonl" "$work/prov$jobs.jsonl" \
    "census --jobs $jobs provenance diverged from --jobs 1"
done
# The reports print every feature at %.17g, so the committed expectation
# pins the analysis kernels' floats: a kernel change that moves one bit of
# a feature, or flips a verdict, shows up here.
same tools/expect/census_provenance.jsonl "$work/prov1.jsonl" \
  "census provenance drifted from tools/expect/census_provenance.jsonl (if intentional, regenerate:
   dune exec bin/nebby_cli.exe -- census $census --jobs 1 \\
     --provenance tools/expect/census_provenance.jsonl >/dev/null)"

echo "== pool trace gate (census --telemetry; pool report/chrome/HTML render deterministically) =="
# Task tracing end to end: a recorded census must hold one pool.task span
# per site, and everything derived from the saved recording — the text
# report, the Chrome export, the HTML page — must be a pure function of
# it (byte-identical across renders).
run_ok "census --telemetry" \
  "$cli" census $census --jobs 4 --telemetry "$work/trace.jsonl" >/dev/null
tasks=$(grep -c '"name":"pool.task"' "$work/trace.jsonl" || true)
[ "$tasks" -eq 32 ] || fail "census recording holds ${tasks} pool.task spans for a 32-site census"
for i in 1 2; do
  run_ok "stats --pool (run $i)" "$cli" stats --pool "$work/trace.jsonl" \
    --chrome-trace "$work/chrome$i.json" >"$work/report$i.txt"
  # the chrome-trace destination path is echoed; normalize it before diffing
  sed -i "s|$work/chrome$i.json|CHROME|" "$work/report$i.txt"
  run_ok "report on the census recording (run $i)" \
    "$cli" report "$work/trace.jsonl" -o "$work/pool$i.html" >/dev/null
done
same "$work/report1.txt" "$work/report2.txt" "pool report is not deterministic for a saved recording"
same "$work/chrome1.json" "$work/chrome2.json" \
  "chrome-trace export is not deterministic for a saved recording"
same "$work/pool1.html" "$work/pool2.html" "pool HTML report is not deterministic for a saved recording"
# a malformed recording is a usage error, reported as one line, for the
# pool report and the plain summary alike (Telemetry.read is strict)
printf '{"kind":"span","name":"pool.task"\n' >"$work/bad_trace.jsonl"
exits_2 "stats --pool on a malformed recording" "$cli" stats --pool "$work/bad_trace.jsonl"
one_err_line "stats --pool on a malformed recording"
exits_2 "stats on a malformed recording" "$cli" stats "$work/bad_trace.jsonl"
one_err_line "stats on a malformed recording"

echo "== golden fixtures regenerate bit-identically =="
# Drift caught here and not by test_golden means gen_golden and the test
# disagree about the pinned configuration; drift caught by both means the
# pipeline's numerics changed (regenerate and review the diff if it is
# intentional).
mkdir "$work/golden"
dune exec tools/gen_golden.exe -- "$work/golden" >/dev/null
same test/golden "$work/golden" "golden fixtures are stale (dune exec tools/gen_golden.exe)"

echo "== explain schema-stability gate (golden fixture) =="
# The rendered provenance of a pinned fixture must match the committed
# expectation byte for byte: any schema or numeric drift in the verdict
# report shows up as a diff here. Then the report must survive a round
# trip through --provenance JSONL serialization.
run_ok "explain on the golden fixture" "$cli" explain test/golden/cubic.json >"$work/explain.txt"
same tools/expect/explain_cubic.txt "$work/explain.txt" \
  "explain output drifted from tools/expect/explain_cubic.txt (if intentional, regenerate:
   dune exec bin/nebby_cli.exe -- explain test/golden/cubic.json > tools/expect/explain_cubic.txt)"
run_ok "explain --provenance" \
  "$cli" explain test/golden/cubic.json --provenance "$work/prov.jsonl" >/dev/null
run_ok "explain on the provenance JSONL" "$cli" explain "$work/prov.jsonl" >"$work/explain2.txt"
same "$work/explain.txt" "$work/explain2.txt" \
  "provenance JSONL round trip diverged from the direct render"

echo "== report determinism gate (golden fixture -> HTML) =="
# The HTML report of a pinned fixture must match the committed expectation
# byte for byte: charts, spectrum and candidate table are a pure function
# of the dump, with no wall-clock or host-dependent data.
run_ok "report on the golden fixture" \
  "$cli" report test/golden/cubic.json -o "$work/report.html" >/dev/null
same tools/expect/report_cubic.html "$work/report.html" \
  "report output drifted from tools/expect/report_cubic.html (if intentional, regenerate:
   dune exec bin/nebby_cli.exe -- report test/golden/cubic.json -o tools/expect/report_cubic.html)"
# A forced low-confidence measurement must produce a flight dump that
# renders byte-identically across two runs.
"$cli" measure --cca cubic --training-runs 3 --seed 1234 \
  --flight-confidence 2 --flight "$work/flight.jsonl" >/dev/null || true
[ -s "$work/flight.jsonl" ] || fail "measure --flight-confidence 2 produced no flight dump"
for i in 1 2; do
  run_ok "report on the flight dump (run $i)" \
    "$cli" report "$work/flight.jsonl" -o "$work/flight$i.html" >/dev/null
done
same "$work/flight1.html" "$work/flight2.html" "flight-dump report is not deterministic"
# ... and that report must match the committed expectation: it pins every
# event of the measured dump the charts draw, BiF rows included, and the
# headings, which name a run without an in-window stage mark by its
# position in the dump.
same tools/expect/report_flight_cubic.html "$work/flight1.html" \
  "flight-dump report drifted from tools/expect/report_flight_cubic.html (if intentional, regenerate:
   dune exec bin/nebby_cli.exe -- measure --cca cubic --training-runs 3 --seed 1234 --flight-confidence 2 --flight f.jsonl;
   dune exec bin/nebby_cli.exe -- report f.jsonl -o tools/expect/report_flight_cubic.html)"
# --provenance attaches only the record whose subject is the dump's: the
# census records name sites and this dump names a CCA, so the report
# gets no candidate table and stderr gets one note saying so.
run_ok "report on the flight dump with the census provenance" \
  "$cli" report "$work/flight.jsonl" --provenance "$work/prov1.jsonl" \
  -o "$work/flight_prov.html" >/dev/null 2>"$work/err"
one_err_line "report on the flight dump with the census provenance"
if grep -q 'Candidate scores' "$work/flight_prov.html"; then
  fail "report attached another subject's provenance to the flight dump"
fi

echo "== schema skew gate (a version-99 file of each kind exits 2) =="
# Every subcommand that reads a versioned file must reject a future
# schema version with exit code 2 and exactly one "schema version
# mismatch" line on stderr.
for spec in "nebby_journal|serve --compact-only --store" "nebby_journal|drift" \
  "nebby_serve_status|stats --live" "flight_dump|report" \
  "provenance|explain" "campaign|campaign --from"; do
  kind=${spec%%|*} cmd=${spec#*|}
  printf '{"kind":"%s","version":99}\n' "$kind" >"$work/$kind.v99"
  exits_2 "$cmd on a version-99 $kind file" "$cli" $cmd "$work/$kind.v99"
  one_err_line "$cmd on a version-99 $kind file"
  grep -q "schema version mismatch" "$work/err" ||
    fail "$cmd on a version-99 $kind file did not report a schema version mismatch"
done

echo "== simulator gate (allocation per captured packet, every packet unchanged) =="
# bench/main.ml's simulate experiment: a serial Testbed.simulate loop
# (the measurement path's simulator call) over every CCA, both profiles
# and three seeds. Minor words repeat exactly from run to run, unlike CPU
# time on a shared host, so added allocation on the per-packet path fails
# the ceiling, one word over the loop's 35.85. The digest covers every
# trace column, sender BiF sample and result field of the 102 runs.
run_ok "bench simulate" dune exec bench/main.exe -- simulate --json "$work/simulate.json" \
  >"$work/simulate.txt"
at_most "$work/simulate.json" simulate_words_per_pkt 36.85
grep -q '^digest *ebe39e515858b2d0d50735fced5e73cf$' "$work/simulate.txt" ||
  fail "simulated packets changed: $(grep '^digest' "$work/simulate.txt")"

echo "== journal gate (allocation per record on serve's carry path, compacted bytes unchanged) =="
# bench/main.ml's journal experiment: a serial model of serve-carry's
# journal work over a deterministic 20,000-record store of verdicts
# (open and replay it, decode every verdict, carry each as a put, then
# compact; a copy carries the same records as one put_group and must
# compact to the same bytes). Minor words per record repeat exactly from
# run to run, so open, decode and put keep the ceilings they were given
# one word over an earlier reading (open 37.32, decode 50.52, put 17.00;
# they now read 36.33, 50.52 and 16.00), and compaction's ceiling is one
# word over its reading of 4.10. The digest is the MD5 of the compacted
# file.
run_ok "bench journal" dune exec bench/main.exe -- journal --json "$work/journal.json" \
  >"$work/journal.txt"
at_most "$work/journal.json" journal_open_words_per_record 38.32
at_most "$work/journal.json" journal_decode_words_per_record 51.52
at_most "$work/journal.json" journal_put_words_per_record 18.00
at_most "$work/journal.json" journal_compact_words_per_record 5.10
grep -q '^digest *5a16d496afcba1432c63d079b89d4f0b$' "$work/journal.txt" ||
  fail "compacted journal bytes changed: $(grep '^digest' "$work/journal.txt")"

echo "== promotion gate (the census path holds nothing it does not read) =="
# The words a serial census promotes out of the minor heap are what its
# measurement path keeps alive across stages. The count varies by about
# 5% from run to run: 1.8M with the sender's BiF log kept as its columns,
# 10.7M when every simulation built that log into a list. The OCaml
# runtime prints the counts on stderr at exit (v=0x400).
OCAMLRUNPARAM=v=0x400 "$cli" census --sites 48 --jobs 1 --training-runs 3 --seed 7 \
  >/dev/null 2>"$work/gc.txt" || fail "census with GC statistics exited non-zero"
promoted=$(sed -n 's/^promoted_words: \([0-9]*\)$/\1/p' "$work/gc.txt")
[ -n "$promoted" ] || fail "census printed no promoted_words"
[ "$promoted" -le 4000000 ] || fail "census promoted $promoted words; the ceiling is 4000000"
echo "(promoted_words: $promoted)"

echo "== overhead experiment (paired CPU-time cost of each instrument) =="
# The overhead ledger feeds the campaign's wall-clock gates and the two
# ceilings below: the median of paired off/on serial runs per instrument
# (bench/main.ml, overhead).
run_ok "bench overhead" dune exec bench/main.exe -- overhead --training-runs 3 \
  --json "$work/overhead.json"

echo "== campaign determinism gate (4 seeds, jobs=4 must match jobs=1) =="
# Two 4-seed accuracy campaigns at different worker counts must produce
# byte-identical per-seed stores, summary JSON, and dashboard HTML — the
# statistical layer inherits the engine's determinism contract end to end.
for jobs in 1 4; do
  mkdir "$work/camp$jobs"
  "$cli" campaign --seeds 4 --training-runs 3 --bench-json "$work/overhead.json" \
    --jobs "$jobs" --out "$work/camp$jobs/runs.jsonl" --summary "$work/camp$jobs/sum.json" \
    --html "$work/camp$jobs/dash.html" >"$work/camp$jobs/out.txt" || {
    cat "$work/camp$jobs/out.txt"
    fail "campaign --jobs $jobs failed its pass gates, or crashed"
  }
  if grep '\[SKIP\]' "$work/camp$jobs/out.txt"; then
    fail "campaign --jobs $jobs skipped a gate"
  fi
done
for f in runs.jsonl sum.json dash.html; do
  same "$work/camp1/$f" "$work/camp4/$f" "campaign --jobs 4 diverged from --jobs 1 ($f)"
done
# The campaign's pass gates (exercised by the two runs above via
# --bench-json) are the accuracy floors per CCA family, the CI-width
# ceiling, the census throughput floor, and the flight overhead
# ceiling; none may be skipped.
grep -e throughput-floor -e -overhead "$work/camp1/out.txt"
# Span collection is opt-in, but when on it must stay cheap: a census
# recorded with every pool task traced may not cost more than 5% CPU time
# over the unrecorded one. The per-epoch alert engine rides the serve hot
# path, so it gates on the same 5% budget.
at_most "$work/overhead.json" census_trace_overhead_frac 0.05
at_most "$work/overhead.json" serve_alert_overhead_frac 0.05

echo "== serve kill-and-resume gate (SIGKILL mid-census, resume, byte-identical) =="
# The headline recovery invariant: a census SIGKILLed at a seeded commit
# and resumed from its journal must converge to a final store that is
# byte-identical to an uninterrupted run's.
serve="serve --sites 8 --training-runs 3 --seed 1234 --jobs 4"
run_ok "reference serve run" "$cli" $serve --store "$work/ref.journal" >/dev/null
# the reference store itself is pinned, so the resumed and --max-entries 2
# stores below are also held to the committed bytes
same tools/expect/serve_ref.journal "$work/ref.journal" \
  "reference serve store drifted from tools/expect/serve_ref.journal (if intentional, regenerate:
   rm tools/expect/serve_ref.journal; dune exec bin/nebby_cli.exe -- $serve --store tools/expect/serve_ref.journal)"
# seeded kill point, mid-run but past the first commit
kill_after=$(( 1234 % 11 + 2 ))
if "$cli" $serve --store "$work/crash.journal" \
  --kill-after-commits "$kill_after" >/dev/null 2>&1; then
  fail "crash-injected serve run unexpectedly survived"
fi
# a SIGKILL can also land mid-write: leave a torn half-record by hand
printf 'deadbeef {"key":"torn' >> "$work/crash.journal"
# a second copy of the crashed store resumes below with a 2-entry value
# cache, so the bounded cache filled at open is held to the same bytes
cp "$work/crash.journal" "$work/crash_bounded.journal"
"$cli" $serve --store "$work/crash.journal" 2>"$work/resume.err" >/dev/null || {
  cat "$work/resume.err" >&2
  fail "resumed serve run exited non-zero"
}
grep -q "torn" "$work/resume.err" || fail "resume did not warn about the torn tail record"
same "$work/ref.journal" "$work/crash.journal" "resumed store diverged from the uninterrupted run"
"$cli" $serve --max-entries 2 --store "$work/crash_bounded.journal" \
  2>"$work/resume_bounded.err" >/dev/null || {
  cat "$work/resume_bounded.err" >&2
  fail "resumed serve run with --max-entries 2 exited non-zero"
}
same "$work/ref.journal" "$work/crash_bounded.journal" \
  "store resumed with --max-entries 2 diverged from the uninterrupted run"
echo "(killed after ${kill_after} commits; resumed store byte-identical, also with --max-entries 2)"

echo "== serve kill-at-every-commit gate (a kill after any commit resumes to the reference) =="
# The same run killed after each commit in turn, the carried epoch's group
# included: a kill inside a carried group writes the group up to that commit,
# so the killed store holds exactly n records, and resuming it must give the
# reference bytes. The reference commits each of its records once, so a kill
# point one past its record count must let the run finish.
records=$(( $(wc -l <tools/expect/serve_ref.journal) - 1 ))
n=1
while [ "$n" -le "$records" ]; do
  rm -f "$work/kill.journal"
  if "$cli" $serve --store "$work/kill.journal" --kill-after-commits "$n" >/dev/null 2>&1; then
    fail "serve run killed after $n commits survived"
  fi
  [ "$(wc -l <"$work/kill.journal")" -eq $((n + 1)) ] ||
    fail "serve run killed after $n commits left $(( $(wc -l <"$work/kill.journal") - 1 )) records"
  run_ok "serve resumed after a kill at commit $n" \
    "$cli" $serve --store "$work/kill.journal" >/dev/null 2>&1
  same "$work/ref.journal" "$work/kill.journal" \
    "store killed after $n commits resumed to other bytes"
  n=$((n + 1))
done
rm -f "$work/kill.journal"
run_ok "serve run with its kill point past the last commit" \
  "$cli" $serve --store "$work/kill.journal" --kill-after-commits "$n" >/dev/null
same "$work/ref.journal" "$work/kill.journal" "serve run past its kill point drifted"
echo "(killed after each of ${records} commits; every resumed store byte-identical)"

echo "== serve compaction determinism gate (compact twice, byte-identical) =="
run_ok "serve --compact-only" "$cli" serve --compact-only --store "$work/ref.journal" >/dev/null
cp "$work/ref.journal" "$work/once.journal"
run_ok "second serve --compact-only" \
  "$cli" serve --compact-only --store "$work/ref.journal" >/dev/null
same "$work/ref.journal" "$work/once.journal" "journal compaction is not idempotent"

echo "== serve health gate (final status snapshot: jobs=4 must match jobs=1) =="
# The live status file is wall-clock-bearing while running, but the final
# snapshot quotes waits in commit ticks and nulls the rate fields, so it
# inherits the determinism contract: jobs=1 and jobs=4 must leave
# byte-identical JSON (and Prometheus text), and `stats --live` must
# accept the schema.
for jobs in 1 4; do
  run_ok "serve --status-file --jobs $jobs" \
    "$cli" serve --sites 8 --training-runs 3 --seed 1234 --jobs "$jobs" \
    --store "$work/h$jobs.journal" --status-file "$work/h$jobs.status.json" >/dev/null
done
same "$work/h1.status.json" "$work/h4.status.json" \
  "final status snapshot diverged between jobs=1 and jobs=4"
same "$work/h1.status.json.prom" "$work/h4.status.json.prom" \
  "Prometheus exposition diverged between jobs=1 and jobs=4"
grep -q '"phase":"final"' "$work/h1.status.json" ||
  fail "final status snapshot is not in phase \"final\""
run_ok "stats --live on the status snapshot" \
  "$cli" stats --live "$work/h1.status.json" >/dev/null

echo "== drift determinism gate (migrating census: ledger/dashboard/alert log byte-identical) =="
# The drift observatory end to end: a migrating population (CUBIC -> BBR
# from epoch 1) served at jobs=1 and jobs=4 with per-epoch re-measurement
# (--confidence-floor 1.1; the delta census would otherwise carry stale
# verdicts across the migration) must leave byte-identical stores and
# alert logs, and everything `nebby drift` derives from a store — the
# ledger JSON, the dashboard HTML, the text render — must be a pure
# function of it: analyzing the same store twice, and the two stores
# against each other, must all agree byte for byte.
drift="$work/drift"
# same store basename in both dirs: the ledger's subject quotes it
mkdir -p "$drift/j1" "$drift/j4"
for jobs in 1 4; do
  run_ok "migrating serve --jobs $jobs" \
    "$cli" serve --sites 8 --training-runs 3 --seed 1234 --epochs 3 \
    --migrate cubic:bbr:1:40 --confidence-floor 1.1 --jobs "$jobs" \
    --store "$drift/j$jobs/m.journal" --alert-log "$drift/alerts$jobs.jsonl" >/dev/null
done
same "$drift/j1/m.journal" "$drift/j4/m.journal" \
  "migrating store diverged between jobs=1 and jobs=4"
same "$drift/alerts1.jsonl" "$drift/alerts4.jsonl" "alert log diverged between jobs=1 and jobs=4"
for pass in a b c; do
  store=$drift/j1/m.journal
  [ "$pass" = c ] && store=$drift/j4/m.journal
  run_ok "nebby drift (pass $pass)" "$cli" drift "$store" --out "$drift/$pass.ledger.json" \
    --html "$drift/$pass.dash.html" >"$drift/$pass.render.txt"
  sed -i "s|$drift/$pass|DRIFT|g" "$drift/$pass.render.txt"
done
for f in ledger.json dash.html render.txt; do
  same "$drift/a.$f" "$drift/b.$f" "nebby drift is not deterministic ($f)"
done
for f in ledger.json dash.html; do
  same "$drift/a.$f" "$drift/c.$f" "drift $f diverged between the jobs=1 and jobs=4 stores"
done
# the ledger must cover every epoch of the run (the synthetic-truth
# detection accuracy itself is pinned by test/test_drift.ml; the small
# training control here keeps the gate fast, not accurate)
epochs_seen=$(grep -o '"epoch":' "$drift/a.ledger.json" | wc -l)
[ "$epochs_seen" -eq 3 ] || fail "migrating ledger records ${epochs_seen} epoch points, expected 3"
echo "(migrating store, alert log and drift artifacts byte-identical at jobs=1 vs jobs=4)"

echo "== fuzz smoke (adversarial search: jobs-independent, fixtures replay) =="
# The coverage-guided search must be a pure function of its seed at any
# worker count: a serial and a 4-worker run must produce byte-identical
# summaries, corpus JSONL, and minimized fixture files — and must find at
# least one counterexample at this budget (exit 1 means it found none).
for jobs in 1 4; do
  run_ok "fuzz --jobs $jobs smoke (no counterexample, or a crash)" \
    "$cli" fuzz --budget 24 --seed 1234 --target cubic,vegas,yeah --log-level quiet \
    --jobs "$jobs" --out "$work/fx$jobs" --corpus "$work/c$jobs.jsonl" >"$work/fuzz$jobs.txt"
  # the summaries embed the (different) --out/--corpus paths; normalize them
  sed -i "s|$work/fx$jobs|OUT|;s|$work/c$jobs.jsonl|CORPUS|" "$work/fuzz$jobs.txt"
done
same "$work/fuzz1.txt" "$work/fuzz4.txt" "fuzz --jobs 4 summary diverged from --jobs 1"
same "$work/c1.jsonl" "$work/c4.jsonl" "fuzz --jobs 4 corpus diverged from --jobs 1"
same "$work/fx1" "$work/fx4" "fuzz --jobs 4 fixtures diverged from --jobs 1"
# Every committed regression fixture must still reproduce its recorded
# verdict (exit 1 = a fixture went stale; the message names it).
run_ok "fuzz --replay of the committed adversarial fixtures" \
  "$cli" fuzz --replay test/adversarial --log-level quiet >/dev/null

echo "== perf gate (bench/perf: base vs working tree, no REGRESSION) =="
# Every workload of BENCHMARK.json on three fixed seeds (never the
# held-out 20240804) in both trees, alternating which tree runs first;
# then `perf compare` fails on a REGRESSION at BENCHMARK.json's bounds.
# A run also fails on its own correctness gates.
if [ -n "$(git status --porcelain -- lib bin bench)" ]; then base=HEAD; else base=HEAD^; fi
run_ok "git worktree add $base" git worktree add --detach -q "$work/base" "$base"
echo "(base $base = $(git rev-parse --short "$base"))"
i=0
for seed in 20230601 20230602 20230603; do
  for workload in census-cold serve-measure serve-carry; do
    if [ $((i % 2)) -eq 0 ]; then trees="base change"; else trees="change base"; fi
    for tree in $trees; do
      root=.
      [ "$tree" = base ] && root=$work/base
      bash "$root/bench/perf/run.sh" --workload "$workload" --seed "$seed" \
        --out "$work/perf/$tree" >"$work/perf.log" || {
        cat "$work/perf.log"
        fail "perf $workload seed $seed ($tree) exited non-zero"
      }
    done
    i=$((i + 1))
  done
done
run_ok "perf compare (a REGRESSION against the base)" \
  bash bench/perf/run.sh compare "$work/perf/base" "$work/perf/change"

echo "check.sh: all green"
