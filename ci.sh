#!/bin/sh
# CI entry point: clean build with the dev profile (fatal warnings), the
# full test suite with post-pause verification forced on, and a telemetry
# smoke: the pinned smoke outputs, and fig5's telemetry outputs compared
# across job counts.
set -eu
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# ci.sh must leave tracked files as it found them: every artifact it
# writes goes to $tmp or to an ignored directory.  The final check
# compares the work tree's diff against this snapshot.
in_work_tree=false
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  in_work_tree=true
  git diff --binary > "$tmp/tracked.before"
fi

dune build @default
dune build @verify

# Simulation-testing smoke: a short deterministic fuzz campaign (seeded
# heaps x schedules x every config variant, differential live-graph
# comparison, verifier/oracle armed).  Exits non-zero on any failure.
dune build @fuzz

# Crash-consistency smoke: the same campaign shape, but every case is
# additionally killed at injected crash points and the frozen NVM image
# is checked against the recovery oracle (durability reports honoured,
# no forwarding-state leakage, surviving graph closed).
dune build @crash

# Both campaigns are pure functions of --seed at any --jobs.  80 cases
# clear Fuzz.effective_jobs' serial threshold (25 would not), so the
# --jobs 8 leg really dispatches through the domain pool.  Each domain
# reuses one memory model, one collector and a heap per geometry across
# its variant runs (Memory.reset, Young_gc.reset, Heap.reset), so every
# domain's pooled objects carry a different history: the release
# --jobs 8 leg is the comparison that would expose a reset leaking state
# in the inlined build.
for campaign in "" "--crash"; do
  dune exec bin/nvmgc_cli.exe -- fuzz $campaign --cases 80 --seed 42 \
    --jobs 1 > "$tmp/fuzz.j1"
  dune exec bin/nvmgc_cli.exe -- fuzz $campaign --cases 80 --seed 42 \
    --jobs 8 > "$tmp/fuzz.j8"
  dune exec --profile release bin/nvmgc_cli.exe -- fuzz $campaign \
    --cases 80 --seed 42 --jobs 8 > "$tmp/fuzz.rel.j8"
  for other in j8 rel.j8; do
    if ! cmp -s "$tmp/fuzz.j1" "$tmp/fuzz.$other"; then
      echo "ci: fuzz ${campaign:-differential} report differs:" \
        "dev --jobs 1 vs $other" >&2
      diff "$tmp/fuzz.j1" "$tmp/fuzz.$other" | head -n 20 >&2 || true
      exit 1
    fi
  done
done

# The crash oracle's mutation table: each flush-protocol violation the
# schedule seam can inject (--tamper) must make the 50-case seed-7 crash
# campaign fail: at least 45 cases for early-ready (in the other five
# the premature flush is harmless: the pending updates land before any
# drawn crash point) and all 50 for drop-flush.  An oracle that misses
# an injected bug proves nothing when it passes.
for gate in early-ready:45 drop-flush:50; do
  kind=${gate%%:*}
  need=${gate#*:}
  if dune exec bin/nvmgc_cli.exe -- fuzz --crash --cases 50 --seed 7 \
    --tamper "$kind" > "$tmp/tamper.out" 2>&1; then
    echo "ci: --tamper $kind crash campaign passed: the oracle missed" \
      "the injected bug" >&2
    exit 1
  fi
  n=$(sed -n 's/^nvmgc: \([0-9]*\) fuzz case(s) failed$/\1/p' \
    "$tmp/tamper.out")
  if [ -z "$n" ] || [ "$n" -lt "$need" ]; then
    echo "ci: --tamper $kind caught ${n:-no} of 50 cases," \
      "expected at least $need" >&2
    tail -n 5 "$tmp/tamper.out" >&2
    exit 1
  fi
  # A printed replay line is self-contained: run verbatim, it must
  # reproduce the failure (and so exit non-zero).
  replay=$(sed -n 's/^replay: nvmgc_cli //p' "$tmp/tamper.out" | head -n 1)
  if [ -z "$replay" ] \
    || dune exec bin/nvmgc_cli.exe -- $replay > "$tmp/replay.out" 2>&1; then
    echo "ci: --tamper $kind replay line missing or passed: $replay" >&2
    exit 1
  fi
  echo "crash oracle mutation table: --tamper $kind caught $n/50 cases"
done

# Pooled state after failing runs: every tampered crash case fails, and
# the objects of a failed run go back to the pool.  56 cases is the
# smallest seed-7 campaign that Fuzz.effective_jobs sends through the
# domain pool (50 stays serial), so the release --jobs 8 leg spreads the
# failures, their shrinking and the reuse that follows over domains.
# Its report must be byte-identical to the serial dev one.
for kind in early-ready drop-flush; do
  for leg in "dev 1" "release 8"; do
    profile=${leg% *}
    jobs=${leg#* }
    if dune exec --profile "$profile" bin/nvmgc_cli.exe -- fuzz --crash \
      --cases 56 --seed 7 --tamper "$kind" --jobs "$jobs" \
      > "$tmp/tamper56.$profile" 2> /dev/null; then
      echo "ci: 56-case --tamper $kind campaign ($profile, --jobs $jobs)" \
        "passed: the oracle missed the injected bug" >&2
      exit 1
    fi
  done
  if ! cmp -s "$tmp/tamper56.dev" "$tmp/tamper56.release"; then
    echo "ci: 56-case --tamper $kind report differs:" \
      "dev --jobs 1 vs release --jobs 8" >&2
    diff "$tmp/tamper56.dev" "$tmp/tamper56.release" | head -n 20 >&2 || true
    exit 1
  fi
done

# Telemetry smoke.  `dune build @trace @recorder` regenerates the smoke
# outputs and validates the trace; bin/dune's runtest rule pins their
# MD5s.  Then, across many pauses and the parallel merge, every telemetry
# output of a fig5 run (Chrome trace, JSONL, metrics CSV, recorder CSV
# and Prometheus exposition, console log) must be byte-identical at
# --jobs 1 and --jobs 8.
dune build @trace @recorder @bin/runtest
for j in 1 8; do
  mkdir "$tmp/fig5-j$j"
  dune exec bin/nvmgc_cli.exe -- fig fig5 --gc-scale 0.05 --jobs "$j" \
    --trace "$tmp/fig5-j$j/trace.json" --metrics "$tmp/fig5-j$j/metrics.csv" \
    --stats "$tmp/fig5-j$j/stats.csv" --log-gc debug \
    > "$tmp/fig5-j$j/out.txt"
done
for f in trace.json trace.jsonl metrics.csv stats.csv stats.prom out.txt; do
  if ! cmp "$tmp/fig5-j1/$f" "$tmp/fig5-j8/$f"; then
    echo "ci: fig5 telemetry output $f differs: --jobs 1 vs --jobs 8" >&2
    exit 1
  fi
done
dune exec bin/nvmgc_cli.exe -- validate-trace "$tmp/fig5-j1/trace.json"

# Recording must be pure observation, and the batched run-API access
# path (Memory.access_run_into) must be float-for-float identical to the
# per-line semantics it replaced: the sweep digest is byte-identical
# with the recorder armed and disarmed, serial and parallel, in both
# build profiles.  The release-profile legs matter: benches are built
# with cross-module inlining (see the bench gates below), and this pins
# the inlined build to the exact same simulated results as dev.
d_off=$(dune exec bench/digest_sweep.exe -- --jobs 1 | awk '{print $NF}')
d_off8=$(dune exec bench/digest_sweep.exe -- --jobs 8 | awk '{print $NF}')
d_on=$(dune exec bench/digest_sweep.exe -- --jobs 1 --record \
  | awk '{print $NF}')
d_on8=$(dune exec bench/digest_sweep.exe -- --jobs 8 --record \
  | awk '{print $NF}')
if [ "$d_off" != "$d_off8" ] || [ "$d_off" != "$d_on" ] \
  || [ "$d_off" != "$d_on8" ]; then
  echo "ci: recorder or run API perturbed simulated results" \
    "(digest off=$d_off off,jobs8=$d_off8 on=$d_on on,jobs8=$d_on8)" >&2
  exit 1
fi
d_rel=$(dune exec --profile release bench/digest_sweep.exe -- --jobs 1 \
  | awk '{print $NF}')
d_rel8=$(dune exec --profile release bench/digest_sweep.exe -- --jobs 8 \
  --record | awk '{print $NF}')
if [ "$d_off" != "$d_rel" ] || [ "$d_off" != "$d_rel8" ]; then
  echo "ci: release-profile build perturbed simulated results" \
    "(digest dev=$d_off release=$d_rel release,jobs8,record=$d_rel8)" >&2
  exit 1
fi

# Performance-ledger smoke: one round of every ledger workload with its
# correctness checks.  Besides the fig5 digest gated above, this pins
# the sweep-arrays digest (heavy multi-line LLC runs and dirty
# evictions) and the fuzz-campaign digest (fuzz and crash verdicts,
# including the crash model's dirty-line residency queries).  All four
# digests must also hold in the inlined release build.
dune build @bench/ledger/ledger-smoke
dune build --profile release @bench/ledger/ledger-smoke

# Multicore engine smoke: the whole figure/table sweep driven through the
# work-stealing domain pool (`--jobs`).  Output is byte-identical at any
# job count, so parallelism here is pure wall-clock; the timing line
# makes the win (or any regression) visible in the CI log.
jobs=$( (nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2) )
start=$(date +%s)
dune exec bin/nvmgc_cli.exe -- all --gc-scale 0.05 --jobs "$jobs" \
  > "$tmp/all.out"
echo "all-figures smoke (--jobs $jobs): $(($(date +%s) - start))s," \
  "$(wc -l < "$tmp/all.out") lines"

# Verification is pure observation at the CLI too: the release `fig fig5`
# output (all 19 apps, every setup) must be byte-identical with the
# invariant walker and oracle armed (the default) and with --no-verify.
# The ledger pins only four apps.  The timing line shows what
# verification costs in user CPU.
dune build --profile release bin/nvmgc_cli.exe
cli=_build/default/bin/nvmgc_cli.exe
( "$cli" fig fig5 --gc-scale 0.25 > "$tmp/fig5.verified"
  times > "$tmp/cpu.verified" )
( "$cli" fig fig5 --gc-scale 0.25 --no-verify > "$tmp/fig5.no-verify"
  times > "$tmp/cpu.no-verify" )
if ! cmp -s "$tmp/fig5.verified" "$tmp/fig5.no-verify"; then
  echo "ci: verification perturbed fig5 output" >&2
  diff "$tmp/fig5.verified" "$tmp/fig5.no-verify" >&2 || true
  exit 1
fi
# `times` line 2 is the children's user and system CPU, e.g. "0m3.21s".
user_cpu() {
  awk 'NR == 2 { split($1, t, /[ms]/); print t[1] * 60 + t[2] }' "$1"
}
v=$(user_cpu "$tmp/cpu.verified")
nv=$(user_cpu "$tmp/cpu.no-verify")
echo "fig5 verification overhead: ${v}s verified, ${nv}s --no-verify user CPU" \
  "($(awk -v v="$v" -v nv="$nv" 'BEGIN { printf "%.2f", v / nv }')x)"

# Engine-throughput floors, release profile, on the performance ledger
# (bench/ledger, the benchmark of record in BENCHMARK.json).  The dev
# profile passes -opaque, which disables all cross-module inlining; the
# floors assume the inlined release build, the configuration the digest
# gates above pinned to identical simulated results.  Each gate runs one
# workload for 8 fresh-process rounds and reads objects_per_cpu_s from
# the run's last JSON line: the ledger's quietest-quarter estimator on
# the user-CPU series, which descheduling on a shared host does not
# inflate.  A gate fails when the run is incorrect or the rate falls
# below 0.95x its recorded baseline.  CPU-frequency sags can still trip
# it; re-run before concluding a code regression.
#
# sweep-fig5 (the digest sweep: 4 apps x 5 setups, verifier and recorder
# off) bounds the serial hot path.  Median of 14 runs of
#   ledger.exe --workload sweep-fig5 --rounds 8
# on 2026-10-17, Host: nproc=2 domains=2 profile=release ocaml=5.1.1
# (EXPERIMENTS.md "Ledger floors" has every reading).
sweep_fig5_baseline=355238
# verified-fig5 (the same cells with verification and the continuous
# recorder on, inside Runner.with_telemetry) bounds the recorder's and
# verifier's hot-path overhead.  Median of 14 runs of
#   ledger.exe --workload verified-fig5 --rounds 8
# on 2026-10-17, Host: nproc=2 domains=2 profile=release ocaml=5.1.1.
verified_fig5_baseline=258432
ledger_floor() {
  workload=$1
  baseline=$2
  out="$tmp/ledger.$workload"
  if ! dune exec --profile release bench/ledger/ledger.exe -- \
    --workload "$workload" --rounds 8 > "$out"; then
    echo "ci: ledger $workload run failed" >&2
    tail -n 5 "$out" >&2
    exit 1
  fi
  last=$(tail -n 1 "$out")
  case $last in
    *'"correct":true'*) ;;
    *)
      echo "ci: ledger $workload run incorrect: $last" >&2
      exit 1
      ;;
  esac
  rate=$(printf '%s\n' "$last" \
    | sed -n 's/.*"objects_per_cpu_s":{"value":\([0-9.e+]*\).*/\1/p')
  ratio=$(awk -v r="${rate:-0}" -v b="$baseline" \
    'BEGIN { printf "%.3f", r / b }')
  echo "ledger $workload: ${rate:-no} obj/CPU-s, ${ratio}x of $baseline"
  if ! awk -v r="${rate:-0}" -v b="$baseline" \
    'BEGIN { exit !(r >= 0.95 * b) }'; then
    echo "ci: FAIL: ledger $workload at ${ratio}x of its recorded" \
      "baseline (threshold 0.95x): the hot path regressed, or the host" \
      "sagged: re-run before concluding a regression" >&2
    exit 1
  fi
}
ledger_floor sweep-fig5 "$sweep_fig5_baseline"
ledger_floor verified-fig5 "$verified_fig5_baseline"

# Profile artifact: a traced ledger run splits the same sweep by layer
# (span self times, exact allocation and switch counts, SIGPROF samples)
# and appends the per-layer metrics as one JSON line, so perf work can
# diff layer shares across commits (`ledger.exe compare`).  Its Chrome
# trace lands in the ignored _ledger/ directory.
dune exec --profile release bench/ledger/ledger.exe -- \
  --workload sweep-fig5 --trace 1 --out "$tmp/profile.jsonl" \
  > "$tmp/profile.sweep-fig5.out"
test -s "$tmp/profile.jsonl"

# Work-count ratchet: the traced runs' simulated work and allocation
# are pure functions of the code, not of the host, so unlike the floors
# above these gates are exact.  Each count fails CI when it rises above
# its ceiling (one extra memory access per pause is enough); when a
# change lowers a count, lower its ceiling to the new reading.  The
# sweep-arrays run covers the long multi-line access runs and their
# write-back drain, which sweep-fig5 barely reaches; verified-fig5 adds
# the verifier's and recorder's allocation, and fuzz-campaign the tiny
# pooled heaps, the crash model and the campaign driver.  Readings on
# the tree that last moved a count.
work_ratchet() {
  workload=$1
  shift
  profile=$(tail -n 1 "$tmp/profile.$workload.out")
  for pin in "$@"; do
    name=${pin%%:*}
    ceiling=${pin#*:}
    value=$(printf '%s\n' "$profile" \
      | sed -n "s/.*\"$name\":{\"value\":\([0-9.e+]*\).*/\1/p")
    echo "ledger $workload $name: ${value:-missing} (ceiling $ceiling)"
    if [ -z "$value" ] \
      || ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v <= c) }'; then
      echo "ci: FAIL: traced $workload $name = ${value:-missing}," \
        "ceiling $ceiling: the simulator does more work per sweep" >&2
      exit 1
    fi
  done
}
for workload in sweep-arrays verified-fig5 fuzz-campaign; do
  dune exec --profile release bench/ledger/ledger.exe -- \
    --workload "$workload" --trace 1 > "$tmp/profile.$workload.out"
done
work_ratchet sweep-fig5 memsim.access_calls:1724040 \
  memsim.llc_run_calls:1529916 memsim.llc_line_accesses:2629847 \
  memsim.llc_writebacks:1023406 ocaml.minor_words_per_object:40.5061
work_ratchet sweep-arrays memsim.access_calls:2081765 \
  memsim.llc_run_calls:1830399 memsim.llc_line_accesses:8001545 \
  memsim.llc_writebacks:3724881 ocaml.minor_words_per_object:47.3018
work_ratchet verified-fig5 memsim.access_calls:1724040 \
  memsim.llc_run_calls:1529916 memsim.llc_line_accesses:2629847 \
  memsim.llc_writebacks:1023406 ocaml.minor_words_per_object:63.5535
# The ledger sums llc_line_accesses and llc_writebacks over sweep cells
# only, so fuzz-campaign reads 0 for both whatever its memory models do:
# these two pins check nothing until bench/ledger counts fuzz cells too.
work_ratchet fuzz-campaign memsim.access_calls:1197028 \
  memsim.llc_run_calls:1114966 memsim.llc_line_accesses:0 \
  memsim.llc_writebacks:0 ocaml.minor_words_per_object:167.7364

# Parallel non-degradation gate: bench_parallel times the same sweep at
# --jobs 1/2/4/8 inside one process and emits BENCH_parallel.json.  The
# pool clamps to the host's domain count, so --jobs > 1 must never be
# slower than serial beyond dispatch overhead + timing noise; fail if
# any sweep_speedup falls below 0.75x serial.
# It runs in $tmp so the work tree stays as it was.
dune build bench/bench_parallel.exe
( cd "$tmp" && "$repo/_build/default/bench/bench_parallel.exe" )
# A 1-domain host clamps every job count to one worker, making this gate
# vacuous; bench_parallel marks the JSON so the log is not misread.
if grep -q '"gate_vacuous": true' "$tmp/BENCH_parallel.json"; then
  echo "ci: NOTE: parallel non-degradation gate vacuous on 1-domain host" \
    "(BENCH_parallel.json gate_vacuous=true)"
fi
awk -F'"sweep_speedup": ' '/sweep_speedup/ {
  split($2, a, ","); if (a[1] + 0 < 0.75) bad = 1
} END { exit bad }' "$tmp/BENCH_parallel.json" || {
  echo "ci: --jobs > 1 sweep slower than serial beyond tolerance" \
    "(sweep_speedup < 0.75 in BENCH_parallel.json)" >&2
  exit 1
}

if $in_work_tree; then
  git diff --binary > "$tmp/tracked.after"
  if ! cmp -s "$tmp/tracked.before" "$tmp/tracked.after"; then
    echo "ci: ci.sh modified tracked files:" >&2
    diff "$tmp/tracked.before" "$tmp/tracked.after" | head -n 20 >&2 || true
    exit 1
  fi
fi
