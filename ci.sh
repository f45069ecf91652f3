#!/bin/sh
# CI entry point: clean build with the dev profile (fatal warnings), the
# full test suite with post-pause verification forced on, and a telemetry
# smoke: produce a Chrome trace + metrics CSV and validate them.
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
# --jobs 8 leg really dispatches through the domain pool.
for campaign in "" "--crash"; do
  dune exec bin/nvmgc_cli.exe -- fuzz $campaign --cases 80 --seed 42 \
    --jobs 1 > "$tmp/fuzz.j1"
  dune exec bin/nvmgc_cli.exe -- fuzz $campaign --cases 80 --seed 42 \
    --jobs 8 > "$tmp/fuzz.j8"
  if ! cmp -s "$tmp/fuzz.j1" "$tmp/fuzz.j8"; then
    echo "ci: fuzz ${campaign:-differential} report differs at --jobs 1/8" >&2
    diff "$tmp/fuzz.j1" "$tmp/fuzz.j8" | head -n 20 >&2 || true
    exit 1
  fi
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

# Telemetry smoke (also covered by the deterministic `dune build @trace`
# alias): a traced run must yield a parseable Chrome trace with at least
# one pause span, plus a non-empty metrics CSV.
dune build @trace
dune exec bin/nvmgc_cli.exe -- run page-rank --threads 8 --gc-scale 0.1 \
  --trace "$tmp/trace.json" --metrics "$tmp/metrics.csv" --log-gc info \
  > /dev/null
dune exec bin/nvmgc_cli.exe -- validate-trace "$tmp/trace.json"
test -s "$tmp/metrics.csv"
test -s "$tmp/trace.jsonl"

# Continuous-recorder smoke (also covered by `dune build @recorder`): a
# run with --stats must yield a non-empty per-window CSV and Prometheus
# exposition.
dune build @recorder
dune exec bin/nvmgc_cli.exe -- run page-rank --threads 8 --gc-scale 0.1 \
  --stats "$tmp/stats.csv" > /dev/null
test -s "$tmp/stats.csv"
test -s "$tmp/stats.prom"

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

# Engine-throughput gates, release profile.  The dev profile passes
# -opaque, which disables all cross-module inlining — the recorded
# baselines assume the inlined (release) build, the configuration the
# digest gate above pinned to identical simulated results.
# bench_throughput re-times the serial sweep (best of 4 rounds — the
# floor is the engine, the rest is host jitter) and emits
# BENCH_throughput.json; --check fails the build when objects-per-CPU-
# second drops below 0.95x the recorded baseline (the user-CPU series is
# immune to descheduling noise; see EXPERIMENTS.md "host drift").
# CPU-frequency sags can still trip it; re-run before concluding a code
# regression.
dune exec --profile release bench/bench_throughput.exe -- --check --rounds 4

# Recorder-overhead gate: the same roofline with the continuous recorder
# armed must still clear the 0.9x baseline check.
dune exec --profile release bench/bench_throughput.exe -- --check --record

# Profile artifact: per-phase flat profile of the same sweep (SIGPROF
# samples + exact per-phase minor-allocation attribution) published as
# CSV so perf work can diff phase shares across commits without re-
# deriving them from scratch.
dune exec --profile release bench/profile_sweep.exe -- \
  --no-verify --alloc --csv PROFILE_sweep.csv > /dev/null
test -s PROFILE_sweep.csv

# Parallel non-degradation gate: bench_parallel times the same sweep at
# --jobs 1/2/4/8 inside one process and emits BENCH_parallel.json.  The
# pool clamps to the host's domain count, so --jobs > 1 must never be
# slower than serial beyond dispatch overhead + timing noise; fail if
# any sweep_speedup falls below 0.75x serial.
dune exec bench/bench_parallel.exe
# A 1-domain host clamps every job count to one worker, making this gate
# vacuous; bench_parallel marks the JSON so the log is not misread.
if grep -q '"gate_vacuous": true' BENCH_parallel.json; then
  echo "ci: NOTE: parallel non-degradation gate vacuous on 1-domain host" \
    "(BENCH_parallel.json gate_vacuous=true)"
fi
awk -F'"sweep_speedup": ' '/sweep_speedup/ {
  split($2, a, ","); if (a[1] + 0 < 0.75) bad = 1
} END { exit bad }' BENCH_parallel.json || {
  echo "ci: --jobs > 1 sweep slower than serial beyond tolerance" \
    "(sweep_speedup < 0.75 in BENCH_parallel.json)" >&2
  exit 1
}
