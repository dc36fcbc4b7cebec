#!/bin/sh
# Extended local verification gate: build, tests, formatting (when the
# formatter is installed), and a quick bench smoke run whose perf record
# must carry the metrics registry.  Tier-1 remains `dune build && dune runtest`
# (ROADMAP.md); this script is the fuller pre-push check.
set -eu

cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "dune build"
dune build @all

step "dune runtest"
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  step "dune fmt (check only)"
  dune build @fmt
else
  step "fmt check skipped (ocamlformat not installed)"
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

step "bench determinism: fig2 --quick --jobs 2 vs --jobs 1"
dune exec bench/main.exe -- fig2 --quick --heartbeat --jobs 2 --out "$tmpdir/verify-bench-j2" >/dev/null
dune exec bench/main.exe -- fig2 --quick --heartbeat --jobs 1 --out "$tmpdir/verify-bench-j1" >/dev/null
grep -q '"metrics"' "$tmpdir/verify-bench-j1/BENCH_fig2.json" || {
  echo "FAIL: fig2 --quick wrote no metrics registry into BENCH_fig2.json" >&2
  exit 1
}
diff "$tmpdir/verify-bench-j1/fig2.dat" "$tmpdir/verify-bench-j2/fig2.dat" || {
  echo "FAIL: parallel fig2 sweep diverged from the sequential run" >&2
  exit 1
}

step "telemetry determinism: heartbeat stream byte-identical across --jobs"
# Snapshot contents are purely sim-derived (event-time ticks, zero-
# suppressed counter deltas, per-run link churn counts), so the
# concatenated stream must not depend on the worker-pool width.
cmp "$tmpdir/verify-bench-j1/fig2.heartbeat.jsonl" \
  "$tmpdir/verify-bench-j2/fig2.heartbeat.jsonl" || {
  echo "FAIL: heartbeat snapshot stream differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
hb_count=$(wc -l < "$tmpdir/verify-bench-j1/fig2.heartbeat.jsonl")
[ "$hb_count" -ge 10 ] || {
  echo "FAIL: fig2 --quick --heartbeat emitted only $hb_count snapshots (< 10)" >&2
  exit 1
}
test -s "$tmpdir/verify-bench-j1/fig2.hb.dat" || {
  echo "FAIL: heartbeat replay wrote no fig2.hb.dat ops series" >&2
  exit 1
}
# The dashboard reads the same stream through Analysis.snapshots; it is
# the one consumer of the link churn counts, so their line must show.
dune exec bin/drqos_cli.exe -- top "$tmpdir/verify-bench-j1/fig2.heartbeat.jsonl" \
  > "$tmpdir/top.txt" && grep -q 'live by level' "$tmpdir/top.txt" &&
  grep -q 'hottest links' "$tmpdir/top.txt" || {
  echo "FAIL: drqos_cli top could not render fig2.heartbeat.jsonl and its hottest links" >&2
  exit 1
}

step "determinism goldens: fig2 --quick against scripts/golden/"
# The --jobs comparisons above pass a change that moves both runs
# alike.  These goldens pin route choice and grant order themselves: a
# change meant to keep behaviour leaves them byte-identical, and one
# meant to move it re-records them and says why.
for f in fig2.dat fig2.hb.dat; do
  cmp "$tmpdir/verify-bench-j1/$f" "scripts/golden/fig2-quick.${f#fig2.}" || {
    echo "FAIL: fig2 --quick $f differs from scripts/golden/fig2-quick.${f#fig2.}" >&2
    exit 1
  }
done
hb_sum=$(sha256sum < "$tmpdir/verify-bench-j1/fig2.heartbeat.jsonl" | cut -d ' ' -f 1)
[ "$hb_sum" = "$(cut -d ' ' -f 1 scripts/golden/fig2-quick.heartbeat.sha256)" ] || {
  echo "FAIL: fig2 --quick heartbeat stream differs from scripts/golden/fig2-quick.heartbeat.sha256" >&2
  exit 1
}

step "determinism goldens: ablations --quick against scripts/golden/ablations-quick/"
# No other gate runs the ablations, and ablation F is the one reached
# caller of Netsim.  Each of the nine .dat exports must match its golden
# byte for byte; the goldens are identical across runs and --jobs.
dune exec bench/main.exe -- ablations --quick --out "$tmpdir/ablations" >/dev/null
for golden in scripts/golden/ablations-quick/*.dat; do
  f=$(basename "$golden")
  cmp "$tmpdir/ablations/$f" "$golden" || {
    echo "FAIL: ablations --quick $f differs from $golden" >&2
    exit 1
  }
done

step "determinism goldens: fig3, fig4, table1 --quick against scripts/golden/"
# Fig. 3 runs Waxman graphs of changing size and table1 the transit-stub,
# so these pin route choice on topologies fig2 never builds.  Each .dat
# export must match its golden byte for byte; the goldens are identical
# across runs and --jobs (about 2 s for the three).
for e in fig3 fig4 table1; do
  dune exec bench/main.exe -- "$e" --quick --out "$tmpdir/$e" >/dev/null
  cmp "$tmpdir/$e/$e.dat" "scripts/golden/$e-quick.dat" || {
    echo "FAIL: $e --quick $e.dat differs from scripts/golden/$e-quick.dat" >&2
    exit 1
  }
done

step "lint: zero unbaselined findings, no stale baseline entries (timed)"
# drqos_lint walks the .cmt files dune built — every rule (R1-R5, R7-R9) over
# the whole tree (examples included).  `@all` writes no .cmt for an
# executable's main module, so `@check` is built first; a root with no
# implementation .cmt is an input error, not a clean pass.  Exit 1
# covers both unbaselined findings and stale baseline entries (a fixed
# finding whose suppression was not removed), so either fails the gate.
# The walk is timed: a full run that exceeds 30 s means the linter has
# stopped being a gate anyone runs.
dune build @check
lint_t0=$(date +%s)
dune exec bin/drqos_lint.exe -- --baseline lint.baseline \
  _build/default/lib _build/default/bin _build/default/bench \
  _build/default/examples || {
  echo "FAIL: lint gate (fix the finding or baseline it with a justification)" >&2
  exit 1
}
lint_t1=$(date +%s)
lint_s=$((lint_t1 - lint_t0))
[ "$lint_s" -le 30 ] || {
  echo "FAIL: full lint walk took ${lint_s}s (> 30s budget)" >&2
  exit 1
}
echo "lint walk: ${lint_s}s"

step "lint self-check: fixture violations are still detected"
# Negative control: the deliberately-bad fixture library must keep
# tripping the linter, otherwise the gate above is vacuous.
if dune exec bin/drqos_lint.exe -- --lib-prefix test/ \
  _build/default/test/lintfix >/dev/null; then
  echo "FAIL: linter reported the violation fixtures as clean" >&2
  exit 1
fi
# The interprocedural rules alone must trip their fixtures too (a
# cross-unit race, a blocking call two wrappers deep in a fake event
# loop, an aliased wall-clock re-export).
if dune exec bin/drqos_lint.exe -- --rules R7,R8,R9 --lib-prefix test/ \
  _build/default/test/lintfix >/dev/null; then
  echo "FAIL: interprocedural rules reported the fixtures as clean" >&2
  exit 1
fi

step "fuzz: fixed seeds per topology family, stdout against scripts/golden/"
# The full invariant suite (link accounting, failed-edge unroutability,
# single-failure safety, counter prediction) is audited after every op;
# any violation prints a shrunk reproducer and fails the gate.  The
# second run adds multiple backups, restoration and the incremental-
# equivalence audit every 3 ops.  Each run's summary lines (admitted,
# rejected, activations, ...) must match their golden byte for byte.
fuzz_gate() {
  golden=$1
  shift
  dune exec bin/drqos_cli.exe -- fuzz "$@" > "$tmpdir/fuzz.txt" || {
    cat "$tmpdir/fuzz.txt"
    echo "FAIL: fuzzer found an invariant violation (reproducer above)" >&2
    exit 1
  }
  cat "$tmpdir/fuzz.txt"
  cmp "$tmpdir/fuzz.txt" "scripts/golden/$golden" || {
    echo "FAIL: fuzz $* stdout differs from scripts/golden/$golden" >&2
    exit 1
  }
}
fuzz_gate fuzz-seed1-ops2000.txt --seed 1 --ops 2000
fuzz_gate fuzz-seed7-ops4000-backups3-restore.txt --seed 7 --ops 4000 --backups 3 \
  --restore --deep-every 3

step "benchmark goldens: full-size route choice, seed 1"
# Tier-1's benchmark smoke runs seed 3 on shrunk workloads and reads no
# golden, so route choice at full size is pinned only here: for seed 1,
# run.exe compares each workload's output digest with
# benchmark/golden/<workload>.txt and exits 1 on a mismatch.  It reads
# the goldens by relative path, so it runs from the repo root.  About
# 40 s for the four workloads.
for w in paper_fig2 failover scale_20k serve_mix; do
  _build/default/benchmark/run.exe --workload "$w" --seed 1 --seconds 1 \
    --trace 0 --out "$tmpdir/bench" > "$tmpdir/bench-$w.txt" || {
    echo "FAIL: benchmark $w (seed 1) exited non-zero: digest mismatch or failed audit" >&2
    exit 1
  }
  tail -n 1 "$tmpdir/bench-$w.txt" | grep -q '"correct":true' || {
    echo "FAIL: benchmark $w (seed 1) did not end with a correct result" >&2
    exit 1
  }
done

step "CLI smoke: trace + metrics (profiled)"
dune exec bin/drqos_cli.exe -- run --offered 100 --churn 100 --warmup 20 \
  --trace "$tmpdir/t.jsonl" --metrics "$tmpdir/m.json" --profile >/dev/null
test -s "$tmpdir/t.jsonl" && test -s "$tmpdir/m.json" || {
  echo "FAIL: CLI run did not write trace/metrics files" >&2
  exit 1
}
grep -q '"span_end"' "$tmpdir/t.jsonl" || {
  echo "FAIL: profiled trace carries no span events" >&2
  exit 1
}

step "analyze golden: unprofiled run trace against scripts/golden/"
# Without --profile the trace carries no wall-clock value that analyze
# prints, so its report is a pure function of the seed.  Its event
# counts include one solve and six phase_begin/phase_end pairs (load,
# warmup, measure, solve, two engine runs): a solver or phase instrument
# that stops reaching the run's context fails here.  A change meant to
# move the trace re-records the golden with the same two commands.
dune exec bin/drqos_cli.exe -- run --offered 100 --churn 100 --warmup 20 \
  --trace "$tmpdir/u.jsonl" >/dev/null
dune exec bin/drqos_cli.exe -- analyze "$tmpdir/u.jsonl" --audit \
  > "$tmpdir/u-analyze.txt"
cmp "$tmpdir/u-analyze.txt" scripts/golden/analyze-run100-audit.txt || {
  echo "FAIL: analyze --audit of the unprofiled run trace differs from scripts/golden/analyze-run100-audit.txt" >&2
  exit 1
}

step "analyze golden: run trace with failures against scripts/golden/"
# The step above runs at gamma 0, so no backup activation or drop reaches
# the replay.  This run fails 90 links (688 backup activations, 75
# drops), and its residency and audit table follow each activation's
# restart at the floor.  Re-recorded like the golden above.
dune exec bin/drqos_cli.exe -- run --offered 400 --churn 300 --warmup 50 \
  --gamma 0.001 --capacity 2000 --trace "$tmpdir/f.jsonl" >/dev/null
dune exec bin/drqos_cli.exe -- analyze "$tmpdir/f.jsonl" --audit \
  > "$tmpdir/f-analyze.txt"
cmp "$tmpdir/f-analyze.txt" scripts/golden/analyze-run400-failures-audit.txt || {
  echo "FAIL: analyze --audit of the run trace with failures differs from scripts/golden/analyze-run400-failures-audit.txt" >&2
  exit 1
}

step "examples: each runs to exit 0, stdout against scripts/golden/examples/"
# The examples build with the tree but nothing else runs them; each
# must exit 0 and print exactly its golden (about 7 s for all of them).
# Their stdout is deterministic, identical across runs.
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  "_build/default/examples/$ex.exe" > "$tmpdir/example-$ex.txt" || {
    echo "FAIL: examples/$ex exited non-zero" >&2
    exit 1
  }
  cmp "$tmpdir/example-$ex.txt" "scripts/golden/examples/$ex.txt" || {
    echo "FAIL: examples/$ex stdout differs from scripts/golden/examples/$ex.txt" >&2
    exit 1
  }
done

step "analyze determinism: same trace, byte-identical output"
# analyze is a pure function of the trace bytes: two invocations on the
# same file (including the Perfetto export) must agree exactly.
dune exec bin/drqos_cli.exe -- analyze "$tmpdir/t.jsonl" --audit \
  --perfetto "$tmpdir/p1.json" | grep -v '^perfetto trace written' > "$tmpdir/a1.txt"
dune exec bin/drqos_cli.exe -- analyze "$tmpdir/t.jsonl" --audit \
  --perfetto "$tmpdir/p2.json" | grep -v '^perfetto trace written' > "$tmpdir/a2.txt"
diff "$tmpdir/a1.txt" "$tmpdir/a2.txt" && diff "$tmpdir/p1.json" "$tmpdir/p2.json" || {
  echo "FAIL: analyze output diverged between runs on the same trace" >&2
  exit 1
}

step "micro-bench smoke: BENCH_micro.json perf record"
dune exec bench/main.exe -- micro --quick --out "$tmpdir/perf" >/dev/null
test -s "$tmpdir/perf/BENCH_micro.json" || {
  echo "FAIL: micro --quick did not write BENCH_micro.json" >&2
  exit 1
}
# micro.<case>.ns gauges carry each case's bechamel estimate.
for key in experiment wall_s gc spans micro.trace_line.ns; do
  grep -q "\"$key\"" "$tmpdir/perf/BENCH_micro.json" || {
    echo "FAIL: BENCH_micro.json is missing the \"$key\" field" >&2
    exit 1
  }
done
# A record must compare cleanly against itself (perf_diff smoke).
scripts/perf_diff.sh "$tmpdir/perf/BENCH_micro.json" \
  "$tmpdir/perf/BENCH_micro.json" --max-regress 1 >/dev/null || {
  echo "FAIL: perf_diff rejected a record compared against itself" >&2
  exit 1
}

step "perf gate self-check: a committed regression still fails"
# Negative control, like the lint self-check: the committed fig3 -> fig2
# pair is a +386.6% wall-time regression, so the gate must exit 1 on it,
# otherwise every perf_diff gate in this script is vacuous.
perf_rc=0
scripts/perf_diff.sh bench/baselines/BENCH_fig3.json \
  bench/baselines/BENCH_fig2.json --max-regress 50 >/dev/null 2>&1 || perf_rc=$?
[ "$perf_rc" -eq 1 ] || {
  echo "FAIL: perf_diff exited $perf_rc on the committed +386.6% regression (want 1)" >&2
  exit 1
}

step "scale smoke: 10^5 live connections on transit-stub, invariants on"
# The quick plateaus (50k, 100k live DR-connections on the 1056-node
# transit-stub) run with admission control and the per-plateau
# check_invariants audit on; the perf record must carry the
# ops/sec-vs-live curve.
dune exec bench/main.exe -- scale --quick --out "$tmpdir/scale" >/dev/null
test -s "$tmpdir/scale/BENCH_scale.json" || {
  echo "FAIL: scale --quick did not write BENCH_scale.json" >&2
  exit 1
}
grep -q '"plateaus"' "$tmpdir/scale/BENCH_scale.json" || {
  echo "FAIL: BENCH_scale.json is missing the plateaus curve" >&2
  exit 1
}
# Strict self-comparison (record format sanity), then a generous gate
# against the committed full-scale baseline: wall clock varies across
# machines, so this only catches order-of-magnitude hot-path collapses
# (the quick run normally finishes in a fraction of the 10^6 baseline).
scripts/perf_diff.sh "$tmpdir/scale/BENCH_scale.json" \
  "$tmpdir/scale/BENCH_scale.json" --max-regress 1 >/dev/null || {
  echo "FAIL: perf_diff rejected the scale record compared against itself" >&2
  exit 1
}
scripts/perf_diff.sh bench/baselines/BENCH_scale.json \
  "$tmpdir/scale/BENCH_scale.json" --max-regress 400 || {
  echo "FAIL: scale smoke wall time blew past the committed 10^6 baseline" >&2
  exit 1
}

step "clock hygiene: no baselined R9 finding"
# The timed walk above already runs R9 with every other rule; this only
# keeps wall-clock reads outside lib/obs/clock.ml unsuppressible.
if grep -q '^R9 ' lint.baseline; then echo "FAIL: lint.baseline suppresses an R9 finding" >&2; exit 1; fi

step "serve smoke: daemon + loadgen --quick over a unix socket"
# Run the already-built binary directly (a backgrounded `dune exec`
# would contend for the build lock with the foreground loadgen).
cli=_build/default/bin/drqos_cli.exe
serve_sock="$tmpdir/verify-serve.sock"
"$cli" serve --socket "$serve_sock" --nodes 100 --seed 3 \
  > "$tmpdir/serve-daemon.log" 2>&1 &
serve_pid=$!
trap 'rm -rf "$tmpdir"; kill "$serve_pid" 2>/dev/null || true' EXIT
"$cli" loadgen --socket "$serve_sock" --quick --nodes 100 --jobs 4 \
  --fail-edges 8 --out "$tmpdir/serve-bench" --shutdown || {
  echo "FAIL: loadgen --quick against the serve daemon (log below)" >&2
  cat "$tmpdir/serve-daemon.log" >&2
  exit 1
}
wait "$serve_pid" || {
  echo "FAIL: serve daemon exited non-zero after shutdown" >&2
  cat "$tmpdir/serve-daemon.log" >&2
  exit 1
}
for key in experiment wall_s achieved_rps latency_s gc; do
  grep -q "\"$key\"" "$tmpdir/serve-bench/BENCH_serve.json" || {
    echo "FAIL: BENCH_serve.json is missing the \"$key\" field" >&2
    exit 1
  }
done
test -s "$tmpdir/serve-bench/serve.dat" || {
  echo "FAIL: loadgen wrote no serve.dat percentile table" >&2
  exit 1
}
# Self-comparison (record format sanity), then a generous wall-time gate
# against the committed 10^5-request baseline — the quick replay offers
# 2000 requests at 5000 rps and normally finishes in well under a
# second, so this only catches an event-loop collapse.
scripts/perf_diff.sh "$tmpdir/serve-bench/BENCH_serve.json" \
  "$tmpdir/serve-bench/BENCH_serve.json" --max-regress 1 >/dev/null || {
  echo "FAIL: perf_diff rejected the serve record compared against itself" >&2
  exit 1
}
scripts/perf_diff.sh bench/baselines/BENCH_serve.json \
  "$tmpdir/serve-bench/BENCH_serve.json" --max-regress 0 || {
  echo "FAIL: loadgen --quick wall time exceeded the 10^5-request baseline" >&2
  exit 1
}

step "serve tracing gate: stage anatomy joins, --check, tracing-on overhead"
# Same smoke, tracing on end to end: the daemon decomposes every
# request into stages (--trace) with an SLO tracker and slow-request
# flight dumps, the load generator stamps trace contexts and logs its
# client half, and `latency --check` must find the two streams
# consistent and joinable.  The perf_diff against the tracing-off
# record above enforces the <= 5% tracing-on overhead budget
# (DESIGN.md §15); both runs are paced by the same open-loop schedule,
# so wall time only moves if tracing leaks into the hot path.
trace_sock="$tmpdir/verify-trace.sock"
"$cli" serve --socket "$trace_sock" --nodes 100 --seed 3 \
  --slo 0.05 --trace "$tmpdir/server-trace.jsonl" \
  --slow-dir "$tmpdir/slow" > "$tmpdir/serve-trace.log" 2>&1 &
trace_pid=$!
trap 'rm -rf "$tmpdir"; kill "$serve_pid" "$trace_pid" 2>/dev/null || true' EXIT
"$cli" loadgen --socket "$trace_sock" --quick --nodes 100 --jobs 4 \
  --fail-edges 8 --trace "$tmpdir/client-trace.jsonl" --slo 0.05 \
  --out "$tmpdir/serve-trace-bench" --shutdown || {
  echo "FAIL: tracing-on loadgen --quick (log below)" >&2
  cat "$tmpdir/serve-trace.log" >&2
  exit 1
}
wait "$trace_pid" || {
  echo "FAIL: tracing-on serve daemon exited non-zero after shutdown" >&2
  cat "$tmpdir/serve-trace.log" >&2
  exit 1
}
dune exec bin/drqos_cli.exe -- latency "$tmpdir/server-trace.jsonl" \
  "$tmpdir/client-trace.jsonl" --check || {
  echo "FAIL: latency --check rejected the tracing-on serve run" >&2
  exit 1
}
grep -q '"stage_p99_s"' "$tmpdir/serve-trace-bench/BENCH_serve.json" || {
  echo "FAIL: tracing-on BENCH_serve.json carries no stage_p99_s record" >&2
  exit 1
}
scripts/perf_diff.sh "$tmpdir/serve-bench/BENCH_serve.json" \
  "$tmpdir/serve-trace-bench/BENCH_serve.json" --max-regress 5 || {
  echo "FAIL: tracing-on serve smoke exceeded the 5% overhead budget" >&2
  exit 1
}
# Per-stage p99 deltas vs the committed tracing-on baseline (printed by
# perfdiff; informational columns plus the generous wall gate).
scripts/perf_diff.sh bench/baselines/BENCH_serve.json \
  "$tmpdir/serve-trace-bench/BENCH_serve.json" --max-regress 0 || {
  echo "FAIL: tracing-on quick wall time exceeded the 10^5-request baseline" >&2
  exit 1
}

echo
echo "verify: OK"
