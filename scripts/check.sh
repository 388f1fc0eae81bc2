#!/bin/sh
# CI entry point: build, run the full test suite, then smoke-test the
# `liger analyze` subcommand on the example programs (both the clean ones,
# which must pass --strict, and the deliberately dirty lint demo, which
# must be rejected).
set -eu

cd "$(dirname "$0")/.."

echo "== config: lib/obs/config.ml is the only reader of the environment"
if grep -rnE --include='*.ml' --include='*.mli' '(Sys|Unix)\.getenv' lib bin bench \
  | grep -v '^lib/obs/config\.ml:'; then
  echo "   ERROR: the environment is read outside lib/obs/config.ml (take the value from Config.get ())" >&2
  exit 1
fi
echo "   ok: only lib/obs/config.ml reads the environment"

# `opam install . --deps-only --with-test` installs what liger.opam lists,
# so the file must match dune-project and name every library the build
# links (the package is a library's name up to its first dot).
echo "== dependencies: liger.opam is generated and lists every linked library"
dune build ./liger.opam
git diff --exit-code -- liger.opam || {
  echo "   ERROR: liger.opam is stale; commit the file dune-project generates" >&2; exit 1; }
missing=$(find lib bin bench test -name dune -exec cat {} + | tr '\n' ' ' \
  | grep -oE '\((libraries|pps)[^()]*\)' | sed -E 's/^\((libraries|pps)//; s/\)$//' \
  | tr -s ' ' '\n' | sed 's/\..*//' | grep -vE '^(unix|threads|liger_.*)?$' | sort -u \
  | while read -r pkg; do
      sed -n '/^depends: \[/,/^\]/p' liger.opam | grep -q "\"$pkg\"" || echo "$pkg"
    done)
if [ -n "$missing" ]; then
  echo "   ERROR: linked but not in liger.opam (add to dune-project):" $missing >&2
  exit 1
fi
echo "   ok: liger.opam is current and lists every linked package"

echo "== dune build"
dune build @all

echo "== dune runtest (LIGER_JOBS=2: exercise the domain pool everywhere)"
LIGER_JOBS=2 dune runtest

# Always benchmark at --jobs 2: a jobs=1 record cannot engage the
# speedup >= 1 gate and --check-regression now fails loudly on one.  On a
# single-core runner the bench detects the oversubscription itself and
# waives the speedup gate with a warning (the throughput gate stays
# active) — see DESIGN.md on oversubscription.
echo "== bench smoke: parallel corpus generation on 2 domains + regression gate"
LIGER_BENCH_N=20 dune exec --no-build bench/main.exe -- \
  --jobs 2 --history BENCH_history.jsonl --check-regression > /dev/null
test -f BENCH_parallel.json
test -f BENCH_history.jsonl
echo "   ok: BENCH_parallel.json written, record appended to BENCH_history.jsonl"

# The profiled smoke does not append to the history: profiling overhead
# would create alternating slow/fast records inside one run shape and
# soften the throughput gate below.  No --metrics-out: the snapshot must
# land in the run directory by default.
echo "== profiled batched train smoke: per-layer/per-op accounting validates, FLOP and pool-miss budgets"
rm -rf runs/ci-profile
LIGER_RUN_ID=ci-profile dune exec --no-build bin/liger_cli.exe -- \
  train -n 16 --epochs 3 --batch 16 --profile > /dev/null 2>&1
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-profile/metrics.json \
  | grep -q "profile section" || {
    echo "   ERROR: profile section missing from runs/ci-profile/metrics.json" >&2; exit 1; }
echo "   ok: runs/ci-profile/metrics.json has a consistent profile section"
# FLOP budget for exactly this run.  The count comes from tensor shapes,
# not timing, so it repeats exactly across runs and at LIGER_JOBS 1 and 2.
# Masked recurrences step only their live lanes: 120,887,821 FLOPs, where
# running every lane in lockstep to the longest one counted 167,836,257.
# Exceeding the budget means padded work came back.
FLOPS_BUDGET=120887821
flops=$(sed -n 's/.*"profile.total_flops": *\([0-9][0-9]*\)[,}]*$/\1/p' \
  runs/ci-profile/metrics.json | head -n 1)
test -n "$flops" || {
  echo "   ERROR: no integer profile.total_flops in runs/ci-profile/metrics.json" >&2; exit 1; }
if [ "$flops" -gt "$FLOPS_BUDGET" ]; then
  echo "   ERROR: profile.total_flops $flops exceeds the budget $FLOPS_BUDGET" >&2
  exit 1
fi
echo "   ok: profile.total_flops $flops within the budget $FLOPS_BUDGET"
# Buffer-pool miss budget for the same run, summed over the per-domain
# bufpool.misses gauges.  Leases follow tensor shapes only, so the count
# repeats exactly across runs and at LIGER_JOBS 1 and 2.  Power-of-two
# size classes read 2,907 misses; exact-size classes read 7,195.
# Exceeding the budget means leases stopped finding pooled storage.
MISSES_BUDGET=2907
misses=$(sed -n 's/.*"bufpool\.misses{[^}]*}": *\([0-9][0-9]*\)[,}]*$/\1/p' \
  runs/ci-profile/metrics.json | awk '{ s += $1 } END { if (NR > 0) print s }')
test -n "$misses" || {
  echo "   ERROR: no bufpool.misses gauge in runs/ci-profile/metrics.json" >&2; exit 1; }
if [ "$misses" -gt "$MISSES_BUDGET" ]; then
  echo "   ERROR: bufpool.misses $misses exceeds the budget $MISSES_BUDGET" >&2
  exit 1
fi
echo "   ok: bufpool.misses $misses within the budget $MISSES_BUDGET"

# Batch size 1 is the default of `liger train` and of every experiment:
# one-lane tapes on the batched engine, for LiGer and for a baseline.
echo "== benchmark history: batch-1 (one-lane tape) records, LiGer and DYPRO"
dune exec --no-build bin/liger_cli.exe -- train -n 16 --epochs 3 \
  --history BENCH_history.jsonl > /dev/null 2>&1
dune exec --no-build bin/liger_cli.exe -- train --model dypro -n 16 --epochs 3 \
  --history BENCH_history.jsonl > /dev/null 2>&1
tail -n 1 BENCH_history.jsonl | grep -q '"benchmark":"train.DYPRO"' || {
  echo "   ERROR: last history record is not a train.DYPRO record" >&2; exit 1; }
echo "   ok: train.LiGer and train.DYPRO (batch=1) records appended"

# At -n 16 the test split is 3 examples and F1 is legitimately 0 (the CLI
# warns).  This smoke trains batched at a scale where the model actually
# learns something, and asserts a real (nonzero) test F1 reaches the
# history record — the plumbing bug this guards against recorded
# test_f1 = 0 for every run regardless of the model.
echo "== batched train at F1-bearing scale: real test_f1 must land in history"
dune exec --no-build bin/liger_cli.exe -- train -n 60 --epochs 8 --batch 16 \
  --history BENCH_history.jsonl > /dev/null 2>&1
tail -n 1 BENCH_history.jsonl | grep -q '"benchmark":"train.LiGer"' || {
  echo "   ERROR: last history record is not a train.LiGer record" >&2; exit 1; }
if tail -n 1 BENCH_history.jsonl | grep -Eq '"test_f1":0([,}]|\.0+[,}])'; then
  echo "   ERROR: batched train at -n 60 recorded test_f1 = 0" >&2
  exit 1
fi
echo "   ok: nonzero test_f1 recorded"

echo "== batched throughput record (seed scale, batch 16), then stats --diff"
dune exec --no-build bin/liger_cli.exe -- train -n 16 --epochs 3 --batch 16 \
  --history BENCH_history.jsonl > /dev/null 2>&1
dune exec --no-build bin/liger_cli.exe -- stats BENCH_history.jsonl --diff
echo "   ok: stats --diff compared the last two records"

echo "== train throughput regression gate (examples_per_second per run shape)"
dune exec --no-build bench/main.exe -- \
  --history BENCH_history.jsonl --check-train-regression
echo "   ok: train regression gate passed"

echo "== observability smoke: trace + metrics into the run dir, then validate both"
rm -rf runs/ci-obs
LIGER_RUN_ID=ci-obs LIGER_TRACE=1 LIGER_METRICS=1 LIGER_JOBS=2 \
  dune exec --no-build bin/liger_cli.exe -- dataset -n 40 > /dev/null
test -f runs/ci-obs/trace.json
test -f runs/ci-obs/metrics.json
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-obs/trace.json
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-obs/metrics.json
grep -q "symexec.paths_pruned_by_absint" runs/ci-obs/metrics.json || {
  echo "   ERROR: absint pruned no symbolic paths on the standard corpus" >&2; exit 1; }
grep -q "symexec.solves_failed" runs/ci-obs/metrics.json || {
  echo "   ERROR: no solver counters in the metrics snapshot" >&2; exit 1; }
echo "   ok: runs/ci-obs/{trace,metrics}.json validate (absint pruning, solver counters live)"
# Budget for the solver objectives this run computes rather than looks up
# in a single-input table.  Solves are seeded per method, so the count
# repeats exactly across runs and at LIGER_JOBS 1 and 2: 3,355,821 of the
# 5,276,055 evaluations requested.  Before the table every evaluation was
# computed (the parent's symexec.objective_evals, 5,276,055).  Exceeding the
# budget means evaluations stopped being served from the table.
COMPUTED_BUDGET=3355821
computed=$(sed -n 's/.*"symexec\.objective_computed": *\([0-9][0-9]*\)[,}]*$/\1/p' \
  runs/ci-obs/metrics.json | head -n 1)
test -n "$computed" || {
  echo "   ERROR: no symexec.objective_computed counter in runs/ci-obs/metrics.json" >&2; exit 1; }
if [ "$computed" -gt "$COMPUTED_BUDGET" ]; then
  echo "   ERROR: symexec.objective_computed $computed exceeds the budget $COMPUTED_BUDGET" >&2
  exit 1
fi
echo "   ok: symexec.objective_computed $computed within the budget $COMPUTED_BUDGET"
# Concrete execution tripwire: test generation's attempt, timeout and
# crash counts for this run.  Inputs are seeded per method, so the counts
# repeat exactly across runs and at LIGER_JOBS 1 and 2 (5,381 attempts,
# 10 timeouts, 0 crashes, measured before the interpreter was compiled to
# closures and after).  A different count means concrete execution, or an
# input it is given, changed behaviour.
for pair in attempts:5381 timeouts:10 crashes:0; do
  name=${pair%%:*}
  want=${pair#*:}
  got=$(sed -n "s/.*\"testgen\\.$name\": *\([0-9][0-9]*\)[,}]*\$/\1/p" \
    runs/ci-obs/metrics.json | head -n 1)
  if [ "$got" != "$want" ]; then
    echo "   ERROR: testgen.$name is ${got:-missing} in runs/ci-obs/metrics.json, expected $want" >&2
    exit 1
  fi
done
echo "   ok: testgen.attempts, testgen.timeouts and testgen.crashes match the pinned counts"

echo "== run ledger smoke: 1s snapshots, OpenMetrics exposition, liger top"
rm -rf runs/ci-ledger
LIGER_RUN_ID=ci-ledger LIGER_METRICS_EVERY=1 dune exec --no-build bin/liger_cli.exe -- \
  train -n 16 --epochs 3 --batch 16 > /dev/null 2>&1
test -f runs/ci-ledger/metrics.jsonl
test -f runs/ci-ledger/metrics.json
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-ledger/metrics.jsonl
dune exec --no-build bin/liger_cli.exe -- stats --validate --openmetrics runs/ci-ledger/metrics.jsonl
grep -q "gc.minor_collections" runs/ci-ledger/metrics.jsonl || {
  echo "   ERROR: ledger snapshots are not enriched with GC gauges" >&2; exit 1; }
dune exec --no-build bin/liger_cli.exe -- top runs/ci-ledger --once > /dev/null
echo "   ok: ledger validates, renders as OpenMetrics, and liger top reads it"

echo "== dynamics + report: instrumented train, HTML dashboard, compare, health gate"
rm -rf runs/ci-dynamics
LIGER_RUN_ID=ci-dynamics dune exec --no-build bin/liger_cli.exe -- \
  train -n 16 --epochs 3 --batch 16 --metrics-every 1 --dynamics > /dev/null 2>&1
test -f runs/ci-dynamics/metrics.jsonl
grep -q "dynamics.layer_grad_norm" runs/ci-dynamics/metrics.jsonl || {
  echo "   ERROR: no per-layer gradient stream in the ci-dynamics ledger" >&2; exit 1; }
# activation samples must carry the nn layer that produced them
grep -qF "dynamics.saturation{act=tanh,layer=treelstm}" runs/ci-dynamics/metrics.jsonl || {
  echo "   ERROR: no treelstm saturation samples in the ci-dynamics ledger" >&2; exit 1; }
if grep -qF "layer=?" runs/ci-dynamics/metrics.jsonl; then
  echo "   ERROR: dynamics labels without a layer (layer=?) in the ci-dynamics ledger" >&2; exit 1
fi
# single-run report + the health gate (--check exits 2 on any FAIL rule)
dune exec --no-build bin/liger_cli.exe -- report runs/ci-dynamics \
  --history BENCH_history.jsonl --out report.html --check > /dev/null
test -f report.html
grep -q '<section id="gradflow"' report.html
grep -q '<section id="drift"' report.html
grep -q '<svg class="spark"' report.html
# compare mode against the earlier ci-ledger smoke (same run shape)
dune exec --no-build bin/liger_cli.exe -- report runs/ci-dynamics \
  --compare runs/ci-ledger --out report_compare.html > /dev/null
grep -q '<section id="compare"' report_compare.html
echo "   ok: report.html + report_compare.html rendered, health rules pass"

echo "== crash injection: a failpoint mid-train must leave a postmortem dump"
rm -rf runs/ci-crash
if LIGER_RUN_ID=ci-crash LIGER_METRICS_EVERY=1 LIGER_FAILPOINT=train.epoch:2 \
  dune exec --no-build bin/liger_cli.exe -- train -n 16 --epochs 3 --batch 16 > /dev/null 2>&1
then
  echo "   ERROR: injected failpoint did not abort the run" >&2
  exit 1
fi
test -f runs/ci-crash/postmortem.json
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-crash/postmortem.json
echo "   ok: postmortem.json written by the crashed run and validates"

echo "== differential fuzz smoke: fixed seed, all oracles, zero failures expected"
# Fixed seed keeps this reproducible; any failure is shrunk and persisted
# under fuzz/corpus/ (uploaded by CI) and can be rerun with --replay.
dune exec --no-build bin/liger_cli.exe -- fuzz --seed 1 --iters 200 --budget-s 60
echo "   ok: fuzz battery clean"

echo "== absint soundness oracle: 200 fixed-seed programs, envelope must hold"
dune exec --no-build bin/liger_cli.exe -- fuzz --seed 1 --iters 200 --budget-s 60 \
  --oracle absint
echo "   ok: concrete states stayed inside the abstract envelope"

echo "== semantic probe smoke: frozen embeddings vs exact labels"
rm -rf runs/ci-probe
LIGER_RUN_ID=ci-probe dune exec --no-build bin/liger_cli.exe -- probe -n 30 --seed 1 \
  --epochs 1 --probe-epochs 10 > /dev/null
test -f runs/ci-probe/probe_accuracy.txt
grep -q "live-after" runs/ci-probe/probe_accuracy.txt
echo "   ok: runs/ci-probe/probe_accuracy.txt written (uploaded as a CI artifact)"

echo "== serve smoke: save a model, build the index twice, predict, search, drive every endpoint"
rm -rf runs/ci-serve-model runs/ci-serve-index runs/ci-serve runs/ci-serve.port
dune exec --no-build bin/liger_cli.exe -- train -n 16 --epochs 1 --batch 16 \
  --save runs/ci-serve-model > /dev/null 2>&1
dune exec --no-build bin/liger_cli.exe -- index --model runs/ci-serve-model \
  --out runs/ci-serve-index --generate 8 --seed 7 > /dev/null
# content-addressed rebuild: an unchanged corpus must re-embed nothing
dune exec --no-build bin/liger_cli.exe -- index --model runs/ci-serve-model \
  --out runs/ci-serve-index --generate 8 --seed 7 | grep -q "embedded 0," || {
    echo "   ERROR: index rebuild re-embedded unchanged methods" >&2; exit 1; }
# the one-example inference commands: a one-lane forward of the saved
# model, and semantic search over a briefly trained encoder of its own
dune exec --no-build bin/liger_cli.exe -- predict examples/minijava/sum_to.mj \
  --model runs/ci-serve-model | grep -q "predicted name:" || {
    echo "   ERROR: liger predict printed no predicted name" >&2; exit 1; }
dune exec --no-build bin/liger_cli.exe -- similar examples/minijava/sum_to.mj -n 20 -k 3 \
  | grep -Eq '^  -?[0-9]+[.][0-9]+  [A-Za-z]' || {
    echo "   ERROR: liger similar printed no neighbour" >&2; exit 1; }
# run the built binary directly so $! is the server itself, not a dune wrapper
LIGER_RUN_ID=ci-serve LIGER_METRICS_EVERY=1 ./_build/default/bin/liger_cli.exe serve \
  --model runs/ci-serve-model --index runs/ci-serve-index \
  --port 0 --port-file runs/ci-serve.port &
SERVE_PID=$!
i=0
while [ ! -s runs/ci-serve.port ] && [ $i -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
test -s runs/ci-serve.port || { echo "   ERROR: server never bound a port" >&2; exit 1; }
PORT=$(cat runs/ci-serve.port)
dune exec --no-build bin/liger_cli.exe -- fetch "http://127.0.0.1:$PORT/healthz" \
  | grep -q ok
dune exec --no-build bin/liger_cli.exe -- fetch "http://127.0.0.1:$PORT/embed" \
  --data examples/minijava/sum_to.mj | grep -q '"vector":\['
dune exec --no-build bin/liger_cli.exe -- fetch "http://127.0.0.1:$PORT/search?k=3" \
  --data examples/minijava/sum_to.mj | grep -q '"neighbors":\['
dune exec --no-build bin/liger_cli.exe -- fetch "http://127.0.0.1:$PORT/suggest" \
  --data examples/minijava/sum_to.mj | grep -q '"subtokens":\['
dune exec --no-build bin/liger_cli.exe -- fetch --lint-openmetrics \
  "http://127.0.0.1:$PORT/metrics"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test -f runs/ci-serve/metrics.jsonl || {
  echo "   ERROR: serve run left no ledger" >&2; exit 1; }
test -f runs/ci-serve/metrics.json || {
  echo "   ERROR: SIGTERM shutdown left no final ledger tick" >&2; exit 1; }
dune exec --no-build bin/liger_cli.exe -- stats --validate runs/ci-serve/metrics.jsonl
echo "   ok: all endpoints answered; clean SIGTERM left the final ledger tick"

echo "== serve loopback bench: sustained QPS + p99 gates, history record"
dune exec --no-build bench/main.exe -- serve --qps 50 --duration 10 \
  --history BENCH_history.jsonl --check-regression > /dev/null
tail -n 1 BENCH_history.jsonl | grep -q '"benchmark":"serve.loopback"' || {
  echo "   ERROR: serve bench did not append to BENCH_history.jsonl" >&2; exit 1; }
echo "   ok: serve.loopback record appended to BENCH_history.jsonl"

echo "== liger analyze (clean examples, strict)"
for f in examples/minijava/sum_to.mj examples/minijava/find_max.mj; do
  dune exec --no-build bin/liger_cli.exe -- analyze "$f" --strict > /dev/null
  echo "   ok: $f"
done

echo "== liger analyze (lint demo must fail strict)"
if dune exec --no-build bin/liger_cli.exe -- analyze examples/minijava/lint_demo.mj --strict > /dev/null 2>&1; then
  echo "   ERROR: lint_demo.mj unexpectedly passed --strict" >&2
  exit 1
fi
echo "   ok: lint_demo.mj rejected"

echo "All checks passed."
