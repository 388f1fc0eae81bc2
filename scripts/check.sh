#!/bin/sh
# CI entry point: build, run the full test suite, then smoke-test the
# `liger analyze` subcommand on the example programs (both the clean ones,
# which must pass --strict, and the deliberately dirty lint demo, which
# must be rejected).
set -eu

cd "$(dirname "$0")/.."

# count SNAPSHOT NAME: the integer metric NAME in a metrics snapshot,
# summed over its label sets when it is kept per label set (NAME{...});
# empty when the snapshot has none.
count() {
  re=$(printf '%s' "$2" | sed 's/[.]/\\./g')
  sed -n "s/.*\"$re\({[^}]*}\)\{0,1\}\": *\([0-9][0-9]*\)[,}]*\$/\2/p" "$1" \
    | awk '{ s += $1 } END { if (NR > 0) printf "%.0f\n", s }'
}
# cap_counts SNAPSHOT NAME:BUDGET...: each integer metric in the snapshot
# must be present and at most BUDGET.
cap_counts() {
  snap=$1
  shift
  for pair in "$@"; do
    name=${pair%%:*}
    budget=${pair#*:}
    got=$(count "$snap" "$name")
    test -n "$got" || {
      echo "   ERROR: no integer $name in $snap" >&2; exit 1; }
    if [ "$got" -gt "$budget" ]; then
      echo "   ERROR: $name $got exceeds the budget $budget" >&2
      exit 1
    fi
    echo "   ok: $name $got within the budget $budget"
  done
}
# pin_counts SNAPSHOT NAME:COUNT...: each integer metric in the snapshot
# must read exactly COUNT.
pin_counts() {
  snap=$1
  shift
  for pair in "$@"; do
    name=${pair%%:*}
    want=${pair#*:}
    got=$(count "$snap" "$name")
    if [ "$got" != "$want" ]; then
      echo "   ERROR: $name is ${got:-missing} in $snap, expected $want" >&2
      exit 1
    fi
  done
}

echo "== config: lib/obs/config.ml is the only reader of the environment"
if grep -rnE --include='*.ml' --include='*.mli' '(Sys|Unix)\.getenv' lib bin bench \
  | grep -v '^lib/obs/config\.ml:'; then
  echo "   ERROR: the environment is read outside lib/obs/config.ml (take the value from Config.get ())" >&2
  exit 1
fi
echo "   ok: only lib/obs/config.ml reads the environment"

# The telemetry readers and views (liger stats, top, report) are for the
# CLI and the tests; an instrumented library must not carry them.
echo "== layering: no library under lib/ links the view library liger_obs_view"
if grep -lE 'liger_obs_view|liger\.obs_view' lib/*/dune | grep -v '^lib/obs_view/dune$'; then
  echo "   ERROR: a library under lib/ links liger_obs_view (only bin/ and test/ may)" >&2
  exit 1
fi
echo "   ok: only bin/ and test/ link liger_obs_view"

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

# test/dune also links test_symexec as a self-contained bytecode
# executable (byte_complete: the C stubs are linked in).  The solver's C
# search reads and writes OCaml values in place, so it must agree with
# the float reference under the bytecode runtime as well as native code.
echo "== test_symexec in bytecode: the solver's C search under the bytecode runtime"
./_build/default/test/test_symexec.bc.exe --compact
echo "   ok: test_symexec passed in bytecode"

# No --metrics-out: the snapshot must land in the run directory by default.
# LIGER_JOBS=1 because the allocation budget below reads one exact value
# only on one domain (see there).
echo "== profiled batched train smoke: per-layer/per-op accounting validates, FLOP, pool-miss and allocation budgets"
rm -rf runs/ci-profile
LIGER_JOBS=1 LIGER_RUN_ID=ci-profile dune exec --no-build bin/liger_cli.exe -- \
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
#
# Buffer-pool miss budget for the same run, summed over the per-domain
# bufpool.misses gauges.  Leases follow tensor shapes only, so the count
# repeats exactly across runs and at LIGER_JOBS 1 and 2.  Power-of-two
# size classes read 2,907 misses; exact-size classes read 7,195.
# Exceeding the budget means leases stopped finding pooled storage.
#
# Allocation budget for the same run: words allocated on the minor heaps
# over the whole process (corpus, training, evaluation).  Allocation
# follows the work done, not the clock, so on one domain it repeats
# exactly (OCaml 5.1.1, no flambda): 3,912,796 words.  It read 3,958,804
# while Rng.choose_list copied its list into an array on every draw (test
# generation's value reuse draws once per argument), 4,175,488
# while the GEMM bodies were OCaml loops, which boxed the float
# coefficient of every one-term row they called (the C bodies allocate
# nothing; each profiled GEMM site now also reads the clock twice), and
# 4,349,108 while options nothing set were still options; about 160,000
# words of that went to encoding, which passed every state column through
# a keep filter that kept them all.  Float scoring
# compiles a comparison to a closure, which boxes each distance it
# returns, and each solve lists the constraints of every variable; with
# comparisons kept as records and those lists as one flat int array it
# read 4,318,733, for about 60 more lines of solver.  It read 4,356,876
# while each solve compiled its condition through a hash table and option
# tuples, test generation re-folded its path groups on every attempt and
# each path recomputed its method's solver variables; 8,306,636 while the
# corpus build re-ran repeated test inputs, re-tokenized repeated values
# and copied every variable of every kept state anew; and 11,868,866
# while each pool lease also allocated a sub-array view, each op a lazy
# self-reference, and tanh/sigmoid boxed a float per element.  With more
# domains Gc.quick_stat's count wanders run to run
# (11,741,821-11,893,373 at LIGER_JOBS=4 before those changes), which is
# why the step above runs at LIGER_JOBS=1.  The budget is the count
# rounded up to the next 10,000 words.  Exceeding it means the run
# allocates more.
cap_counts runs/ci-profile/metrics.json profile.total_flops:120887821 \
  bufpool.misses:2907 gc.minor_words:3920000

# Batch size 1 is the default of `liger train` and of every experiment:
# one-lane tapes on the batched engine, for LiGer and every baseline, so
# each model's encoder and task head run through the CLI.
echo "== batch-1 (one-lane tape) train smoke, LiGer, DYPRO, code2seq and code2vec"
for model in liger dypro code2seq code2vec; do
  dune exec --no-build bin/liger_cli.exe -- train --model "$model" -n 16 --epochs 3 \
    2> /dev/null | grep -q '^test: P=' || {
      echo "   ERROR: batch-1 train --model $model printed no test line" >&2; exit 1; }
done
echo "   ok: all four models trained at batch 1 and reported a test score"

# At -n 16 the test split is 3 examples and F1 is legitimately 0.  This
# smoke trains batched at a scale where the model actually learns
# something, and the test F1 it prints must not be 0.
echo "== batched train at F1-bearing scale: test F1 must be nonzero"
f1=$(dune exec --no-build bin/liger_cli.exe -- train -n 60 --epochs 8 --batch 16 2> /dev/null \
  | sed -n 's/^test: P=[0-9.]* R=[0-9.]* F1=\([0-9.]*\)$/\1/p')
test -n "$f1" || { echo "   ERROR: batched train at -n 60 printed no test line" >&2; exit 1; }
if [ "$f1" = "0.00" ]; then
  echo "   ERROR: batched train at -n 60 scored test F1 = 0.00" >&2
  exit 1
fi
echo "   ok: test F1 $f1"

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
# Pin on the solver objectives this run computes rather than looks up in
# a single-input table.  Solves are seeded per method, so the count
# repeats exactly across runs and at LIGER_JOBS 1 and 2: 3,355,821 of the
# 5,276,055 evaluations requested.  Before the table every evaluation was
# computed (5,276,055).  The integer and tabulated searches run in C
# (lib/symexec/search_stubs.c), which counts them itself, so the count is
# pinned, not capped: a different count means the C loop and the OCaml
# one stopped agreeing, or evaluations stopped being served from the
# table.
pin_counts runs/ci-obs/metrics.json symexec.objective_computed:3355821
echo "   ok: symexec.objective_computed matches the pinned count"
# Budgets for the work the corpus build does once per distinct job, both
# exact at LIGER_JOBS 1 and 2.  Test generation runs 3,766 of its 5,381
# inputs: a repeated argument list reuses the trace of its first run.
# Vocabulary registration and encoding tokenize 2,467 values: each method
# tokenizes a distinct value once, where tokenizing every value of every
# state made 179,345 calls.  Exceeding a budget means repeats are being
# redone.
cap_counts runs/ci-obs/metrics.json testgen.executions:3766 encode.values_tokenized:2467
# Concrete execution tripwire: test generation's attempt, timeout and
# crash counts for this run.  Inputs are seeded per method, so the counts
# repeat exactly across runs and at LIGER_JOBS 1 and 2 (5,381 attempts,
# 10 timeouts, 0 crashes, measured before the interpreter was compiled to
# closures and after).  A different count means concrete execution, or an
# input it is given, changed behaviour.
pin_counts runs/ci-obs/metrics.json testgen.attempts:5381 testgen.timeouts:10 testgen.crashes:0
echo "   ok: testgen.attempts, testgen.timeouts and testgen.crashes match the pinned counts"
# Solver search tripwire: how many conditions this run solves, how many
# of those searches fail, and how many objective evaluations they request.
# Solves are seeded per method, so the counts repeat exactly across runs
# and at LIGER_JOBS 1 and 2 (467 solves, 218 failed, 5,276,055
# evaluations, the same before and after multi-input comparisons were
# scored in ints).  A different count means the search tried different
# moves, which moves the corpus.
pin_counts runs/ci-obs/metrics.json symexec.solves:467 symexec.solves_failed:218 symexec.objective_evals:5276055
echo "   ok: symexec.solves, symexec.solves_failed and symexec.objective_evals match the pinned counts"
# Domain-pool tripwire: this run must use 2 domains, and corpus
# generation must hand the pool the same tasks in the same batches.
# Batching depends on the task lists only, not on timing: 104 tasks in
# 9 batches, at LIGER_JOBS 2 and at 1.  A different count means a stage
# left the pool or changed how it splits work.
pin_counts runs/ci-obs/metrics.json parallel.jobs:2 parallel.tasks:104 parallel.batches:9
echo "   ok: parallel.jobs, parallel.tasks and parallel.batches match the pinned counts"

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
  --out report.html --check > /dev/null
test -f report.html
grep -q '<section id="gradflow"' report.html
grep -q '<section id="drift"' report.html
grep -q '<svg class="spark"' report.html
# compare mode against the earlier ci-ledger smoke (same run shape)
dune exec --no-build bin/liger_cli.exe -- report runs/ci-dynamics \
  --compare runs/ci-ledger --out report_compare.html > /dev/null
grep -q '<section id="compare"' report_compare.html
# the two-file snapshot diff over the same pair of runs
dune exec --no-build bin/liger_cli.exe -- stats runs/ci-ledger/metrics.json \
  runs/ci-dynamics/metrics.json --diff \
  | grep -qF "diff: runs/ci-ledger/metrics.json -> runs/ci-dynamics/metrics.json" || {
    echo "   ERROR: stats --diff printed no diff of the two snapshots" >&2; exit 1; }
echo "   ok: report.html + report_compare.html rendered, health rules pass, stats --diff compared"

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

# A flag value the command cannot use is a usage error: cmdliner prints
# it and exits non-zero, where an exception from the library it reached
# would end in "Fatal error".  The timeout ends a server that wrongly
# accepted its flags.
echo "== CLI usage errors: zero-sized serve flags and an empty index are rejected"
for args in "serve --model runs/ci-serve-model --port 0 --cache-capacity 0" \
  "serve --model runs/ci-serve-model --port 0 --max-inflight 0" \
  "index --model runs/ci-serve-model --out runs/ci-usage-index --generate 0"; do
  if timeout 60 ./_build/default/bin/liger_cli.exe $args > runs/ci-usage.out 2>&1; then
    echo "   ERROR: liger $args exited 0" >&2; exit 1
  fi
  if grep -q "Fatal error" runs/ci-usage.out; then
    echo "   ERROR: liger $args died with an uncaught exception" >&2; exit 1
  fi
done
echo "   ok: serve --cache-capacity 0, serve --max-inflight 0 and index --generate 0 are usage errors"

echo "== serve loopback bench: sustained QPS + p99 gates"
dune exec --no-build bench/main.exe -- serve --qps 50 --duration 10 --check-regression > /dev/null
echo "   ok: sustained 50 qps with p99 under 250 ms"

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
