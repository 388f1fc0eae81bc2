#!/usr/bin/env python3
"""Build the benchmark and the liger binary from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|train|serve_hot \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
Build output and a readable summary go to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["corpus", "train", "serve_hot"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    root = os.getcwd()
    for need in ["dune-project", "BENCHMARK.json", "lib", "bin/dune", "perfbench/dune"]:
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a liger checkout (no %s here)" % need, 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}

    # keep every build artefact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/liger_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed", 3)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if build.returncode != 0:
        fail("build failed", 3)

    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--liger", os.path.join("_build", "default", "bin", "liger_cli.exe")]
    # its own process group, so a timeout also stops the server it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode, 5)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result", 5)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json %s: %s"
             % (key, sorted(set(got.items()) ^ set(expected.items()))), 6)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
