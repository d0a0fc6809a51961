#!/usr/bin/env python3
"""CEDR benchmark: builds the benchmark binary, gates correctness, measures.

    python3 cedrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark binary under .bench_build/cedrbench (Release).
Each run then starts processes of it:

  1. the correctness gate (--check): serial == parallel byte for byte,
     checkpoint or journal recovery == live output, converged output ==
     the denotational oracle (executor workloads), and offered == routed
     + shed + refused (supervised_overload);
  2. the measurement, which must produce the same output digest. An
     untraced run measures in PROCESSES processes one after another,
     each for an equal share of --seconds, and reports the median of
     each metric over them; a traced run measures in one process.

The measurement runs in its own processes so their peak memory excludes
the gate. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics. The traced run also writes its spans to
.bench_build/cedrbench/traces/. A full record of each run (seed, nproc,
input sizes, digest) is written to .bench_build/cedrbench/results/.
Any failed check exits non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "cedrbench")
BUILD = os.path.join(ROOT, ".bench_build", "cedrbench")
BINARY = os.path.join(BUILD, "cedrbench")
WORKLOADS = ("pattern_mix", "relational_columnar", "supervised_overload")
BUILD_TIMEOUT_S = 840
# The gate and the measuring processes together must end within this
# many seconds of the build.
RUN_TIMEOUT_S = 160
# Where a process's heap and code land in memory shifts all of its
# timings alike; the median over a few processes evens that out.
PROCESSES = 3


def fail(message):
    print("cedrbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Runs cmd with stdout captured and stderr passed through. The child
    gets its own process group; on timeout, SIGTERM or SIGINT the whole
    group (a build's compilers too) is killed and reaped."""
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
        child.communicate()

    def on_signal(signum, frame):
        kill_group()
        fail("interrupted: " + " ".join(cmd))

    handlers = {sig: signal.signal(sig, on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return subprocess.CompletedProcess(cmd, child.returncode, out)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CEDR sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = run(step, BUILD_TIMEOUT_S)
        sys.stderr.write(done.stdout[-4000:])
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def bench(args, extra, seconds, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    done = run(cmd + extra, max(1, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark failed (exit %d): %s" % (done.returncode,
                                              " ".join(cmd + extra)))
    return json.loads(lines[-1])


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    gate = bench(args, ["--check"], args.seconds, deadline)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        runs = [bench(args, ["--trace-out",
                             os.path.join(BUILD, "traces", tag + ".json")],
                      args.seconds, deadline)]
    else:
        share = max(1, round(args.seconds / PROCESSES))
        runs = [bench(args, [], share, deadline) for _ in range(PROCESSES)]

    # The gate exits non-zero on any failed check; what is left is that
    # every measuring process produced the gated output.
    correct = all(r["digest"] == gate["digest"] for r in runs)
    expected = expected_metrics(args.trace)
    metrics = {}
    for r in runs:
        for name, value in r["metrics"].items():
            if expected.get(name) != value["unit"]:
                fail("metric %s [%s] is not in BENCHMARK.json" %
                     (name, value["unit"]))
            metrics.setdefault(name, []).append(value["value"])
    metrics = {name: {"value": median(values), "unit": expected[name]}
               for name, values in metrics.items()}
    for name, unit in expected.items():
        if name not in metrics:
            if not args.trace:
                fail("metric %s missing from the benchmark's output" % name)
            # A layer or query slot this workload does not use.
            metrics[name] = {"value": 0, "unit": unit}
    metrics = {name: metrics[name] for name in expected}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "processes": len(runs), "inputs": runs[0]["inputs"],
              "gate_digest": gate["digest"],
              "digests": [r["digest"] for r in runs], "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "per_process": [r["metrics"] for r in runs]}
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"inputs": runs[0]["inputs"]}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if not correct:
        fail("measured output differs from the gated output")


if __name__ == "__main__":
    main()
