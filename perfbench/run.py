"""Benchmark of the mce command-line tool, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stokes-conv --seed 1 --seconds 30 --trace 0

A run makes CLI calls of one workload for --seconds seconds as a closed loop
with one client: the next call starts when the previous one has ended. Each
call is a process of its own (worker.py), as a user's `mce` command is: it
imports mce from ./src, makes the workload's inputs from the seed, and calls
`mce.cli.main` once. BLAS runs on one thread.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, each the median over the run's calls:

    wall_s       time of the CLI call, at a reference machine speed
    setup_s      process start to inputs ready (imports plus input generation)
    peak_rss_mb  peak resident set (VmHWM) of the call's process

With --trace 1 every second call is traced, and the metrics are the medians
of the per-layer ones (tracing.LAYER_METRICS) over the traced calls, plus
trace.overhead_s, the median traced wall minus the median untraced wall.
The line before the result records the samples, the workload's own figures
(failed_frac, err_h1_u, err_l2_p, lock_drift, ...), output-check errors, the
input hash and the environment. The exit code is 0 whenever a result is
printed, and 2 when none can be, as when there is no mce source tree to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy
from scipy import sparse
from scipy.sparse.linalg import splu

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
# A call still running this long after its run started is killed, so a run
# ends within three minutes even if the program hangs.
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Median speed_probe() seconds at the reference speed that wall_s is given
# at (about the probe's median on a 2-core Xeon VM at 2.0 GHz), and how
# strongly the workloads follow the probe: when the shared machine's speed
# drifts, the probe's time moves about twice as much, in log terms, as a
# call's (measured over ten runs of each workload), hence the square root.
PROBE_REFERENCE_S = 0.2
PROBE_EXPONENT = 0.5


class NoResult(Exception):
    """The run cannot produce a result line."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (HERE, src, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every setup compiles mce alike
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def speed_probe():
    """Seconds taken by a fixed piece of work in the mix the program does
    (Python dict loops over edge keys, batched numpy contractions, a SuperLU
    factorization). It runs in this process, which never imports mce, so no
    change to the program can move it."""
    n = 70
    t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sparse.kron(t, sparse.eye(n)) + sparse.kron(sparse.eye(n), t)).tocsc()
    x = numpy.linspace(0.0, 1.0, 3000 * 54).reshape(3000, 9, 6)
    y = numpy.linspace(1.0, 2.0, 3000 * 36).reshape(3000, 6, 6)
    start = time.perf_counter()
    index = {}
    for i in range(80000):
        j = (i * 7919) % 80021
        key = (min(i, j), max(i, j))
        if index.get(key) is None:
            index[key] = len(index)
    for _ in range(12):
        numpy.einsum("tij,tjk->tik", x, y)
    splu(a).solve(numpy.ones(n * n))
    return time.perf_counter() - start


def one_call(name, seed, work, index, traced, limit_s):
    """Run one call's process. Returns (ready event or None, call event or
    None, setup seconds, process seconds, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed), "--work", work]
    if traced:
        cmd += ["--traced", "--spans", os.path.join(work, f"spans-{index}.json")]
    ready = call = setup_s = None
    started = time.perf_counter()
    with open(os.path.join(work, "worker.log"), "a") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=log)
    killer = threading.Timer(max(limit_s, 1.0), proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = time.perf_counter() - started
                ready = event
            elif event["event"] == "call":
                call = event
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    return ready, call, setup_s, time.perf_counter() - started, proc.returncode


def median_layers(calls):
    """Per-metric lower median over traced calls, so counts stay whole; None
    where any call left the metric unmeasured."""
    out = {}
    for name in calls[0]["layers"]:
        values = [c["layers"][name] for c in calls]
        out[name] = (None if any(v is None for v in values)
                     else statistics.median_low(values))
    return out


def run_workload(name, args):
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    start = time.perf_counter()
    ready, calls, setups, process_s, probes, errors = (
        None, [], [], [], [], [])
    attempted = failed = 0
    while True:
        index = attempted
        traced = bool(args.trace) and index % 2 == 1
        r, call, setup_s, elapsed, rc = one_call(
            name, args.seed, work, index, traced,
            start + RUN_LIMIT_S - time.perf_counter())
        attempted += 1
        ready = ready or r
        process_s.append(elapsed)
        probes.append(speed_probe())
        if setup_s is not None:
            setups.append(setup_s)
        if call is not None:
            call["traced"] = traced
            calls.append(call)
            errors += [e for e in call["errors"] if e not in errors]
        if rc != 0:  # killed, out of memory or crashed
            errors.append(f"call {index}: process ended with exit code {rc} "
                          f"(see {os.path.join(work, 'worker.log')})")
        failed += call is None or rc != 0 or bool(call["errors"])
        # Start another call only if it is expected to end within the run;
        # a traced run needs at least one call of each kind.
        kinds = {c["traced"] for c in calls}
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(process_s) > args.seconds
                and (not args.trace or kinds == {False, True})):
            break
        if elapsed > RUN_LIMIT_S:
            break

    untraced = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    if not untraced or (args.trace and not traced):
        raise NoResult(f"{name}: no call reported; see "
                       f"{os.path.join(work, 'worker.log')}")
    walls = [c["wall_s"] for c in untraced]
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                   for k, v in median_layers(traced).items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(c["wall_s"] for c in traced)
            - statistics.median(walls),
            "unit": "s"}
    else:
        # The median wall at the reference speed: the machine's speed
        # drifts by tens of percent over minutes when it is shared, and the
        # probe run between calls follows the drift.
        speed = (PROBE_REFERENCE_S / statistics.median(probes)) ** PROBE_EXPONENT
        values = {
            "wall_s": statistics.median(walls) * speed,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    units = WORKLOADS[name].figure_units
    figures = {"failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    last_ok = next((c for c in reversed(calls) if not c["errors"]), None)
    for key, value in (last_ok["figures"] if last_ok else {}).items():
        figures[key] = {"value": value, "unit": units.get(key, "1")}
    detail = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "argv": ready["argv"],
        "wall_s_raw": statistics.median(walls),
        "wall_s_samples": walls,
        "probe_s_samples": probes,
        "traced_wall_s_samples": [c["wall_s"] for c in traced],
        "setup_s_samples": setups,
        "peak_rss_mb_samples": [c["peak_rss_mb"] for c in calls],
        "figures": figures,
        "errors": errors[:10],
        "unmeasured": traced[0]["unmeasured"] if traced else [],
        "inputs": ready["inputs"],
        "environment": {**ready["environment"], "git_commit": git_commit()},
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mce", "cli.py")):
        print(f"error: no mce source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            detail, result = run_workload(name, args)
        except NoResult as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(detail))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
