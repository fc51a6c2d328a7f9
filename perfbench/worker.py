"""One CLI call of a workload, in a process of its own.

Started by run.py once per call, as a user starts `mce` once per command: the
process imports mce, makes the workload's inputs from the seed, calls
`mce.cli.main` once and checks what it wrote. Its own process means an
out-of-memory case fails one call and leaves the harness running. It writes
two JSON events on standard output: "ready" once the imports and inputs are
done, and "call" after the call. With --traced the entry points are wrapped
for the call and its spans are written to --spans.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy
import scipy

import mce.cli
from tracing import Tracer
from workloads import WORKLOADS

# Address-space cap of the process: an oversize case raises MemoryError and
# fails one call instead of waking the machine's out-of-memory killer.
ADDRESS_SPACE_LIMIT = 4 << 30


def emit(event, **fields):
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def peak_rss_mb():
    """Peak resident set of this process since it started. ru_maxrss would
    also count the parent's resident set at the time of exec on Linux, so
    VmHWM is read where the kernel provides it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_call(workload, argv, out, tracer):
    """Call the CLI once and check its outputs; returns the "call" event."""
    shutil.rmtree(out, ignore_errors=True)  # no stale output can pass a check
    if tracer is not None:
        tracer.begin_run()
        tracer.install()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = mce.cli.main(argv)
        crash = None
    except Exception:
        rc, crash = None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if crash is None:
        try:
            errors, figures = workload.check(rc, captured.getvalue(), out)
        except (OSError, KeyError, ValueError) as exc:
            errors, figures = [f"output check could not read: {exc!r}"], {}
    else:
        errors, figures = [f"CLI raised: {crash}"], {}
    event = {"wall_s": wall, "rc": rc, "figures": figures}
    if tracer is not None:
        errors += tracer.certificate_errors()
        event["layers"] = tracer.run_metrics()
        event["unmeasured"] = sorted(tracer.unmeasured)
    event["errors"] = errors
    event["peak_rss_mb"] = peak_rss_mb()
    return event


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cli_argv, out, inputs = workload.command(args.work, args.seed)
    emit("ready", inputs=inputs, environment=environment(), argv=cli_argv)

    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    tracer = Tracer() if args.traced else None
    emit("call", **run_call(workload, cli_argv, out, tracer))
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
