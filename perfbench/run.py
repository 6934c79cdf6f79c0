"""Benchmark of the watertank pipeline: one workload, one run, one result line.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

One caller runs ops closed-loop (the next op starts when the last one ends)
until ``--seconds`` have passed, then finishes the op in flight; every op is
checked. The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. The line before it is an info block (seed, machine,
versions, BLAS threads, ``src/`` line counts, ``op_fail_frac``, the tail
percentile). A traced run alternates an untraced and a traced op, so the
tracing overhead is measured in the same run, and writes its spans to
``.bench_work/``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

from time import monotonic

T0 = monotonic()  # set-up is timed from here, as in child.py

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from spans import OP, clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1  # one thread per process: steadier times on a shared machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
DEADLINE_S = 165.0  # start no op that would end the run after this


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_op(op, *args):
    """Time one op; an exception or a failed check makes it a failed op."""
    start = clock()
    try:
        problems, facts = op(*args)
    except Exception as exc:  # op boundary: count the failure, keep measuring
        traceback.print_exc()
        problems, facts = [f"{type(exc).__name__}: {exc}"], {}
    return clock() - start, problems, facts


def probe_setup(name: str) -> float:
    """Set-up time of the workload in a fresh process, from its script's start."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", name],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def cpu_s() -> float:
    """User plus system CPU time of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def tail(samples):
    """Highest percentile (nearest rank) with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    xs = sorted(samples)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return {"value": xs[rank - 1], "percentile": q, "samples_beyond": n - rank,
                    "samples": n}
    return None


def src_lines() -> dict:
    return {f.name: len(f.read_text().splitlines())
            for f in sorted((SRC / "watertank").glob("*.py"))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "watertank" / "__init__.py").is_file():
        print(f"perfbench: no watertank sources in {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: str(BLAS_THREADS) for v in BLAS_VARS}, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "watertank"), quiet=1)
    import numpy as np  # after the BLAS thread count is set

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    state, setup_samples = None, []
    if wl.in_process:
        state = wl.setup()
        setup_samples.append(clock() - T0)
    try:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup(wl.name))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    rng = np.random.default_rng(args.seed)
    rec = spans.Recorder()
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    plain_s, traced_s, failed = [], [], 0

    def one_op(trace_it: bool):
        nonlocal failed
        opdir = workdir / f"op{len(plain_s) + len(traced_s)}"
        opdir.mkdir(parents=True)
        ctx = workloads.Ctx(opdir, rec if trace_it and not wl.in_process else None)
        with ExitStack() as stack:
            if trace_it:
                if wl.in_process:
                    stack.enter_context(spans.traced(rec))
                root = stack.enter_context(rec.span(OP))
            dur, problems, facts = run_op(wl.op, state, rng, ctx)
            if trace_it:
                root.attrs.update(facts)
        shutil.rmtree(opdir)
        (traced_s if trace_it else plain_s).append(dur)
        if problems:
            failed += 1
            print(f"perfbench: op failed: {'; '.join(problems)}", file=sys.stderr)
        return dur

    kinds = (False, True) if args.trace else (False,)
    t0, cpu0, longest = clock(), cpu_s(), 0.0
    try:
        while True:
            longest = max(longest, sum(one_op(k) for k in kinds))
            now = clock()
            if now - t0 >= args.seconds or now - T0 + longest > DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed, cpu = clock() - t0, cpu_s() - cpu0

    attempted = len(plain_s) + len(traced_s)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                               else resource.RUSAGE_CHILDREN)
    if args.trace:
        values = spans.layer_metrics(rec.spans, traced_s, plain_s)
        units = dict(spans.PER_LAYER)
        (WORK / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(rec.dump()))
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(plain_s),
            "ops_per_s": (attempted - failed) / elapsed,
            "cpu_s_per_op": cpu / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        }
        units = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s",
                 "cpu_s_per_op": "s", "peak_rss_mb": "MB"}
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(), "setup_s_samples": setup_samples,
        "op_s": plain_s, "traced_op_s": traced_s, "op_s_tail": tail(plain_s),
        "op_fail_frac": failed / attempted,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
