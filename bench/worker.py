"""One benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It writes its result as JSON to ``<work>/<result>``; the parent
reads the time at which set-up ended from it.

Every pass, and every ``polarq run`` inside one, starts with polarq's
in-process caches empty, as a fresh ``polarq run`` process does.  One warm-up pass runs before the timed ones: the first
pass in a process pays first-call costs (BLAS thread start-up, lazy imports,
page faults) that would make the median of a few passes move from run to
run; its time is reported apart.  With ``--trace 1`` the timed passes
alternate between untraced and traced, so the tracing overhead is measured
in the same process.

Pass k starts on the k-th CPU the process may use, in turn (with ``--trace
1``, each untraced-traced pair shares one).  On a shared machine the CPUs
drift apart in speed independently, by up to 25 % over half a minute, and a
single-threaded pass left to the scheduler stays on one of them for the
whole run; alternating spreads every run evenly over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 4
CPUS = sorted(os.sched_getaffinity(0))
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OPENBLAS_CORETYPE",
)


def environment(workers: int | None) -> dict:
    """Facts that change the figures: cores, versions, BLAS and its threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "workers": workers or workloads.default_workers(),
    }


def start_on(cpu: int) -> None:
    """Move this thread to ``cpu``, then allow every CPU again.

    Threads the workload starts next are placed beside the thread that
    submits them, so the pass runs mostly on ``cpu``; nothing stays pinned.
    """
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, CPUS)


def timed_pass(wl: workloads.Workload) -> tuple[list[workloads.Outcome], float, float]:
    """Outcomes, wall time and process CPU time of one pass."""
    workloads.clear_caches()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    outcomes = wl.run_pass()
    return outcomes, time.perf_counter() - wall0, time.process_time() - cpu0


def run_passes(wl: workloads.Workload, seconds: float, tracer) -> dict:
    """Warm-up, then timed passes until ``seconds`` have passed; every output checked."""
    passes = []
    errors: list[str] = []
    attempted = 0

    def check(outcomes: list[workloads.Outcome]) -> None:
        nonlocal attempted
        for outcome in outcomes:
            attempted += 1
            try:
                err = outcome.error or wl.check(outcome)
            except Exception as exc:  # noqa: BLE001 - a broken output fails the check
                err = f"{outcome.name}: check raised {type(exc).__name__}: {exc}"
            if err:
                errors.append(err)

    outcomes, warmup_s, _ = timed_pass(wl)
    check(outcomes)
    deadline = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        on = CPUS[(k // 2 if tracer else k) % len(CPUS)]
        start_on(on)
        if traced:
            tracer.start_pass(k)
        outcomes, wall, cpu = timed_pass(wl)
        if traced:
            tracer.stop_pass()
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "cpu": on}
        if traced:
            record["layers"] = tracer.layer_metrics(k, wall)
        passes.append(record)
        check(outcomes)
    return {
        "warmup_s": warmup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for configs and outputs")
    parser.add_argument("--result", required=True, help="result file name inside --work")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workers", type=int, help="pass --workers to polarq run")
    parser.add_argument("--spans", help="write the recorded spans to this file")
    args = parser.parse_args()

    work = Path(args.work)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.workers)
    wl.setup()
    result: dict = {"ready": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        result.update(run_passes(wl, args.seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment(args.workers)
        if tracer is not None:
            tracer.uninstall()
            if args.spans:
                Path(args.spans).write_text(json.dumps(tracer.spans_as_dicts()))
    (work / args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
