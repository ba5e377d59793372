"""polarq benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:
    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: figures, chain_ground, chain_thermal, circuits (see
``workloads.py`` for what each runs and why; BENCHMARK.json gates figures
and circuits, see NOTES.md).  The program under test is
the checkout's ``src/polarq``, imported from source.

The workload runs in a fresh worker process (``worker.py``), so its peak
resident memory is its own.  Set-up time is measured in that process and in
SETUP_PROBES - 1 more that only set up, and reported as the median.  The
workers run one at a time: a second one would compete for the same cores.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json:
the wall and CPU time of one pass (the median over the passes started on
each CPU, averaged over the CPUs), set-up time and peak RSS.  With
``--trace 1`` they are the per-layer ones, from the traced passes.  Lines
before the last describe the run; the last line is the JSON result.  The
exit code is 0 when a result was printed, whether or not outputs were
correct; ``correct`` says that.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("figures", "chain_ground", "chain_thermal", "circuits")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 20
# seconds a worker may run beyond --seconds: the pass that crosses the
# deadline, the checks, and start-up
WORKER_SLACK_S = 90


class BenchError(Exception):
    """The benchmark could not produce a result."""


def start_worker(args, work: Path, name: str, *, setup_only: bool, spans=None) -> dict:
    """Run worker.py to completion; its result, with ``setup_s`` measured from spawn."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", name,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if spans:
        cmd += ["--spans", str(spans)]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + WORKER_SLACK_S
    start = time.monotonic()
    try:
        # the worker's stdout goes to stderr so that this stdout ends with the result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads((work / name).read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    return result


def per_cpu_median(passes: list[dict], key: str) -> float:
    """Median of ``key`` over the passes started on each CPU, averaged over the CPUs.

    Passes alternate between CPUs whose speeds drift apart (see worker.py);
    a median over all passes would jump between the CPUs' levels with the
    parity of the pass count.
    """
    cpus = sorted({p["cpu"] for p in passes})
    return statistics.mean(
        statistics.median(p[key] for p in passes if p["cpu"] == c) for c in cpus
    )


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    passes = result["passes"]
    return {
        "wall_s": per_cpu_median(passes, "wall_s"),
        "cpu_s": per_cpu_median(passes, "cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over traced passes, and the count metrics that did not repeat."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    layers = [p["layers"] for p in traced]
    values = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
    unsteady = [
        k for k, v in layers[0].items()
        if isinstance(v, int) and any(lay[k] != v for lay in layers)
    ]
    wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - statistics.median(untraced)
    return values, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--workers", type=int,
        help="pass --workers to polarq run (thread matrix only; default: polarq's own)",
    )
    args = parser.parse_args()
    # exit through SystemExit, so that subprocess.run kills a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "polarq" / "__init__.py").is_file():
        print(f"error: no polarq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        probes = 0 if args.trace else SETUP_PROBES - 1
        setups = [
            start_worker(args, work, f"setup{k}.json", setup_only=True)["setup_s"]
            for k in range(probes)
        ]
        spans = None
        if args.trace:
            (BENCH / "_out").mkdir(exist_ok=True)
            spans = BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
        result = start_worker(args, work, "result.json", setup_only=False, spans=spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    correct = result["failed"] == 0
    if args.trace:
        values, unsteady = per_layer(result)
        if unsteady:
            correct = False
            print(f"error: counts differ between traced passes: {unsteady}", file=sys.stderr)
    else:
        values = end_to_end(result, setups)
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    passes = result["passes"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} traced={sum(p['traced'] for p in passes)} "
        f"setup_probes={len(setups)}"
    )
    print(f"  warm-up pass {result['warmup_s']:.3f} s (not in the metrics)")
    print("  pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print("  pass cpu    " + " ".join(f"{p['cpu']:>5}" for p in passes))
    print("  setup_s     " + " ".join(f"{s:.3f}" for s in setups))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(
        f"  {'fail_rate':<28} {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']}/{result['attempted']} operations)"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
