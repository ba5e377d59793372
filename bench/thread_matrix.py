"""Informational thread matrix: the figures workload at each combination of
{default, --workers 1} x {default BLAS threads, OPENBLAS_NUM_THREADS=1}.

Not a gated workload.  The one-thread, one-worker cell is the plain
single-threaded baseline of the same problem.

Usage, from the repository root:
    python3 bench/thread_matrix.py [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(f"{'workers':<10}{'OPENBLAS_NUM_THREADS':<22}{'wall_s':>8}{'cpu_s':>8}  correct")
    for workers in (None, 1):
        for blas_threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if blas_threads:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            cmd = [sys.executable, str(RUN), "--workload", "figures", "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            if workers:
                cmd += ["--workers", str(workers)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=args.seconds + 170, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            resolved = json.loads(lines[0].removeprefix("env "))["workers"]
            m = result["metrics"]
            print(f"{resolved:<10}{blas_threads or 'default':<22}"
                  f"{m['wall_s']['value']:>8.2f}{m['cpu_s']['value']:>8.2f}  {result['correct']}")


if __name__ == "__main__":
    main()
