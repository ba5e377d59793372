#!/usr/bin/env python3
"""Regenerate every figure CSV (fig3a..fig6b) into an output directory.

Usage: python scripts/make_figure_data.py [outdir]
"""

import argparse
import sys
from pathlib import Path

from polarq import cli

FIGURE_TASKS = tuple(task for task in cli.TASKS if task.startswith("fig"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="figure_data")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for task in FIGURE_TASKS:
        out = outdir / f"{task}.csv"
        code = cli.run({"task": task}, str(out), 0)
        print(f"{task}: exit {code} -> {out}")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
