"""Write the reference outputs the benchmark checks against.

The references in ``reference/`` were taken on the commit that introduced
the benchmark.  Regenerate them only in a change whose purpose is to alter
physics results, and say so in that change; a performance change must leave
them alone so that its outputs are checked against the old code's.

Usage, from the repository root:
    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import csv
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        work = Path(tmp)
        for name in ("figures", "chain_thermal"):
            wl = workloads.WORKLOADS[name](work, seed=0)
            wl.setup()
            for outcome in wl.run_pass():
                assert outcome.error is None, outcome
                shutil.copy(wl.csv_of(outcome.name), out / f"{outcome.name}.csv")
        wl = workloads.ChainGround(work, seed=0)
        outcomes = wl.run_pass()
        with open(out / "chain_ground.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["n", "omega", "quantity", "value"])
            writer.writerows(
                [n, repr(omega), qty, repr(value)] for n, omega, qty, value in wl.rows(outcomes)
            )


if __name__ == "__main__":
    main()
