"""Regenerate the reference files under ``perfbench/reference``.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

The entropy-figure CSVs are the CLI's own output at the commit the files
were recorded from (see ``reference/README.md``); the benchmark compares
later outputs against them within 1e-6 per cell.  The index pmfs are
``index_pmf`` tables that the benchmark's statistical gate compares the
sampled indices against.  Only rerun this after a change that is meant to
move those numbers, and say why in the change.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pfrsim import DistributionPair, index_pmf, parse_distribution  # noqa: E402
from pfrsim.cli import main  # noqa: E402

PMF_N_MAX = 256


def write_references() -> None:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    for pair in (workloads.MONOTONE_FIGURE_PAIR, workloads.NONMONOTONE_FIGURE_PAIR):
        path = out / f"entropy_figure_{workloads.stem(*pair)}.csv"
        main(
            ["entropy-figure", *pair, "--n-max", str(workloads.FIGURE_N_MAX), "--out", str(path)],
            standalone_mode=False,
        )
        print(f"wrote {path.name}")
    for pair in sorted({workloads.PFR_PAIR, workloads.PFR_BOUNDED_PAIR,
                        workloads.EXACT_PAIR, workloads.NONMONOTONE_DRAW_PAIR,
                        workloads.NONMONOTONE_NORMAL_DRAW_PAIR}):
        dp = DistributionPair(parse_distribution(pair[0]), parse_distribution(pair[1]))
        path = out / f"index_pmf_{workloads.stem(*pair)}.csv"
        index_pmf(dp, PMF_N_MAX).to_csv(path)
        print(f"wrote {path.name}")


if __name__ == "__main__":
    write_references()
