"""Negative controls for the benchmark's own gates and tracing.

Run from the root of a checkout (takes about half a minute):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def cli_main():
    from pfrsim.cli import main

    return main


def _run_cycle(cli_main, workload, work):
    runner = run.Runner(cli_main, workload, work)
    runner.run_cycles(0.0)
    return runner


def test_corrupt_c1_raises_error_rate_on_reproduce(cli_main, tmp_path):
    clean = _run_cycle(cli_main, workloads.build("reproduce", 3, tmp_path, ROOT), tmp_path)
    assert clean.failed == 0, clean.errors

    corrupt = workloads.build("reproduce", 3, tmp_path, ROOT)
    verify = next(c for c in corrupt.commands if c.kind == "verify")
    verify.args.append("--corrupt-c1")
    runner = _run_cycle(cli_main, corrupt, tmp_path)
    assert runner.failed == 1
    assert runner.failed / runner.attempted > clean.failed / clean.attempted
    assert all(e.startswith("verify") for e in runner.errors)


def test_comparator_catches_1e5_perturbation():
    golden = (ROOT / "tests" / "golden" / "sweep_normal_0_1_normal_1_1.csv").read_text()
    lines = golden.splitlines()
    cells = lines[5].split(",")

    def with_cell(col, value):
        row = list(cells)
        row[col] = value
        return "\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n"

    assert checks.compare_csv(golden, golden) == []
    assert checks.compare_csv(golden, with_cell(1, repr(float(cells[1]) + 1e-5)))
    assert checks.compare_csv(golden, with_cell(1, repr(float(cells[1]) + 1e-7))) == []
    assert checks.compare_csv(golden, with_cell(6, "0.5"))  # empty ub2 cell
    assert checks.compare_csv(with_cell(4, "inf"), with_cell(4, "inf")) == []
    assert checks.compare_csv(with_cell(4, "inf"), with_cell(4, "1e300"))


def test_wrapper_sees_integrate_calls_from_pfr():
    import pfrsim.numerics
    import pfrsim.pfr
    from pfrsim import DistributionPair, Gaussian

    original = pfrsim.pfr.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pair = DistributionPair(Gaussian(0.0, 1.0), Gaussian(0.5, 1.6))
        pfrsim.pfr.sample_indices(pair, 2, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert pfrsim.pfr.integrate is original
    assert pfrsim.numerics.integrate is original
    spans = [s for s in tracer.spans if s is not None]
    integrate = [s for s in spans if s[0] == "numerics.integrate"]
    assert len(integrate) == 2
    assert all(spans[s[3]][0] == "pfr.log_beta" for s in integrate)
    totals = tracer.totals()
    assert totals["pfr.sample_indices"]["calls"] == 1
    assert tracer.notes["distributions.log_ratio.points"] > 0


def test_sample_gate_rejects_wrong_law(cli_main, tmp_path):
    out = tmp_path / "s.csv"
    pair = workloads.PFR_PAIR
    cli_main(["sample", *pair, "-n", "2000", "--method", "pfr", "--delta", "1e-8",
              "--seed", "5", "--out", str(out)], standalone_mode=False)
    text = out.read_text()
    pmf = checks.read_pmf(workloads.REFERENCE_DIR / f"index_pmf_{workloads.stem(*pair)}.csv")
    errors, capped = checks.check_samples(text, 2000, *pair, "approximate", pmf, True)
    assert errors == [] and capped == 0

    rows = [line.split(",") for line in text.splitlines()[1:]]
    shifted_u = "k,u_k,termination\n" + "".join(
        f"{k},{float(u) + 0.3!r},{t}\n" for k, u, t in rows
    )
    errors, _ = checks.check_samples(shifted_u, 2000, *pair, "approximate", pmf, True)
    assert any("KS" in e for e in errors)
    doubled_k = "k,u_k,termination\n" + "".join(f"{2 * int(k)},{u},{t}\n" for k, u, t in rows)
    errors, _ = checks.check_samples(doubled_k, 2000, *pair, "approximate", pmf, True)
    assert any("index law" in e for e in errors)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:        50 |        150 |   numpy\n"
        "import time:        10 |         10 |     numpy.linalg\n"
        "import time:        20 |         20 |       scipy._lib\n"
        "import time:        30 |         50 |     scipy.special\n"
        "import time:         5 |        215 |   pfrsim.distributions\n"
        "import time:         7 |        372 | pfrsim.cli\n"
    )
    got = run.parse_importtime(text)
    assert got["numpy"] == pytest.approx(160e-6)
    assert got["scipy"] == pytest.approx(50e-6)
    assert got["pfrsim"] == pytest.approx(12e-6)
    assert got["click"] == 0.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
