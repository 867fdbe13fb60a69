#!/usr/bin/env python3
"""Run the tier-1 suite and check that exactly the by-design failures fail.

Four acceptance criteria (02, 03, 05, 07) pin quoted reference figures that
exact computation contradicts, and fail by design (see README).  This script
runs the tier-1 command from the repository root,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with a JUnit XML report in a temporary directory.  It exits 0 only when the
failing tests are exactly those four and every test module was collected.
Otherwise it prints each unexpected failure, each by-design test that did
not fail, and each module that failed to collect, and exits 1.  Standard
library only:

    python tools/check_tier1.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BY_DESIGN = {
    "tests.test_acceptance::test_criterion_02_tail_mass_reproduction",
    "tests.test_acceptance::test_criterion_03_entropy_bracket_width",
    "tests.test_acceptance::test_criterion_05_bound_gap",
    "tests.test_acceptance::test_criterion_07_laplacian_lb_ordering",
}


def failures(report: Path) -> tuple[set[str], set[str]]:
    """(failed tests, modules that failed to collect) of a JUnit XML report."""
    failed, uncollected = set(), set()
    for case in ET.parse(report).iter("testcase"):
        problems = [c for c in case if c.tag in ("failure", "error")]
        if any(c.get("message") == "collection failure" for c in problems):
            uncollected.add(case.get("name"))
        elif problems:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    return failed, uncollected


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={report}"]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not report.exists():  # interrupted or misused
            print(f"check_tier1: pytest exited {code}")
            return 1
        failed, uncollected = failures(report)
    problems = (
        [f"collection error: {m}" for m in sorted(uncollected)]
        + [f"unexpected failure: {t}" for t in sorted(failed - BY_DESIGN)]
        + [f"by-design failure did not fail: {t}" for t in sorted(BY_DESIGN - failed)]
    )
    for line in problems:
        print(f"check_tier1: {line}")
    if not problems:
        print("check_tier1: only the 4 by-design failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
