"""The three workloads: command lists, their sizes and their gates.

A workload is one cycle of CLI commands that the benchmark repeats for the
length of a run.  Every command gets the workload seed where it takes one
(``sample`` and ``verify``); sweeps and figures do not depend on it.

* ``reproduce``: the six golden sweeps, the monotone entropy figure and
  the full ``verify``.  Bounds, ``minimize_scalar``, ``renyi_divergence``,
  SVG, the oracle and vectorized ``sample_indices`` do the work; ``run_pfr``
  and per-point quadrature do none of it.
* ``sampling``: ``run_pfr`` with an unbounded ratio (delta rule), with a
  bounded ratio (exact stop after one block), and the exact sampler with
  many rows, where CLI formatting dominates.
* ``nonmonotone``: exact draws on a Gaussian and a Laplace pair without a
  monotone density ratio, so every ``log_beta`` point is a quadrature.
  The entropy figure on the Gaussian pair (10-20 s) runs once per run as a
  prologue: with a 30 s run it would give at most two samples, and host
  speed drifts too much for two samples to gate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GOLDEN_PAIRS = (
    ("normal:0,1", "normal:1,1"),
    ("normal:0,1", "normal:5,1"),
    ("normal:0,1", "normal:10,1"),
    ("laplace:0,1", "laplace:1,1"),
    ("laplace:0,1", "laplace:5,1"),
    ("laplace:0,1", "laplace:10,1"),
)
MONOTONE_FIGURE_PAIR = ("normal:0,1", "normal:1,1")
NONMONOTONE_FIGURE_PAIR = ("normal:0,1", "normal:0.5,1.6")
PFR_PAIR = ("normal:0,1", "normal:1,1")
PFR_BOUNDED_PAIR = ("laplace:0,1", "laplace:1,1")
EXACT_PAIR = ("normal:0,1", "normal:1,1")
NONMONOTONE_DRAW_PAIR = ("laplace:0,1", "laplace:0.5,2")
NONMONOTONE_NORMAL_DRAW_PAIR = NONMONOTONE_FIGURE_PAIR

# Sized so that each sampling command takes a few tenths of a second and
# the whole sampling cycle about one second on a 2-vCPU Xeon.
PFR_DRAWS = 2000
PFR_BOUNDED_DRAWS = 4000
EXACT_ROWS = 200_000
NONMONOTONE_DRAWS = 100
NONMONOTONE_NORMAL_DRAWS = 150
FIGURE_N_MAX = 1000


def stem(p: str, q: str) -> str:
    """File-name stem of a pair, as used by ``tests/golden``."""
    return f"{p}_{q}".replace(":", "_").replace(",", "_")


@dataclass
class Command:
    """One CLI invocation of a cycle and the gate on its output.

    ``check(stdout, work_dir)`` returns (failure messages, failed draws).
    ``draws`` counts the operations inside the command besides the command
    itself; ``kind`` groups commands for timing.
    """

    kind: str
    args: list[str]
    outputs: tuple[str, ...]
    check: Callable[[str, Path], tuple[list[str], int]]
    draws: int = 0


@dataclass
class Kind:
    """A timed command kind and the end-to-end figure it is reported as.

    ``per_command`` is None for a time per command in seconds; otherwise
    the figure is ``per_command / seconds``, a rate.
    """

    name: str
    metric: str
    per_command: int | None = None


@dataclass
class Workload:
    """``prologue`` runs once per run before the cycles and is not gated."""

    commands: list[Command]
    kinds: list[Kind]
    prologue: tuple[Command, ...] = ()


def _csv_gate(reference: Path, produced: str, svg: str | None = None):
    def check(stdout: str, work: Path):
        path = work / produced
        if not path.is_file():
            return [f"missing {produced}"], 0
        errors = checks.compare_csv(reference.read_text(), path.read_text())
        errors = [f"{produced}: {e}" for e in errors[:5]]
        if svg is not None:
            errors += checks.check_svg(work / svg)
        return errors, 0

    return check


def _sample_gate(produced: str, pair, n: int, termination: str, pmf_name: str, ks_test: bool):
    pmf = checks.read_pmf(REFERENCE_DIR / pmf_name)

    def check(stdout: str, work: Path):
        path = work / produced
        if not path.is_file():
            return [f"missing {produced}"], n
        errors, capped = checks.check_samples(
            path.read_text(), n, pair[0], pair[1], termination, pmf, ks_test
        )
        return [f"{produced}: {e}" for e in errors], capped

    return check


def _verify_gate(stdout: str, work: Path):
    return checks.check_verify(stdout), 0


def _sweep(p: str, q: str, work: Path, root: Path) -> Command:
    name = f"sweep_{stem(p, q)}"
    golden = root / "tests" / "golden" / f"{name}.csv"
    return Command(
        "sweep",
        ["sweep", p, q, "--format", "both", "--out", str(work / name)],
        (f"{name}.csv", f"{name}.svg"),
        _csv_gate(golden, f"{name}.csv", f"{name}.svg"),
    )


def _figure(kind: str, pair, work: Path, fmt: str) -> Command:
    name = f"entropy_figure_{stem(*pair)}"
    svg = f"{name}.svg" if fmt == "both" else None
    out = str(work / name) if fmt == "both" else str(work / f"{name}.csv")
    return Command(
        kind,
        ["entropy-figure", *pair, "--n-max", str(FIGURE_N_MAX), "--format", fmt, "--out", out],
        (f"{name}.csv",) + ((svg,) if svg else ()),
        _csv_gate(REFERENCE_DIR / f"{name}.csv", f"{name}.csv", svg),
    )


def _sample(kind: str, pair, n: int, method: str, seed: int, work: Path, extra=()) -> Command:
    name = f"sample_{kind}.csv"
    termination = "approximate" if kind == "pfr" else "exact"
    return Command(
        kind,
        ["sample", *pair, "-n", str(n), "--method", method, *extra,
         "--seed", str(seed), "--out", str(work / name)],
        (name,),
        _sample_gate(name, pair, n, termination, f"index_pmf_{stem(*pair)}.csv", method == "pfr"),
        draws=n,
    )


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    """The workload ``name`` with outputs under ``work``; ``root`` is the checkout."""
    if name == "reproduce":
        commands = [_sweep(p, q, work, root) for p, q in GOLDEN_PAIRS]
        commands.append(_figure("entropy_figure", MONOTONE_FIGURE_PAIR, work, "both"))
        commands.append(Command("verify", ["verify", "--seed", str(seed)], (), _verify_gate))
        kinds = [
            Kind("sweep", "sweep_s"),
            Kind("entropy_figure", "entropy_figure_s"),
            Kind("verify", "verify_s"),
        ]
    elif name == "sampling":
        commands = [
            _sample("pfr", PFR_PAIR, PFR_DRAWS, "pfr", seed, work, ("--delta", "1e-8")),
            _sample("pfr_bounded", PFR_BOUNDED_PAIR, PFR_BOUNDED_DRAWS, "pfr", seed, work),
            _sample("exact", EXACT_PAIR, EXACT_ROWS, "exact", seed, work),
        ]
        kinds = [
            Kind("pfr", "pfr_draws_per_s", PFR_DRAWS),
            Kind("pfr_bounded", "pfr_bounded_draws_per_s", PFR_BOUNDED_DRAWS),
            Kind("exact", "exact_rows_per_s", EXACT_ROWS),
        ]
    elif name == "nonmonotone":
        prologue = (_figure("nonmonotone_figure", NONMONOTONE_FIGURE_PAIR, work, "csv"),)
        commands = [
            _sample("nonmonotone_exact", NONMONOTONE_DRAW_PAIR, NONMONOTONE_DRAWS, "exact", seed, work),
            _sample("nonmonotone_exact_normal", NONMONOTONE_NORMAL_DRAW_PAIR,
                    NONMONOTONE_NORMAL_DRAWS, "exact", seed, work),
        ]
        kinds = [
            Kind("nonmonotone_figure", "nonmonotone_figure_s"),
            Kind("nonmonotone_exact", "nonmonotone_draws_per_s", NONMONOTONE_DRAWS),
            Kind("nonmonotone_exact_normal", "nonmonotone_normal_draws_per_s", NONMONOTONE_NORMAL_DRAWS),
        ]
        return Workload(commands, kinds, prologue)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(commands, kinds)

