"""Command-line interface: divergence tables, bound sweeps, samplers, verification.

Every command is deterministic: the two that draw random numbers,
``sample`` and ``verify``, take a ``--seed`` (default 0, never
wall-clock).  Numeric cells use a fixed format so repeated runs are
byte-identical.  Options may also come from a JSON file via ``--config``;
explicit flags win over file values.
"""

from __future__ import annotations

import io
import json
import math
import sys
import warnings
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import bounds as bounds_mod
from . import codes as codes_mod
from . import oracle as oracle_mod
from . import pfr as pfr_mod
from .distributions import (
    DistributionPair,
    numeric_renyi_divergence,
    parse_distribution,
    renyi_divergence,
)
from .errors import PfrsimError, TailTooHeavyWarning
from .numerics import QuadratureSpec
from .svg import write_line_chart

_EXIT_IO = 3

#: Rows that ``sample`` formats in one piece.
_ROW_BLOCK = 2**14


class _AlphaRange(click.ParamType):
    """An alpha grid as ``lo,hi,points``, or a list of the three from ``--config``."""

    name = "lo,hi,points"

    def convert(self, value, param, ctx):
        parts = value.split(",") if isinstance(value, str) else value
        try:
            if len(parts) != 3:
                raise ValueError
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not lo,hi,points", param, ctx)
        if not (0.0 < lo < hi < 1.0) or n < 2:
            self.fail("alpha range must satisfy 0 < lo < hi < 1, points >= 2", param, ctx)
        return lo, hi, n


_config_option = click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON file with default option values.")
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
_out_option = click.option("--out", type=click.Path(), default=None, help="Output path.")
_quad_tol_option = click.option("--quad-tol", type=float, default=None, help="Quadrature tolerance (absolute and relative).")


def _sweep_options(f):
    """The options of the commands that write a bound sweep."""
    f = click.option("--alpha-range", type=_AlphaRange(), default=None, help="Grid as lo,hi,points.")(f)
    f = click.option("--format", "fmt", type=click.Choice(["csv", "svg", "both"]), default="csv", show_default=True, help="With both, --out is the base name of the .csv and the .svg.")(f)
    return _out_option(f)


def _apply_config(ctx: click.Context, config_path: str | None) -> dict:
    """The command's parameters, defaults replaced by ``--config`` file values.

    A file value goes through its option's type, as a flag would, so a
    value that does not convert is a usage error.  Explicit flags win;
    null values and keys that name no option of the command are ignored.
    """
    params = dict(ctx.params)
    if not config_path:
        return params
    try:
        loaded = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config: {exc}")
    if not isinstance(loaded, dict):
        raise click.UsageError("config must be a JSON object")
    options = {p.name: p for p in ctx.command.params if isinstance(p, click.Option)}
    for key, value in loaded.items():
        name = key.replace("-", "_")
        if name not in options or ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            continue
        if value is None:  # JSON null keeps the default
            continue
        try:
            params[name] = options[name].type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise click.UsageError(f"config value {key!r}: {exc.message}") from None
    return params


def _parse_pair(p_spec: str, q_spec: str) -> DistributionPair:
    try:
        return DistributionPair(parse_distribution(p_spec), parse_distribution(q_spec))
    except PfrsimError as exc:
        raise click.UsageError(str(exc))


def _quad_spec(quad_tol) -> QuadratureSpec | None:
    if quad_tol is None:
        return None
    return QuadratureSpec(abs_tol=quad_tol, rel_tol=quad_tol)


def _alpha_grid(alpha_range, pair: DistributionPair) -> np.ndarray:
    if alpha_range is None:
        return bounds_mod.default_alpha_grid(pair)
    return np.linspace(*alpha_range)


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        click.echo(f"cannot write {path}: {exc}", err=True)
        sys.exit(_EXIT_IO)


def _sweep_outputs(rows, out, fmt, title, extra=None):
    """Write a bound sweep as CSV and/or SVG.

    ``extra`` is an optional (column header, series label, values) triple
    that adds one value per row as a last CSV column and a fifth series.
    """
    buf = io.StringIO()
    bounds_mod.sweep_to_csv(rows, buf)
    csv_text = buf.getvalue()
    alphas = [r.alpha for r in rows]
    series = [
        ("lower bound 1", alphas, [r.lb1 for r in rows]),
        ("lower bound 2", alphas, [r.lb2 for r in rows]),
        ("upper bound 1", alphas, [r.ub1 for r in rows]),
        ("upper bound 2", alphas, [r.ub2 if r.ub2 is not None else math.nan for r in rows]),
    ]
    if extra is not None:
        header, label, values = extra
        lines = csv_text.splitlines()
        lines[0] += f",{header}"
        for i, v in enumerate(values):
            lines[i + 1] += f",{bounds_mod.format_cell(v)}"
        csv_text = "\n".join(lines) + "\n"
        series.append((label, alphas, values))
    if fmt in ("csv", "both"):
        if out is None:
            click.echo(csv_text, nl=False)
        else:
            path = Path(out)
            if fmt == "both" or path.suffix != ".csv":
                path = path.with_suffix(".csv")
            _write_text(path, csv_text)
    if fmt in ("svg", "both"):
        if out is None:
            raise click.UsageError("--out is required for SVG output")
        try:
            write_line_chart(Path(out).with_suffix(".svg"), title, "alpha", "bits", series)
        except OSError as exc:
            click.echo(f"cannot write SVG: {exc}", err=True)
            sys.exit(_EXIT_IO)


@click.group()
def main() -> None:
    """Exact sampling over shared randomness: cost bounds, samplers, checks."""


@main.command()
@click.argument("p_spec")
@click.argument("q_spec")
@click.option("--order", "orders", type=float, multiple=True, required=True, help="Divergence order (repeatable).")
@click.option("--numeric", is_flag=True, help="Add a quadrature cross-check column.")
@_out_option
@_quad_tol_option
@_config_option
@click.pass_context
def divergence(ctx, p_spec, q_spec, orders, numeric, out, quad_tol, config_path):
    """Print Renyi divergences of order ORDER between two distributions, in bits."""
    params = _apply_config(ctx, config_path)
    pair = _parse_pair(p_spec, q_spec)
    spec = _quad_spec(params["quad_tol"])
    lines = ["order,bits" + (",numeric_bits" if numeric else "")]
    for order in orders:
        try:
            val = renyi_divergence(pair, order)
        except PfrsimError as exc:
            raise click.UsageError(str(exc))
        row = f"{order:g},{bounds_mod.format_cell(val)}"
        if numeric:
            # a divergent order has no finite integral to check: inf stays
            if not math.isinf(val):
                try:
                    val = numeric_renyi_divergence(pair, order, spec)
                except PfrsimError as exc:
                    raise click.UsageError(f"numeric divergence at order {order:g}: {exc}")
            row += f",{bounds_mod.format_cell(val)}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if params["out"] is not None:
        _write_text(params["out"], text)


@main.command()
@click.argument("p_spec")
@click.argument("q_spec")
@_sweep_options
@_config_option
@click.pass_context
def sweep(ctx, p_spec, q_spec, out, fmt, alpha_range, config_path):
    """Evaluate all four bounds over an alpha grid; write CSV and/or SVG."""
    params = _apply_config(ctx, config_path)
    pair = _parse_pair(p_spec, q_spec)
    grid = _alpha_grid(params["alpha_range"], pair)
    rows = bounds_mod.sweep(pair, grid)
    _sweep_outputs(rows, params["out"], params["fmt"], f"{p_spec} vs {q_spec}")


@main.command("entropy-figure")
@click.argument("p_spec")
@click.argument("q_spec")
@click.option("--n-max", type=int, default=1000, show_default=True, help="Index pmf truncation point.")
@_sweep_options
@_quad_tol_option
@_config_option
@click.pass_context
def entropy_figure(ctx, p_spec, q_spec, n_max, out, fmt, alpha_range, quad_tol, config_path):
    """Bound sweep plus the truncated-pmf entropy column h_alpha_plus1."""
    params = _apply_config(ctx, config_path)
    pair = _parse_pair(p_spec, q_spec)
    grid = _alpha_grid(params["alpha_range"], pair)
    rows = bounds_mod.sweep(pair, grid)
    pmf = pfr_mod.index_pmf(pair, params["n_max"], _quad_spec(params["quad_tol"]))
    heavy = pmf.tail_mass > 1e-4
    if heavy:
        warnings.warn(
            f"tail mass {pmf.tail_mass:.3g} exceeds 1e-4; h_alpha_plus1 is only "
            "a lower bracket of the entropy",
            TailTooHeavyWarning,
            stacklevel=2,
        )
    h_col = []
    for r in rows:
        lo, hi = codes_mod.renyi_entropy(pmf, r.alpha)
        h_col.append((lo if heavy else hi) + 1.0)
    _sweep_outputs(
        rows,
        params["out"],
        params["fmt"],
        f"{p_spec} vs {q_spec} (N={params['n_max']})",
        ("h_alpha_plus1", "index entropy + 1", h_col),
    )


@main.command()
@click.argument("p_spec")
@click.argument("q_spec")
@click.option("-n", "count", type=click.IntRange(min=0), default=10, show_default=True, help="Number of draws.")
@click.option("--method", type=click.Choice(["pfr", "exact"]), default="exact", show_default=True)
@click.option("--delta", type=float, default=1e-6, show_default=True, help="Stopping slack for --method pfr.")
@_out_option
@_seed_option
@_config_option
@click.pass_context
def sample(ctx, p_spec, q_spec, count, method, delta, out, seed, config_path):
    """Draw (index, accepted sample) pairs; rows are k,u_k,termination."""
    params = _apply_config(ctx, config_path)
    pair = _parse_pair(p_spec, q_spec)
    root, n = params["seed"], params["count"]
    try:
        if params["method"] == "exact":
            ks, us = pfr_mod.sample_indices(pair, n, np.random.default_rng(root))
            termination, capped = "exact", np.zeros(n, dtype=bool)
        else:
            batch = pfr_mod.run_pfr_many(pair, root, n, delta=params["delta"])
            ks, us, termination, capped = (
                batch.index, batch.accepted, batch.termination, batch.capped
            )
    except PfrsimError as exc:
        raise click.UsageError(str(exc))
    text = _sample_csv(ks, us, termination, capped, pair.is_finite_kind)
    if params["out"] is None:
        click.echo(text, nl=False)
    else:
        _write_text(params["out"], text)


def _sample_csv(ks, us, termination: str, capped, finite: bool) -> str:
    """The ``sample`` CSV: rows ``k,u_k,termination`` under a header.

    Rows are formatted a block of columns at a time, so that the Python
    objects of only one block are alive at once.  ``%d`` on a float index
    prints ``int(k)``, exact up to 2**64; rows flagged in ``capped`` print
    ``,,iteration_cap``.
    """
    row = f"%d,{'%d' if finite else '%.17g'},{termination}\n"
    parts = ["k,u_k,termination\n"]
    for start in range(0, len(ks), _ROW_BLOCK):
        cap = capped[start : start + _ROW_BLOCK]
        k, u = ks[start : start + _ROW_BLOCK][~cap], us[start : start + _ROW_BLOCK][~cap]
        if cap.any():
            template = "".join([",,iteration_cap\n" if c else row for c in cap.tolist()])
        else:
            template = row * len(k)
        values = [None] * (2 * len(k))
        values[0::2] = k.tolist()
        values[1::2] = u.tolist()
        parts.append(template % tuple(values))
    return "".join(parts)


@main.command()
@click.option("--only", type=click.Choice(oracle_mod.CHECK_NAMES), default=None, help="Run a single check family.")
@click.option("--samples", type=click.IntRange(min=2), default=10**6, show_default=True, help="Monte Carlo sample count per pair.")
@click.option("--corrupt-c1", is_flag=True, hidden=True, help="Deliberately break the first upper bound's constant (negative control).")
@_seed_option
@_config_option
@click.pass_context
def verify(ctx, only, samples, corrupt_c1, seed, config_path):
    """Run the verification suite; exits nonzero if any check fails."""
    params = _apply_config(ctx, config_path)
    reports = oracle_mod.run_suite(
        seed=params["seed"],
        n_samples=params["samples"],
        only=params["only"],
        c1_offset=-8.0 if corrupt_c1 else 0.0,
    )
    for r in reports:
        click.echo(r.line())
    failures = sum(not r.passed for r in reports)
    click.echo(f"{len(reports) - failures}/{len(reports)} checks passed")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
