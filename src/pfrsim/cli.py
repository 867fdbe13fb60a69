"""Command-line interface: divergence tables, bound sweeps, samplers, verification.

Every command is deterministic: the two that draw random numbers,
``sample`` and ``verify``, take a ``--seed`` (default 0, never
wall-clock).  Numeric cells use a fixed format so repeated runs are
byte-identical.  Any option may also come from a JSON file via
``--config``; explicit flags win over file values.

Tables go through ``bounds.csv_text`` and every file through
``numerics.write_text``; a failed write exits with status 3.  ``sample``
prints the bytes of its ``%`` template from digits worked out in exact
integer arithmetic, a block of rows at a time; capped rows, and values
that ``%.17g`` prints in scientific notation or that are not finite,
fall back to the template itself.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

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
from .numerics import QuadratureSpec, write_text
from .svg import write_line_chart

_EXIT_IO = 3

#: Rows that ``sample`` formats in one piece.
_ROW_BLOCK = 2**14

#: A ``sample`` block with fewer rows that take exact digits goes through the
#: ``%`` template: below this, the numpy pass's fixed cost is the larger.
_DIGIT_ROWS_MIN = 256


@functools.cache
def _quad_tables():
    """The four ASCII digits of 0..9999, one uint32 word each, without and with zeros dropped.

    Returns (leading, units, trailing): row 1 of each is the full quad,
    row 0 drops the quad's leading zeros (``units`` keeps a 0 alone) or
    its trailing ones.  Built at the first use, not at import.
    """
    q = np.arange(10_000)[:, None]
    text = (q // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    lead = np.where(q < np.array([1000, 100, 10, 1]), 0, text).astype(np.uint8)
    units = lead.copy()
    units[0, 3] = ord("0")
    trail = np.where(q % np.array([10_000, 1000, 100, 10]) == 0, 0, text).astype(np.uint8)
    full, lead, units, trail = (a.view(np.uint32).ravel() for a in (text, lead, units, trail))
    return np.stack([lead, full]), np.stack([units, full]), np.stack([trail, full])


#: The words ``,``, ``,`` with u's ``-`` at its end, and ``.``.
_COMMA, _COMMA_MINUS, _POINT = np.frombuffer(b",\0\0\0,\0\0-.\0\0\0", dtype=np.uint32)
#: 10**-4 .. 10**16 as the nearest doubles, each >= its power of ten.
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 17)])
#: 10**0 .. 10**20, exact doubles, and Veltkamp's split of each into two halves.
_POW10 = np.array([float(10**j) for j in range(21)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**j for j in range(18)], dtype=np.int64)

#: The legend label of each sweep-table column that the SVG chart plots against alpha.
_SERIES = {"lb1": "lower bound 1", "lb2": "lower bound 2", "ub1": "upper bound 1",
           "ub2": "upper bound 2", "h_alpha_plus1": "index entropy + 1"}


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


@contextmanager
def _usage_errors(prefix: str = ""):
    """Turn a ``PfrsimError`` raised inside into a usage error: exit status 2, no output."""
    try:
        yield
    except PfrsimError as exc:
        raise click.UsageError(f"{prefix}{exc}")


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a ``--config`` JSON object the defaults of the command's options.

    A key names an option by its flag or its parameter name, written with
    ``-`` or ``_``; nulls and keys that name no option are ignored, so
    positional arguments never come from the file.  Click converts and
    checks each value with its option's type, as it does a flag, and an
    explicit flag wins.
    """
    if path is None:
        return
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise click.BadParameter(f"cannot read config: {exc}", ctx, param)
    if not isinstance(loaded, dict):
        raise click.BadParameter("config must be a JSON object", ctx, param)
    names = {}
    for option in ctx.command.params:
        if isinstance(option, click.Option):
            for alias in (option.name, *option.opts):
                names[alias.lstrip("-").replace("-", "_")] = option.name
    ctx.default_map = {}
    for key, value in loaded.items():
        name = names.get(key.replace("-", "_"))
        if name is not None and value is not None:
            ctx.default_map[name] = value


def _quad_spec(ctx: click.Context, param: click.Parameter, quad_tol) -> QuadratureSpec | None:
    """``--quad-tol`` as the QuadratureSpec it sets, rejected where the spec is invalid."""
    if quad_tol is None:
        return None
    try:
        return QuadratureSpec(abs_tol=quad_tol, rel_tol=quad_tol)
    except PfrsimError as exc:
        raise click.BadParameter(str(exc), ctx, param)


_config_option = click.option("--config", type=click.Path(exists=True), is_eager=True, expose_value=False, callback=_load_config, help="JSON file with default option values.")
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
_out_option = click.option("--out", type=click.Path(), default=None, help="Output path.")
_quad_tol_option = click.option("--quad-tol", "quad", type=float, default=None, callback=_quad_spec, help="Quadrature tolerance (absolute and relative).")


def _sweep_options(f):
    """The options of the commands that write a bound sweep."""
    f = click.option("--alpha-range", type=_AlphaRange(), default=None, help="Grid as lo,hi,points.")(f)
    f = click.option("--format", "fmt", type=click.Choice(["csv", "svg", "both"]), default="csv", show_default=True, help="Each format writes --out, less one .csv or .svg suffix, plus its own suffix.")(f)
    return _out_option(f)


def _parse_pair(p_spec: str, q_spec: str) -> DistributionPair:
    with _usage_errors():
        return DistributionPair(parse_distribution(p_spec), parse_distribution(q_spec))


def _sweep_rows(p_spec: str, q_spec: str, alpha_range, out, fmt):
    """The pair and its bound sweep, once the requested output is known to be writable."""
    if fmt != "csv" and out is None:
        raise click.UsageError("--out is required for SVG output")
    pair = _parse_pair(p_spec, q_spec)
    with _usage_errors():
        if alpha_range is None:
            grid = bounds_mod.default_alpha_grid(pair)
        else:
            grid = np.linspace(*alpha_range)
        return pair, bounds_mod.sweep(pair, grid)


def _write(path, write) -> None:
    """Call ``write(path)``; an OSError ends the command with exit status 3."""
    try:
        write(path)
    except OSError as exc:
        click.echo(f"cannot write {path}: {exc}", err=True)
        sys.exit(_EXIT_IO)


def _emit(out, text: str) -> None:
    """Write ``text`` to the path ``out``, or to stdout when ``out`` is None."""
    if out is None:
        click.echo(text, nl=False)
    else:
        _write(out, lambda path: write_text(path, text))


def _named(out: str, suffix: str) -> str:
    """``out`` without one trailing .csv or .svg, then ``suffix``.

    Only those two are dropped, so a name with any other dot keeps it whole.
    """
    return (out[:-4] if out.endswith((".csv", ".svg")) else out) + suffix


def _sweep_outputs(header, table, out, fmt, title) -> None:
    """Write a sweep table as CSV and/or SVG; the chart plots each ``_SERIES`` column it has."""
    if fmt in ("csv", "both"):
        _emit(None if out is None else _named(out, ".csv"), bounds_mod.csv_text(header, table))
    if fmt in ("svg", "both"):
        columns = dict(zip(header, zip(*table)))
        series = [(label, columns["alpha"], columns[name])
                  for name, label in _SERIES.items() if name in columns]
        _write(_named(out, ".svg"), lambda path: write_line_chart(path, title, "alpha", "bits", series))


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
def divergence(p_spec, q_spec, orders, numeric, out, quad):
    """Print Renyi divergences of order ORDER between two distributions, in bits."""
    pair = _parse_pair(p_spec, q_spec)
    table = []
    for order in orders:
        # the shortest text that reads back as this order: 1 + 1e-12 is not 1
        label = repr(order).removesuffix(".0")
        with _usage_errors():
            val = renyi_divergence(pair, order)
        row = [label, val]
        if numeric:
            # a divergent order has no finite integral to check: inf stays
            if not math.isinf(val):
                with _usage_errors(f"numeric divergence at order {label}: "):
                    val = numeric_renyi_divergence(pair, order, quad)
            row.append(val)
        table.append(row)
    text = bounds_mod.csv_text(("order", "bits", "numeric_bits")[: 2 + numeric], table)
    click.echo(text, nl=False)
    if out is not None:
        _write(out, lambda path: write_text(path, text))


@main.command()
@click.argument("p_spec")
@click.argument("q_spec")
@_sweep_options
@_config_option
def sweep(p_spec, q_spec, out, fmt, alpha_range):
    """Evaluate all four bounds over an alpha grid; write CSV and/or SVG."""
    _, rows = _sweep_rows(p_spec, q_spec, alpha_range, out, fmt)
    _sweep_outputs(bounds_mod.SWEEP_COLUMNS, [r.cells for r in rows], out, fmt, f"{p_spec} vs {q_spec}")


@main.command("entropy-figure")
@click.argument("p_spec")
@click.argument("q_spec")
@click.option("--n-max", type=click.IntRange(min=1), default=1000, show_default=True, help="Index pmf truncation point.")
@_sweep_options
@_quad_tol_option
@_config_option
def entropy_figure(p_spec, q_spec, n_max, out, fmt, alpha_range, quad):
    """Bound sweep plus the truncated-pmf entropy column h_alpha_plus1."""
    pair, rows = _sweep_rows(p_spec, q_spec, alpha_range, out, fmt)
    with _usage_errors():
        pmf = pfr_mod.index_pmf(pair, n_max, quad)
    heavy = pmf.tail_mass > 1e-4
    if heavy:
        warnings.warn(
            f"tail mass {pmf.tail_mass:.3g} exceeds 1e-4; h_alpha_plus1 is only "
            "a lower bracket of the entropy",
            TailTooHeavyWarning,
        )
    table = []
    with _usage_errors():
        for r in rows:
            lo, hi = codes_mod.renyi_entropy(pmf, r.alpha)
            table.append((*r.cells, (lo if heavy else hi) + 1.0))
    header = (*bounds_mod.SWEEP_COLUMNS, "h_alpha_plus1")
    _sweep_outputs(header, table, out, fmt, f"{p_spec} vs {q_spec} (N={n_max})")


@main.command()
@click.argument("p_spec")
@click.argument("q_spec")
@click.option("-n", "count", type=click.IntRange(min=0), default=10, show_default=True, help="Number of draws.")
@click.option("--method", type=click.Choice(["pfr", "exact"]), default="exact", show_default=True)
@click.option("--delta", type=float, default=1e-6, show_default=True, help="Stopping slack for --method pfr.")
@_out_option
@_seed_option
@_config_option
def sample(p_spec, q_spec, count, method, delta, out, seed):
    """Draw (index, accepted sample) pairs; rows are k,u_k,termination."""
    pair = _parse_pair(p_spec, q_spec)
    with _usage_errors():
        if method == "exact":
            ks, us = pfr_mod.sample_indices(pair, count, np.random.default_rng(seed))
            termination, capped = "exact", np.zeros(count, dtype=bool)
        else:
            batch = pfr_mod.run_pfr_many(pair, seed, count, delta=delta)
            ks, us, termination, capped = (
                batch.index, batch.accepted, batch.termination, batch.capped
            )
    _emit(out, _sample_csv(ks, us, termination, capped, pair.is_finite_kind))


def _sample_csv(ks, us, termination: str, capped, finite: bool) -> str:
    """The ``sample`` CSV: rows ``k,u_k,termination`` under a header.

    Each row has the bytes that the template ``%d,%.17g,<termination>``
    (``%d,%d,...`` for a finite pair) prints, and rows flagged in
    ``capped`` print ``,,iteration_cap``.  The digits come from exact
    integer arithmetic in numpy; capped rows, u that is +-0, below 1e-4
    or from 1e16 in magnitude, inf or nan, and indices from 2**64 go
    through the template (see ``_block_rows``).  Rows are formatted
    ``_ROW_BLOCK`` at a time, so that the arrays of only one block are
    alive at once.
    """
    row = f"%d,{'%d' if finite else '%.17g'},{termination}\n"
    tail = f",{termination}\n".encode()
    suffix = np.frombuffer(tail + bytes(-len(tail) % 4), dtype=np.uint32)
    parts = ["k,u_k,termination\n"]
    for start in range(0, len(ks), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        parts.append(_block_rows(ks[block], us[block], capped[block], row, suffix, finite))
    return "".join(parts)


def _template_rows(k, u, cap, row: str) -> str:
    """Rows through the ``%`` template, in one call for the block.

    ``%d`` prints ``int(k)`` of a float k; k in [0, 2**64) goes in as that
    integer, which ``%d`` formats faster than a float.
    """
    k, u = k[~cap], u[~cap]
    if k.dtype.kind == "f" and ((k >= 0) & (k < 2.0**64)).all():
        k = k.astype(np.uint64)
    if cap.any():
        template = "".join([",,iteration_cap\n" if c else row for c in cap.tolist()])
    else:
        template = row * len(k)
    values = [None] * (2 * len(k))
    values[0::2] = k.tolist()
    values[1::2] = u.tolist()
    return template % tuple(values)


def _block_rows(k, u, cap, row: str, suffix, finite: bool) -> str:
    """One block of ``sample`` rows, its digits from exact integer arithmetic.

    k, and a finite pair's u, print from their uint64 value, which is
    ``int`` of the float up to 2**64.  Any other u prints in the fixed
    notation of ``%.17g`` where 1e-4 <= |u| < 1e16 (see ``_fixed_words``).
    The rest fall back to ``_template_rows``, in one call: capped rows,
    k or a finite pair's u outside [0, 2**64), and u that is +-0, below
    1e-4 in magnitude (scientific notation), 1e16 or more, inf or nan.  A
    block with fewer than ``_DIGIT_ROWS_MIN`` digit rows goes through the
    template alone.

    Each field is a run of 4-byte words, one ASCII quad per word, with
    NUL where a leading or trailing zero is dropped; one word per column
    is written for every row at once into a (columns, rows) array.  Read
    row by row, with the NULs deleted, it is the text.  Fallback rows are
    NUL in the array, and their text is written into their rows before
    the NULs go.
    """
    if len(k) < _DIGIT_ROWS_MIN:
        return _template_rows(k, u, cap, row)
    ok = ~cap & (k >= 0) & (k < 2.0**64)
    if finite:
        ok &= (u >= 0) & (u < 2.0**64)
    else:
        ok &= (np.abs(u) >= 1e-4) & (np.abs(u) < 1e16)
    if np.count_nonzero(ok) < _DIGIT_ROWS_MIN:
        return _template_rows(k, u, cap, row)
    rest = np.flatnonzero(~ok)
    if rest.size:
        lines = np.frombuffer(_template_rows(k[rest], u[rest], cap[rest], row).encode(), np.uint8)
        k, u = np.where(ok, k, 1), np.where(ok, u, 1)
    if finite:
        u_words = [_COMMA, *_integer_words(u.astype(np.uint64))]
    else:
        u_words = _fixed_words(u)
    columns = [*_integer_words(k.astype(np.uint64)), *u_words, *suffix]
    words = np.empty((len(columns), len(k)), dtype=np.uint32)
    for i, column in enumerate(columns):
        words[i] = column
    if not rest.size:
        return words.T.tobytes().translate(None, b"\0").decode("ascii")
    ends = np.flatnonzero(lines == ord("\n")) + 1
    lengths = np.diff(ends, prepend=0)
    width = max(4 * len(columns), -(-lengths.max() // 4) * 4)
    rows = np.zeros((len(k), width), dtype=np.uint8)
    rows[:, : 4 * len(columns)].view(np.uint32)[:] = words.T
    rows[rest] = 0
    rows.reshape(-1)[np.repeat(rest * width - (ends - lengths), lengths) + np.arange(lines.size)] = lines
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _quads(v, count: int) -> list:
    """``v`` in base 10**4, ``count`` digits, the most significant first."""
    out = []
    for _ in range(count):
        q = v // 10_000
        out.append(v - q * 10_000)
        v = q
    return out[::-1]


def _integer_words(v) -> list:
    """The decimal digits of ``v``: as many words as its largest entry needs, leading zeros NUL."""
    leading, units, _ = _quad_tables()
    quads = _quads(v, -(-len(str(v.max())) // 4))
    seen = np.zeros(len(v), dtype=bool)  # a nonzero quad is written; as uint8, a table row
    words = []
    for q in quads[:-1]:
        words.append(leading[seen.view(np.uint8), q])
        seen |= q != 0
    return words + [units[seen.view(np.uint8), quads[-1]]]


def _fixed_words(u) -> list:
    """``,`` and ``%.17g`` of each u, all in fixed notation: 1e-4 <= |u| < 1e16.

    %.17g prints N = round-half-even(|u| 10**(16 - X)), N in [10**16,
    10**17), with X the decimal exponent; X in [-4, 15] is fixed notation.
    No double lies in the half-unit of the 17th digit below a power of
    ten, so X is the index of the last power of ten <= |u| in
    ``_DECADES`` (the tests check each power and its neighbours).
    10**(16 - X) <= 10**20 is an exact double, and Dekker's product with
    Veltkamp's split writes |u| 10**(16 - X) = hi + lo exactly.  hi > 2**53
    is an integer and |lo| <= 8, so N = hi + floor(lo), plus one where
    lo - floor(lo) is above one half, or is one half and hi + floor(lo) is
    odd: every step is exact.  The digits of N split at the point into
    the integer part and 20 fraction digits, trailing zeros dropped, with
    the point where any are left.  The sign shares the comma's word.
    """
    a = np.abs(u)
    s = 21 - np.searchsorted(_DECADES, a, side="right")  # 16 - X
    p = a * _POW10[s]
    t = a * 134217729.0  # 2**27 + 1, Veltkamp's split of a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    lo = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    floor = np.floor(lo)
    half = lo - floor
    n = p.astype(np.int64) + floor.astype(np.int64)
    n += (half > 0.5) | ((half == 0.5) & (n & 1 == 1))
    scale = _POW10_INT[np.minimum(s, 17)]  # where X < 0, N // 10**17 is the 0 printed
    whole = n // scale
    fraction = n - whole * scale  # s digits, split into the first 12 and last 8 of 20
    cut = _POW10_INT[np.maximum(s - 12, 0)]
    high = fraction // cut
    low = (fraction - high * cut) * _POW10_INT[np.minimum(20 - s, 8)]
    high *= _POW10_INT[np.maximum(12 - s, 0)]
    trailing = _quad_tables()[2]
    later = np.zeros(len(u), dtype=bool)  # a nonzero quad follows
    words = []
    for q in (_quads(high, 3) + _quads(low, 2))[::-1]:
        words.append(trailing[later.view(np.uint8), q])
        later |= q != 0
    return [np.where(u < 0, _COMMA_MINUS, _COMMA), *_integer_words(whole),
            np.where(later, _POINT, np.uint32(0)), *words[::-1]]


@main.command()
@click.option("--only", type=click.Choice(oracle_mod.CHECK_NAMES), default=None, help="Run a single check family.")
@click.option("--samples", type=click.IntRange(min=2), default=10**6, show_default=True, help="Monte Carlo sample count per pair.")
@click.option("--corrupt-c1", is_flag=True, hidden=True, help="Deliberately break the first upper bound's constant (negative control).")
@_seed_option
@_config_option
def verify(only, samples, corrupt_c1, seed):
    """Run the verification suite; exits nonzero if any check fails."""
    reports = oracle_mod.run_suite(
        seed=seed,
        n_samples=samples,
        only=only,
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
