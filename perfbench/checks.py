"""Correctness gates for the benchmark's CLI outputs.

Everything here is independent of the code under test: the CSV comparator
follows the golden rule of ``tests/test_cli.py``, and the statistical checks
use their own closed forms for the CDFs and the KL divergence.  Every
statistical check is sized to hold for any seed: a test fails only at a
p-value below ``P_FAIL``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CSV_TOL = 1e-6
P_FAIL = 1e-6
LN2 = math.log(2.0)


def compare_csv(reference: str, fresh: str) -> list[str]:
    """Cell-by-cell comparison; returns one message per mismatch.

    Empty cells and ``inf`` cells must match exactly; numbers may differ
    by at most ``CSV_TOL`` in absolute value.
    """
    ref_lines = reference.strip().splitlines()
    new_lines = fresh.strip().splitlines()
    if not ref_lines or not new_lines:
        return ["empty CSV"]
    if ref_lines[0] != new_lines[0]:
        return [f"header {new_lines[0]!r} != {ref_lines[0]!r}"]
    if len(ref_lines) != len(new_lines):
        return [f"{len(new_lines) - 1} rows, expected {len(ref_lines) - 1}"]
    errors = []
    for row, (g_line, f_line) in enumerate(zip(ref_lines[1:], new_lines[1:]), start=1):
        g_cells, f_cells = g_line.split(","), f_line.split(",")
        if len(g_cells) != len(f_cells):
            errors.append(f"row {row}: {len(f_cells)} cells, expected {len(g_cells)}")
            continue
        for col, (g, f) in enumerate(zip(g_cells, f_cells)):
            if g == "" or f == "" or g == "inf" or f == "inf":
                ok = g == f
            else:
                ok = abs(float(f) - float(g)) <= CSV_TOL
            if not ok:
                errors.append(f"row {row} col {col}: {f!r} vs reference {g!r}")
    return errors


def parse_spec(spec: str) -> tuple[str, float, float]:
    kind, _, params = spec.partition(":")
    a, b = (float(x) for x in params.split(","))
    return kind, a, b


def cdf(spec: str, x: np.ndarray) -> np.ndarray:
    kind, loc, scale = parse_spec(spec)
    z = (np.asarray(x, dtype=float) - loc) / scale
    if kind == "normal":
        erfc = np.vectorize(math.erfc, otypes=[float])
        return 0.5 * erfc(-z / math.sqrt(2.0))
    if kind == "laplace":
        return np.where(z < 0.0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))
    raise ValueError(f"no CDF for {spec!r}")


def kl_bits(p_spec: str, q_spec: str) -> float:
    """D(P||Q) in bits for same-kind normal or laplace pairs."""
    kind, m1, s1 = parse_spec(p_spec)
    kind_q, m2, s2 = parse_spec(q_spec)
    if kind != kind_q:
        raise ValueError("pair kinds differ")
    if kind == "normal":
        nats = math.log(s2 / s1) + (s1**2 + (m1 - m2) ** 2) / (2.0 * s2**2) - 0.5
    elif kind == "laplace":
        d = abs(m1 - m2)
        nats = math.log(s2 / s1) + (s1 * math.exp(-d / s1) + d) / s2 - 1.0
    else:
        raise ValueError(f"no KL for {p_spec!r}")
    return nats / LN2


def ks_pvalue(samples: np.ndarray, spec: str) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov p-value against ``spec``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = cdf(spec, x)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    if lam < 0.2:
        return 1.0
    p = 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101))
    return min(max(p, 0.0), 1.0)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square via the Wilson-Hilferty cube-root normal form."""
    if x <= 0.0:
        return 1.0
    h = 2.0 / (9.0 * df)
    z = ((x / df) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def index_law_pvalue(ks: np.ndarray, probs: np.ndarray, tail: float) -> float:
    """Chi-square p-value of indices ``ks`` against P(K=k) = probs[k-1].

    Indices are pooled left to right until each bin expects at least five
    draws; the last bin also holds every index past the pmf and its tail.
    """
    n = len(ks)
    counts = np.bincount(np.minimum(ks, len(probs) + 1).astype(np.int64), minlength=len(probs) + 2)[1:]
    expected = np.append(probs, tail) * n
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(counts, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if not obs_bins:
        return 1.0
    obs_bins[-1] += o_acc
    exp_bins[-1] += e_acc
    if len(obs_bins) < 2:
        return 1.0
    o, e = np.array(obs_bins), np.array(exp_bins)
    return chi2_sf(float(np.sum((o - e) ** 2 / e)), len(o) - 1)


def read_pmf(path: Path) -> tuple[np.ndarray, float]:
    """Read a ``k,prob`` CSV ending in a ``tail,<mass>`` row."""
    probs, tail = [], None
    for line in path.read_text().splitlines()[1:]:
        key, _, value = line.partition(",")
        if key == "tail":
            tail = float(value)
        else:
            probs.append(float(value))
    if tail is None:
        raise ValueError(f"{path}: missing tail row")
    return np.array(probs), tail


def check_samples(
    text: str,
    n: int,
    p_spec: str,
    q_spec: str,
    termination: str,
    pmf: tuple[np.ndarray, float],
    ks_test: bool,
) -> tuple[list[str], int]:
    """Gate one ``sample`` CSV; returns (messages, iteration_cap rows).

    Parsed without a Python object per row, so that the gate's memory stays
    below the CLI's own and does not set the workload's peak RSS.
    """
    header, _, body = text.partition("\n")
    if header != "k,u_k,termination":
        return ["bad sample header"], 0
    rows = body.count("\n")
    capped = body.count(",,iteration_cap\n")
    kept = body.count(f",{termination}\n")
    if rows != n:
        return [f"{rows} sample rows, expected {n}"], capped
    if kept + capped != n:
        return [f"{n - kept - capped} rows with a termination other than {termination!r}"], capped
    body = body.replace(",,iteration_cap\n", "").replace(f",{termination}\n", ",")
    values = np.fromstring(body.rstrip(","), sep=",").reshape(-1, 2)
    ks, us = values[:, 0], values[:, 1]
    errors = []
    if np.any(ks < 1.0) or np.any(ks != np.floor(ks)):
        errors.append("indices must be positive integers")
        return errors, capped
    if ks_test:
        p = ks_pvalue(us, p_spec)
        if p < P_FAIL:
            errors.append(f"accepted samples fail KS against {p_spec}: p={p:.3g}")
    p = index_law_pvalue(ks, *pmf)
    if p < P_FAIL:
        errors.append(f"index law differs from index_pmf: p={p:.3g}")
    logk = np.log2(ks)
    mean, se = float(np.mean(logk)), float(np.std(logk) / math.sqrt(len(logk)))
    cap = kl_bits(p_spec, q_spec) + 1.0
    if mean > cap + 3.0 * se:
        errors.append(f"mean log2 K {mean:.4f} above D+1 = {cap:.4f} (se {se:.2g})")
    return errors, capped


def check_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["verify printed nothing"]
    failed = [line for line in lines if line.startswith("FAIL")]
    done, _, total = lines[-1].partition(" ")[0].partition("/")
    if failed or not lines[-1].endswith("checks passed") or done != total:
        return [f"verify: {lines[-1]}"] + failed[:5]
    return []


def check_svg(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    head = path.read_bytes()[:200]
    if b"<svg" not in head:
        return [f"{path.name} is not an SVG document"]
    return []
