import math

import numpy as np
import pytest

from pfrsim import numerics
from pfrsim.bounds import sweep, sweep_to_csv
from pfrsim.distributions import DistributionPair, Gaussian
from pfrsim.errors import DomainError, NonConvergenceError, NonFiniteError
from pfrsim.numerics import (
    QuadratureSpec,
    integrate,
    log2_sum_exp,
    log_gamma,
    minimize_scalar,
    quadrature_grid,
)
from pfrsim.pfr import index_pmf
from pfrsim.svg import write_line_chart


def std_normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestIntegrate:
    def test_normal_density_normalizes(self):
        assert integrate(std_normal_pdf) == pytest.approx(1.0, abs=1e-10)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NonFiniteError):
            integrate(lambda x: float("nan"))

    def test_subdivision_budget_exhaustion(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=16)
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.exp(-np.abs(x) ** 0.3), spec)

    def test_linearity_on_random_smooth_functions(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = rng.normal(size=2)
            c1, c2, s1, s2 = rng.uniform(0.5, 2.0, size=4)

            def f(x):
                return np.exp(-((x - c1) ** 2) / (2 * s1 * s1))

            def g(x):
                return np.cos(c2 * x) * np.exp(-(x * x) / (2 * s2 * s2))

            lhs = integrate(lambda x: a * f(x) + b * g(x))
            rhs = a * integrate(f) + b * integrate(g)
            assert lhs == pytest.approx(rhs, abs=5e-9)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


class TestQuadratureGrid:
    def test_grid_reproduces_pilot_integrals(self):
        fs = [std_normal_pdf, lambda x: std_normal_pdf(x - 3.0)]
        x, w = quadrature_grid(fs)
        for f in fs:
            val = float(np.sum(w * f(x)))
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_grid_handles_related_integrand(self):
        x, w = quadrature_grid([std_normal_pdf])
        second_moment = float(np.sum(w * x * x * std_normal_pdf(x)))
        assert second_moment == pytest.approx(1.0, abs=1e-8)


class TestMinimizeScalar:
    def test_quadratic_vertex(self):
        x, v = minimize_scalar(lambda e: (e - 1.0) ** 2, 0.1, 10.0)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_constant_function(self):
        _, v = minimize_scalar(lambda e: 5.0, 1.0, 2.0)
        assert v == 5.0

    def test_am_gm(self):
        x, v = minimize_scalar(lambda e: e + 1.0 / e, 0.01, 100.0)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert v == pytest.approx(2.0, abs=1e-6)

    def test_upper_bound_property_on_dense_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b, c = rng.normal(size=3)

            def f(x):
                return np.sin(a * x) + 0.1 * (x - b) ** 2 + c * np.cos(x)

            _, v = minimize_scalar(f, 0.1, 20.0)
            grid = np.linspace(0.1, 20.0, 2000)
            assert v <= min(f(float(x)) for x in grid) + numerics._TOL

    def test_infinite_values_tolerated(self):
        def f(x):
            return np.where(x > 2.0, math.inf, (x - 1.5) ** 2)

        x, v = minimize_scalar(f, 0.5, 10.0)
        assert x == pytest.approx(1.5, abs=1e-5)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_nan_raises(self):
        with pytest.raises(NonFiniteError):
            minimize_scalar(lambda x: float("nan"), 1.0, 2.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            minimize_scalar(lambda x: x, 0.0, 1.0)
        with pytest.raises(DomainError):
            minimize_scalar(lambda x: x, 2.0, 1.0)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _one_row_search(f, lo, hi, grid_points, refine_iters, tol):
    """The scalar grid scan and golden-section search, probe by probe."""

    def probe(x):
        y = float(f(x))
        if math.isnan(y) or y == -math.inf:
            raise NonFiniteError(f"objective non-finite at {x!r}")
        return y

    xs = np.linspace(lo, hi, grid_points)
    ys = [probe(float(x)) for x in xs]
    i = int(np.argmin(ys))
    best_x, best_y = float(xs[i]), ys[i]
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    if b > a:
        c = b - _INV_GOLDEN * (b - a)
        d = a + _INV_GOLDEN * (b - a)
        fc, fd = probe(c), probe(d)
        for _ in range(refine_iters):
            if abs(b - a) < tol:
                break
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _INV_GOLDEN * (b - a)
                fc = probe(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_GOLDEN * (b - a)
                fd = probe(d)
        for x, y in ((c, fc), (d, fd)):
            if y < best_y:
                best_x, best_y = x, y
    return best_x, best_y


def _wavy(shift, plateau):
    """Row i: a triangle wave plus a parabola, +inf beyond plateau[i].

    Correctly rounded operations only, so that every element gets the same
    bits in arrays of any size.
    """

    def f(x):
        y = np.abs(np.mod(3.0 * x, 2.0) - 1.0) + 0.05 * (x - shift) * (x - shift)
        return np.where(x > plateau, math.inf, y)

    return f


class TestBatchedMinimizeScalar:
    @pytest.mark.parametrize(
        "grid_points,refine_iters,tol", [(200, 60, 1e-9), (17, 12, 1e-12), (5, 60, 1e-3)]
    )
    def test_rows_match_one_row_searches(self, monkeypatch, grid_points, refine_iters, tol):
        monkeypatch.setattr(numerics, "_GRID_POINTS", grid_points)
        monkeypatch.setattr(numerics, "_REFINE_ITERS", refine_iters)
        monkeypatch.setattr(numerics, "_TOL", tol)
        rng = np.random.default_rng(3)
        n = 40
        lo = rng.uniform(0.01, 2.0, n)
        hi = lo + 10.0 ** rng.uniform(-6, 1.5, n)
        shift = rng.uniform(0.0, 10.0, n)
        plateau = np.where(rng.random(n) < 0.3, lo + 0.5 * (hi - lo), math.inf)
        xs, ys = minimize_scalar(_wavy(shift[:, None], plateau[:, None]), lo, hi)
        for i in range(n):
            f = _wavy(shift[i], plateau[i])
            one = minimize_scalar(f, lo[i], hi[i])
            assert one == (xs[i], ys[i])
            assert one == _one_row_search(f, lo[i], hi[i], grid_points, refine_iters, tol)

    def test_shared_bound_and_shapes(self):
        x, y = minimize_scalar(lambda e: (e - 1.0) ** 2, 0.1, np.array([10.0]))
        assert x.shape == y.shape == (1,)
        assert (x[0], y[0]) == minimize_scalar(lambda e: (e - 1.0) ** 2, 0.1, 10.0)
        with pytest.raises(DomainError):
            minimize_scalar(lambda e: e, np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError):
            minimize_scalar(lambda e: e, np.array([0.1, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            minimize_scalar(lambda e: e, np.full((2, 2), 0.1), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("region", [(0.45, 1.0), (0.61, 0.69)], ids=["grid", "refinement"])
    def test_non_finite_in_any_row_raises(self, monkeypatch, bad, region):
        # row 4 turns bad on the region; the grid 0.1, 0.2, .., 1.0 meets
        # the first one, and only the refinement around the minimum at 0.63
        # meets the second
        monkeypatch.setattr(numerics, "_GRID_POINTS", 10)
        rows = np.arange(6)[:, None]

        def f(x):
            sick = (rows == 4) & (x > region[0]) & (x < region[1])
            return np.where(sick, bad, (x - 0.63) ** 2)

        with pytest.raises(NonFiniteError):
            minimize_scalar(f, np.full(6, 0.1), np.full(6, 1.0))
        healthy = minimize_scalar(lambda x: (x - 0.63) ** 2, 0.1, 1.0)
        assert healthy[0] == pytest.approx(0.63, abs=1e-8)


def test_batched_ties_step_as_one_row_search():
    # a staircase of steps narrower than the grid's spacing: f(c) == f(d)
    # wherever c and d share a step, and each row must break that tie as
    # its one-row search does, or it keeps the other half of its bracket
    shift = np.random.default_rng(4).uniform(0.5, 4.5, 12)
    lo, hi = np.full(12, 0.01), np.full(12, 5.0)

    def stairs(s):
        return lambda x: np.floor(16384.0 * (x - s) * (x - s)) / 16384.0

    xs, ys = minimize_scalar(stairs(shift[:, None]), lo, hi)
    for i in range(12):
        one = _one_row_search(stairs(shift[i]), lo[i], hi[i], 200, 60, 1e-9)
        assert one == (xs[i], ys[i])


class TestLogGamma:
    def test_gamma_one_and_two(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)

    def test_recurrence(self):
        for x in np.arange(0.5, 21.0, 1.0):
            lhs = math.exp(log_gamma(x + 1.0))
            rhs = x * math.exp(log_gamma(x))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestLog2SumExp:
    def test_matches_direct_sum(self):
        vals = [-3.0, 0.0, 2.5]
        expect = math.log2(sum(2.0**v for v in vals))
        assert log2_sum_exp(vals) == pytest.approx(expect, rel=1e-14)

    def test_handles_huge_exponents(self):
        assert log2_sum_exp([5000.0, 5001.0]) == pytest.approx(
            5001.0 + math.log2(1.5), rel=1e-14
        )

    def test_neg_inf_drops_out(self):
        assert log2_sum_exp([-math.inf, 3.0]) == pytest.approx(3.0)
        assert log2_sum_exp([-math.inf, -math.inf]) == -math.inf
        assert log2_sum_exp([]) == -math.inf

    def test_pos_inf_wins(self):
        assert log2_sum_exp([3.0, math.inf]) == math.inf
        assert log2_sum_exp([-math.inf, math.inf, 5000.0]) == math.inf



_PAIR = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))

#: The callers of ``write_text``, each writing a small fixed table to ``f``.
_WRITERS = {
    "sweep_to_csv": lambda f: sweep_to_csv(sweep(_PAIR, [0.5, 0.9]), f),
    "to_csv": lambda f: index_pmf(_PAIR, 5).to_csv(f),
    "write_line_chart": lambda f: write_line_chart(
        f, "t", "x", "y", [("a", [0.0, 1.0, 2.0], [1.0, None, 3.0])]
    ),
}


class TestWriteText:
    @pytest.mark.parametrize("name", list(_WRITERS))
    def test_path_and_open_file_get_the_same_bytes(self, tmp_path, name):
        write = _WRITERS[name]
        write(str(tmp_path / "str"))
        write(tmp_path / "path")
        with open(tmp_path / "file", "w", newline="") as f:
            write(f)
        data = [(tmp_path / n).read_bytes() for n in ("str", "path", "file")]
        assert data[0] == data[1] == data[2]
        assert data[0].endswith(b"\n") and b"\r" not in data[0]

    def test_a_path_is_replaced(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("old text that is longer\n")
        numerics.write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
