import math

import numpy as np
import pytest

from msdstat import distribution, tables
from msdstat.errors import ConvergenceError, DataError, DomainError
from msdstat.numerics import _XTOL, find_root, integrate, integrate_batch


class TestIntegrate:
    def test_polynomial_exact(self):
        val = integrate(lambda x: x ** 2, 0.0, 1.0)
        assert abs(val - 1.0 / 3.0) < 1e-14

    def test_gaussian_mass(self):
        f = lambda x: np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
        val = 2.0 * integrate(f, 0.0, 8.5)
        assert abs(val - 1.0) < 1e-12

    def test_oscillatory(self):
        assert abs(integrate(np.sin, 0.0, math.pi) - 2.0) < 1e-12

    def test_integrable_singularity_converges(self):
        # endpoint singularity: nodes are interior, adaptive refinement digs in
        val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-7)
        assert abs(val - 2.0) < 1e-6

    def test_singularity_budget_exhaustion(self):
        # without series acceleration the panel budget runs out at tight tol
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)

    def test_empty_and_invalid_ranges(self):
        assert integrate(np.sin, 2.0, 2.0) == 0.0
        with pytest.raises(DomainError):
            integrate(np.sin, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(np.sin, 0.0, math.inf)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_interval_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            integrate(lambda x: np.sin(1.0 / x), 1e-6, 1.0, tol=1e-13)

    def test_overflowing_panel_sum_rejected(self):
        # finite integrand values whose weighted panel sums overflow
        with pytest.raises(DomainError,
                           match="^panel estimate overflowed to a non-finite"):
            integrate(lambda x: np.full_like(x, 1e308), 0.0, 8.0)

    def test_overflowing_total_rejected(self):
        # finite panel estimates whose sum overflows; the loose tolerance
        # stops at the first sweep
        with pytest.raises(DomainError, match="^sum of panel estimates "
                                              "overflowed to a non-finite"):
            integrate(lambda x: np.full_like(x, 1e307), 0.0, 80.0, tol=1e300)


class TestIntegrateBatch:
    def test_vector_components(self):
        def f(t):
            return np.stack([t, t ** 2, np.sin(t)], axis=-1)

        val = integrate_batch(f, 0.0, 1.0)
        want = np.array([0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)])
        assert np.max(np.abs(val - want)) < 1e-12

    def test_matches_scalar_rule(self):
        f = lambda t: np.exp(-t)[:, None]
        val = integrate_batch(f, 0.0, 3.0)
        assert abs(float(val[0]) - (1.0 - math.exp(-3.0))) < 1e-12

    def test_each_abscissa_evaluated_once(self):
        seen = []

        def f(t):
            seen.extend(t.tolist())
            return np.exp(t)

        integrate_batch(f, 0.0, 2.0)
        assert len(set(seen)) == len(seen)
        # nothing is thrown away: the abscissae are exactly the m + 1 nodes
        # cos(pi j / m) of the level the result came from, mapped onto [0, 2]
        m = len(seen) - 1
        want = 1.0 + np.cos(np.pi * np.arange(m + 1) / m)
        assert np.max(np.abs(np.sort(seen) - np.sort(want))) < 1e-14

    def test_integrand_gets_one_positional_array(self):
        calls = []

        def f(*args, **kwargs):
            calls.append((args, kwargs))
            return np.cos(args[0])[:, None] * np.ones(3)

        integrate_batch(f, 0.0, 1.0)
        assert np.array_equal(integrate_batch(f, 1.0, 1.0), np.zeros(3))
        assert len(calls) >= 3
        for args, kwargs in calls:
            assert len(args) == 1 and not kwargs
            assert isinstance(args[0], np.ndarray) and args[0].ndim == 1

    def test_polynomial_degree_16_exact(self):
        seen = []

        def f(t):
            seen.append(t.size)
            return 3.0 * t ** 16 - 2.0 * t ** 9 + t ** 4 - 1.0

        val = integrate_batch(f, -1.0, 1.0)
        assert abs(float(val) - (6.0 / 17.0 + 2.0 / 5.0 - 2.0)) < 1e-13
        # the first level, 17 nodes, is already exact; 16 more confirm it
        assert sum(seen) == 33

    def test_extrapolated_exit_skips_the_confirming_level(self):
        seen = []

        def f(t):
            seen.append(t.size)
            return 1.0 / np.cosh(4.0 * t) ** 2

        val = integrate_batch(f, -1.0, 1.0)
        assert abs(float(val) - math.tanh(4.0) / 2.0) < 1e-14
        # level 64's difference is above tol, but its square over level
        # 32's is not; successive agreement alone would need 129 nodes
        assert sum(seen) == 65

    def test_rounding_floor_blocks_the_extrapolated_exit(self):
        # |est| ~ 2.4e7 puts rounding near 1e-9, so tol 1e-10 is out of
        # reach: without the m * eps * |est| floor, the squared differences
        # would accept a value 3.7e-9 off after 65 nodes
        seen = []

        def f(t):
            seen.append(t.size)
            return np.exp(20.0 * t)[:, None]

        with pytest.raises(ConvergenceError):
            integrate_batch(f, 0.0, 1.0, tol=1e-10)
        assert sum(seen) == 2049

    def test_growing_column_keeps_successive_agreement(self):
        # the second column's difference grows from level 32 to 64 while
        # staying below tol, so the extrapolated exit that the first column
        # takes alone at 65 nodes (above) waits, and the batch stops where
        # successive agreement does, at 129
        seen = []

        def f(t):
            seen.append(t.size)
            return np.stack([1.0 / np.cosh(4.0 * t) ** 2,
                             1e-9 * np.cos(92.0 * t)], axis=-1)

        val = integrate_batch(f, -1.0, 1.0)
        want = np.array([math.tanh(4.0) / 2.0, 2e-9 * math.sin(92.0) / 92.0])
        assert np.max(np.abs(val - want)) < 1e-14
        assert seen == [17, 16, 32, 64]

    def test_node_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            integrate_batch(lambda t: np.sin(1e5 / (t + 1e-4)), 0.0, 1.0, tol=1e-12)

    def test_overflowing_sum_rejected_at_first_level(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.full((t.size, 2), 1e308)

        with pytest.raises(DomainError,
                           match="^level estimate overflowed to a non-finite"):
            integrate_batch(f, 0.0, 8.0)
        assert sizes == [17]


class TestFindRoot:
    def test_simple_root(self):
        r = find_root(lambda x: x ** 2 - 2.0, 0.0, 2.0)
        assert abs(r - math.sqrt(2.0)) < 1e-9

    def test_no_sign_change(self):
        with pytest.raises(ConvergenceError):
            find_root(lambda x: x ** 2 + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f, want", [(lambda x: x, 0.0),
                                         (lambda x: x - 1.0, 1.0)],
                             ids=["zero at lo", "zero at hi"])
    def test_exact_zero_at_an_endpoint(self, f, want):
        from scipy import optimize

        calls = [0, 0]

        def counted(side):
            def g(x):
                calls[side] += 1
                return f(x)
            return g

        root = find_root(counted(0), 0.0, 1.0)
        ref = float(optimize.brentq(counted(1), 0.0, 1.0, xtol=_XTOL))
        assert root.hex() == ref.hex() == want.hex()
        assert calls == [2, 2]


class TestFindRootFailures:
    def test_exhausted_budget_is_a_convergence_error(self):
        # 100 bisections cannot narrow [0, 1e300] to 1e-10
        with pytest.raises(ConvergenceError, match="within 100 iterations"):
            find_root(lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 1e300)

    def test_nan_names_its_abscissa(self):
        def f(x):
            return math.nan if 0.3 < x < 0.7 else x - 0.5

        with pytest.raises(ConvergenceError, match=r"x=0\.5 is NaN"):
            find_root(f, 0.0, 1.0)
        with pytest.raises(ConvergenceError, match=r"x=0\.0 is NaN"):
            find_root(lambda x: math.nan, 0.0, 1.0)

    def test_same_sign_message(self):
        with pytest.raises(ConvergenceError,
                           match=r"^root not bracketed on \[-1, 1\]"):
            find_root(lambda x: x ** 2 + 1.0, -1.0, 1.0)


class TestBrentqIdentity:
    """``find_root`` takes the steps of scipy's ``brentq``, bit for bit."""

    def test_package_searches_match_brentq(self, monkeypatch):
        from scipy import optimize

        searches = []

        def both(f, lo, hi):
            # each side counts its own calls; values are shared, so brentq
            # re-evaluates f only where it strays from find_root's path
            seen = {}
            calls = [0, 0]

            def counted(side):
                def g(x):
                    calls[side] += 1
                    if x not in seen:
                        seen[x] = f(x)
                    return seen[x]
                return g

            root = find_root(counted(0), lo, hi)
            ref = float(optimize.brentq(counted(1), lo, hi, xtol=_XTOL))
            searches.append(((lo, hi), root.hex(), ref.hex(), *calls))
            return root

        monkeypatch.setattr(distribution, "find_root", both)
        monkeypatch.setattr(tables, "find_root", both)
        for n in (5, 8, 13, 101):
            distribution.quantile(0.95, n)
            distribution.quantile(0.95 ** (1.0 / n), n)
        distribution.quantile(0.95, math.inf)
        distribution.cdf_asymptotic(1.0)
        even, odd = tables.default_table("even"), tables.default_table("odd")
        # tabulated and synthesized rows of each parity
        for table, n in ((even, 10), (even, 36), (odd, 13), (odd, 41)):
            tables.interp_quantile(table, n, 0.95)
        assert len(searches) > 20
        assert [s for s in searches if s[1] != s[2] or s[3] != s[4]] == []

    def test_vanishing_interpolation_denominator_bisects(self):
        # a step function scaled to 1e-123: the inverse-quadratic
        # denominator underflows to 0, and the step falls back to bisection
        from scipy import optimize

        def f(x):
            return (1e-123 * math.floor((x - 0.6) * 12) / 4
                    + (1e-126 if x > 0.6 else -1e-126))

        calls = [0, 0]

        def counted(side):
            def g(x):
                calls[side] += 1
                return f(x)
            return g

        root = find_root(counted(0), 0.0, 1.0)
        ref = float(optimize.brentq(counted(1), 0.0, 1.0, xtol=_XTOL))
        assert root.hex() == ref.hex() == "0x1.3333333343cdcp-1"
        assert calls == [52, 52]


class TestMonotoneSpline:
    """The tables' monotone cubic, through ``QuantileTable`` and its lookups.

    Each table is two copies of one row; knots are in t = q/(1+q).
    """

    @staticmethod
    def table(t, y):
        return tables.QuantileTable("even", (4.0, math.inf), np.asarray(t),
                                    np.vstack([y, y]))

    @staticmethod
    def spline(tab):
        y = tab.probs[0]
        m = tables._tangents(tab.knots_t, y)
        return lambda x: tables._cubic(tab.knots_t, y, m, x)

    def test_knot_exactness(self):
        t = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
        y = np.array([0.0, 0.2, 0.2, 0.8, 1.0])
        s = self.spline(self.table(t, y))
        for ti, yi in zip(t, y):
            assert s(ti) == yi

    def test_monotone_between_knots(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0, 1, size=12))
        y = np.cumsum(rng.uniform(0, 1, size=12))
        y[4] = y[3]  # flat stretch must stay flat, not overshoot
        y = np.sort(y) / y.max()
        tab = self.table(t, y)
        s = self.spline(tab)
        xs = np.linspace(t[0], t[-1], 2000)
        vals = np.array([s(x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-13)
        assert vals.min() >= y[0] - 1e-13 and vals.max() <= y[-1] + 1e-13
        # lookups evaluate the same cubic
        qs = xs[:-1] / (1.0 - xs[:-1])
        got = np.array([tables.interp_probability(tab, 4, q) for q in qs])
        assert np.all(np.diff(got) >= -1e-13)

    def test_no_local_overshoot(self):
        t = np.array([0.0, 0.25, 0.5, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        s = self.spline(self.table(t, y))
        xs = np.linspace(0.0, 1.0, 500)
        vals = np.array([s(x) for x in xs])
        assert vals.min() >= -1e-14 and vals.max() <= 1.0 + 1e-14
        # within each panel the value stays inside the bracketing knot values
        for a, b, ya, yb in zip(t[:-1], t[1:], y[:-1], y[1:]):
            inside = (xs >= a) & (xs <= b)
            assert np.all(vals[inside] >= ya - 1e-14)
            assert np.all(vals[inside] <= yb + 1e-14)

    def test_domain_enforced(self):
        # knots on [0.2, 0.8]: q = 0 and q = 9 fall outside the span
        tab = self.table([0.2, 0.8], [0.0, 1.0])
        with pytest.raises(DomainError, match="outside knot span"):
            tables.interp_probability(tab, 4, 0.0)
        with pytest.raises(DomainError, match="outside knot span"):
            tables.interp_probability(tab, math.inf, 9.0)
        s = self.spline(tab)
        with pytest.raises(DomainError):
            s(0.199)
        with pytest.raises(DomainError):
            s(0.801)

    def test_validation(self):
        good_t = np.array([0.0, 0.5, 1.0])
        good_y = np.array([0.0, 0.5, 1.0])
        cases = (
            (np.array([0.0, 0.0, 1.0]), good_y, "strictly increasing"),  # tie
            (np.array([0.0, 0.6, 0.5]), good_y, "strictly increasing"),
            (good_t, np.array([0.0, 0.6, 0.5]), "non-decreasing"),
            (good_t, np.array([0.0, 0.5]), "shape"),  # length mismatch
            (np.array([1.0]), np.array([1.0]), "at least two knots"),
            (good_t, np.array([0.0, np.nan, 1.0]), "finite"),
            (np.array([0.0, np.nan, 1.0]), good_y, "finite"),
        )
        self.table(good_t, good_y)
        for t, y, message in cases:
            with pytest.raises(DataError, match=message):
                self.table(t, y)

    def test_scalar_in_scalar_out(self):
        tab = self.table([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        out = tables.interp_probability(tab, 4, 1 / 3)  # t = 0.25
        assert isinstance(out, float)
        assert abs(out - 0.25) < 1e-14
        assert isinstance(self.spline(tab)(0.25), float)
