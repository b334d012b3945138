import math

import numpy as np
import pytest
from scipy import special

from msdstat import (
    DataError,
    DomainError,
    PValue,
    cdf,
    cdf_asymptotic,
    cdf_even,
    cdf_odd,
    holm_adjust,
    multi_quantile_adjusted,
    quantile,
)
from msdstat.distribution import _ASYMPTOTIC_LOWER_BOUND, _conditional_cdf
from msdstat.simulation import (
    calibrate_pwch_quantile,
    simulate_multi_quantiles,
    simulate_power,
    simulate_resistance,
)
from msdstat.tables import default_table, interp_probability, interp_quantile

import property_checks as props

# Frozen against an independent quadrature implementation of the same
# integrals (different quadrature engine, tolerances 1e-10).
FROZEN_EVEN = [
    (1.497, 10, 0.9500066152186827),
    (0.647, 10, 0.5005743387367806),
    (2.803, 4, 0.998997945688798),
]
FROZEN_ODD = [
    (1.465, 13, 0.9499487983431334),
    (0.714, 3, 0.49982840964469905),
    (2.850, 3, 0.999001301652042),
    (1.498, 9, 0.9499461606141045),
]
FROZEN_ASYMPTOTIC = [
    (0.593, 0.50015325095455739),
    (0.831, 0.74988549182952709),
    (1.164, 0.90000823437804082),
    (1.386, 0.95000293085913204),
    (1.821, 0.98998417765501535),
    (2.327, 0.99900123702632131),
]


class TestConditionalKernel:
    def test_zero_difference(self):
        for x0 in (-3.0, 0.0, 0.7, 5.0):
            assert _conditional_cdf(0.0, x0) == 0.0

    def test_half_normal_median_at_center(self):
        got = _conditional_cdf(0.674 / math.sqrt(2.0), 0.0)
        assert abs(got - 0.5) < 6e-4

    def test_direct_normal_reference(self):
        want = special.ndtr(1 + math.sqrt(2)) - special.ndtr(1 - math.sqrt(2))
        assert abs(_conditional_cdf(1.0, 1.0) - want) < 1e-14

    def test_limits_and_monotonicity(self):
        d = np.linspace(0.0, 12.0, 400)
        for x0 in (0.0, 1.5, -2.5):
            f = _conditional_cdf(d, x0)
            assert np.all(np.diff(f) >= 0)
            assert f[-1] > 1 - 1e-12

    def test_symmetry_in_x0(self):
        d = np.linspace(0.1, 3.0, 7)
        assert np.array_equal(_conditional_cdf(d, 1.3),
                              _conditional_cdf(d, -1.3))


class TestCdfEven:
    def test_frozen_reference_values(self):
        for q, n, want in FROZEN_EVEN:
            assert abs(cdf_even(q, n) - want) < 5e-10

    def test_published_quantile_rows(self):
        assert abs(cdf_even(1.497, 10) - 0.950) < 2e-3
        assert abs(cdf_even(2.803, 4) - 0.999) < 5e-4

    def test_edges_and_errors(self):
        assert cdf_even(0.0, 10) == 0.0
        with pytest.raises(DomainError):
            cdf_even(1.0, 9)
        with pytest.raises(DomainError):
            cdf_even(-0.5, 10)


class TestCdfOdd:
    def test_frozen_reference_values(self):
        for q, n, want in FROZEN_ODD:
            assert abs(cdf_odd(q, n) - want) < 5e-10

    def test_published_quantile_rows(self):
        assert abs(cdf_odd(1.465, 13) - 0.950) < 2e-3
        assert abs(cdf_odd(2.850, 3) - 0.999) < 1e-3

    def test_edges_and_errors(self):
        assert cdf_odd(0.0, 9) == 0.0
        with pytest.raises(DomainError):
            cdf_odd(1.0, 8)


class TestCdfAsymptotic:
    def test_zero_below_support(self):
        assert cdf_asymptotic(0.40) == 0.0
        assert cdf_asymptotic(_ASYMPTOTIC_LOWER_BOUND) == 0.0
        assert cdf_asymptotic(_ASYMPTOTIC_LOWER_BOUND + 1e-4) > 0.0

    def test_frozen_reference_values(self):
        for q, want in FROZEN_ASYMPTOTIC:
            assert abs(cdf_asymptotic(q) - want) < 1e-9

    def test_published_row(self):
        assert abs(cdf_asymptotic(1.386) - 0.95) < 1e-3
        assert abs(cdf_asymptotic(0.593) - 0.50) < 1e-3


class TestDispatch:
    def test_identity_routes(self):
        assert cdf(1.3, 10) == cdf_even(1.3, 10)
        assert cdf(1.3, 9) == cdf_odd(1.3, 9)
        assert cdf(1.3, math.inf) == cdf_asymptotic(1.3)

    def test_large_odd_uses_next_even(self):
        q = 1.17
        assert cdf(q, 101) == cdf_even(q, 102)

    def test_substitution_error_is_small(self):
        # the bound ``cdf`` states for odd n above 99; the gap peaks at
        # 9.5e-5 near q = 0.5, just right of the limiting support bound
        for q in np.linspace(0.45, 2.5, 42):
            gap = abs(cdf_odd(q, 101) - cdf_even(q, 102))
            assert gap < 1e-4, q

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            cdf(1.0, 2)

    def test_one_rule_for_n(self):
        even = default_table("even")
        routes = {"cdf": lambda n: cdf(1.3, n),
                  "quantile": lambda n: quantile(0.95, n),
                  "multi_quantile_adjusted":
                      lambda n: multi_quantile_adjusted(n, 0.95),
                  "interp_quantile": lambda n: interp_quantile(even, n, 0.95),
                  "interp_probability":
                      lambda n: interp_probability(even, n, 1.3),
                  "simulate_multi_quantiles":
                      lambda n: simulate_multi_quantiles(
                          n, (0.95,), 1000, 0)[0].value,
                  "calibrate_pwch_quantile":
                      lambda n: calibrate_pwch_quantile(n, 0.95, 1000, 0),
                  "simulate_power": lambda n: simulate_power(
                      "msd", n, (0.0,), 100, 0, 1.5).proportion[0],
                  "simulate_resistance": lambda n: simulate_resistance(
                      "msd", n, (0.0,), 100, 0, 1.5).proportion[0]}
        for name, route in routes.items():
            assert math.isfinite(route(np.int64(10))), name
            for bad in (10.0, True, 2, 0, -4, 2.5, "ten"):
                # the error names n as the caller passed it
                with pytest.raises(DomainError, match=f"got {bad!r}$"):
                    route(bad)
        assert cdf(1.3, math.inf) > 0.0
        assert quantile(0.95, math.inf) > 0.0
        assert interp_quantile(even, math.inf, 0.95) > 0.0
        assert interp_probability(even, math.inf, 1.3) > 0.0
        with pytest.raises(DomainError):
            multi_quantile_adjusted(math.inf, 0.95)

    @pytest.mark.parametrize("call, error", [
        (lambda: quantile("0.95", 5), DomainError),
        (lambda: quantile(True, 5), DomainError),
        (lambda: quantile(10 ** 400, 5), DomainError),
        (lambda: cdf("1.0", 6), DomainError),
        (lambda: cdf_asymptotic(None), DomainError),
        (lambda: interp_quantile(default_table("even"), 10, "0.95"),
         DomainError),
        (lambda: interp_probability(default_table("odd"), 9, "1.0"),
         DomainError),
        (lambda: simulate_multi_quantiles(5, ["0.95"], 1000, 0), DataError),
        (lambda: simulate_power("msd", 10, (True,), 100, 0, 2.0), DataError),
        (lambda: simulate_power("msd", 10, (10 ** 400,), 100, 0, 2.0),
         DataError),
        (lambda: simulate_power("msd", 10, (0.0,), 100, 0, critical="2"),
         DataError),
        (lambda: holm_adjust(["0.5", 0.2]), DataError),
        (lambda: PValue("0.5"), DataError),
        (lambda: PValue(True), DataError),
    ], ids=["quantile p text", "quantile p bool", "quantile p huge int",
            "cdf q text", "asymptotic q None", "table p text", "table q text",
            "level text", "grid bool", "grid huge int", "critical text",
            "p-value list text", "PValue text", "PValue bool"])
    def test_one_rule_for_real_numbers(self, call, error):
        # a real number is a numbers.Real, not a bool; p and q raise
        # DomainError, a level list, grid, critical value or p-value
        # DataError
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("call, want", [
        (lambda: cdf(np.float32(1.5), 6), cdf(1.5, 6)),
        (lambda: quantile(np.float64(0.95), np.int64(5)), quantile(0.95, 5)),
        (lambda: PValue(1).value, 1.0),
        (lambda: holm_adjust(np.array([0.5, 0.25])), (0.5, 0.5)),
        (lambda: simulate_multi_quantiles(5, (p for p in [0.5]), 1000, 0),
         simulate_multi_quantiles(5, [0.5], 1000, 0)),
    ], ids=["float32 q", "numpy p and n", "int p-value", "array p-values",
            "generator levels"])
    def test_real_numbers_of_any_type_are_floats(self, call, want):
        got = call()
        assert got == want and type(got) is type(want)


class TestQuantile:
    def test_published_values(self):
        assert abs(quantile(0.95, 10) - 1.497) < 2e-3
        assert abs(quantile(0.99, 13) - 1.925) < 2e-3
        assert abs(quantile(0.95, math.inf) - 1.386) < 1e-3

    def test_probability_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                quantile(bad, 10)

    def test_size_domain(self):
        with pytest.raises(DomainError):
            quantile(0.95, 2)

    def test_no_repeated_cdf_evaluations(self, monkeypatch):
        from msdstat import distribution

        seen = []
        exact = distribution.cdf

        def recorder(q, n, **kwargs):
            seen.append(q)
            return exact(q, n, **kwargs)

        monkeypatch.setattr(distribution, "cdf", recorder)
        for n in (10, 13):
            seen.clear()
            distribution.quantile(0.95, n)
            assert len(seen) == len(set(seen)), (n, sorted(seen))

    def test_roundtrip_full_range(self):
        props.check_quantile_roundtrip(sizes=range(4, 31),
                                       ps=(0.5, 0.75, 0.9, 0.95, 0.99))


class TestInvariants:
    def test_monotone_and_bounded(self):
        props.check_cdf_monotone_bounds()

    def test_beta_binomial_equivalence(self):
        props.check_beta_binomial_equivalence()

    def test_asymptotic_consistency(self):
        props.check_asymptotic_consistency()

    def test_parity_convergence(self):
        for p in (0.5, 0.95):
            gaps = [abs(quantile(p, n) - quantile(p, n + 1))
                    for n in (9, 19, 29)]
            assert gaps[-1] < 0.002
            assert gaps[0] > gaps[-1]
