"""Invariant checks shared between the unit suites and the timed gate.

Each check is a plain function that raises AssertionError on violation,
so the module stays importable without pytest. The timed acceptance gate
runs every entry in ALL_CHECKS and budgets the wall clock.
"""
import math

import numpy as np
from scipy import special

from msdstat.statistic import qe_values
from msdstat import cdf, quantile
from msdstat.distribution import _conditional_cdf


def pair_matrix(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reference full signed matrix of scaled differences, zero diagonal.

    Accepts leading batch axes on ``x``; ``u`` broadcasts against it.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dx = x[..., :, None] - x[..., None, :]
    s = np.sqrt(u[..., :, None] ** 2 + u[..., None, :] ** 2)
    return dx / s


# ---------------------------------------------------------------- statistic

def check_location_scale_equivariance():
    rng = np.random.default_rng(1234)
    for n in (5, 8, 13):
        x = rng.normal(size=n)
        u = rng.uniform(0.5, 2.0, size=n)
        base = qe_values(x, u)
        for a, b in ((3.7, 1.0), (0.0, 250.0), (-1.9, 0.004)):
            moved = qe_values(a + b * x, b * u)
            assert np.max(np.abs(moved - base)) <= 1e-12 * np.max(base)


def check_antisymmetry():
    rng = np.random.default_rng(99)
    x = rng.normal(size=11)
    u = rng.uniform(0.2, 3.0, size=11)
    d = pair_matrix(x, u)
    assert np.array_equal(d, -d.T)


def check_permutation_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=12)
    u = rng.uniform(0.5, 1.5, size=12)
    base = qe_values(x, u)
    for _ in range(5):
        perm = rng.permutation(12)
        assert np.array_equal(qe_values(x[perm], u[perm]), base[perm])


def check_breakdown_resistance():
    # Up to floor((N-2)/2) wild values leave every clean statistic bounded;
    # ceil(N/2) wild values drive the clean subjects past any bound.
    rng = np.random.default_rng(42)
    for n in (6, 7, 11, 20):
        x = rng.normal(size=n)
        u = np.ones(n)
        k_safe = (n - 2) // 2
        spoiled = x.copy()
        spoiled[:k_safe] = 1e9 * (1.0 + np.arange(k_safe))
        qe = qe_values(spoiled, u)
        assert np.all(qe[k_safe:] < 1e3), f"n={n}: clean subjects not bounded"

        k_break = -(-n // 2)
        spoiled = x.copy()
        spoiled[:k_break] = 1e9 * (1.0 + np.arange(k_break))
        qe = qe_values(spoiled, u)
        assert np.all(qe[k_break:] > 1e6), f"n={n}: breakdown not reached"


# ------------------------------------------------------------- distribution

def check_cdf_monotone_bounds():
    for n in (4, 9):
        grid = np.linspace(0.05, 4.0, 60)
        vals = np.array([cdf(q, n) for q in grid])
        assert np.all(np.diff(vals) > 0), f"n={n}: CDF not strictly increasing"
        assert np.all((vals >= 0) & (vals <= 1))
        assert cdf(0.0, n) == 0.0


def check_beta_binomial_equivalence():
    # P(at least r of n-1 below q | x0): incomplete-beta form vs explicit
    # binomial tail sum.
    rng = np.random.default_rng(5)
    for n in (4, 10, 24):
        r = n // 2
        m = n - 1
        ks = np.arange(r, m + 1)
        binom = special.comb(m, ks)
        for _ in range(8):
            q = rng.uniform(0.05, 3.0)
            x0 = rng.uniform(-3.0, 3.0)
            f = float(_conditional_cdf(q, x0))
            beta_form = special.betainc(r, n - r, f)
            tail = float(np.sum(binom * f ** ks * (1.0 - f) ** (m - ks)))
            assert abs(beta_form - tail) <= 1e-10


def check_quantile_roundtrip(sizes=(4, 7, 10, 13, 20, 29, 30),
                             ps=(0.5, 0.75, 0.9, 0.95, 0.99)):
    for n in sizes:
        for p in ps:
            q = quantile(p, n)
            assert abs(cdf(q, n) - p) <= 1e-6, f"round-trip failed at n={n}, p={p}"


def check_asymptotic_consistency():
    for p in (0.5, 0.95, 0.99):
        assert abs(quantile(p, 10 ** 6) - quantile(p, math.inf)) < 0.002


# ------------------------------------------------------------------ tables

def check_table_spline_monotone():
    from msdstat.tables import default_table, interp_probability

    for parity, n in (("even", 10), ("odd", 33), ("even", math.inf)):
        tab = default_table(parity)
        qs = np.linspace(0.0, 3.95, 500)
        vals = np.array([interp_probability(tab, n, q) for q in qs])
        assert np.all(np.diff(vals) >= -1e-13), f"spline not monotone at n={n}"


def check_table_validation_points():
    # the published tables' own accuracy criterion, at off-knot points
    from msdstat.tables import default_table, interp_probability

    rng = np.random.default_rng(2024)
    tables = {"even": default_table("even"), "odd": default_table("odd")}
    sizes = [6, 10, 16, 33, 44, 57, 63, 102, 121, 735]
    for _ in range(2):
        for n in sizes:
            q = float(rng.uniform(0.3, 3.0))
            tab = tables["even" if n % 2 == 0 else "odd"]
            direct = cdf(q, n)
            got = interp_probability(tab, n, q)
            assert abs(got - direct) < 5e-4, (n, q, got, direct)


def check_mc_determinism():
    # equal configs must agree bit for bit, and results must not depend on
    # the order the replicate blocks are evaluated in
    from msdstat.simulation import (_blocks, simulate_multi_quantiles,
                                    simulate_power)

    first = simulate_multi_quantiles(5, (0.9, 0.95), 1500, seed=11)
    again = simulate_multi_quantiles(5, (0.9, 0.95), 1500, seed=11)
    assert first == again
    blocks = list(enumerate(_blocks(11, 6000)))
    shuffled = {b: qe_values(rng.standard_normal((c, 5)), np.ones(5)).max(axis=1)
                for b, (rng, c) in reversed(blocks)}
    maxima = np.sort(np.concatenate([shuffled[b] for b, _ in blocks]))
    direct = simulate_multi_quantiles(5, (0.9,), 6000, seed=11)[0]
    assert float(np.quantile(maxima, 0.9, method="linear")) == direct.value

    pow1 = simulate_power("msd", 5, (0.0, 3.0), 400, seed=7, critical=1.6)
    pow2 = simulate_power("msd", 5, (0.0, 3.0), 400, seed=7, critical=1.6)
    assert np.array_equal(pow1.proportion, pow2.proportion)


def check_bootstrap_determinism():
    # the report is a pure function of (dataset, config), and the per-block
    # streams make it independent of evaluation order
    from msdstat.bootstrap import BootstrapConfig, bootstrap_msd
    from msdstat.statistic import Dataset

    ds = Dataset.from_arrays(
        ["a", "b", "c", "d", "e"],
        [0.1, -0.4, 0.0, 1.2, 0.3],
        [1.0, 0.5, 2.0, 1.5, 0.8])
    cfg = BootstrapConfig(replicates=4200, seed=17)
    assert bootstrap_msd(ds, cfg) == bootstrap_msd(ds, cfg)
    assert bootstrap_msd(ds, cfg) != bootstrap_msd(
        ds, BootstrapConfig(replicates=4200, seed=18))


# Extended while later modules land; the timed gate runs everything here.
ALL_CHECKS = [
    check_location_scale_equivariance,
    check_antisymmetry,
    check_permutation_invariance,
    check_breakdown_resistance,
    check_cdf_monotone_bounds,
    check_beta_binomial_equivalence,
    check_quantile_roundtrip,
    check_asymptotic_consistency,
    check_table_spline_monotone,
    check_table_validation_points,
    check_mc_determinism,
    check_bootstrap_determinism,
]
