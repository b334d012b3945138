"""Seeded Monte Carlo experiments: critical values, power, and guidelines.

Replicates are partitioned into fixed blocks of 4096. Block b of a run
draws from its own counter-based stream: a Philox generator seeded by
numpy's seed sequence with entropy ``seed`` and spawn key ``key + (b,)``.
The key is empty for a single run, bootstrap.bootstrap_msd included, and
is (j,) for grid point or dataset size j. Results therefore depend only
on the arguments, never on scheduling or worker count, and any block can
be recomputed in isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (_check_int, _check_list, _check_n, _check_real,
                           _check_seed, _validate_levels)
from .errors import DataError
from .statistic import (INSPECT, SCREEN, _mean_square, _median_abs, _sliced,
                        pwch_values, qe_values)
from .tables import _critical_value

BLOCK = 4096

# numpy's empirical quantile convention for every Monte Carlo and bootstrap
# quantile; the bootstrap report names it
_QUANTILE_METHOD = "linear"

# power and resistance runs score the subject, lab 0, alone
_STATISTICS = {"msd": _median_abs, "pwch": _mean_square}


def _blocks(seed: int, replicates: int, key: tuple[int, ...] = ()):
    """Check the run arguments, then lazily yield (generator, count) for
    each block of the stream the module docstring describes."""
    replicates = _check_int("replicates", replicates, "a positive integer", 1)
    seed = _check_seed(seed)
    full, rem = divmod(replicates, BLOCK)
    return ((np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=key + (b,)))),
             BLOCK if b < full else rem)
            for b in range(full + (rem > 0)))


@dataclass(frozen=True)
class QuantileEstimate:
    """One empirical quantile with an order-statistic bracket error."""

    p: float
    value: float
    std_error: float


@dataclass(frozen=True)
class PowerCurve:
    """Detection proportions along a displacement / contamination grid."""

    statistic: str
    grid: np.ndarray
    proportion: np.ndarray
    std_error: np.ndarray
    critical: float
    n: int
    replicates: int
    seed: int


@dataclass(frozen=True)
class HeteroStudy:
    """Rule-of-thumb exceedance rates under chi-squared(3) variances."""

    sizes: tuple[int, ...]
    value_rate: np.ndarray      # share of statistics above INSPECT
    value_se: np.ndarray
    dataset_rate: np.ndarray    # share of datasets with any above SCREEN
    dataset_se: np.ndarray
    replicates: int
    seed: int


def _bracket_se(sorted_vals: np.ndarray, p: float) -> float:
    # one-sigma order-statistic bracket around the p-th sample quantile
    r = sorted_vals.size
    half = math.sqrt(p * (1.0 - p) / r)
    lo = int(np.clip(round(r * (p - half)), 0, r - 1))
    hi = int(np.clip(round(r * (p + half)), 0, r - 1))
    return 0.5 * float(sorted_vals[hi] - sorted_vals[lo])


def _pool(kernel, u: np.ndarray, blocks) -> np.ndarray:
    """``kernel(x, u)`` pooled over the blocks, each x_i ~ Normal(0, u_i):
    the one replicate loop of the null studies and the bootstrap."""
    return np.concatenate([kernel(rng.standard_normal((c, u.size)) * u, u)
                           for rng, c in blocks])


def _rate(hits, trials):
    """A binomial rate and its standard error."""
    rate = hits / trials
    return rate, np.sqrt(rate * (1 - rate) / trials)


def _null_pool(kernel, n: int, ps, replicates: int, seed: int):
    """Checked levels, and ``kernel``'s values pooled over every replicate
    of an all-null study of size n."""
    n = _check_n(n)
    blocks = _blocks(seed, replicates)
    _check_int("replicates", replicates, "an integer >= 1000", 1000)
    return _validate_levels(ps), _pool(kernel, np.ones(n), blocks)


def simulate_multi_quantiles(n: int, ps, replicates: int,
                             seed: int) -> tuple[QuantileEstimate, ...]:
    """Empirical quantiles of the per-dataset maximum statistic under IID data.

    One row of the multiple-observation critical value table: a proportion
    p of null datasets contain no statistic above the returned values.
    """
    ps, maxima = _null_pool(lambda z, u: qe_values(z, u).max(axis=1),
                            n, ps, replicates, seed)
    maxima.sort()
    out = []
    for p in ps:
        val = float(np.quantile(maxima, p, method=_QUANTILE_METHOD))
        out.append(QuantileEstimate(p, val, _bracket_se(maxima, p)))
    return tuple(out)


def _grid_exceedance(statistic: str, n: int, grid, replicates: int, seed: int,
                     critical: float | None,
                     contaminated_index: int) -> PowerCurve:
    if statistic not in _STATISTICS:
        raise DataError(
            f"statistic must be one of {sorted(_STATISTICS)}, got {statistic!r}")
    kernel = _STATISTICS[statistic]
    n = _check_n(n)
    if critical is not None:
        critical = _check_real("critical value", critical, "be positive",
                               lambda c: math.isfinite(c) and c > 0)
    grid = np.array(_check_list(
        grid, "grid must be a non-empty list of numbers",
        lambda d: _check_real("grid value", d, "be finite", math.isfinite)))
    streams = [_blocks(seed, replicates, (j,)) for j in range(grid.size)]
    # every argument is checked; only now may the default threshold cost time
    if critical is None:
        critical = (_critical_value(n, 0.95, "single") if statistic == "msd"
                    else calibrate_pwch_quantile(n, 0.95, 200_000, seed))
    u = np.ones(n)
    counts = np.zeros(grid.size, dtype=np.int64)
    for j, (delta, blocks) in enumerate(zip(grid, streams)):
        for rng, c in blocks:
            z = rng.standard_normal((c, n))
            z[:, contaminated_index] += delta
            subject = _sliced(kernel, z, u, rows=(0,))[:, 0]
            counts[j] += int((subject > critical).sum())
    # _blocks has checked replicates and seed; numpy integers are stored as int
    return PowerCurve(statistic, grid, *_rate(counts, replicates),
                      float(critical), n, int(replicates), int(seed))


def simulate_power(statistic: str, n: int, grid, replicates: int, seed: int,
                   critical: float | None = None) -> PowerCurve:
    """Detection rate for a subject point displaced along the grid.

    All other points are standard normal; the subject's statistic is
    compared against ``critical``. None means its 95% null quantile: the
    exact single-observation one for msd, and for pwch
    ``calibrate_pwch_quantile(n, 0.95, 200_000, seed)``.
    """
    return _grid_exceedance(statistic, n, grid, replicates, seed, critical,
                            contaminated_index=0)


def simulate_resistance(statistic: str, n: int, grid, replicates: int,
                        seed: int, critical: float | None = None) -> PowerCurve:
    """False-positive rate for a null subject while another point wanders.

    The subject stays at its null location; a second point is moved along
    the grid. A resistant statistic keeps the subject's exceedance rate
    near its nominal level no matter where the contaminant sits.
    ``critical`` defaults as in ``simulate_power``.
    """
    return _grid_exceedance(statistic, n, grid, replicates, seed, critical,
                            contaminated_index=1)


def simulate_hetero_guideline(sizes, replicates: int, seed: int) -> HeteroStudy:
    """Exceedance rates when each observation's variance is chi-squared(3).

    For each dataset size, draws datasets with per-observation standard
    deviations sqrt(V), V a sum of three squared standard normals, and
    evaluates the rules of thumb of ``statistic``: how often an individual
    statistic exceeds INSPECT, and how often a dataset contains any value
    above SCREEN.
    """
    sizes = _check_list(
        sizes, "sizes must be a non-empty list of integers",
        lambda n: _check_int("size", n, "an integer in 5..25", 5, 26))
    value_hits = np.zeros(len(sizes), dtype=np.int64)
    dataset_hits = np.zeros(len(sizes), dtype=np.int64)
    for j, n in enumerate(sizes):
        for rng, c in _blocks(seed, replicates, (j,)):
            z3 = rng.standard_normal((c, n, 3))
            u = np.sqrt((z3 * z3).sum(axis=-1))
            qe = qe_values(u * rng.standard_normal((c, n)), u)
            value_hits[j] += int((qe > INSPECT).sum())
            dataset_hits[j] += int((qe > SCREEN).any(axis=1).sum())
    return HeteroStudy(sizes, *_rate(value_hits, replicates * np.array(sizes)),
                       *_rate(dataset_hits, replicates),
                       int(replicates), int(seed))


def calibrate_pwch_quantile(n: int, p: float, replicates: int,
                            seed: int) -> float:
    """Self-calibrated critical value for the mean-of-squares comparator.

    Pools every observation's comparator value across replicates of an
    all-null study and returns the empirical p-quantile of the pool.
    """
    (p,), pool = _null_pool(lambda z, u: pwch_values(z, u).ravel(),
                            n, (p,), replicates, seed)
    return float(np.quantile(pool, p, method=_QUANTILE_METHOD))
