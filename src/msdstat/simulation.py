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

from .distribution import _check_int, _check_n, _validate_levels
from .errors import DataError
from .statistic import _mean_square, _median_abs, _sliced, pwch_values, qe_values

__all__ = [
    "BLOCK",
    "PowerCurve",
    "QuantileEstimate",
    "HeteroStudy",
    "simulate_multi_quantiles",
    "simulate_power",
    "simulate_resistance",
    "simulate_hetero_guideline",
    "calibrate_pwch_quantile",
]

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
    seed = _check_int("seed", seed, "a 64-bit integer", 0, 2 ** 64)
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
    value_rate: np.ndarray      # share of individual statistics above 2.0
    value_se: np.ndarray
    dataset_rate: np.ndarray    # share of datasets with any statistic above 2.5
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


def _null_pool(kernel, n: int, ps, replicates: int, seed: int):
    """Checked levels, and ``kernel``'s values pooled over every replicate
    of an all-null study of size n."""
    n = _check_n(n)
    blocks = _blocks(seed, replicates)
    if replicates < 1000:
        raise DataError(
            f"replicates={replicates} is too few for quantile estimation; "
            "need at least 1000")
    ps = _validate_levels(ps)
    u = np.ones(n)
    return ps, np.concatenate([kernel(rng.standard_normal((c, n)), u)
                               for rng, c in blocks])


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
                     critical: float, contaminated_index: int) -> PowerCurve:
    if statistic not in _STATISTICS:
        raise DataError(
            f"statistic must be one of {sorted(_STATISTICS)}, got {statistic!r}")
    kernel = _STATISTICS[statistic]
    n = _check_n(n)
    if not (math.isfinite(critical) and critical > 0):
        raise DataError(f"critical value must be positive, got {critical}")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise DataError("displacement grid must be non-empty and finite")
    u = np.ones(n)
    counts = np.zeros(grid.size, dtype=np.int64)
    for j, delta in enumerate(grid):
        for rng, c in _blocks(seed, replicates, (j,)):
            z = rng.standard_normal((c, n))
            z[:, contaminated_index] += delta
            subject = _sliced(kernel, z, u, rows=(0,))[:, 0]
            counts[j] += int((subject > critical).sum())
    prop = counts / replicates
    se = np.sqrt(prop * (1.0 - prop) / replicates)
    # _blocks has checked replicates and seed; numpy integers are stored as int
    return PowerCurve(statistic, grid, prop, se, float(critical),
                      n, int(replicates), int(seed))


def simulate_power(statistic: str, n: int, grid, replicates: int, seed: int,
                   critical: float) -> PowerCurve:
    """Detection rate for a subject point displaced along the grid.

    All other points are standard normal; the subject's statistic is
    compared against the supplied critical value.
    """
    return _grid_exceedance(statistic, n, grid, replicates, seed, critical,
                            contaminated_index=0)


def simulate_resistance(statistic: str, n: int, grid, replicates: int,
                        seed: int, critical: float) -> PowerCurve:
    """False-positive rate for a null subject while another point wanders.

    The subject stays at its null location; a second point is moved along
    the grid. A resistant statistic keeps the subject's exceedance rate
    near its nominal level no matter where the contaminant sits.
    """
    return _grid_exceedance(statistic, n, grid, replicates, seed, critical,
                            contaminated_index=1)


def simulate_hetero_guideline(sizes, replicates: int, seed: int) -> HeteroStudy:
    """Exceedance rates when each observation's variance is chi-squared(3).

    For each dataset size, draws datasets with per-observation standard
    deviations sqrt(V), V a sum of three squared standard normals, and
    evaluates the screening thresholds: how often an individual statistic
    exceeds 2.0, and how often a dataset contains any value above 2.5.
    """
    sizes = tuple(_check_int("size", n, "an integer in 5..25", 5, 26)
                  for n in sizes)
    if not sizes:
        raise DataError("need at least one dataset size")
    value_hits = np.zeros(len(sizes), dtype=np.int64)
    dataset_hits = np.zeros(len(sizes), dtype=np.int64)
    for j, n in enumerate(sizes):
        for rng, c in _blocks(seed, replicates, (j,)):
            z3 = rng.standard_normal((c, n, 3))
            v = (z3 * z3).sum(axis=-1)
            u = np.sqrt(v)
            z = rng.standard_normal((c, n))
            x = u * z
            qe = qe_values(x, u)
            value_hits[j] += int((qe > 2.0).sum())
            dataset_hits[j] += int((qe > 2.5).any(axis=1).sum())
    value_count = replicates * np.array(sizes)
    value_rate = value_hits / value_count
    dataset_rate = dataset_hits / replicates
    return HeteroStudy(sizes, value_rate,
                       np.sqrt(value_rate * (1 - value_rate) / value_count),
                       dataset_rate,
                       np.sqrt(dataset_rate * (1 - dataset_rate) / replicates),
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
