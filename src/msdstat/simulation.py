"""Seeded Monte Carlo experiments: critical values, power, and guidelines.

Replicates are partitioned into fixed blocks of 4096. Block b of a run
draws from its own counter-based stream: a Philox generator seeded by
numpy's seed sequence with entropy ``seed`` and spawn key ``key + (b,)``.
The key is empty for a single run, bootstrap.bootstrap_msd included, and
is (j,) for grid point or dataset size j. Results therefore depend only
on the arguments, never on scheduling or worker count, and any block can
be recomputed in isolation.

A pool of replicates is never held whole. Each block is drawn, scaled and
scored in chunks of rows within the statistic kernel's budget, and the
chunks' scores are reduced as they stream past: counts as running sums,
quantiles from the few values near each one's order statistics. When
those values miss an order statistic, which is rare, the run's streams
are replayed once more to find it, so every quantile is the one
``np.quantile`` gives on the whole pool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (_check_int, _check_list, _check_n, _check_real,
                           _check_seed, _validate_levels)
from .errors import DataError
from .statistic import (BUDGET, INSPECT, SCREEN, _mean_square, _median_abs,
                        _sliced, pwch_values, qe_values)
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


def _pool(kernel, u: np.ndarray, blocks):
    """Lazily yield ``kernel(x, u)`` for each chunk of the blocks' rows,
    each x_i ~ Normal(0, u_i): the one replicate loop of the null studies
    and the bootstrap. A chunk holds at most BUDGET draws (one row when n
    alone is larger), and a generator draws a block's rows chunk by chunk
    exactly as in one call."""
    rows = max(1, BUDGET // u.size)
    for rng, c in blocks:
        for done in range(0, c, rows):
            x = rng.standard_normal((min(rows, c - done), u.size))
            # rebinding x frees the draws before the scores are handed on
            x = kernel(np.multiply(x, u, out=x), u)
            yield x


# A bracket narrows to _Z standard deviations of its order statistics'
# ranks, plus _Z**2 values a row for the skew of a tail. An order statistic
# outside it at the end costs one more pass, never a different value.
_Z = 5.0


class _Quantiles:
    """``np.quantile(values, ps, axis=0, method="linear")`` for m columns
    whose values arrive in chunks, bit for bit, from a kept set that grows
    as sqrt(rows).

    Each column holds ``rows * width`` values, ``width`` to a row, and the
    rows are exchangeable. The first chunk is sorted whole once. From then
    on each level keeps, per column, the values inside a bracket [lo, hi]
    and a count of those below it. The bracket narrows, each time its kept
    values double, around the ranks its two order statistics may have
    among the values seen so far: a hypergeometric count of rows, times
    ``width`` since one row's values may move together. ``result`` replays
    the stream for each target whose bracket missed, from a bracket known
    to hold it and with a wider margin. A column holding a NaN gives NaN.
    """

    def __init__(self, ps, rows: int, m: int, width: int, z: float,
                 lo=-np.inf, hi=np.inf):
        self.ps = np.asarray(ps, dtype=float)
        count = rows * width
        # numpy's virtual index, neighbours and weight for "linear"
        v = (count - 1) * self.ps
        top = v >= count - 1
        self.prev = np.where(top, count - 1, np.floor(v)).astype(np.intp)
        self.next = np.where(top, count - 1, self.prev + 1)
        self.gamma = v - np.where(top, -1, self.prev)
        shape = (self.ps.size, m)
        self.rows, self.width, self.z, self.seen = rows, width, z, 0
        self.lo = np.array(np.broadcast_to(lo, shape), dtype=float)
        self.hi = np.array(np.broadcast_to(hi, shape), dtype=float)
        self.wanted = self.lo <= self.hi
        self.below = np.zeros(shape, dtype=np.int64)
        self.fill = np.zeros(shape, dtype=np.intp)
        self.kept = None  # per level once the first chunk is in
        self.narrowed = np.zeros(self.ps.size, dtype=np.intp)
        self.nan = np.zeros(m)
        self.has_nan = np.zeros(m, dtype=bool)
        self.sorted = False

    def add(self, values: np.ndarray) -> None:
        """Take the next ``len(values) // width`` rows, shape (rows * width, m)."""
        self.seen += len(values) // self.width
        nan = np.isnan(values)
        if nan.any():
            cols = np.flatnonzero(nan.any(axis=0) & ~self.has_nan)
            self.nan[cols] = values[nan.argmax(axis=0)[cols], cols]
            self.has_nan[cols] = True
        if self.kept is None:
            self._start(values)
            return
        for l, kept in enumerate(self.kept):
            lo, hi, fill = self.lo[l], self.hi[l], self.fill[l]
            self.below[l] += np.count_nonzero(values < lo, axis=0)
            inside = (values >= lo) & (values <= hi)
            got = np.count_nonzero(inside, axis=0)
            new = fill + got
            if new.max() > kept.shape[1]:
                grown = np.full((kept.shape[0], max(new.max(),
                                                    kept.shape[1] * 3 // 2)),
                                np.nan)  # a NaN pads a row and sorts last
                grown[:, :kept.shape[1]] = kept
                self.kept[l] = kept = grown
            # each column's new values, in column order, after its kept ones
            starts = np.repeat(fill - (np.cumsum(got) - got), got)
            kept[np.repeat(np.arange(kept.shape[0]), got),
                 np.arange(starts.size) + starts] = values.T[inside.T]
            self.fill[l] = new
            self.sorted = False
            if new.max() > 2 * self.narrowed[l]:
                kept.sort(axis=1)
                self._narrow(l, kept)

    def _start(self, values: np.ndarray) -> None:
        """Sort the first chunk once, and narrow every level from it
        unless it is the whole stream."""
        whole = np.sort(values.T, axis=1)
        self.fill[:] = np.count_nonzero(whole == whole, axis=1)  # not NaN
        self.kept = [whole] * self.ps.size
        if self.seen < self.rows:
            for l in range(self.ps.size):
                self._narrow(l, whole)
        self.sorted = True

    def _narrow(self, l: int, kept: np.ndarray) -> None:
        """Narrow level l's brackets around its targets, given its sorted
        kept values (NaN-padded) with ``below[l]`` values under them."""
        fill, below = self.fill[l], self.below[l]
        rows, t, w = self.rows, self.seen, self.width
        share = min(max((self.next[l] + 1) / (rows * w), 1 / rows),
                    1 - 1 / rows)
        sd = w * math.sqrt(share * (1 - share) * t * (rows - t)
                           / max(rows - 1, 1))
        margin = self.z * sd + self.z ** 2 * w
        # kept positions of the seen ranks that bound both order statistics
        a = math.floor((self.prev[l] + 1) * t / rows - margin) - 1 - below
        b = math.ceil((self.next[l] + 1) * t / rows + margin) - below
        cols = np.arange(kept.shape[0])
        last = kept.shape[1] - 1
        lo = np.maximum(self.lo[l], np.where(
            (a >= 0) & (a < fill), kept[cols, np.clip(a, 0, last)], -np.inf))
        hi = np.minimum(self.hi[l], np.where(
            (b >= 0) & (b < fill), kept[cols, np.clip(b, 0, last)], np.inf))
        start = np.count_nonzero(kept < lo[:, None], axis=1)
        fill = np.maximum(np.count_nonzero(kept <= hi[:, None], axis=1)
                          - start, 0)
        span = np.arange(fill.max())
        kept = np.take_along_axis(kept, np.minimum(start[:, None] + span, last),
                                  axis=1)
        kept[span >= fill[:, None]] = np.nan
        self.kept[l], self.fill[l], self.narrowed[l] = kept, fill, fill.max()
        self.lo[l], self.hi[l] = lo, hi
        self.below[l] += start

    def _neighbours(self, replay) -> tuple[np.ndarray, np.ndarray]:
        """The two order statistics around each level's index, per column."""
        shape = self.lo.shape
        a, b = np.zeros(shape), np.zeros(shape)
        miss = np.zeros(shape, dtype=bool)
        first, last = self.lo.copy(), self.hi.copy()
        for l, kept in enumerate(self.kept):
            if not self.sorted:
                kept.sort(axis=1)
            fill, cols = self.fill[l], np.arange(shape[1])
            i = self.prev[l] - self.below[l]
            j = self.next[l] - self.below[l]
            if kept.shape[1]:
                top = kept.shape[1] - 1
                a[l] = kept[cols, np.clip(i, 0, top)]
                b[l] = kept[cols, np.clip(j, 0, top)]
            miss[l] = ((i < 0) | (j >= fill)) & self.wanted[l] & ~self.has_nan
            first[l][i < 0] = -np.inf
            last[l][j >= fill] = np.inf
        if miss.any():
            again = _Quantiles(self.ps, self.rows, shape[1], self.width,
                               2 * self.z + 1, np.where(miss, first, np.inf),
                               np.where(miss, last, -np.inf))
            for values in replay():
                again.add(values)
            a2, b2 = again._neighbours(replay)
            a, b = np.where(miss, a2, a), np.where(miss, b2, b)
        return a, b

    def result(self, replay) -> np.ndarray:
        """The (levels, m) quantiles once every row is in; ``replay()``
        yields the same chunks again for a target whose bracket missed."""
        a, b = self._neighbours(replay)
        t = self.gamma[:, None]
        diff = b - a  # numpy's _lerp, operation for operation
        out = a + diff * t
        np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
        np.copyto(out, self.nan, where=self.has_nan)
        return out


def _rate(hits, trials):
    """A binomial rate and its standard error."""
    rate = hits / trials
    return rate, np.sqrt(rate * (1 - rate) / trials)


def _null_pool(kernel, n: int, ps, replicates: int, seed: int):
    """Checked levels, and a replayable stream of ``kernel``'s values over
    every replicate of an all-null study of size n."""
    n = _check_n(n)
    _blocks(seed, replicates)
    _check_int("replicates", replicates, "an integer >= 1000", 1000)
    u = np.ones(n)
    return (_validate_levels(ps),
            lambda: _pool(kernel, u, _blocks(seed, replicates)))


def _quantiles(stream, ps, rows: int, m: int, width: int = 1,
               each=None) -> np.ndarray:
    """``_Quantiles.result`` over ``stream()``, whose chunks each also go
    to ``each`` on the first pass."""
    found = _Quantiles(ps, rows, m, width, _Z)
    for values in stream():
        if each is not None:
            each(values)
        found.add(values)
    return found.result(stream)


def simulate_multi_quantiles(n: int, ps, replicates: int,
                             seed: int) -> tuple[QuantileEstimate, ...]:
    """Empirical quantiles of the per-dataset maximum statistic under IID data.

    One row of the multiple-observation critical value table: a proportion
    p of null datasets contain no statistic above the returned values.
    """
    ps, stream = _null_pool(lambda z, u: qe_values(z, u).max(axis=1),
                            n, ps, replicates, seed)
    maxima = np.concatenate(list(stream()))
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
    (p,), stream = _null_pool(lambda z, u: pwch_values(z, u).reshape(-1, 1),
                              n, (p,), replicates, seed)
    return float(_quantiles(stream, (p,), replicates, 1, width=n)[0, 0])
