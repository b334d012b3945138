"""Pairwise scaled differences and the per-observation median statistic.

For observations (x_i, u_i) the scaled difference of a pair is
d_ij = (x_i - x_j) / sqrt(u_i^2 + u_j^2), and an observation's statistic
is the median of |d_ij| over all partners j. A companion mean-of-squares
comparator over the same differences is provided for power studies.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError

# The rules of thumb for a score: above INSPECT a result merits a look,
# above SCREEN it fails the strict screen. ``msd analyze`` flags both, and
# ``simulate_hetero_guideline`` measures how often each is crossed.
INSPECT = 2.0
SCREEN = 2.5


@dataclass(frozen=True)
class Observation:
    """One reported result: a label, a value, and its standard uncertainty."""

    label: str
    value: float
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DataError(f"{self.label}: value must be finite")
        if not (math.isfinite(self.uncertainty) and self.uncertainty > 0):
            raise DataError(f"{self.label}: uncertainty must be a positive finite number")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of at least three uniquely labelled observations."""

    observations: tuple[Observation, ...]

    def __post_init__(self):
        obs = tuple(self.observations)
        object.__setattr__(self, "observations", obs)
        if len(obs) < 3:
            raise DataError(f"need at least 3 observations, got {len(obs)}")
        labels = [o.label for o in obs]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise DataError(f"duplicate labels: {', '.join(dupes)}")

    @classmethod
    def from_arrays(cls, labels: Iterable[str], values: Iterable[float],
                    uncertainties: Iterable[float]) -> "Dataset":
        labels, values, uncertainties = list(labels), list(values), list(uncertainties)
        if not len(labels) == len(values) == len(uncertainties):
            raise DataError("labels, values and uncertainties must have equal lengths")
        return cls(tuple(Observation(str(l), float(v), float(u))
                         for l, v, u in zip(labels, values, uncertainties)))

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.observations)

    def values(self) -> np.ndarray:
        return np.array([o.value for o in self.observations])

    def uncertainties(self) -> np.ndarray:
        return np.array([o.uncertainty for o in self.observations])


@dataclass(frozen=True)
class MsdResult:
    labels: tuple[str, ...]
    q_e: np.ndarray

    def by_label(self) -> dict[str, float]:
        return {lab: float(q) for lab, q in zip(self.labels, self.q_e)}


# Pair elements in flight in one batch call, across all its workers (0.5
# MiB of float64): each worker reuses one buffer of BUDGET // workers
# elements for every unit it scores. A u shared by every dataset adds the
# scale matrix of the scored rows against all n labs, once per call, when
# those rows fit one buffer; otherwise each worker builds its scales unit by
# unit in a second buffer of its size. Either way the working set stays
# fixed however many datasets the kernels score, and grows only as O(n)
# with the size of one dataset.
BUDGET = 1 << 16

# The least work, in pair elements, for one worker's unit, so no call uses
# more than BUDGET // _UNIT_FLOOR = 2 workers. Every unit holds some Python
# work under the GIL, and smaller units lose to it: at n = 100 and 4096
# datasets on two CPUs, units of at most 2**14 elements took 247 ms on two
# threads and 335 ms on four, against 134 ms for 2**15 on two and 174 ms
# inline. Two workers confined to one CPU took 6-10% longer than one.
_UNIT_FLOOR = 1 << 15


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _median_abs(d: np.ndarray, i, j) -> np.ndarray:
    """Median of |d| along the last axis, computed in place in ``d``.

    The self-pairs ``d[..., i, j]`` are marked ``nan``, which sorts last
    like a 0/0 partner. Sorting each row in place keeps the working set at
    ``d`` alone; the central order statistics are then read directly (at
    n = 1 both are the self-pair). numpy's vectorised sort (AVX-512, 2-vCPU
    x86-64, numpy 2.4.6) beat partition plus max per row 1.3-2.5x at odd
    n = 9-75 and 0.9-1.5x at even n = 8-150, on 10**6 elements per n.
    """
    n = d.shape[-1]
    a = np.abs(d, out=d)
    a[..., i, j] = np.nan
    a.sort(axis=-1)
    half = (n - 1) // 2
    if n % 2:
        return 0.5 * (a[..., half - 1] + a[..., half])
    return a[..., half]


def _mean_square(d: np.ndarray, i, j) -> np.ndarray:
    sq = np.multiply(d, d, out=d)  # the zero self-pairs add nothing
    return sq.sum(axis=-1) / (d.shape[-1] - 1)


# Inside 2**±500 the squares in u_i**2 + u_j**2 neither underflow nor overflow.
_U_LO, _U_HI = 2.0 ** -500, 2.0 ** 500


def _rescaled(x: np.ndarray, u: np.ndarray):
    """Bring each dataset with a u outside 2**±500 back inside it.

    Such a dataset's x and u are scaled by one power of two, the midpoint
    of its largest and smallest u's exponents. A power-of-two scaling is
    exact and cancels in every d_ij, so the dataset scores bit for bit
    like its rescaled copy; every other input passes unchanged. A dataset
    whose u span more than about 300 decades still under- or overflows.
    """
    lo = u.min(axis=-1, keepdims=True)
    hi = u.max(axis=-1, keepdims=True)
    outside = (lo < _U_LO) | (hi >= _U_HI)
    if not outside.any():
        return x, u
    shift = np.where(outside, -((np.frexp(hi)[1] + np.frexp(lo)[1]) // 2), 0)
    return np.ldexp(x, shift), np.ldexp(u, shift)


def _sliced(kernel, x, u, rows=None) -> np.ndarray:
    """Run ``kernel`` on the scaled differences of ``rows`` (every
    observation by default) against all partners.

    The work is cut into units, a slice of datasets by a chunk of rows,
    of at most BUDGET // workers pair elements (one row when n alone is
    larger). A call of more than 2 * BUDGET pair elements has one worker
    per CPU the process may use, up to BUDGET // _UNIT_FLOOR: the calling
    thread and workers - 1 threads started for the call take the units in
    turn, each under the caller's numpy error state, and write each unit's
    scores into its own rows of the result. A smaller call, such as a
    single study of up to 362 labs or a power run's subject row at n = 20,
    runs inline and starts no thread.

    Each worker writes a unit's differences into its own buffer, which
    ``kernel`` may overwrite, and copies the result out before its next
    unit. The scales sqrt(u_i**2 + u_j**2) form one matrix per call when
    ``u`` is one row shared by every dataset and the rows fit one chunk;
    otherwise each worker builds them unit by unit in a second buffer.
    Every score depends only on its own row's differences, so it is the
    same bit for bit whichever worker computes it, and for any worker
    count.
    """
    x, u = _rescaled(np.asarray(x, dtype=float),
                     np.atleast_1d(np.asarray(u, dtype=float)))
    shape = np.broadcast_shapes(x.shape, u.shape)
    n = shape[-1]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    flat_x = np.broadcast_to(x, shape).reshape(-1, n)
    most = min(_cpus(), BUDGET // _UNIT_FLOOR)
    # a thread takes about 0.1 ms to start and join, more than it saves on
    # a call of up to two buffers
    workers = most if len(flat_x) * rows.size * n > 2 * BUDGET else 1
    share = BUDGET // workers
    chunk = min(rows.size, max(1, share // n))
    step = max(1, share // (chunk * n))
    units = [(slice(lo, lo + step), slice(r, r + chunk))
             for lo in range(0, len(flat_x), step)
             for r in range(0, rows.size, chunk)]
    shared = u.ndim == 1
    if shared:
        u2 = np.broadcast_to(u, (n,)) ** 2
    else:
        flat_u = np.broadcast_to(u, shape).reshape(-1, n)
    # one scale matrix serves every unit when the rows fit one chunk
    scale = (np.sqrt(u2[rows, None] + u2) if shared and chunk == rows.size
             else None)
    out = np.empty((len(flat_x), rows.size))

    # each worker takes the next unit as it frees up; next() on a list
    # iterator hands every unit to one worker
    todo = iter(units)
    err, failed = np.geterr(), []

    def score():
        size = min(step, len(flat_x)) * chunk * n
        buf = np.empty(size)
        scale_buf = None if scale is not None else np.empty(size)
        with np.errstate(**err):
            for sl, rs in todo:
                xs, chosen = flat_x[sl], rows[rs]
                d = buf[:xs.shape[0] * chosen.size * n].reshape(
                    xs.shape[0], chosen.size, n)
                s = scale
                if s is None:
                    s = scale_buf[:d.size].reshape(d.shape)
                    if shared:
                        np.add(u2[chosen, None], u2, out=s)
                    else:
                        us = flat_u[sl] ** 2
                        np.add(us[:, chosen, None], us[:, None, :], out=s)
                    np.sqrt(s, out=s)
                np.copyto(d, xs[:, chosen, None])
                np.divide(np.subtract(d, xs[:, None, :], out=d), s, out=d)
                out[sl, rs] = kernel(d, np.arange(chosen.size), chosen)

    def helper():
        try:
            score()
        except BaseException as exc:  # raised again in the caller
            failed.append(exc)

    helpers = [threading.Thread(target=helper)
               for _ in range(min(workers, len(units)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        score()
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[0]
    return out.reshape(shape[:-1] + (rows.size,))


def qe_values(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-observation median of |d_ij| for one or a batch of datasets.

    The median over an even count of partners is the mean of the two
    central order statistics; the count is even exactly when n is odd.
    """
    return _sliced(_median_abs, x, u)


def pwch_values(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mean of squared scaled differences per observation (batch friendly)."""
    return _sliced(_mean_square, x, u)


def msd(ds: Dataset) -> MsdResult:
    """Median absolute scaled difference for every observation."""
    return MsdResult(ds.labels, qe_values(ds.values(), ds.uncertainties()))
