"""Pairwise scaled differences and the per-observation median statistic.

For observations (x_i, u_i) the scaled difference of a pair is
d_ij = (x_i - x_j) / sqrt(u_i^2 + u_j^2), and an observation's statistic
is the median of |d_ij| over all partners j. A companion mean-of-squares
comparator over the same differences is provided for power studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = [
    "Observation",
    "Dataset",
    "MsdResult",
    "msd",
    "pairwise_chisq",
]


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
        rows = tuple(Observation(str(l), float(v), float(u))
                     for l, v, u in zip(labels, values, uncertainties))
        return cls(rows)

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


# Pair elements each batch temporary holds at once (0.5 MiB of float64):
# the kernels' working set stays fixed however many datasets they score.
BUDGET = 1 << 16


def pair_matrix(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Full signed matrix of scaled differences with a zero diagonal.

    Accepts leading batch axes on ``x``; ``u`` broadcasts against it.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dx = x[..., :, None] - x[..., None, :]
    s = np.sqrt(u[..., :, None] ** 2 + u[..., None, :] ** 2)
    return dx / s


def _median_abs(d: np.ndarray) -> np.ndarray:
    n = d.shape[-1]
    a = np.abs(d)
    idx = np.arange(n)
    a[..., idx, idx] = np.nan  # partition sorts nan last, past every difference
    m = n - 1
    half = m // 2
    if m % 2:
        part = np.partition(a, half, axis=-1)
        return part[..., half]
    part = np.partition(a, (half - 1, half), axis=-1)
    return 0.5 * (part[..., half - 1] + part[..., half])


def _mean_square(d: np.ndarray) -> np.ndarray:
    n = d.shape[-1]
    return (d * d).sum(axis=-1) / (n - 1)  # diagonal contributes zero


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


def _sliced(kernel, x, u) -> np.ndarray:
    """Run ``kernel`` on the pair matrices of max(1, BUDGET // n**2)
    datasets at a time."""
    x, u = _rescaled(np.asarray(x, dtype=float),
                     np.atleast_1d(np.asarray(u, dtype=float)))
    x, u = np.broadcast_arrays(x, u)
    n = x.shape[-1]
    flat_x = x.reshape(-1, n)
    flat_u = u.reshape(-1, n)
    step = max(1, BUDGET // (n * n))
    out = np.empty(flat_x.shape)
    for lo in range(0, len(flat_x), step):
        sl = slice(lo, lo + step)
        out[sl] = kernel(pair_matrix(flat_x[sl], flat_u[sl]))
    return out.reshape(x.shape)


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


def pairwise_chisq(ds: Dataset) -> tuple[tuple[str, float], ...]:
    """Mean-of-squares comparator statistic per observation."""
    stats = pwch_values(ds.values(), ds.uncertainties())
    return tuple(zip(ds.labels, (float(s) for s in stats)))
