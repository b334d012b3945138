"""Parametric bootstrap inference for heteroscedastic studies.

For data whose reported uncertainties differ, the IID reference
distribution is only an approximation. This module resamples each
observation from Normal(0, u_i), rebuilds the statistic per replicate,
and reports case-specific quantiles and counted p-values, with Holm and
Benjamini-Hochberg adjustments for the multiple comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distribution import _check_int, _validate_levels
from .errors import DataError
from .simulation import _QUANTILE_METHOD, _blocks
from .statistic import Dataset, qe_values

__all__ = [
    "BootstrapConfig",
    "BootstrapReport",
    "BootstrapRow",
    "PValue",
    "bh_adjust",
    "bootstrap_msd",
    "holm_adjust",
]

@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap run parameters; equal configs give identical reports."""

    replicates: int = 2000
    seed: int = 0
    levels: tuple[float, ...] = (0.95, 0.99)

    def __post_init__(self):
        object.__setattr__(self, "replicates", _check_int(
            "replicates", self.replicates, "an integer >= 100", 100))
        object.__setattr__(self, "seed", _check_int(
            "seed", self.seed, "a 64-bit integer", 0, 2 ** 64))
        levels = _validate_levels(self.levels)
        object.__setattr__(self, "levels", levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DataError("quantile levels must be strictly increasing")


@dataclass(frozen=True)
class PValue:
    """A counted p-value; a zero count only bounds it from above."""

    value: float
    is_upper_bound: bool = False

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise DataError(f"p-value must lie in (0, 1], got {self.value!r}")

    def __str__(self) -> str:
        text = f"{self.value:.6g}"
        return f"< {text}" if self.is_upper_bound else text


@dataclass(frozen=True)
class BootstrapRow:
    """Per-observation bootstrap summary."""

    label: str
    statistic: float
    quantiles: tuple[float, ...]
    p_raw: PValue
    p_holm: PValue
    p_bh: PValue


@dataclass(frozen=True)
class BootstrapReport:
    """Case-specific quantiles and adjusted p-values for one study."""

    rows: tuple[BootstrapRow, ...]
    levels: tuple[float, ...]
    replicates: int
    seed: int
    quantile_method: ClassVar[str] = _QUANTILE_METHOD

    def by_label(self, label: str) -> BootstrapRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def _values_of(ps) -> np.ndarray:
    vals = np.array([float(p) for p in ps])
    if vals.size == 0:
        raise DataError("need at least one p-value")
    if np.any(vals <= 0.0) or np.any(vals > 1.0):
        raise DataError("p-values must lie in (0, 1]")
    return vals


def holm_adjust(ps):
    """Step-down adjustment controlling the family-wise error rate.

    Sorted ascending, the i-th p-value is scaled by (m - i + 1), running
    maxima enforce monotonicity, and results are capped at 1.
    """
    vals = _values_of(ps)
    m = vals.size
    order = np.argsort(vals, kind="stable")
    scaled = np.minimum(1.0, (m - np.arange(m)) * vals[order])
    adjusted = np.empty(m)
    adjusted[order] = np.maximum.accumulate(scaled)
    return tuple(adjusted.tolist())


def bh_adjust(ps):
    """Step-up adjustment controlling the false discovery rate."""
    vals = _values_of(ps)
    m = vals.size
    order = np.argsort(vals, kind="stable")
    scaled = np.minimum(1.0, m * vals[order] / np.arange(1, m + 1))
    adjusted = np.empty(m)
    adjusted[order] = np.minimum.accumulate(scaled[::-1])[::-1]
    return tuple(adjusted.tolist())


def bootstrap_msd(ds: Dataset, cfg: BootstrapConfig = BootstrapConfig()
                  ) -> BootstrapReport:
    """Parametric bootstrap of the statistic under the reported uncertainties.

    Each replicate draws x*_i ~ Normal(0, u_i) for every observation and
    recomputes all statistics; the subject's location never enters since
    the statistic ignores a common shift. Raw p-values count replicates
    with a simulated value at or above the observed one; a zero count is
    reported as an upper bound of 1/replicates, and its Holm and BH
    values are bounds too.
    """
    u = ds.uncertainties()
    observed = qe_values(ds.values(), u)
    sims = np.concatenate([
        qe_values(rng.standard_normal((c, ds.n)) * u, u)
        for rng, c in _blocks(cfg.seed, cfg.replicates)])
    counts = (sims >= observed).sum(axis=0)
    raw = [max(int(k), 1) / cfg.replicates for k in counts]
    p_values = [[PValue(p, bool(k == 0)) for p, k in zip(ps, counts)]
                for ps in (raw, holm_adjust(raw), bh_adjust(raw))]
    level_quantiles = np.quantile(sims, cfg.levels, axis=0,
                                   method=_QUANTILE_METHOD)
    rows = tuple(
        BootstrapRow(label, float(observed[i]),
                     tuple(float(q) for q in level_quantiles[:, i]),
                     *(ps[i] for ps in p_values))
        for i, label in enumerate(ds.labels))
    return BootstrapReport(rows, cfg.levels, cfg.replicates, cfg.seed)
