"""Build, persist, and interpolate the quantile/probability lookup tables.

A table row holds P(Q_E <= q) for one dataset size at 51 quantile knots
expressed through the bounded transform t = q/(1+q): 49 regularly spaced
values of t on [0, 0.8], one knot at q = 0.674/sqrt(2) (the left support
bound of the limiting distribution), and one at t = 1 (q = infinity).
Rows cover a fixed grid of sizes per parity plus the asymptotic row,
which doubles as the n/(n+1) = 1 endpoint when interpolating to very
large n.

Lookups spline the probabilities against t with a monotone (Hyman
filtered) cubic and invert by root search on that spline; quantiles are
never obtained from a transposed quantile-versus-probability fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .distribution import cdf, cdf_asymptotic, quantile
from .errors import ConvergenceError, DataError, DomainError, TableRangeError
from .numerics import MonotoneSpline, find_root

__all__ = [
    "QuantileTable",
    "build_table",
    "save_table",
    "load_table",
    "default_table",
    "interp_probability",
    "interp_quantile",
    "multi_quantile_adjusted",
    "EVEN_SIZES",
    "ODD_SIZES",
]

# Extra knot: left support bound of the limiting distribution, at the
# table's own 3-digit precision.
_SUPPORT_KNOT_Q = 0.674 / math.sqrt(2.0)

# Grid note: the source prescription "every whole ten and intervening 4"
# between 30 and 100 is read as {n0, n0+4} for each decade n0 in 30..90.
EVEN_SIZES = tuple(range(4, 31, 2)) + (
    34, 40, 44, 50, 54, 60, 64, 70, 74, 80, 84, 90, 94, 100,
    500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
)
# Odd exact rows stop at 189; the large even rows are spliced on so that
# cross-size interpolation keeps working up to the asymptotic endpoint.
_ODD_EXACT = tuple(range(3, 30, 2)) + (35, 45, 55, 65, 75, 85, 95,
                                       109, 129, 149, 169, 189)
_ODD_SPLICE = tuple(n for n in EVEN_SIZES if n > 189)
ODD_SIZES = _ODD_EXACT + _ODD_SPLICE

_ODD_BUILD_LIMIT = 189  # exact odd quadrature is used through this size


def knot_grid() -> np.ndarray:
    t = np.append(np.linspace(0.0, 0.8, 49),
                  [_SUPPORT_KNOT_Q / (1.0 + _SUPPORT_KNOT_Q), 1.0])
    return np.sort(t)


def _t_to_q(t: float) -> float:
    return t / (1.0 - t)


@dataclass(frozen=True)
class QuantileTable:
    """Probability matrix over (size, quantile-knot) for one parity."""

    parity: str                 # "even" or "odd"
    sizes: tuple[float, ...]    # ascending, math.inf last
    knots_t: np.ndarray         # 51 values of q/(1+q), ascending, last is 1.0
    probs: np.ndarray           # shape (len(sizes), len(knots_t))

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise DataError(f"unknown parity {self.parity!r}")
        if self.sizes[-1] != math.inf or any(
                not s < t for s, t in zip(self.sizes, self.sizes[1:])):
            raise DataError("sizes must ascend and end with the asymptotic row")
        if self.probs.shape != (len(self.sizes), len(self.knots_t)):
            raise DataError("probability matrix shape does not match grids")
        if not np.all(np.isfinite(self.probs)):
            raise DataError("probabilities must be finite")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise DataError("probabilities must lie in [0, 1]")
        if np.any(np.diff(self.probs, axis=1) < 0.0):
            raise DataError("each row must be non-decreasing along q")
        if np.any(self.probs[:, -1] != 1.0):
            raise DataError("final column must be exactly 1")
        # row index -> spline, filled on first lookup; dies with the table
        object.__setattr__(self, "_splines", {})

    @property
    def finite_sizes(self) -> tuple[float, ...]:
        return self.sizes[:-1]

    def _row_spline(self, idx: int) -> MonotoneSpline:
        if idx not in self._splines:
            self._splines[idx] = MonotoneSpline(self.knots_t, self.probs[idx])
        return self._splines[idx]


def _repair_row(row: np.ndarray) -> np.ndarray:
    # absorb quadrature noise at the 1e-9 level: clamp, enforce monotone,
    # pin the q = infinity column
    row = np.clip(row, 0.0, 1.0)
    row = np.maximum.accumulate(row)
    row[-1] = 1.0
    return row


def build_table(parity: str, max_n: int | None = None) -> QuantileTable:
    """Compute the full probability table for one parity from quadrature.

    ``max_n`` truncates the finite size grid (the asymptotic row is always
    kept); useful for quick rebuilds in tests and command-line smoke runs.
    """
    if parity == "even":
        sizes = EVEN_SIZES
    elif parity == "odd":
        sizes = ODD_SIZES
    else:
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    if max_n is not None:
        sizes = tuple(n for n in sizes if n <= max_n)
        if not sizes:
            raise DomainError(f"max_n={max_n} leaves no table rows")

    t_knots = knot_grid()
    rows = []
    for n in sizes:
        rows.append(_build_row(n, t_knots))
    rows.append(_build_row(math.inf, t_knots))
    return QuantileTable(parity, sizes + (math.inf,), t_knots,
                         np.vstack(rows))


def _build_row(n, t_knots: np.ndarray) -> np.ndarray:
    row = np.empty_like(t_knots)
    for k, t in enumerate(t_knots):
        if t == 0.0:
            row[k] = 0.0
            continue
        if t == 1.0:
            row[k] = 1.0
            continue
        q = _t_to_q(t)
        try:
            if n == math.inf:
                row[k] = cdf_asymptotic(q)
            else:
                row[k] = cdf(q, n, odd_exact_limit=_ODD_BUILD_LIMIT)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"table build failed at n={n}, q={q:.6g}: {exc}") from exc
    return _repair_row(row)


# ------------------------------------------------------------- persistence

_FORMAT_TAG = "msd-quantile-table v1"


def save_table(table: QuantileTable, path) -> None:
    """Plain-text persistence; identical builds produce identical bytes."""
    lines = [
        f"# {_FORMAT_TAG}",
        f"# parity: {table.parity}",
        "# grid: 49 knots regularly spaced in q/(1+q) on [0, 0.8], "
        "plus q = 0.674/sqrt(2) and q/(1+q) = 1",
        "# size grid: decades 30..90 carry {n0, n0+4}; odd exact rows stop "
        "at 189 with even rows spliced above",
        "# build tolerances: even quadrature 1e-9; odd inner 1e-10, outer 1e-8",
        "# columns: n, then one probability per knot",
        "knots," + ",".join(repr(float(t)) for t in table.knots_t),
    ]
    for n, row in zip(table.sizes, table.probs):
        label = "inf" if n == math.inf else str(int(n))
        lines.append(label + "," + ",".join(repr(float(p)) for p in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> QuantileTable:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    return _parse_table(raw, str(path))


def _parse_table(raw: str, origin: str) -> QuantileTable:
    parity = None
    knots = None
    sizes: list[float] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("parity:"):
                parity = body.split(":", 1)[1].strip()
            continue
        head, _, rest = line.partition(",")
        try:
            vals = np.array([float(v) for v in rest.split(",")])
        except ValueError as exc:
            raise DataError(f"{origin}:{lineno}: unparseable number ({exc})")
        if head == "knots":
            knots = vals
            continue
        sizes.append(math.inf if head == "inf" else float(int(head)))
        rows.append(vals)
    if parity is None or knots is None or not rows:
        raise DataError(f"{origin}: not a quantile table file")
    try:
        return QuantileTable(parity, tuple(sizes), knots, np.vstack(rows))
    except DataError as exc:
        raise DataError(f"{origin}: {exc}") from exc


@lru_cache(maxsize=None)
def default_table(parity: str) -> QuantileTable:
    """The table shipped with the package, loaded once per process."""
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    ref = resources.files("msdstat").joinpath(f"data/msd_table_{parity}.csv")
    return _parse_table(ref.read_text(encoding="ascii"), str(ref))


# ------------------------------------------------------------ interpolation

def _synth_row(table: QuantileTable, n: float) -> np.ndarray:
    """Probability row for an untabulated size via cross-size interpolation.

    Works in m = n/(n+1), where the asymptotic row sits at m = 1. Inside
    the finite grid: cubic through the four surrounding rows. Beyond the
    last finite row: quadratic through the two final finite rows and the
    asymptotic endpoint.
    """
    m = n / (n + 1.0)
    finite = np.array(table.finite_sizes, dtype=float)
    if len(finite) < (2 if n > finite[-1] else 4):
        raise TableRangeError(f"too few rows in the {table.parity} table "
                              f"({len(finite)}) to synthesize n={int(n)}")
    ms = finite / (finite + 1.0)
    if n > finite[-1]:
        xs = np.array([ms[-2], ms[-1], 1.0])
        idxs = [len(finite) - 2, len(finite) - 1, len(finite)]
    else:
        j = int(np.searchsorted(finite, n))  # first index with finite[j] > n
        lo = max(0, min(j - 2, len(finite) - 4))
        xs = ms[lo:lo + 4]
        idxs = list(range(lo, lo + 4))
    # Lagrange basis weights at m
    w = np.ones(len(xs))
    for a in range(len(xs)):
        for b in range(len(xs)):
            if a != b:
                w[a] *= (m - xs[b]) / (xs[a] - xs[b])
    row = w @ table.probs[idxs]
    return _repair_row(row)


def interp_probability(table: QuantileTable, n, q) -> float:
    """P(Q_E <= q) for size n served from the table.

    Tabulated sizes evaluate their own monotone spline; untabulated sizes
    first synthesize a probability row across sizes, then spline it.
    Agreement with direct quadrature is better than 0.0005, except near
    the left support edge at untabulated large n: 0.0040 at n = 616,
    q = 0.5098, and 0.0032 at n = 250, q = 0.52.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"quantile argument must be finite and >= 0, got {q}")
    spline = _lookup_spline(table, n)
    t = q / (1.0 + q)
    return float(spline(t))


def _lookup_spline(table: QuantileTable, n) -> MonotoneSpline:
    n = float(n)
    if n in table.sizes:  # a tabulated size or the asymptotic row
        return table._row_spline(table.sizes.index(n))
    if not (math.isfinite(n) and n == int(n) and n >= 3):
        raise DomainError(f"n must be an integer >= 3 or infinity, got {n}")
    smallest = table.finite_sizes[0]
    if n < smallest:
        raise TableRangeError(
            f"n={int(n)} is below the smallest tabulated size {int(smallest)} "
            f"of the {table.parity} table")
    return MonotoneSpline(table.knots_t, _synth_row(table, n))


def interp_quantile(table: QuantileTable, n, p) -> float:
    """Inverse lookup by root search on the probability spline."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie strictly inside (0, 1), got {p}")
    spline = _lookup_spline(table, n)
    # restrict to the genuinely tabulated range t <= 0.8 (q <= 4)
    t_hi = 0.8
    if p >= spline(t_hi):
        raise TableRangeError(
            f"p={p} is beyond the table's q range for n={n}")
    t_star = find_root(lambda t: float(spline(t)) - p, 0.0, t_hi)
    return _t_to_q(t_star)


def multi_quantile_adjusted(n, p) -> float:
    """Critical value for the whole-dataset maximum via p1 = p**(1/n).

    A proportion p of null datasets has every statistic below the returned
    value, treating the n per-observation statistics as independent. The
    approximation is excellent for n >= 6.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie strictly inside (0, 1), got {p}")
    if not (isinstance(n, (int, float)) and math.isfinite(n) and n == int(n)
            and n >= 3):
        raise DomainError(f"n must be a finite integer >= 3, got {n!r}")
    n = int(n)
    return quantile(p ** (1.0 / n), n)
