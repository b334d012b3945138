"""Build, persist, and interpolate the quantile/probability lookup tables.

A table row holds P(Q_E <= q) for one dataset size at 51 quantile knots
expressed through the bounded transform t = q/(1+q): 49 regularly spaced
values of t on [0, 0.8], one knot at q = 0.674/sqrt(2) (the left support
bound of the limiting distribution), and one at t = 1 (q = infinity).
Rows cover a fixed grid of sizes per parity plus the asymptotic row,
which doubles as the n/(n+1) = 1 endpoint when interpolating to very
large n.

Lookups spline the probabilities against t with a monotone Hermite
cubic and invert by root search on that spline; quantiles are never
obtained from a transposed quantile-versus-probability fit. The cubic's
tangents start from three-point parabolic estimates and are clamped to
[0, 3 * min(adjacent secants)], Hyman's filter, which keeps each piece
monotone and reproduces the knot values exactly. A table computes the
tangents of all its rows once, when it is built or loaded; a synthesized
row gets its tangents the same way.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

from .distribution import (_ODD_EXACT_LIMIT, _check_n, _parity, _validate_p,
                           _validate_q, cdf, quantile)
from .errors import ConvergenceError, DataError, DomainError, TableRangeError
from .numerics import find_root

# Extra knot: left support bound of the limiting distribution, at the
# table's own 3-digit precision.
_SUPPORT_KNOT_Q = 0.674 / math.sqrt(2.0)
# Top of the regularly spaced knots (q = 4), where the tabulated range ends.
_T_TOP = 0.8

# Grid note: the source prescription "every whole ten and intervening 4"
# between 30 and 100 is read as {n0, n0+4} for each decade n0 in 30..90.
EVEN_SIZES = tuple(range(4, 31, 2)) + (
    34, 40, 44, 50, 54, 60, 64, 70, 74, 80, 84, 90, 94, 100,
    500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
)
# The odd rows stop below the large even rows (``cdf`` serves odd n above
# 99 from the even case at n + 1), which are spliced on so that cross-size
# interpolation keeps working up to the asymptotic endpoint.
_ODD_ROWS = tuple(range(3, 30, 2)) + (35, 45, 55, 65, 75, 85, 95,
                                      109, 129, 149, 169, 189)
ODD_SIZES = _ODD_ROWS + tuple(n for n in EVEN_SIZES if n > _ODD_ROWS[-1])


def knot_grid() -> np.ndarray:
    t = np.append(np.linspace(0.0, _T_TOP, 49),
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
    # spline tangents of every row, same shape; derived from probs
    tangents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise DataError(f"unknown parity {self.parity!r}")
        knots = self.knots_t
        if knots.ndim != 1 or knots.size < 2:
            raise DataError("need a 1-d grid of at least two knots")
        if not np.all(np.isfinite(knots)):
            raise DataError("knots must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise DataError("knots must be strictly increasing")
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
        object.__setattr__(self, "tangents", _tangents(knots, self.probs))


def _tangents(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hyman-filtered tangents of the monotone cubic through each row of
    ``y`` (non-decreasing along the last axis) at the knots ``t``."""
    h = np.diff(t)
    delta = np.diff(y, axis=-1) / h
    m = np.empty(y.shape)
    m[..., 0] = delta[..., 0]
    m[..., -1] = delta[..., -1]
    m[..., 1:-1] = ((h[1:] * delta[..., :-1] + h[:-1] * delta[..., 1:])
                    / (h[1:] + h[:-1]))
    cap = np.empty(y.shape)
    cap[..., 0] = 3.0 * delta[..., 0]
    cap[..., -1] = 3.0 * delta[..., -1]
    cap[..., 1:-1] = 3.0 * np.minimum(delta[..., :-1], delta[..., 1:])
    return np.clip(m, 0.0, cap)


def _cubic(t: np.ndarray, y: np.ndarray, m: np.ndarray, x: float) -> float:
    """Hermite cubic with values ``y`` and tangents ``m`` at knots ``t``,
    evaluated at x inside the knot span."""
    if x < t[0] or x > t[-1]:
        raise DomainError(
            f"evaluation point outside knot span [{t[0]:g}, {t[-1]:g}]")
    i = min(max(int(np.searchsorted(t, x, side="right")) - 1, 0), t.size - 2)
    h = t[i + 1] - t[i]
    s = (x - t[i]) / h
    r2 = (1 - s) * (1 - s)
    h00 = (1 + 2 * s) * r2
    h10 = s * r2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return float(h00 * y[i] + h10 * h * m[i]
                 + h01 * y[i + 1] + h11 * h * m[i + 1])


def _repair_row(row: np.ndarray) -> np.ndarray:
    # absorb quadrature noise at the 1e-9 level: clamp, enforce monotone,
    # pin the q = infinity column
    row = np.clip(row, 0.0, 1.0)
    row = np.maximum.accumulate(row)
    row[-1] = 1.0
    return row


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def _table_file(parity: str) -> str:
    """File name of one parity's table, bundled or regenerated."""
    return f"msd_table_{parity}.csv"


def _table_sizes(parity: str, max_n: int | None) -> tuple[int, ...]:
    """The finite sizes of one parity's table, capped at ``max_n`` if given."""
    _check_parity(parity)
    sizes = EVEN_SIZES if parity == "even" else ODD_SIZES
    if max_n is not None:
        sizes = tuple(n for n in sizes if n <= max_n)
        if not sizes:
            raise DomainError(f"max_n={max_n} leaves no table rows")
    return sizes


def build_table(parity: str, max_n: int | None = None) -> QuantileTable:
    """Compute the full probability table for one parity from quadrature.

    ``max_n`` truncates the finite size grid (the asymptotic row is always
    kept); useful for quick rebuilds in tests and command-line smoke runs.
    """
    sizes = _table_sizes(parity, max_n)
    t_knots = knot_grid()
    rows = []
    for n in sizes:
        rows.append(_build_row(n, t_knots))
    rows.append(_build_row(math.inf, t_knots))
    return QuantileTable(parity, sizes + (math.inf,), t_knots,
                         np.vstack(rows))


def _build_row(n, t_knots: np.ndarray) -> np.ndarray:
    row = np.ones_like(t_knots)
    for k, t in enumerate(t_knots[:-1]):  # the last knot is q = infinity
        q = _t_to_q(t)
        try:
            row[k] = cdf(q, n)
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
        "# size grid: decades 30..90 carry {n0, n0+4}; odd rows stop at "
        f"{_ODD_ROWS[-1]} with even rows spliced above; odd n > "
        f"{_ODD_EXACT_LIMIT} is the even case at n + 1",
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
    """Read a table file, bundled or regenerated by ``save_table``."""
    origin = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{origin}:{lineno}: non-ASCII byte "
                        f"{raw[exc.start]:#04x}") from None
    parity = None
    knots = None
    sizes: list[float] = []
    rows: list[np.ndarray] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        if width is None:
            width = vals.size
        elif vals.size != width:
            raise DataError(f"{origin}:{lineno}: {vals.size} values where "
                            f"earlier lines have {width}")
        if head == "knots":
            knots = vals
            continue
        try:
            size = math.inf if head == "inf" else float(int(head))
            if size < 3:
                raise ValueError
        except (ValueError, OverflowError):
            raise DataError(f"{origin}:{lineno}: size {head!r} is not an "
                            "integer >= 3 or 'inf'") from None
        sizes.append(size)
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
    _check_parity(parity)
    return load_table(resources.files("msdstat") / "data" / _table_file(parity))


def _table_for(n: int, directory) -> QuantileTable:
    """The table of n's parity: the bundled one when ``directory`` is None,
    else that directory's file."""
    parity = _parity(n)
    if directory is None:
        return default_table(parity)
    return load_table(directory / _table_file(parity))


# ------------------------------------------------------------ interpolation

def _synth_row(table: QuantileTable, n: int, rows: slice) -> np.ndarray:
    """Probability row for an untabulated size by Lagrange interpolation
    through the table rows ``rows`` in m = n/(n+1), where the asymptotic
    row sits at m = 1."""
    m = n / (n + 1.0)
    xs = [s / (s + 1.0) if s < math.inf else 1.0 for s in table.sizes[rows]]
    # Lagrange basis weights at m
    w = np.ones(len(xs))
    for a in range(len(xs)):
        for b in range(len(xs)):
            if a != b:
                w[a] *= (m - xs[b]) / (xs[a] - xs[b])
    return _repair_row(w @ table.probs[rows])


def interp_probability(table: QuantileTable, n, q) -> float:
    """P(Q_E <= q) for size n served from the table.

    Tabulated sizes evaluate their own monotone spline; untabulated sizes
    first synthesize a probability row across sizes, then spline it.
    Agreement with direct quadrature is better than 0.0005 for q >= 0.6,
    but not near the left support edge, tabulated rows included: 3.1e-3 at
    n = 500, q = 0.52; 1.3e-2 at 5000, 0.49; 4.2e-2 at 100,000, 0.48; and
    4.0e-3 at the untabulated n = 616, q = 0.5098 (ROADMAP item 5).
    """
    q = _validate_q(q)
    y, m = _lookup_row(table, n)
    return _cubic(table.knots_t, y, m, q / (1.0 + q))


def _lookup_row(table: QuantileTable, n) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and spline tangents of size n's row, tabulated or
    synthesized from the four rows around n inside the finite grid, or the
    last two and the asymptotic row beyond it; refuses an n it cannot serve."""
    if n == math.inf:
        return table.probs[-1], table.tangents[-1]
    n = _check_n(n)
    if n in table.sizes:
        i = table.sizes.index(n)
        return table.probs[i], table.tangents[i]
    parity = _parity(n)
    if parity != table.parity:
        raise TableRangeError(f"n={n} is {parity}; the {table.parity} "
                              f"table serves only {table.parity} sizes")
    finite = len(table.sizes) - 1
    if not finite:
        raise TableRangeError(f"the {table.parity} table holds only the "
                              f"asymptotic row, so it cannot serve n={n}")
    smallest = table.sizes[0]
    if n < smallest:
        raise TableRangeError(
            f"n={n} is below the smallest tabulated size {int(smallest)} "
            f"of the {table.parity} table")
    j = bisect.bisect(table.sizes, n)  # rows below n
    inside = j < finite
    if finite < (4 if inside else 2):
        raise TableRangeError(f"too few rows in the {table.parity} table "
                              f"({finite}) to synthesize n={n}")
    lo = max(0, min(j - 2, finite - 4)) if inside else j - 2
    y = _synth_row(table, n, slice(lo, lo + (4 if inside else 3)))
    return y, _tangents(table.knots_t, y)


def interp_quantile(table: QuantileTable, n, p) -> float:
    """Inverse lookup by root search on the probability spline: within
    about 2e-4 of ``quantile`` in q at p = 0.95 and 0.99, worse at levels
    nearer 1, 2.3e-2 at the whole-dataset level p ** (1/n) for n = 1000
    and p = 0.99 (ROADMAP item 1)."""
    p = _validate_p(p)
    y, m = _lookup_row(table, n)
    t = table.knots_t
    # restrict to the genuinely tabulated range
    if p >= _cubic(t, y, m, _T_TOP):
        raise TableRangeError(
            f"p={p} is beyond the table's q range for n={n}")
    t_star = find_root(lambda x: _cubic(t, y, m, x) - p, 0.0, _T_TOP)
    return _t_to_q(t_star)


def _critical_value(n, p, mode: str, table=None) -> float:
    """The one source of critical values: level p for one observation
    (``mode="single"``) or for the whole dataset (``"multiple"``, read at
    the per-observation level p**(1/n)); exact when ``table`` is None,
    else looked up in ``table``."""
    if mode == "multiple":
        p = _validate_p(p) ** (1.0 / _check_n(n))
    if table is None:
        return quantile(p, n)
    return interp_quantile(table, n, p)


def multi_quantile_adjusted(n, p) -> float:
    """Critical value for the whole-dataset maximum via p1 = p**(1/n).

    A proportion p of null datasets has every statistic below the returned
    value, treating the n per-observation statistics as independent.
    Against Monte Carlo that reads high, the conservative side, by 0.020
    at n = 4; for n = 5-100 at p = 0.95 and 0.99 it is off by -0.0017 to
    +0.0051 (ROADMAP item 2).
    """
    return _critical_value(n, p, "multiple")
