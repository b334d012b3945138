"""Build, persist, and interpolate the quantile/probability lookup tables.

A table row holds P(Q_E <= q) for one dataset size at 51 quantile knots
expressed through the bounded transform t = q/(1+q): 49 regularly spaced
values of t on [0, 0.8], one knot at q = 0.674/sqrt(2) (the left support
bound of the limiting distribution), and one at t = 1 (q = infinity).
Rows cover a fixed grid of sizes per parity plus the asymptotic row,
which is the m = n/(n+1) = 1 node when interpolating across sizes.

Lookups spline the probabilities against t with a monotone Hermite
cubic and invert by root search on that spline; quantiles are never
obtained from a transposed quantile-versus-probability fit. The cubic's
tangents start from three-point parabolic estimates and are clamped to
[0, 3 * min(adjacent secants)], Hyman's filter, which keeps each piece
monotone and reproduces the knot values exactly. A lookup computes the
tangents of its one row, tabulated or synthesized, the same way.
"""
from __future__ import annotations

import bisect
import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .datasets import _ascii, _decimal
from .distribution import (_ODD_EXACT_LIMIT, _check_n, _parity, _validate_p,
                           _validate_q, cdf, quantile)
from .errors import ConvergenceError, DataError, DomainError, TableRangeError
from .numerics import find_root
from .statistic import _cpus

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

    def __post_init__(self):
        if fault := _fault(self.parity, self.sizes, self.knots_t, self.probs):
            raise DataError(fault[1])


def _fault(parity, sizes, knots, probs):
    """The one table rule: None or the first fault, (part, message), part
    being "parity", "knots" or a row index; rows before the size order."""
    if parity not in ("even", "odd"):
        return "parity", f"unknown parity {parity!r}"
    if knots.ndim != 1 or knots.size < 2:
        return "knots", "need a 1-d grid of at least two knots"
    if not np.all(np.isfinite(knots)):
        return "knots", "knots must be finite"
    if np.any(np.diff(knots) <= 0.0):
        return "knots", "knots must be strictly increasing"
    if probs.shape != (len(sizes), knots.size):
        return "knots", "probability matrix shape does not match grids"
    with np.errstate(invalid="ignore"):
        rules = {"probabilities must be finite": ~np.isfinite(probs),
                 "probabilities must lie in [0, 1]": (probs < 0) | (probs > 1),
                 "each row must be non-decreasing along q": np.diff(probs) < 0,
                 "final column must be exactly 1": probs[:, -1:] != 1.0}
    faults = np.stack([bad.any(axis=1) for bad in rules.values()])
    if faults.any():
        row = int(faults.any(axis=0).argmax())
        return row, list(rules)[int(faults[:, row].argmax())]
    steps = [i for i in range(1, len(sizes)) if not sizes[i - 1] < sizes[i]]
    if steps or not sizes or sizes[-1] != math.inf:
        return ((steps or [len(sizes) - 1])[0],
                "sizes must ascend and end with the asymptotic row")
    return None


def _tangents(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hyman-filtered tangents of the monotone cubic through the
    non-decreasing values ``y`` at the knots ``t``."""
    h = np.diff(t)
    delta = np.diff(y) / h
    m = np.empty(y.shape)
    m[0] = delta[0]
    m[-1] = delta[-1]
    m[1:-1] = (h[1:] * delta[:-1] + h[:-1] * delta[1:]) / (h[1:] + h[:-1])
    cap = np.empty(y.shape)
    cap[0] = 3.0 * delta[0]
    cap[-1] = 3.0 * delta[-1]
    cap[1:-1] = 3.0 * np.minimum(delta[:-1], delta[1:])
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
    row = np.maximum.accumulate(np.clip(row, 0.0, 1.0))
    row[-1] = 1.0
    return row


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def _table_file(parity: str) -> str:
    """File name of one parity's table, bundled or regenerated."""
    return f"msd_table_{parity}.csv"


def build_table(parity: str, max_n: int | None = None) -> QuantileTable:
    """Compute the full probability table for one parity from quadrature.

    ``max_n`` truncates the finite sizes; the table then serves sizes above
    its last row across the gap to n = inf, missing ``cdf`` by up to 2.7e-3
    (``max_n=16`` even at n = 100, ``max_n=15`` odd at n = 31 and 99).

    On Linux, a build of ``_POOL_MIN_ROWS`` rows or more forks one child
    when the process may use two or more CPUs and runs one thread after the
    first row (numpy's OpenBLAS keeps one per extra CPU unless
    ``OPENBLAS_NUM_THREADS=1``). The caller computes the first row and every
    other one after it, the child the rest, reaped before the call returns;
    if no child can start, the caller computes every row. Either way the
    table is the same bit for bit. A quadrature failure raises
    ``ConvergenceError`` naming the row's n and q wherever it ran; a child
    that dies raises ``ChildProcessError``."""
    _check_parity(parity)
    sizes = EVEN_SIZES if parity == "even" else ODD_SIZES
    if max_n is not None:
        sizes = tuple(n for n in sizes if n <= max_n)
        if not sizes:
            raise DomainError(f"max_n={max_n} leaves no table rows")
    sizes += (math.inf,)
    t_knots = knot_grid()
    return QuantileTable(parity, sizes, t_knots, _build_rows(sizes, t_knots))


# The fewest rows worth the fork. A fork costs about 3 ms, and rows run
# slower side by side than alone; the even rows, 4-10 ms each, win that back
# at about 12: in four runs of 21-41 alternating builds the forked median won
# 2 of 4 at 8 and 10 rows, 3 of 4 at 12, 14 and 16, and 4 of 4 for 5 odd
# rows (shared 2-vCPU x86-64). As in the statistic kernel, a cgroup CPU
# quota is not read: under a one-CPU quota the build forks for no gain.
_POOL_MIN_ROWS = 12


def _build_rows(sizes, t_knots: np.ndarray) -> np.ndarray:
    """``_build_row`` of each size, in order, by ``build_table``'s rule."""
    rows = np.empty((len(sizes), t_knots.size))
    rows[0] = _build_row(sizes[0], t_knots)
    child = (_fork(sizes[2::2], t_knots) if _cpus() >= 2 and _alone()
             and len(sizes) >= _POOL_MIN_ROWS else None)
    if child is None:
        rows[1:] = [_build_row(n, t_knots) for n in sizes[1:]]
        return rows
    pid, pipe = child
    try:
        with pipe:  # closed early, it fails a child that has yet to write
            rows[1::2] = [_build_row(n, t_knots) for n in sizes[1::2]]
            sent = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not sent:
        raise ChildProcessError(f"a table build worker died: code {code}")
    theirs = pickle.loads(sent)
    if isinstance(theirs, BaseException):
        raise theirs
    rows[2::2] = theirs
    return rows


def _fork(sizes, t_knots: np.ndarray):
    """A child that sends ``_build_row`` of each size, or the exception it
    raised, pickled: its pid and the pipe's read end; None if refused."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # a process or memory limit
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:  # the child never returns into the caller's stack
        os.close(read)
        try:
            sent = pickle.dumps([_build_row(n, t_knots) for n in sizes])
        except BaseException as exc:
            try:
                sent = pickle.dumps(exc)
            except Exception:
                sent = pickle.dumps(ChildProcessError(
                    f"a table build worker raised {exc!r}"))
        with open(write, "wb") as pipe:
            pipe.write(sent)
        os._exit(0)
    finally:
        os._exit(1)


def _alone() -> bool:
    """Whether this process runs one thread, native ones included (a fork
    beside a live thread can deadlock); False off Linux, where ``/proc``
    cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


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
    """Read a table file, bundled or regenerated by ``save_table``. Each
    fault raises DataError "FILE:LINE: message"; of several, the first line
    that does not parse wins, else ``_fault``'s first: parity, knots, a bad
    row, the size order (the last row when the ``inf`` row is missing)."""
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
    where = {}  # line of each part: "parity", "knots" and each row's index
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("parity:"):
                if parity is not None:
                    raise DataError(f"{origin}:{lineno}: a second parity line")
                parity = body.split(":", 1)[1].strip()
                where["parity"] = lineno
            continue
        head, _, rest = line.partition(",")
        try:
            vals = np.array([_decimal(v) for v in rest.split(",")])
        except ValueError as exc:
            raise DataError(f"{origin}:{lineno}: unparseable number ({exc})")
        if width is None:
            width = vals.size
        elif vals.size != width:
            raise DataError(f"{origin}:{lineno}: {vals.size} values where "
                            f"earlier lines have {width}")
        if head == "knots":
            if knots is not None:
                raise DataError(f"{origin}:{lineno}: a second knots line")
            knots = vals
            where["knots"] = lineno
            continue
        try:
            size = math.inf if head == "inf" else float(int(_ascii(head)))
            if size < 3:
                raise ValueError
        except (ValueError, OverflowError):
            raise DataError(f"{origin}:{lineno}: size {head!r} is not an "
                            "integer >= 3 or 'inf'") from None
        where[len(rows)] = lineno
        sizes.append(size)
        rows.append(vals)
    if parity is None or knots is None or not rows:
        raise DataError(f"{origin}: not a quantile table file")
    sizes, probs = tuple(sizes), np.vstack(rows)
    try:
        return QuantileTable(parity, sizes, knots, probs)
    except DataError:
        part, message = _fault(parity, sizes, knots, probs)
        raise DataError(f"{origin}:{where[part]}: {message}") from None


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

    A tabulated size evaluates its own row's monotone spline. Any other
    size first synthesizes a row through the four rows around it in
    m = n/(n+1), where the asymptotic row is the node at m = 1; that needs
    at least three finite rows. On the full size grid (not a ``max_n``
    build) agreement with direct quadrature is better than 0.0005 for
    q >= 0.6, but not near the left support edge, tabulated rows included:
    3.1e-3 at n = 500, q = 0.52; 1.3e-2 at 5000, 0.49; 4.2e-2 at 100,000,
    0.48; and 4.0e-3 at the untabulated n = 616, q = 0.5098 (ROADMAP 5).
    """
    q = _validate_q(q)
    y, m = _lookup_row(table, n)
    return _cubic(table.knots_t, y, m, q / (1.0 + q))


def _lookup_row(table: QuantileTable, n) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and spline tangents of size n's row: the tabulated row,
    or one synthesized through the four rows around n on the m = n/(n+1)
    axis, whose last node is the asymptotic row at m = 1. Refuses an n of
    the other parity, any synthesis from fewer than three finite rows and
    an n below the smallest row."""
    if n != math.inf:
        n = _check_n(n)
    if n in table.sizes:
        y = table.probs[table.sizes.index(n)]
    else:
        parity = _parity(n)
        if parity != table.parity:
            raise TableRangeError(f"n={n} is {parity}; the {table.parity} "
                                  f"table serves only {table.parity} sizes")
        finite = len(table.sizes) - 1
        if finite < 3:
            raise TableRangeError(f"too few rows in the {table.parity} table "
                                  f"({finite}) to synthesize n={n}")
        if n < table.sizes[0]:
            raise TableRangeError(
                f"n={n} is below the smallest tabulated size "
                f"{int(table.sizes[0])} of the {table.parity} table")
        lo = max(0, min(bisect.bisect(table.sizes, n) - 2, finite - 3))
        y = _synth_row(table, n, slice(lo, lo + 4))
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
