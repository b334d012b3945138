"""Quadrature and root finding primitives.

The integrators are vectorized: integrands receive a whole array of
abscissae per call. That matters for the nested integrals in the odd-count
sampling distribution, where the inner integral is evaluated simultaneously
for a batch of outer nodes; a scalar integrand interface would make the
table builds orders of magnitude slower.

``integrate`` is adaptive Gauss-Kronrod over panels. ``integrate_batch``
uses nested Clenshaw-Curtis levels, whose nodes carry over from one level
to the next, so refining never evaluates an abscissa twice (Trefethen,
"Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50(1),
2008). ``find_root`` is Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), step for step as in
scipy's ``brentq``.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule sits on every second node.
_XK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

# Full 15-node layout, ascending.
_NODES = np.concatenate([-_XK[:-1], [0.0], _XK[-2::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], [_WK[-1]], _WK[-2::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

_MAX_INTERVALS = 2048  # panel budget of integrate
_MAX_NODES = 2048      # top Clenshaw-Curtis level m (m + 1 nodes) of integrate_batch
_XTOL = 1e-10          # absolute tolerance of find_root
_RTOL = 4 * sys.float_info.epsilon  # relative tolerance of find_root (brentq's)
_MAX_ITER = 100        # iteration budget of find_root (brentq's)


def _finite(vals, what: str = "integrand returned") -> np.ndarray:
    vals = np.asarray(vals)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{what} a non-finite value")
    return vals


def _limits(lo, hi) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi < lo:
        raise DomainError("upper limit below lower limit")
    return lo, hi


def _panel_rule(f, a, b):
    """Apply the 15-point rule to each panel [a[i], b[i]] in one call."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = _finite(f(pts.ravel())).reshape(pts.shape)
    # numpy's own sums, not BLAS: a BLAS gemv picks its kernel, and so its
    # summation order, per host CPU, which moves the last bits of a result.
    # Finite values can overflow a sum; err is finite only if both sums are.
    with np.errstate(over="ignore", invalid="ignore"):
        est_k = half * (vals * _WEIGHTS_K).sum(axis=1)
        est_g = half * (vals * _WEIGHTS_G).sum(axis=1)
        err = np.abs(est_k - est_g)
    return est_k, _finite(err, "panel estimate overflowed to")


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of a vectorized scalar integrand.

    Panels whose local error exceeds their share of ``tol`` are bisected,
    all in one batched integrand call per refinement sweep.
    """
    lo, hi = _limits(lo, hi)
    if hi == lo:
        return 0.0

    width = hi - lo
    n0 = 8
    edges = lo + width * np.arange(n0 + 1) / n0
    a, b = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, a, b)

    # the panel budgets sum to tol / 2, so while the errors exceed tol
    # some panel is over its budget and gets split
    while errs.sum() > tol:
        split = errs > 0.5 * tol * (b - a) / width
        if a.size + split.sum() > _MAX_INTERVALS:
            raise ConvergenceError(
                f"integral did not converge within {_MAX_INTERVALS} panels "
                f"(residual error {errs.sum():.3e}, tol {tol:.3e})")
        sa, sb = a[split], b[split]
        sm = 0.5 * (sa + sb)
        na = np.concatenate([a[~split], sa, sm])
        nb = np.concatenate([b[~split], sm, sb])
        keep_vals, keep_errs = vals[~split], errs[~split]
        new_vals, new_errs = _panel_rule(f, np.concatenate([sa, sm]),
                                         np.concatenate([sm, sb]))
        a, b = na, nb
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])

    # fsum is correctly rounded, so the panels' order does not matter
    return math.fsum(vals)


@lru_cache(maxsize=None)
def _cc_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes cos(pi j / m), j = 0..m, and weights on [-1, 1].

    ``m`` is even. Built from ``math.cos`` in plain Python, so the rule
    does not depend on numpy's SIMD dispatch. The weights are the closed
    form w_j = (c_j / m) (1 - sum_k b_k cos(2 pi k j / m) / (4 k^2 - 1)),
    k = 1..m/2, with c_j = 1 at the ends and 2 inside, b_k = 1 at k = m/2
    and 2 below it.
    """
    cos = [math.cos(math.pi * i / m) for i in range(2 * m)]  # cos(pi i / m)
    half = m // 2
    w = [0.0] * (m + 1)
    for j in range(half + 1):
        acc = 1.0
        for k in range(1, half + 1):
            b = 1.0 if k == half else 2.0
            acc -= b * cos[(2 * k * j) % (2 * m)] / (4 * k * k - 1)
        w[j] = w[m - j] = (1.0 if j == 0 else 2.0) * acc / m
    return np.array(cos[:m + 1]), np.array(w)


def integrate_batch(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                    tol: float = 1e-10) -> np.ndarray:
    """Integrate a batch of smooth integrands sharing one interval.

    ``f`` maps an array of abscissae with shape (k,) to an array of shape
    (k, ...); each trailing slice is integrated independently. The rule is
    nested Clenshaw-Curtis: level m has the m + 1 nodes cos(pi j / m)
    mapped onto [lo, hi], m doubles from 16, and each level evaluates only
    its new odd-j nodes, so no abscissa is evaluated twice. Levels stop
    when successive estimates agree within ``tol`` (absolute, per
    component).
    """
    lo, hi = _limits(lo, hi)
    if hi == lo:
        probe = np.asarray(f(np.array([lo])))
        return np.zeros(probe.shape[1:])

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    prev = None
    vals = None
    m = 16
    while m <= _MAX_NODES:
        x, w = _cc_rule(m)
        if vals is None:
            vals = _finite(f(mid + half * x))
        else:
            new = _finite(f(mid + half * x[1::2]))
            both = np.empty((m + 1,) + new.shape[1:], dtype=new.dtype)
            both[0::2] = vals
            both[1::2] = new
            vals = both
        # fixed-order sum over the nodes; see _panel_rule for why not BLAS
        wk = w.reshape((-1,) + (1,) * (vals.ndim - 1))
        with np.errstate(over="ignore", invalid="ignore"):
            est = half * (wk * vals).sum(axis=0)
        _finite(est, "level estimate overflowed to")
        if prev is not None and np.max(np.abs(est - prev)) <= tol:
            return est
        prev = est
        m *= 2
    raise ConvergenceError(
        f"batched integral did not stabilize within {_MAX_NODES + 1} nodes")


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Brent root of a scalar function on a bracketing interval.

    A step-for-step port of scipy's ``brentq`` at ``xtol=_XTOL``, so roots
    and calls of ``f`` match it bit for bit. Raises ``ConvergenceError``
    when ``f`` has one sign at both ends, returns NaN, or needs more than
    ``_MAX_ITER`` iterations.
    """
    lo = float(lo)
    hi = float(hi)

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(
                f"root search on [{lo:g}, {hi:g}]: the function value at "
                f"x={x!r} is NaN")
        return fx

    def negative(v):  # C signbit
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = lo, hi
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ConvergenceError(f"root not bracketed on [{lo:g}, {hi:g}]: "
                               "f(a) and f(b) must have different signs")
    # xcur is the best estimate and xblk the other end of the bracket;
    # scur is the last step taken and spre the one before it
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        stry = math.inf  # bisect unless an interpolation step is accepted
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # C gets an infinite or NaN step here, which bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConvergenceError(
        f"root search on [{lo:g}, {hi:g}] did not converge within "
        f"{_MAX_ITER} iterations (last x={xcur!r})")

