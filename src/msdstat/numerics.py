"""Quadrature, root finding, and monotone interpolation primitives.

The integrators are vectorized: integrands receive a whole array of
abscissae per call. That matters for the nested integrals in the odd-count
sampling distribution, where the inner integral is evaluated simultaneously
for a batch of outer nodes; a scalar integrand interface would make the
table builds orders of magnitude slower.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import optimize

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


def _panel_rule(f, a, b):
    """Apply the 15-point rule to each panel [a[i], b[i]] in one call."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand returned a non-finite value")
    # numpy's own sums, not BLAS: a BLAS gemv picks its kernel, and so its
    # summation order, per host CPU, which moves the last bits of a result
    est_k = half * (vals * _WEIGHTS_K).sum(axis=1)
    est_g = half * (vals * _WEIGHTS_G).sum(axis=1)
    return est_k, np.abs(est_k - est_g)


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              tol: float = 1e-10, max_intervals: int = 2048) -> float:
    """Adaptive Gauss-Kronrod integral of a vectorized scalar integrand.

    Panels whose local error exceeds their share of ``tol`` are bisected,
    all in one batched integrand call per refinement sweep.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi == lo:
        return 0.0
    if hi < lo:
        raise DomainError("upper limit below lower limit")

    width = hi - lo
    n0 = 8
    edges = lo + width * np.arange(n0 + 1) / n0
    a, b = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, a, b)

    while True:
        if errs.sum() <= tol:
            break
        budget = 0.5 * tol * (b - a) / width
        split = errs > budget
        if not split.any():
            break
        if a.size + split.sum() > max_intervals:
            raise ConvergenceError(
                f"integral did not converge within {max_intervals} panels "
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

    # positional summation keeps the result independent of split order
    order = np.argsort(a, kind="stable")
    return math.fsum(vals[order])


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    if k not in _GL_CACHE:
        _GL_CACHE[k] = np.polynomial.legendre.leggauss(k)
    return _GL_CACHE[k]


def integrate_batch(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                    tol: float = 1e-10, max_nodes: int = 2048) -> np.ndarray:
    """Integrate a batch of smooth integrands sharing one interval.

    ``f`` maps an array of abscissae with shape (k,) to an array of shape
    (k, ...); each trailing slice is integrated independently. Node counts
    double until successive Gauss-Legendre estimates agree within ``tol``
    (absolute, per component).
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi == lo:
        probe = np.asarray(f(np.array([lo, lo])))
        return np.zeros(probe.shape[1:])
    if hi < lo:
        raise DomainError("upper limit below lower limit")

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    prev = None
    k = 16
    while k <= max_nodes:
        x, w = _gl_rule(k)
        vals = np.asarray(f(mid + half * x))
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand returned a non-finite value")
        # fixed-order sum over the nodes; see _panel_rule for why not BLAS
        wk = w.reshape((-1,) + (1,) * (vals.ndim - 1))
        est = half * (wk * vals).sum(axis=0)
        if prev is not None and np.max(np.abs(est - prev)) <= tol:
            return est
        prev = est
        k *= 2
    raise ConvergenceError(
        f"batched integral did not stabilize within {max_nodes} nodes")


def find_root(f: Callable[[float], float], lo: float, hi: float,
              xtol: float = 1e-10) -> float:
    """Brent root of a scalar function on a bracketing interval."""
    try:
        return float(optimize.brentq(f, lo, hi, xtol=xtol))
    except ValueError as exc:
        raise ConvergenceError(
            f"root not bracketed on [{lo:g}, {hi:g}]: {exc}") from exc


class MonotoneSpline:
    """Monotone cubic interpolant of non-decreasing data.

    Tangents start from three-point parabolic estimates and are then
    clamped to [0, 3 * min(adjacent secants)], which is the classic filter
    guaranteeing the Hermite cubic preserves monotonicity. Knot values are
    reproduced exactly; evaluation outside the knot span is an error.
    """

    def __init__(self, t, y):
        t = np.ascontiguousarray(t, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape or t.size < 2:
            raise DomainError("need matching 1-d knot and value arrays, length >= 2")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise DomainError("knots and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise DomainError("knots must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise DomainError("values must be non-decreasing")

        h = np.diff(t)
        delta = np.diff(y) / h
        m = np.empty_like(y)
        m[0] = delta[0]
        m[-1] = delta[-1]
        if y.size > 2:
            m[1:-1] = (h[1:] * delta[:-1] + h[:-1] * delta[1:]) / (h[1:] + h[:-1])
        cap = np.empty_like(y)
        cap[0] = 3.0 * delta[0]
        cap[-1] = 3.0 * delta[-1]
        if y.size > 2:
            cap[1:-1] = 3.0 * np.minimum(delta[:-1], delta[1:])
        self._t = t
        self._y = y
        self._m = np.clip(m, 0.0, cap)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        t, y, m = self._t, self._y, self._m
        if np.any(x_arr < t[0]) or np.any(x_arr > t[-1]):
            raise DomainError(
                f"evaluation point outside knot span [{t[0]:g}, {t[-1]:g}]")
        idx = np.clip(np.searchsorted(t, x_arr, side="right") - 1, 0, t.size - 2)
        h = t[idx + 1] - t[idx]
        s = (x_arr - t[idx]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * y[idx] + h10 * h * m[idx]
               + h01 * y[idx + 1] + h11 * h * m[idx + 1])
        return float(out[0]) if scalar else out
