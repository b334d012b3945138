"""Sampling distribution of the median scaled difference for IID normal data.

Everything is computed on the standardized scale (the subject observation
x0 is a standard normal deviate). Conditional on x0, each absolute scaled
difference of the subject against an independent standard normal partner
has distribution function

    F(d | x0) = Phi(x0 + d*sqrt(2)) - Phi(x0 - d*sqrt(2)),

and the subject's statistic is the median of n-1 such values, which are
independent given x0. Order-statistic theory then gives the conditional
distribution of the median in closed form; the marginal distribution is
the integral of that against the normal weight of x0.

Even n leaves an odd count of differences and a regularized incomplete
beta expression. Odd n leaves an even count, whose mean-of-central-order-
statistics median needs one extra inner integral. Odd n above 99 is
served by the even case at n + 1, which differs by less than 1e-4 in
probability.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DataError, DomainError
from .numerics import find_root, integrate, integrate_batch

__all__ = [
    "conditional_cdf",
    "cdf_even",
    "cdf_odd",
    "cdf_asymptotic",
    "cdf",
    "quantile",
    "ASYMPTOTIC_LOWER_BOUND",
]

_SQRT2 = math.sqrt(2.0)
_X0_CUTOFF = 8.5  # normal weight beyond this is < 1e-17, below every tolerance used

# Absolute quadrature tolerances in probability; the table file header
# records them, so changing one means regenerating the bundled tables.
_EVEN_TOL = 1e-9
_ODD_INNER_TOL = 1e-10
_ODD_OUTER_TOL = 1e-8

# The asymptotic distribution is zero left of (half-normal median)/sqrt(2).
ASYMPTOTIC_LOWER_BOUND = NormalDist().inv_cdf(0.75) / _SQRT2


def _integer(value) -> int | None:
    """``value`` as an int if it is a Python or numpy integer, not a bool."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return None


def _check_n(n) -> int:
    """The one check of a dataset size: an integer of at least 3."""
    size = _integer(n)
    if size is None or size < 3:
        raise DomainError(f"n must be an integer >= 3, got {n!r}")
    return size


def _check_int(name: str, value, rule: str, lo: int,
               hi: float = math.inf) -> int:
    """A run argument (replicates, seed, size): an integer in [lo, hi)."""
    checked = _integer(value)
    if checked is None or not lo <= checked < hi:
        raise DataError(f"{name} must be {rule}, got {value!r}")
    return checked


def conditional_cdf(d, x0):
    """P(|D| <= d) for one scaled difference, given the subject value x0."""
    from scipy import special

    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise DomainError("absolute difference must be non-negative")
    a = np.abs(x0)  # symmetric in x0
    s = d * _SQRT2
    return special.ndtr(s - a) - special.ndtr(-s - a)


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _validate_q(q) -> float:
    q = float(q)
    if not math.isfinite(q) or q < 0:
        raise DomainError(f"quantile argument must be finite and >= 0, got {q}")
    return q


def _validate_p(p) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie strictly inside (0, 1), got {p}")
    return p


def _validate_levels(ps) -> tuple[float, ...]:
    """A list of quantile levels: each one a probability, at least one."""
    if isinstance(ps, str) or not np.iterable(ps):
        raise DataError(
            f"quantile levels must be a list of probabilities, got {ps!r}")
    levels = tuple(_validate_p(p) for p in ps)
    if not levels:
        raise DataError("need at least one quantile level")
    return levels


def _marginal_cdf(q, n, parity: str, conditional, tol: float) -> float:
    """P(Q_E <= q) = 2 * int_0^cutoff P(median <= q | x0) phi(x0) dx0.

    ``cdf_even`` and ``cdf_odd`` differ only in the conditional probability,
    ``conditional(q, x0, r)`` with r = n // 2, and the outer tolerance.
    """
    q = _validate_q(q)
    n = _check_n(n)
    if ("odd" if n % 2 else "even") != parity:
        raise DomainError(f"cdf_{parity} requires {parity} n, got {n}")
    if q == 0.0:
        return 0.0
    r = n // 2

    def outer(x0):
        return conditional(q, x0, r) * _norm_pdf(x0)

    val = 2.0 * integrate(outer, 0.0, _X0_CUTOFF, tol=tol)
    return min(max(val, 0.0), 1.0)


def _even_conditional_cdf(q: float, x0: np.ndarray, r: int) -> np.ndarray:
    """P(median of 2r - 1 differences <= q | x0), batched over x0: the
    probability of r or more successes in 2r - 1 trials of success
    probability F(q | x0), the regularized incomplete beta I_F(r, r)."""
    from scipy import special

    return special.betainc(r, r, conditional_cdf(q, x0))


def cdf_even(q, n) -> float:
    """Marginal P(Q_E <= q) for even n, in closed form given x0."""
    return _marginal_cdf(q, n, "even", _even_conditional_cdf, 0.5 * _EVEN_TOL)


def _odd_conditional_cdf(q: float, x0: np.ndarray, r: int) -> np.ndarray:
    """P(median of 2r differences <= q | x0), batched over x0.

    With m(t) = mean of the r-th and (r+1)-th order statistics, the
    conditional CDF is

        (2 / B(r, r)) * int_0^q F(t)^(r-1) [S(t)^r - S(2q-t)^r] f(t) dt,

    all of F, S, f conditional on x0. The bracketed difference is
    evaluated in factored form because both survival powers underflow
    together at large r. The beta-function constant (which reaches 1e57
    by r = 94) multiplies the integrand, not the integral: the quadrature
    tolerance is absolute and only meaningful on the O(1) scale of the
    final probability.
    """
    from scipy import special

    const = 2.0 / special.beta(r, r)
    a = np.abs(x0)[None, :]  # symmetric in x0

    def g(t):
        # the conditional CDF F(t), survival S(t) = 1 - F(t) (free of
        # cancellation) and density f(t) of |D| written out, so that each
        # transcendental is taken once per element
        tc = t[:, None]
        s = tc * _SQRT2
        low = special.ndtr(-s - a)  # shared by F(t) and S(t)
        f_cdf = special.ndtr(s - a) - low
        sf1 = special.ndtr(a - s) + low
        s2 = (2.0 * q - tc) * _SQRT2
        sf2 = special.ndtr(a - s2) + special.ndtr(-a - s2)
        with np.errstate(divide="ignore", invalid="ignore"):
            # sf1 >= sf2 >= 0 on t <= q; diff = sf1^r - sf2^r without cancellation
            log_sf1 = np.log(sf1)
            ratio_log = r * (np.log(sf2) - log_sf1)
            diff = np.where(sf1 > 0.0, -np.exp(r * log_sf1) * np.expm1(ratio_log), 0.0)
        body = np.power(f_cdf, r - 1) * diff  # F^0 is exactly 1 at r = 1
        pdf = _SQRT2 * (np.exp(-0.5 * np.square(s - a))
                        + np.exp(-0.5 * np.square(s + a))) / math.sqrt(2.0 * math.pi)
        return const * body * pdf

    return integrate_batch(g, 0.0, q, tol=_ODD_INNER_TOL)


def cdf_odd(q, n) -> float:
    """Marginal P(Q_E <= q) for odd n by the nested double integral."""
    return _marginal_cdf(q, n, "odd", _odd_conditional_cdf, _ODD_OUTER_TOL)


def cdf_asymptotic(q) -> float:
    """Limiting CDF for large n: an indicator-integral with no quadrature.

    As n grows the conditional distribution of the median concentrates at
    its conditional population median, so the event "median <= q" becomes
    "F(q | x0) >= 1/2", whose normal probability is 2*Phi(x0*) - 1 with
    x0* the positive root of F(q | x0*) = 1/2.
    """
    q = _validate_q(q)
    if q <= ASYMPTOTIC_LOWER_BOUND:
        return 0.0
    from scipy import special

    hi = q * _SQRT2 + 10.0
    x0_star = find_root(lambda x0: float(conditional_cdf(q, x0)) - 0.5, 0.0, hi)
    return 2.0 * float(special.ndtr(x0_star)) - 1.0


# Odd n above this is served by the even case at n + 1, at runtime and
# in the table build alike.
_ODD_EXACT_LIMIT = 99


def cdf(q, n) -> float:
    """P(Q_E <= q) for a dataset of size n; n may be math.inf.

    Odd n above 99 is served by the even case at n + 1, which for such n
    agrees within 1e-4 in probability; ``cdf_odd`` stays exact there.
    """
    if n == math.inf:
        return cdf_asymptotic(q)
    n = _check_n(n)
    if n % 2 == 0:
        return cdf_even(q, n)
    if n <= _ODD_EXACT_LIMIT:
        return cdf_odd(q, n)
    return cdf_even(q, n + 1)


_QUANTILE_BRACKET_HI = 10.0


def quantile(p, n) -> float:
    """Inverse of ``cdf`` in q, accurate to better than 1e-6 in probability."""
    p = _validate_p(p)
    # the asymptotic CDF is flat at zero up to its support bound
    lo = ASYMPTOTIC_LOWER_BOUND + 1e-12 if n == math.inf else 0.0
    return find_root(lambda q: cdf(q, n) - p, lo, _QUANTILE_BRACKET_HI)
