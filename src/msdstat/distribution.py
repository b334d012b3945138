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
import numbers
from statistics import NormalDist

import numpy as np

from .errors import DataError, DomainError
from .numerics import find_root, integrate, integrate_batch

_SQRT2 = math.sqrt(2.0)
_X0_CUTOFF = 8.5  # normal weight beyond this is < 1e-17, below every tolerance used

# Absolute quadrature tolerances in probability; the table file header
# records them, so changing one means regenerating the bundled tables.
_EVEN_TOL = 1e-9
# integrate_batch accepts a level when, in every x0 column, it agrees with
# the level before within this tol, or, from the third level on, when the
# difference did not grow and its geometric extrapolation is within tol
_ODD_INNER_TOL = 1e-10
_ODD_OUTER_TOL = 1e-8

# The asymptotic distribution is zero left of (half-normal median)/sqrt(2).
_ASYMPTOTIC_LOWER_BOUND = NormalDist().inv_cdf(0.75) / _SQRT2


def _check_int(name: str, value, rule: str, lo: int, hi: float = math.inf,
               error: type = DataError) -> int:
    """The one integer check: a Python or numpy integer, not a bool, in
    [lo, hi), returned as an int. A failure raises ``error``: DataError for
    a run argument (replicates, seed, size), DomainError for n."""
    # int() before comparing: numpy 1.x compares a uint64 near 2**64 with a
    # Python int through float64
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not lo <= int(value) < hi):
        raise error(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """The one real-number type rule: a numbers.Real that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(name: str, value, rule: str, ok,
                error: type = DataError) -> float:
    """The one real-number check: ``value`` under ``_is_real``, converted
    with float, for which ``ok`` holds; returned as that float. A failure
    raises ``error``: DomainError for p and q, DataError for a grid value,
    a critical value or a p-value."""
    try:
        x = float(value) if _is_real(value) else None
    except OverflowError:  # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if x is None or not ok(x):
        shown = value if x is None else x
        raise error(f"{name} must {rule}, got {shown!r}")
    return x


def _check_n(n) -> int:
    """The one check of a dataset size: an integer of at least 3."""
    return _check_int("n", n, "an integer >= 3", 3, error=DomainError)


def _parity(n: int) -> str:
    """The parity of size n, which picks its exact case and its table."""
    return "odd" if n % 2 else "even"


def _check_seed(seed) -> int:
    """The one rule for a seed: an integer in [0, 2**64)."""
    return _check_int("seed", seed, "a 64-bit integer", 0, 2 ** 64)


def _conditional_cdf(d, x0):
    """P(|D| <= d), for d >= 0, of one scaled difference given x0."""
    from scipy import special

    a = np.abs(x0)  # symmetric in x0
    s = d * _SQRT2
    return special.ndtr(s - a) - special.ndtr(-s - a)


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _validate_q(q) -> float:
    return _check_real("quantile argument", q, "be finite and >= 0",
                       lambda x: math.isfinite(x) and x >= 0, DomainError)


def _validate_p(p) -> float:
    return _check_real("probability", p, "lie strictly inside (0, 1)",
                       lambda x: 0.0 < x < 1.0, DomainError)


def _check_list(values, what: str, member) -> tuple:
    """The one list rule: a non-empty, non-string iterable of values under
    ``_is_real``, each of which ``member`` checks and converts."""
    items = (None if isinstance(values, str) or not np.iterable(values)
             else tuple(values))
    if not items or not all(map(_is_real, items)):
        raise DataError(f"{what}, got {values!r}")
    return tuple(map(member, items))


def _validate_levels(ps) -> tuple[float, ...]:
    """A list of quantile levels: each one a probability, at least one."""
    return _check_list(
        ps, "quantile levels must be a non-empty list of probabilities",
        _validate_p)


def _marginal_cdf(q, n, parity: str, conditional, tol: float) -> float:
    """P(Q_E <= q) = 2 * int_0^cutoff P(median <= q | x0) phi(x0) dx0.

    ``cdf_even`` and ``cdf_odd`` differ only in the conditional probability,
    ``conditional(q, x0, r)`` with r = n // 2, and the outer tolerance.
    """
    q = _validate_q(q)
    n = _check_n(n)
    if _parity(n) != parity:
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

    return special.betainc(r, r, _conditional_cdf(q, x0))


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
    if q <= _ASYMPTOTIC_LOWER_BOUND:
        return 0.0
    from scipy import special

    hi = q * _SQRT2 + 10.0
    x0_star = find_root(lambda x0: float(_conditional_cdf(q, x0)) - 0.5, 0.0, hi)
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
    if _parity(n) == "even":
        return cdf_even(q, n)
    if n <= _ODD_EXACT_LIMIT:
        return cdf_odd(q, n)
    return cdf_even(q, n + 1)


_QUANTILE_BRACKET_HI = 10.0


def quantile(p, n) -> float:
    """Inverse of ``cdf`` in q, accurate to better than 1e-6 in probability."""
    p = _validate_p(p)
    # the asymptotic CDF is flat at zero up to its support bound
    lo = _ASYMPTOTIC_LOWER_BOUND + 1e-12 if n == math.inf else 0.0
    return find_root(lambda q: cdf(q, n) - p, lo, _QUANTILE_BRACKET_HI)
