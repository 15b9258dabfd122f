"""Digamma, trigamma and generalized harmonic numbers in double precision,
and the package's input checks.

These are the building blocks of every closed-form exponent and variance in
this package.  Evaluation shifts the argument above 8 by the recurrences
psi(x) = psi(x+1) - 1/x and psi'(x) = psi'(x+1) + 1/x**2, then applies the
standard asymptotic (Bernoulli-number) series.

The input checks _check_int (an integer, with an optional lower bound) and
_check_real (a real number) live here, in the module that every other one
imports, and are the package's only checks of an integer or real it is
given: floats, bools and strings are rejected, not truncated or converted.
"""

import math
import numbers

__all__ = ["EULER_GAMMA", "PI2_OVER_6", "digamma", "trigamma", "harmonic"]

# Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329
# zeta(2) = pi**2/6 = trigamma(1), correctly rounded double.
PI2_OVER_6 = 1.6449340668482264

_SHIFT = 8.0

# -B_{2n}/(2n) for n = 1..7, Horner order (coefficients of x**-2n in psi).
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

# B_{2n} for n = 1..7 (coefficients of x**-(2n+1) in psi').
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _check_int(name, value, low=None):
    """``value`` as an int, at least ``low`` if given; floats, bools and
    strings are rejected, not truncated.  A plain int skips the ABC test."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_real(name, value):
    """``value`` as a float; bools and strings are rejected, not converted.
    A plain float skips the ABC test."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_domain(x, name):
    x = _check_real(name, x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a finite argument > 0, got {x!r}")
    return x


def digamma(x):
    """Digamma function psi(x) for x > 0, absolute error below 1e-13.

    Close to the pole at 0 the result is dominated by -1/x and the error is
    limited by the spacing of doubles there; the shift terms are summed
    exactly (fsum) so no further accuracy is lost.
    """
    x = _check_domain(x, "digamma")
    terms = []
    while x < _SHIFT:
        terms.append(-1.0 / x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = inv2 * (c + tail)
    terms.append(math.log(x) - 0.5 / x + tail)
    return math.fsum(terms)


def trigamma(x):
    """Trigamma function psi'(x) for x > 0, absolute error below 1e-12."""
    x = _check_domain(x, "trigamma")
    terms = []
    while x < _SHIFT:
        terms.append(1.0 / (x * x))
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_TRIGAMMA_TAIL):
        tail = inv2 * (c + tail)
    terms.append(inv + 0.5 * inv2 + inv * tail)
    return math.fsum(terms)


def harmonic(m, order=1):
    """Generalized harmonic number sum_{s=1}^{m} s**-order, order 1 or 2.

    The empty sum (m = 0) is 0.
    """
    order = _check_int("order", order)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    m = _check_int("m", m, 0)
    return math.fsum(1.0 / s**order for s in range(1, m + 1))
