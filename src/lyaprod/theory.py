"""Closed-form Lyapunov spectra and variances for matrix-product ensembles.

Every spectrum is reported as the pair (mu_i, N*sigma_i**2) for i = 1..d with
mu sorted descending.  Variances carry the factor N so callers supply the
number of product steps themselves:

* square Gaussian, Dyson index beta in {1, 2, 4}:
      mu_i       = (1/2) log(2/beta) + (1/2) psi(beta (d - i + 1) / 2)
      N sigma_i2 = (1/4) psi'(beta (d - i + 1) / 2)
* rectangular Gaussian with integer offsets gamma_s in proportions alpha_s:
  the psi/psi' arguments are averaged over the offsets,
      mu_i = (1/2) log(2/beta) + (1/2) sum_s alpha_s psi(beta (gamma_s + d - i + 1) / 2)
  and likewise with psi' for the variances;
* mixtures of Gaussian and inverse-Gaussian factors in proportions
  (alpha_plus, alpha_minus): a plus/minus-weighted combination of the pure
  Gaussian spectrum with the index reversed on the minus part;
* truncated Haar unitary (top d x d block of a (d+n) x (d+n) unitary):
      mu_i       = (1/2) (psi(beta (d - i + 1) / 2) - psi(beta (n + d - i + 1) / 2))
      N sigma_i2 = (1/4) (psi'(beta (d - i + 1) / 2) - psi'(beta (n + d - i + 1) / 2))
"""

import math
import numbers
from dataclasses import dataclass, field

from .specfun import digamma, trigamma

__all__ = [
    "VALID_BETA",
    "TheorySpectrum",
    "RectangularSpec",
    "MixtureSpec",
    "gaussian_spectrum",
    "rectangular_spectrum",
    "mixture_spectrum",
    "truncated_unitary_spectrum",
]

VALID_BETA = (1, 2, 4)

_PROPORTION_TOL = 1e-12


def _check_int(name, value):
    """``value`` as an int; floats, bools and strings are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_beta(beta):
    beta = _check_int("beta", beta)
    if beta not in VALID_BETA:
        raise ValueError(f"beta must be one of {VALID_BETA}, got {beta!r}")
    return beta


def _check_dim(d):
    d = _check_int("matrix dimension d", d)
    if d < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {d}")
    return d


def _check_truncation(n):
    n = _check_int("truncation size n", n)
    if n < 0:
        raise ValueError(f"truncation size n must be >= 0, got {n}")
    return n


@dataclass(frozen=True)
class TheorySpectrum:
    """Exact Lyapunov exponents mu (descending) and N-scaled variances."""

    beta: int
    d: int
    mu: tuple
    n_sigma2: tuple
    warning: str | None = None

    def __post_init__(self):
        if len(self.mu) != self.d or len(self.n_sigma2) != self.d:
            raise ValueError("mu and n_sigma2 must both have length d")


@dataclass(frozen=True)
class RectangularSpec:
    """Offsets gamma_s (distinct non-negative integers) with proportions alpha_s."""

    shapes: tuple  # of (offset, proportion) pairs

    def __post_init__(self):
        shapes = tuple((_check_int("offset", g), float(a)) for g, a in self.shapes)
        object.__setattr__(self, "shapes", shapes)
        if not shapes:
            raise ValueError("at least one (offset, proportion) pair is required")
        offsets = [g for g, _ in shapes]
        if any(g < 0 for g in offsets):
            raise ValueError("offsets must be non-negative integers")
        if len(set(offsets)) != len(offsets):
            raise ValueError("offsets must be pairwise distinct")
        if any(a <= 0.0 for _, a in shapes):
            raise ValueError("proportions must be positive")
        total = math.fsum(a for _, a in shapes)
        if abs(total - 1.0) > _PROPORTION_TOL:
            raise ValueError(f"proportions must sum to 1 (got {total!r})")

    @property
    def offsets(self):
        return tuple(g for g, _ in self.shapes)

    @property
    def proportions(self):
        return tuple(a for _, a in self.shapes)


@dataclass(frozen=True)
class MixtureSpec:
    """Proportions of Gaussian (alpha_plus) and inverse-Gaussian factors."""

    alpha_plus: float
    alpha_minus: float = field(default=None)

    def __post_init__(self):
        ap = float(self.alpha_plus)
        am = 1.0 - ap if self.alpha_minus is None else float(self.alpha_minus)
        object.__setattr__(self, "alpha_plus", ap)
        object.__setattr__(self, "alpha_minus", am)
        if not (0.0 <= ap <= 1.0 and 0.0 <= am <= 1.0):
            raise ValueError("proportions must lie in [0, 1]")
        if abs(ap + am - 1.0) > _PROPORTION_TOL:
            raise ValueError("alpha_plus + alpha_minus must equal 1")


def gaussian_spectrum(beta, d):
    """Spectrum for products of square standard Gaussian matrices."""
    beta = _check_beta(beta)
    d = _check_dim(d)
    half_log = 0.5 * math.log(2.0 / beta)
    mu = tuple(half_log + 0.5 * digamma(beta * (d - i + 1) / 2.0) for i in range(1, d + 1))
    ns2 = tuple(0.25 * trigamma(beta * (d - i + 1) / 2.0) for i in range(1, d + 1))
    return TheorySpectrum(beta=beta, d=d, mu=mu, n_sigma2=ns2)


def rectangular_spectrum(beta, d, spec):
    """Spectrum when factor sizes carry offsets gamma_s in proportions alpha_s."""
    beta = _check_beta(beta)
    d = _check_dim(d)
    if not isinstance(spec, RectangularSpec):
        spec = RectangularSpec(tuple(spec))
    half_log = 0.5 * math.log(2.0 / beta)
    mu = []
    ns2 = []
    for i in range(1, d + 1):
        mu.append(half_log + 0.5 * sum(
            a * digamma(beta * (g + d - i + 1) / 2.0) for g, a in spec.shapes))
        ns2.append(0.25 * sum(
            a * trigamma(beta * (g + d - i + 1) / 2.0) for g, a in spec.shapes))
    return TheorySpectrum(beta=beta, d=d, mu=tuple(mu), n_sigma2=tuple(ns2))


def mixture_spectrum(beta, d, mix):
    """Spectrum for a Gaussian / inverse-Gaussian factor mixture.

    With (mu+, s+) the pure Gaussian spectrum, the exponents of the pure
    inverse ensemble are the reversed negations mu-_i = -mu+_{d+1-i} and the
    variances the reversals s-_i = s+_{d+1-i}; a proportion-(alpha_plus,
    alpha_minus) mixture combines them linearly.
    """
    if not isinstance(mix, MixtureSpec):
        mix = MixtureSpec(float(mix))
    base = gaussian_spectrum(beta, d)
    ap, am = mix.alpha_plus, mix.alpha_minus
    mu = tuple(ap * base.mu[i] - am * base.mu[d - 1 - i] for i in range(d))
    ns2 = tuple(ap * base.n_sigma2[i] + am * base.n_sigma2[d - 1 - i] for i in range(d))
    return TheorySpectrum(beta=base.beta, d=d, mu=mu, n_sigma2=ns2)


def truncated_unitary_spectrum(beta, d, n):
    """Spectrum for products of d x d corners of (d+n) x (d+n) Haar unitaries.

    The closed form is derived for n >= d; for 0 < n < d it is still well
    defined and expected to hold, so it is computed anyway and the result
    carries a warning flag.  n = 0 gives the zero spectrum (the factors are
    unitary).
    """
    beta = _check_beta(beta)
    d = _check_dim(d)
    n = _check_truncation(n)
    mu = tuple(
        0.5 * (digamma(beta * (d - i + 1) / 2.0) - digamma(beta * (n + d - i + 1) / 2.0))
        for i in range(1, d + 1))
    ns2 = tuple(
        0.25 * (trigamma(beta * (d - i + 1) / 2.0) - trigamma(beta * (n + d - i + 1) / 2.0))
        for i in range(1, d + 1))
    warning = None
    if 0 < n < d:
        warning = ("n < d is beyond the proved regime of the closed form; "
                   "values are computed from the same expression")
    return TheorySpectrum(beta=beta, d=d, mu=mu, n_sigma2=ns2, warning=warning)
