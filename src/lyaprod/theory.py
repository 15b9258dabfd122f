"""Closed-form Lyapunov spectra and variances for matrix-product ensembles.

Every spectrum is reported as the pair (mu_i, N*sigma_i**2) for i = 1..d with
mu sorted descending.  Variances carry the factor N so callers supply the
number of product steps themselves.

Every closed form comes from one exact law: for each kind but general Sigma
the increment xi_i = log|r_ii| of a step (see the montecarlo module) has a
known law, independent over i.  A kind is a table of laws, one per factor
type of its quota schedule, and _law_spectrum reduces it to
mu_i = sum_t share_t E xi_i^(t) (by psi) and N sigma_i2 = sum_t share_t
Var xi_i^(t) (by psi'); the deterministic schedule adds no variance.

* Gaussian step with offset nu (a (d + nu) x d factor, nu = 0 if square),
  beta in {1, 2, 4}: xi_i = (1/2) log(2/beta) + (1/2) log X with
  X ~ Gamma(beta (d + nu - i + 1) / 2, 1), by the Bartlett decomposition
  (Bartlett 1933; Goodman, Ann. Math. Statist. 34 (1963) 152), so
      mu_i       = (1/2) log(2/beta) + (1/2) psi(beta (d + nu - i + 1) / 2)
      N sigma_i2 = (1/4) psi'(beta (d + nu - i + 1) / 2)
  Rectangular factors with offsets gamma_s in proportions alpha_s average
  these over the offsets.
* Inverse Gaussian step: xi_i ~ -xi^Gauss_{d+1-i}.  Write G = L Q, L lower
  triangular, and let J reverse the order.  Then G^-1 J = (Q^H J)(J L^-1 J)
  with J L^-1 J upper triangular of diagonal 1/l_{d+1-i}, G^-1 J ~ G^-1 by
  right invariance, and |l_ii| has the law of a Gaussian |r_ii| (G^H ~ G).
  A mixture with Gaussian share alpha_plus combines the two laws.
* Truncated Haar unitary (top d x d block of a (d+n) x (d+n) unitary):
  xi_i = (1/2) log Y with Y ~ Beta(beta (d - i + 1) / 2, beta n / 2) for
  every n >= 1, so
      mu_i       = (1/2) (psi(beta (d - i + 1) / 2) - psi(beta (n + d - i + 1) / 2))
      N sigma_i2 = (1/4) (psi'(beta (d - i + 1) / 2) - psi'(beta (n + d - i + 1) / 2))
  Proof: the first k columns of a factor are the top d rows X = G1 R^-1 of
  the Q = G R^-1 of a (d + n) x k Gaussian G with top rows G1, so
  |r^X_ii| = |r^G1_ii| / |r^G_ii|.  Column i of G, less its projection on
  the earlier ones, has independent parts in two orthogonal subspaces: the
  vectors with zero bottom rows orthogonal to the earlier columns of G1
  (dimension d - i + 1, squared part |r^G1_ii|^2) and the rest (dimension
  n).  So |r^X_ii|^2 = A / (A + B) with independent A ~ Gamma(beta (d - i
  + 1) / 2) and B ~ Gamma(beta n / 2), a Beta variable.  This needs no
  density of the truncation, which exists only for n >= d (see Adhikari,
  Reddy, Reddy & Saha, Ann. Inst. H. Poincare Probab. Stat. 52 (2016) 16);
  n = 0 gives xi = 0.
"""

import math
from dataclasses import dataclass

from .specfun import _check_int, _check_real, digamma, trigamma

__all__ = [
    "VALID_BETA",
    "TheorySpectrum",
    "RectangularSpec",
    "gaussian_spectrum",
    "rectangular_spectrum",
    "mixture_spectrum",
    "truncated_unitary_spectrum",
]

VALID_BETA = (1, 2, 4)

_PROPORTION_TOL = 1e-12


def _check_beta(beta):
    beta = _check_int("beta", beta)
    if beta not in VALID_BETA:
        raise ValueError(f"beta must be one of {VALID_BETA}, got {beta!r}")
    return beta


def _check_dim(d):
    return _check_int("matrix dimension d", d, 1)


def _check_share(alpha_plus):
    """The Gaussian share of a Gaussian / inverse-Gaussian mixture, a float in [0, 1]."""
    alpha_plus = _check_real("alpha_plus", alpha_plus)
    if not 0.0 <= alpha_plus <= 1.0:
        raise ValueError(f"alpha_plus must lie in [0, 1], got {alpha_plus!r}")
    return alpha_plus


def _check_truncation(n):
    return _check_int("truncation size n", n, 0)


@dataclass(frozen=True)
class TheorySpectrum:
    """Exact Lyapunov exponents mu (descending) and N-scaled variances of the
    indices 1..m, 1 <= m <= d, that a theory route covers, and ``laws``,
    entry t the increment law of quota-schedule type t (see _law_spectrum)."""

    beta: int
    d: int
    mu: tuple
    n_sigma2: tuple
    laws: tuple = ()

    def __post_init__(self):
        if not 1 <= len(self.mu) == len(self.n_sigma2) <= self.d:
            raise ValueError("mu and n_sigma2 must have one length m, 1 <= m <= d")


@dataclass(frozen=True)
class RectangularSpec:
    """Offsets gamma_s (distinct non-negative integers) with proportions alpha_s."""

    shapes: tuple  # of (offset, proportion) pairs

    def __post_init__(self):
        try:
            shapes = tuple((g, a) for g, a in self.shapes)
        except (TypeError, ValueError):
            raise ValueError(
                f"shapes must be (offset, proportion) pairs, got {self.shapes!r}") from None
        shapes = tuple((_check_int("offset", g, 0), _check_real("proportion", a))
                       for g, a in shapes)
        object.__setattr__(self, "shapes", shapes)
        if not shapes:
            raise ValueError("at least one (offset, proportion) pair is required")
        offsets = [g for g, _ in shapes]
        if len(set(offsets)) != len(offsets):
            raise ValueError("offsets must be pairwise distinct")
        # negated comparisons, so that a NaN proportion is rejected too
        if not all(a > 0.0 for _, a in shapes):
            raise ValueError("proportions must be positive")
        total = math.fsum(a for _, a in shapes)
        if not abs(total - 1.0) <= _PROPORTION_TOL:
            raise ValueError(f"proportions must sum to 1 (got {total!r})")

    @property
    def offsets(self):
        return tuple(g for g, _ in self.shapes)

    @property
    def proportions(self):
        return tuple(a for _, a in self.shapes)


def _law_spectrum(beta, d, laws):
    """The spectrum of the law table ``laws``.  In entry (share, sign, a, b),
    the steps of one factor type have increments sign * xi_i, where xi_i is
    (1/2) log(2/beta) + (1/2) log X with X ~ Gamma(a[i-1], 1) if b is None,
    else (1/2) log Y with Y ~ Beta(a[i-1], b) (see the module docstring)."""
    mu, ns2 = [0] * d, [0] * d
    for share, sign, a, b in laws:
        for i, s in enumerate(a):
            c, m, v = ((0.5 * math.log(2.0 / beta), digamma(s), trigamma(s)) if b is None else
                       (0.0, digamma(s) - digamma(s + b), trigamma(s) - trigamma(s + b)))
            mu[i] += share * sign * (c + 0.5 * m)
            ns2[i] += share * (0.25 * v)
    return TheorySpectrum(beta=beta, d=d, mu=tuple(mu), n_sigma2=tuple(ns2), laws=laws)


def _law_shapes(beta, d, offset=0):
    """beta (d + offset - i + 1) / 2 for i = 1..d."""
    return tuple(beta * (offset + d - i + 1) / 2.0 for i in range(1, d + 1))


def gaussian_spectrum(beta, d):
    """Spectrum for products of square standard Gaussian matrices: the
    rectangular spectrum of the single offset 0."""
    return rectangular_spectrum(beta, d, ((0, 1.0),))


def rectangular_spectrum(beta, d, spec):
    """Spectrum when factor sizes carry offsets gamma_s in proportions alpha_s."""
    beta, d = _check_beta(beta), _check_dim(d)
    if not isinstance(spec, RectangularSpec):
        spec = RectangularSpec(spec)
    return _law_spectrum(beta, d, tuple((a, 1, _law_shapes(beta, d, g), None)
                                        for g, a in spec.shapes))


def mixture_spectrum(beta, d, alpha_plus):
    """Spectrum for a Gaussian / inverse-Gaussian factor mixture.

    Gaussian steps (share alpha_plus, type 0) have the Gaussian law, inverse
    steps (type 1) its reversed negation xi_i ~ -xi^Gauss_{d+1-i}, so the pure
    inverse ensemble has mu-_i = -mu+_{d+1-i} and variances s-_i = s+_{d+1-i}.
    """
    ap = _check_share(alpha_plus)
    beta, d = _check_beta(beta), _check_dim(d)
    gauss = _law_shapes(beta, d)
    return _law_spectrum(beta, d, ((ap, 1, gauss, None), (1.0 - ap, -1, gauss[::-1], None)))


def truncated_unitary_spectrum(beta, d, n):
    """Spectrum for products of d x d corners of (d+n) x (d+n) Haar unitaries.

    Each step has xi_i = (1/2) log Y_i, Y_i ~ Beta(beta (d - i + 1) / 2,
    beta n / 2), for every n >= 1 (see the module docstring).  n = 0 gives
    the zero spectrum (the factors are unitary).
    """
    beta, d, n = _check_beta(beta), _check_dim(d), _check_truncation(n)
    return _law_spectrum(beta, d, ((1.0, 1, _law_shapes(beta, d), beta * n / 2.0),))
