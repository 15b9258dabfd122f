"""General-covariance results for products A_i = Sigma^{1/2} G_i.

The covariance enters only through the eigenvalues y_1..y_d of Sigma^{-1}
(unitary invariance), so a SigmaSpec is just that eigenvalue list.

Two independent routes are provided and cross-checked in the tests:

* complex entries (beta = 2) only: the full spectrum from a ratio of a
  modified Vandermonde determinant to the Vandermonde determinant, and the
  top variance from its explicit cofactor expansion (both require distinct
  eigenvalues);
* any beta in {1, 2, 4}: the top exponent and variance from the real
  integrals

      J1 = -int_0^inf (chi_{x in (0,1)} - prod_i (1 + x/y_i)^(-beta/2)) dx / x
      J2 = 2 int_0^inf (chi_{x in (0,1)} - prod_i (1 + x/y_i)^(-beta/2)) log(x)/x dx + pi^2/3

  via  2 mu_1 = -gamma + log(2/beta) - J1  and
  N sigma_1^2 = (1/4) (pi^2/6 - J2 - J1^2).  When beta*d/2 is a positive
  integer and all y_i = 1 both integrals collapse to residue sums, which
  serve as an exact cross-check of the quadrature.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .specfun import EULER_GAMMA, PI2_OVER_6, digamma, harmonic, trigamma
from .theory import _check_beta

__all__ = [
    "SigmaSpec",
    "JPair",
    "DistinctnessError",
    "QuadratureError",
    "sigma_spectrum_complex",
    "sigma_variance1_complex",
    "j_integrals",
    "residue_j_sums",
    "kargin_top",
    "kargin_mu1",
    "kargin_variance1",
]

#: Minimum pairwise relative separation required by the determinant formulas.
DISTINCTNESS_TOL = 1e-8

#: Absolute error target for each J integral.
QUADRATURE_TARGET = 1e-10


class DistinctnessError(ValueError):
    """Eigenvalues of Sigma^{-1} too close for the determinant formulas."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute error."""

    def __init__(self, message, estimate):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


@dataclass(frozen=True)
class SigmaSpec:
    """Eigenvalues y_1..y_d of Sigma^{-1}, stored sorted ascending.

    Sorting makes every operation an exact symmetric function of the input.
    """

    y: tuple

    def __post_init__(self):
        y = tuple(sorted(float(v) for v in self.y))
        if not y:
            raise ValueError("at least one eigenvalue is required")
        if any(not math.isfinite(v) or v <= 0.0 for v in y):
            raise ValueError("all eigenvalues of Sigma^{-1} must be finite and > 0")
        object.__setattr__(self, "y", y)

    @property
    def d(self):
        return len(self.y)

    def require_distinct(self, tol=DISTINCTNESS_TOL):
        y = self.y
        for a, b in zip(y, y[1:]):
            if (b - a) / b <= tol:
                raise DistinctnessError(
                    f"eigenvalues {a!r} and {b!r} closer than relative tolerance {tol}")


@dataclass(frozen=True)
class JPair:
    J1: float
    J2: float
    method: str  # "quadrature" or "residue"


def _inverse_cofactor_weights(y):
    """prod_{l != j} (1 - y_j / y_l) for each j (inverse weights)."""
    y = np.asarray(y)
    out = np.empty(len(y))
    for j in range(len(y)):
        others = np.delete(y, j)
        out[j] = np.prod(1.0 - y[j] / others)
    return out


def sigma_spectrum_complex(spec):
    """Full Lyapunov spectrum for beta = 2 and general covariance.

    mu_k is a ratio of the Vandermonde determinant in y with row k replaced
    by (log y_j) y_j^(k-1) to the plain Vandermonde determinant, scaled by
    -1/2, plus psi(k)/2.  k = 1 uses the explicit cofactor expansion; the
    other rows go through sign/log determinants of the full matrices.
    """
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    spec.require_distinct()
    y = np.asarray(spec.y)
    d = spec.d
    logy = np.log(y)

    weights = _inverse_cofactor_weights(y)
    mu = [(-0.5) * float(np.sum(logy / weights)) + 0.5 * digamma(1.0)]

    if d > 1:
        vander = np.vander(y, N=d, increasing=True).T  # rows i: y_j**(i-1)
        sign_v, logdet_v = np.linalg.slogdet(vander)
        for k in range(2, d + 1):
            mod = vander.copy()
            mod[k - 1] = logy * y ** (k - 1)
            sign_m, logdet_m = np.linalg.slogdet(mod)
            ratio = 0.0 if sign_m == 0 else float(sign_m * sign_v) * math.exp(float(logdet_m - logdet_v))
            mu.append(-0.5 * ratio + 0.5 * digamma(float(k)))
    return tuple(mu)


def sigma_variance1_complex(spec):
    """N sigma_1^2 for beta = 2 and general covariance (distinct eigenvalues)."""
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    spec.require_distinct()
    y = np.asarray(spec.y)
    logy = np.log(y)
    weights = _inverse_cofactor_weights(y)
    quad_term = float(np.sum(logy**2 / weights))
    lin_term = float(np.sum(logy / weights))
    return 0.25 * (trigamma(1.0) + quad_term - lin_term**2)


def _quad(fn, a, b, target):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(fn, a, b, epsabs=target * 1e-2, epsrel=1e-13, limit=400)
    return value, err


def j_integrals(beta, spec, target=QUADRATURE_TARGET):
    """Evaluate (J1, J2) by adaptive quadrature.

    The integrals are split at x = 1.  On (0, 1] the indicator makes the
    integrand 1 - prod(1 + x/y_i)^(-beta/2), which vanishes like x at the
    origin and is computed through expm1 of the summed log1p terms.  On
    [1, inf) the substitution x = exp(s) turns the algebraically decaying
    tail into an exponentially decaying integrand with no endpoint
    singularity.  Eigenvalues need not be distinct here.
    """
    beta = _check_beta(beta)
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    y = np.asarray(spec.y)
    half_beta = 0.5 * beta

    logy = np.log(y)

    def one_minus_prod(x):
        # 1 - prod_i (1 + x/y_i)^(-beta/2), accurate near x = 0
        s = half_beta * np.sum(np.log1p(x / y))
        return -math.expm1(-s)

    def tail_decay(s):
        # prod_i (1 + exp(s)/y_i)^(-beta/2) without forming exp(s)
        expo = half_beta * np.sum(np.logaddexp(0.0, s - logy))
        return math.exp(-expo) if expo < 745.0 else 0.0

    head1, e1 = _quad(lambda x: one_minus_prod(x) / x, 0.0, 1.0, target)
    tail1, e2 = _quad(tail_decay, 0.0, np.inf, target)
    j1 = -head1 + tail1

    head2, e3 = _quad(lambda x: one_minus_prod(x) * math.log(x) / x, 0.0, 1.0, target)
    tail2, e4 = _quad(lambda s: tail_decay(s) * s, 0.0, np.inf, target)
    j2 = 2.0 * (head2 - tail2) + 2.0 * PI2_OVER_6

    worst = max(e1 + e2, e3 + e4)
    if worst > target:
        raise QuadratureError("J integrals did not converge to the target accuracy", worst)
    return JPair(J1=j1, J2=j2, method="quadrature")


def residue_j_sums(beta, d):
    """Closed-form (J1, J2) for y = 1^d whenever m = beta*d/2 is a positive integer.

    -J1 = H_{m-1}  and  -J2 = sum_{s=2}^{m-1} (2/s) H_{s-1}.
    """
    beta = _check_beta(beta)
    d = int(d)
    m = beta * d / 2.0
    m_int = round(m)
    if d < 1 or abs(m - m_int) > 1e-9 or m_int < 1:
        raise ValueError(f"beta*d/2 must be a positive integer, got {m!r}")
    j1 = -harmonic(m_int - 1, 1)
    j2 = -math.fsum((2.0 / s) * harmonic(s - 1, 1) for s in range(2, m_int))
    return JPair(J1=j1, J2=j2, method="residue")


def kargin_top(beta, spec):
    """(mu_1, N sigma_1^2) for any beta from one evaluation of the J integrals:
    mu_1 = (-gamma + log(2/beta) - J1)/2 and N sigma_1^2 = (pi^2/6 - J2 - J1^2)/4."""
    beta = _check_beta(beta)
    pair = j_integrals(beta, spec)
    return (0.5 * (-EULER_GAMMA + math.log(2.0 / beta) - pair.J1),
            0.25 * (PI2_OVER_6 - pair.J2 - pair.J1 * pair.J1))


def kargin_mu1(beta, spec):
    """Largest Lyapunov exponent, any beta: mu_1 = (-gamma + log(2/beta) - J1)/2."""
    return kargin_top(beta, spec)[0]


def kargin_variance1(beta, spec):
    """Top variance, any beta: N sigma_1^2 = (pi^2/6 - J2 - J1^2)/4."""
    return kargin_top(beta, spec)[1]
