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
  N sigma_1^2 = (1/4) (pi^2/6 - J2 - J1^2).  On the log axis x = e^s the
  indicator is chi_{s<0}; subtracting the logistic g(s) = 1/(1 + e^s), whose
  own integrals int (chi_{s<0} - g) ds = 0 and int (chi_{s<0} - g) s ds =
  -pi^2/6 are known, leaves

      J1 = -int (g - f) ds,   J2 = 2 int (g - f) s ds   over the real line,

  with f(s) = prod_i (1 + e^s/y_i)^(-beta/2).  g - f has no jump, is analytic
  for |Im s| < pi and decays exponentially at both ends, so one trapezoid
  sum converges exponentially in the step (Trefethen & Weideman, SIAM Rev.
  56 (2014) 385).  When beta*d/2 is a positive integer and all y_i = 1 both
  integrals collapse to residue sums, which serve as an exact cross-check
  of the quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA, PI2_OVER_6, digamma, harmonic, trigamma
from .theory import _check_beta, _check_int, _check_real

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
]

#: Minimum pairwise relative separation required by the determinant formulas.
DISTINCTNESS_TOL = 1e-8

#: Absolute error target for each J integral.
QUADRATURE_TARGET = 1e-10

#: Trapezoid step on the log axis s = log x.
LOG_STEP = 1.0 / 8.0

#: Bound on each truncated tail of the J integrals.
TAIL_BOUND = 1e-18


class DistinctnessError(ValueError):
    """Eigenvalues of Sigma^{-1} too close for the determinant formulas."""


class QuadratureError(RuntimeError):
    """The J quadrature failed to reach the requested absolute error."""

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
        y = tuple(sorted(_check_real("eigenvalue of Sigma^{-1}", v) for v in self.y))
        if not y:
            raise ValueError("at least one eigenvalue is required")
        if any(not math.isfinite(v) or v <= 0.0 for v in y):
            raise ValueError("all eigenvalues of Sigma^{-1} must be finite and > 0")
        object.__setattr__(self, "y", y)

    @property
    def d(self):
        return len(self.y)

    def require_distinct(self):
        y = self.y
        for a, b in zip(y, y[1:]):
            if (b - a) / b <= DISTINCTNESS_TOL:
                raise DistinctnessError(f"eigenvalues {a!r} and {b!r} closer than "
                                        f"relative tolerance {DISTINCTNESS_TOL}")


@dataclass(frozen=True)
class JPair:
    J1: float
    J2: float


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


def _low_cut(log_c):
    """Lower end a < 0 with c e^a (2 + |a|) <= TAIL_BOUND, from log c.

    |g - f| <= c e^s everywhere, with c = max(1, (beta/2) sum 1/y_i), and
    int_{-inf}^a e^s (1 + |s|) ds = e^a (2 - a) for a < 0.  log c stays
    finite where the sum itself overflows (a tiny y_i).
    """
    a = math.log(TAIL_BOUND) - log_c
    for _ in range(3):
        a = math.log(TAIL_BOUND) - log_c - math.log(2.0 - a)
    return a


def _high_cut(s0, q):
    """Upper end b >= s0 with e^{-q (b - s0)} ((1 + b)/q + 1/q^2) <= TAIL_BOUND.

    For s >= s0 = max(0, log y_max), g <= e^{-(s - s0)} and
    f <= e^{-(beta d/2)(s - s0)}, so |g - f| <= e^{-q (s - s0)} with
    q = min(1, beta d/2).
    """
    b = s0 - math.log(TAIL_BOUND) / q
    for _ in range(3):
        b = s0 - math.log(TAIL_BOUND * q * q / (q * (1.0 + b) + 1.0)) / q
    return b


def j_integrals(beta, spec):
    """Evaluate (J1, J2) by one trapezoid sum on the log axis.

    With x = e^s and the logistic g(s) = 1/(1 + e^s) subtracted (module
    docstring), J1 = -int (g - f) ds and J2 = 2 int (g - f) s ds over the
    real line.  The integrand is -exp(-G) expm1(G - F) with
    G = log(1 + e^s) and F = (beta/2) sum_i log(1 + e^s/y_i), both from
    logaddexp, so it keeps its relative accuracy in both tails.  Nodes are
    the multiples of LOG_STEP between ends chosen so that each truncated
    tail is below TAIL_BOUND; the error estimate is the change from the
    sum over every other node (step 2 LOG_STEP), which for this integrand,
    analytic in |Im s| < pi, is far larger than the error itself.
    Eigenvalues need not be distinct here.
    """
    beta = _check_beta(beta)
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    y = np.asarray(spec.y)
    half_beta = 0.5 * beta
    logy = np.log(y)

    lo = _low_cut(max(0.0, math.log(half_beta) + float(np.logaddexp.reduce(-logy))))
    hi = _high_cut(max(0.0, float(logy[-1])), min(1.0, half_beta * spec.d))
    k = np.arange(math.floor(lo / LOG_STEP), math.ceil(hi / LOG_STEP) + 1)
    s = k * LOG_STEP

    big_g = np.logaddexp(0.0, s)
    big_f = half_beta * np.sum(np.logaddexp(0.0, s[:, None] - logy), axis=1)
    diff = -np.exp(-big_g) * np.expm1(big_g - big_f)  # g - f
    weighted = diff * s

    even = k % 2 == 0
    j1 = -LOG_STEP * float(np.sum(diff))
    j2 = 2.0 * LOG_STEP * float(np.sum(weighted))
    j1_coarse = -2.0 * LOG_STEP * float(np.sum(diff[even]))
    j2_coarse = 4.0 * LOG_STEP * float(np.sum(weighted[even]))

    worst = max(abs(j1 - j1_coarse), abs(j2 - j2_coarse))
    if worst > QUADRATURE_TARGET:
        raise QuadratureError("J integrals did not converge to the target accuracy", worst)
    return JPair(J1=j1, J2=j2)


def residue_j_sums(beta, d):
    """Closed-form (J1, J2) for y = 1^d whenever m = beta*d/2 is a positive integer.

    -J1 = H_{m-1}  and  -J2 = sum_{s=2}^{m-1} (2/s) H_{s-1}.
    """
    beta = _check_beta(beta)
    d = _check_int("d", d)
    m = beta * d / 2.0
    m_int = round(m)
    if d < 1 or abs(m - m_int) > 1e-9 or m_int < 1:
        raise ValueError(f"beta*d/2 must be a positive integer, got {m!r}")
    j1 = -harmonic(m_int - 1, 1)
    j2 = -math.fsum((2.0 / s) * harmonic(s - 1, 1) for s in range(2, m_int))
    return JPair(J1=j1, J2=j2)


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
