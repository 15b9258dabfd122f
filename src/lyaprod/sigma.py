"""General-covariance results for products A_i = Sigma^{1/2} G_i.

The covariance enters only through the eigenvalues y_1..y_d of Sigma^{-1}
(unitary invariance), so a SigmaSpec is just that eigenvalue list.

Two independent routes, each returning a TheorySpectrum, are cross-checked:

* complex entries (beta = 2) only: every exponent mu_k and variance
  N sigma_k^2 from the one matrix L = V diag(log y) V^-1, V_pl = y_l^p,
  the logarithm of the companion-type matrix V diag(y) V^-1 (see
  sigma_spectrum_complex; distinct, unclustered eigenvalues only);
* any beta in {1, 2, 4}: the top exponent and variance (kargin_top) from
  the real integrals

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
from .theory import TheorySpectrum, _check_beta, _check_int, _check_real

__all__ = [
    "SigmaSpec",
    "JPair",
    "DistinctnessError",
    "QuadratureError",
    "sigma_spectrum_complex",
    "j_integrals",
    "residue_j_sums",
    "kargin_top",
    "kargin_mu1",
]

#: Minimum pairwise relative separation required by the determinant formulas.
DISTINCTNESS_TOL = 1e-8

#: Largest admitted rounding error bound on a diagonal entry of L (_log_matrix).
LOG_MATRIX_TOL = 1e-4

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


def _log_matrix(spec):
    """L = V diag(log y) V^-1, V_pl = y_l^p (p, l from 0), for distinct y.

    Row l of V^-1 is the Lagrange polynomial prod_{m != l} (x - y_m)/(y_l - y_m):
    W_lq = (-1)^(d-1-q) e_{d-1-q}(y without y_l) / prod_{m != l} (y_l - y_m),
    e_j from the all-positive recurrence e_j(S + {z}) = e_j(S) + z e_{j-1}(S).
    On z = y / y_max it returns L(z) + log(y_max) I = D L(y) D^-1 (D =
    diag(y_max^-p): same diagonal and L_ij L_ji), with the logs centred on
    c = (log y_min + log y_max)/2, which halves the largest term of each sum.

    Row l of W has relative error at most r_l = eps (4d + sum_{m != l} (z_l +
    z_m) / |z_l - z_m|), so L_kk errs by at most sum_l |z_l^k (log y_l - c)
    W_lk| r_l; clustered y that pass require_distinct can push that bound
    past LOG_MATRIX_TOL, which raises DistinctnessError.
    """
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    spec.require_distinct()
    y = np.asarray(spec.y)
    d = spec.d
    z = y / y[-1]
    e = np.zeros((d, d))  # e[l, j] = e_j(z without z_l)
    e[:, 0] = 1.0
    for m in range(d):
        grow = z[m] * e[:, :-1]
        grow[m] = 0.0
        e[:, 1:] += grow
    diff = z[:, None] - z
    np.fill_diagonal(diff, 1.0)
    w = e[:, ::-1] * (-1.0) ** np.arange(d - 1, -1, -1) / np.prod(diff, axis=1)[:, None]
    log_y = np.log(y)
    c = 0.5 * float(log_y[0] + log_y[-1])
    left = z ** np.arange(d)[:, None] * (log_y - c)
    spread = (z[:, None] + z) / np.abs(diff)
    np.fill_diagonal(spread, 0.0)
    bound = np.finfo(float).eps * float(
        (np.abs(left * w.T) @ (4 * d + spread.sum(axis=1))).max())
    if bound > LOG_MATRIX_TOL:
        raise DistinctnessError(f"eigenvalues {spec.y!r} too clustered: the error bound "
                                f"{bound:.3e} on L exceeds {LOG_MATRIX_TOL}")
    return left @ w + c * np.eye(d)


def sigma_spectrum_complex(spec):
    """Full Lyapunov spectrum and variances for beta = 2 and general covariance.

    mu_k = psi(k)/2 - r_k/2, r_k the ratio of the Vandermonde determinant in
    y with row k replaced by (log y_j) y_j^(k-1) to the plain one.  Cramer's
    rule makes r_k the diagonal entry L_kk of L = V diag(log y) V^-1
    (_log_matrix), built on z = y / y_max so that no power of y overflows.
    The same L gives N sigma_k^2 = (psi'(1) + H^(2)_(k-1) + sum_{j != k} L_kj
    L_jk)/4 (the increments' joint Mellin transform, twice log-differentiated).
    Clustered eigenvalues raise DistinctnessError: V^-1 divides by y_l - y_m.
    """
    lm = _log_matrix(spec)  # L
    lt, d, psi1 = lm.T, len(lm), trigamma(1.0)  # lt[k] is column k of L
    # off[k] = sum_{j != k} L_kj L_jk, from the two sides of the diagonal
    off = [float(lm[k, :k].dot(lt[k, :k]) + lm[k, k + 1:].dot(lt[k, k + 1:])) for k in range(d)]
    return TheorySpectrum(
        beta=2, d=d,
        mu=tuple(-0.5 * float(lm[k, k]) + 0.5 * digamma(float(k + 1)) for k in range(d)),
        n_sigma2=tuple(0.25 * (psi1 + harmonic(k, 2) + off[k]) for k in range(d)))


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
    """The spectrum of index 1 alone, for any beta, from one evaluation of the
    J integrals: mu_1 = (-gamma + log(2/beta) - J1)/2 and
    N sigma_1^2 = (pi^2/6 - J2 - J1^2)/4."""
    beta = _check_beta(beta)
    if not isinstance(spec, SigmaSpec):
        spec = SigmaSpec(tuple(spec))
    pair = j_integrals(beta, spec)
    return TheorySpectrum(beta=beta, d=spec.d,
                          mu=(0.5 * (-EULER_GAMMA + math.log(2.0 / beta) - pair.J1),),
                          n_sigma2=(0.25 * (PI2_OVER_6 - pair.J2 - pair.J1 * pair.J1),))


def kargin_mu1(beta, spec):
    """Largest Lyapunov exponent, any beta: mu_1 = (-gamma + log(2/beta) - J1)/2."""
    return kargin_top(beta, spec).mu[0]
