"""Reference values computed apart from lyaprod, and the checks that use them.

Nothing here imports lyaprod. The closed forms of the paper are evaluated
with ``scipy.special``; the general-covariance exponent and variance come
from the J1, J2 integrals, evaluated with ``mpmath`` quadrature; two exact
identities cover the beta = 2 general-covariance results:

* N sigma_1^2 = pi^2/24 - (4/9) ln^2 2 at y = (1, 1/4);
* sum_i mu_i = -1/2 sum_i ln y_i + 1/2 sum_{k=1..d} psi(k).

Every ``check_*`` function returns a list of problems; an empty list means
the operation's output is correct.
"""

import math

import mpmath
import numpy as np
from scipy.special import digamma, polygamma

#: |z| gate on every exponent, as in criterion 5 and the ``compare`` command.
Z_GATE = 5.0
#: Largest relative error of a simulated N sigma_i^2, as in criterion 5.
VAR_REL_TOL = 0.15
#: Closed forms: the program's digamma/trigamma are accurate to 1e-12.
THEORY_TOL = 1e-10
#: Quadrature against quadrature, and the contour route against the
#: determinant route, for mu_1 and N sigma_1^2.
ROUTE_TOL = 1e-8
#: The trace identity sums mu_2..mu_d too, which come from determinant ratios
#: of the raw Vandermonde matrix: on the theory-sweep grid they miss it by up
#: to 8e-8 at d = 10 (one spectrum in 500 beyond 1e-8), so the identity is
#: held to 1e-6, which still rejects any wrong term of the closed form.
TRACE_TOL = 1e-6
QUARTER_VAR1 = math.pi**2 / 24.0 - (4.0 / 9.0) * math.log(2.0) ** 2
MP_DIGITS = 20


def trigamma(x):
    return float(polygamma(1, x))


# ---------------------------------------------------------------------------
# Closed forms (scipy.special)
# ---------------------------------------------------------------------------

def gaussian(beta, d):
    half_log = 0.5 * math.log(2.0 / beta)
    mu = [half_log + 0.5 * float(digamma(beta * (d - i + 1) / 2.0)) for i in range(1, d + 1)]
    var = [0.25 * trigamma(beta * (d - i + 1) / 2.0) for i in range(1, d + 1)]
    return mu, var


def mixture(beta, d, alpha_plus):
    """Gaussian / inverse-Gaussian mixture; alpha_plus = 0 is the inverse ensemble."""
    mu, var = gaussian(beta, d)
    am = 1.0 - alpha_plus
    return ([alpha_plus * mu[i] - am * mu[d - 1 - i] for i in range(d)],
            [alpha_plus * var[i] + am * var[d - 1 - i] for i in range(d)])


def rectangular(beta, d, shapes):
    half_log = 0.5 * math.log(2.0 / beta)
    mu = [half_log + 0.5 * sum(a * float(digamma(beta * (g + d - i + 1) / 2.0)) for g, a in shapes)
          for i in range(1, d + 1)]
    var = [0.25 * sum(a * trigamma(beta * (g + d - i + 1) / 2.0) for g, a in shapes)
           for i in range(1, d + 1)]
    return mu, var


def truncated_unitary(beta, d, n):
    mu = [0.5 * float(digamma(beta * (d - i + 1) / 2.0) - digamma(beta * (n + d - i + 1) / 2.0))
          for i in range(1, d + 1)]
    var = [0.25 * (trigamma(beta * (d - i + 1) / 2.0) - trigamma(beta * (n + d - i + 1) / 2.0))
           for i in range(1, d + 1)]
    return mu, var


def closed_form(ensemble):
    kind, beta = ensemble["kind"], ensemble["beta"]
    if kind == "standard_gaussian":
        return gaussian(beta, ensemble["d"])
    if kind == "inverse_gaussian":
        return mixture(beta, ensemble["d"], 0.0)
    if kind == "gaussian_inverse_mixture":
        return mixture(beta, ensemble["d"], ensemble["alpha_plus"])
    if kind == "rectangular_gaussian":
        return rectangular(beta, ensemble["d"], ensemble["shapes"])
    if kind == "truncated_unitary":
        return truncated_unitary(beta, ensemble["d"], ensemble["n"])
    raise ValueError(f"no closed form for {kind!r}")


# ---------------------------------------------------------------------------
# General covariance (mpmath quadrature and exact identities)
# ---------------------------------------------------------------------------

def j_pair(beta, y):
    """(J1, J2) by mpmath quadrature, split at 1 and at every y_i."""
    with mpmath.workdps(MP_DIGITS):
        half_beta = mpmath.mpf(beta) / 2
        ys = [mpmath.mpf(v) for v in y]

        def prod(x):
            return mpmath.fprod((1 + x / v) ** (-half_beta) for v in ys)

        cuts = sorted(set([0.0, 1.0] + [float(v) for v in y]))
        head = [c for c in cuts if c <= 1.0]
        tail = [c for c in cuts if c >= 1.0] + [mpmath.inf]
        j1 = (-mpmath.quad(lambda x: (1 - prod(x)) / x, head)
              + mpmath.quad(lambda x: prod(x) / x, tail))
        j2 = (2 * (mpmath.quad(lambda x: (1 - prod(x)) * mpmath.log(x) / x, head)
                   - mpmath.quad(lambda x: prod(x) * mpmath.log(x) / x, tail))
              + mpmath.pi**2 / 3)
        return float(j1), float(j2)


def top_exponent(beta, y):
    """(mu_1, N sigma_1^2) from the J integrals, for any beta."""
    j1, j2 = j_pair(beta, y)
    mu1 = 0.5 * (-float(mpmath.euler) + math.log(2.0 / beta) - j1)
    var1 = 0.25 * (math.pi**2 / 6.0 - j2 - j1 * j1)
    return mu1, var1


def trace_identity(y):
    """sum_i mu_i for beta = 2 and Sigma^{-1} eigenvalues y."""
    return (-0.5 * math.fsum(math.log(v) for v in y)
            + 0.5 * math.fsum(float(digamma(k)) for k in range(1, len(y) + 1)))


def is_quarter(y):
    return sorted(y) == [0.25, 1.0]


# ---------------------------------------------------------------------------
# References per operation
# ---------------------------------------------------------------------------

def reference(op):
    """Everything the checks of ``op`` compare against."""
    if op["op"] == "stability":
        mu, var = gaussian(op["beta"], op["d"])
        return {"mu": mu, "var": var}
    ens = op["ensemble"]
    if ens["kind"] != "general_sigma_gaussian":
        mu, var = closed_form(ens)
        return {"mu": mu, "var": var}
    y = ens["sigma_inv_eigenvalues"]
    ref = {}
    if op["op"] == "compare" or op.get("mp_check"):
        ref["top"] = top_exponent(ens["beta"], y)
    if ens["beta"] == 2:
        ref["sum"] = trace_identity(y)
    if ens["beta"] == 2 and is_quarter(y):
        ref["var1"] = QUARTER_VAR1
    if op["op"] == "compare":
        # compare needs every index it gates: mu_2 = sum - mu_1 when d = 2
        d = len(y)
        mu = [ref["top"][0]] + [None] * (d - 1)
        var = [ref.get("var1", ref["top"][1])] + [None] * (d - 1)
        if d == 2 and "sum" in ref:
            mu[1] = ref["sum"] - mu[0]
        ref.update(mu=mu, var=var)
    return ref


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def check_compare(op, out, ref):
    if "error" in out:
        return [f"raised {out['error']}"]
    rows = out["rows"]
    k, n = op["k_max"], op["N"] * op["chains"]
    if [r["i"] for r in rows] != list(range(1, k + 1)):
        return [f"rows {[r['i'] for r in rows]} instead of 1..{k}"]
    problems = []
    for r, mu, var in zip(rows, ref["mu"], ref["var"]):
        i = r["i"]
        if not _finite(r["mu_theory"], r["mu_mc"], r["se_mu"], r["n_sigma2_mc"], r["z"]):
            problems.append(f"i={i}: non-finite value in {r}")
            continue
        if abs(r["mu_theory"] - mu) > THEORY_TOL:
            problems.append(f"i={i}: mu_theory {r['mu_theory']!r} != reference {mu!r}")
        if var is not None and (r["n_sigma2_theory"] is None
                                or abs(r["n_sigma2_theory"] - var) > THEORY_TOL):
            problems.append(f"i={i}: n_sigma2_theory {r['n_sigma2_theory']!r} != reference {var!r}")
        z = (r["mu_mc"] - mu) / math.sqrt((var if var is not None else r["n_sigma2_mc"]) / n)
        if abs(z) > Z_GATE:
            problems.append(f"i={i}: mu_mc {r['mu_mc']!r} is {z:+.2f} standard errors from {mu!r}")
        if var is not None and abs(r["n_sigma2_mc"] - var) > VAR_REL_TOL * var:
            problems.append(f"i={i}: n_sigma2_mc {r['n_sigma2_mc']!r} off reference {var!r} "
                            f"by more than {VAR_REL_TOL:.0%}")
        z_prog = (r["mu_mc"] - r["mu_theory"]) / r["se_mu"]
        if abs(r["z"] - z_prog) > 1e-9 * (1.0 + abs(z_prog)):
            problems.append(f"i={i}: z column {r['z']!r} != (mu_mc - mu_theory) / se_mu")
    if out["status"] != 0 and not problems:
        problems.append(f"exit status {out['status']} although every |z| <= {Z_GATE}")
    return problems


def check_theory(op, out, ref):
    if "error" in out:
        return [f"raised {out['error']}"]
    if out["status"] != 0:
        return [f"exit status {out['status']}"]
    ens, rows = op["ensemble"], out["rows"]
    if not all(_finite(r["mu"]) and (r["n_sigma2"] is None or _finite(r["n_sigma2"]))
               for r in rows):
        return [f"non-finite value in {rows}"]
    if ens["kind"] != "general_sigma_gaussian":
        if len(rows) != ens["d"]:
            return [f"{len(rows)} rows instead of {ens['d']}"]
        return [f"i={r['i']}: ({r['mu']!r}, {r['n_sigma2']!r}) != reference ({mu!r}, {var!r})"
                for r, mu, var in zip(rows, ref["mu"], ref["var"])
                if r["n_sigma2"] is None or abs(r["mu"] - mu) > THEORY_TOL
                or abs(r["n_sigma2"] - var) > THEORY_TOL]

    y, beta = ens["sigma_inv_eigenvalues"], ens["beta"]
    d = len(y) if beta == 2 else 1
    if len(rows) != d:
        return [f"{len(rows)} rows instead of {d}"]
    problems = []
    mu1, var1 = rows[0]["mu"], rows[0]["n_sigma2"]
    if var1 is None or not var1 > 0.0:
        problems.append(f"N sigma_1^2 = {var1!r} is not positive")
    if "top" in ref:
        if abs(mu1 - ref["top"][0]) > ROUTE_TOL:
            problems.append(f"mu_1 {mu1!r} != quadrature reference {ref['top'][0]!r}")
        if var1 is not None and abs(var1 - ref["top"][1]) > ROUTE_TOL:
            problems.append(f"N sigma_1^2 {var1!r} != quadrature reference {ref['top'][1]!r}")
    if "var1" in ref and (var1 is None or abs(var1 - ref["var1"]) > THEORY_TOL):
        problems.append(f"N sigma_1^2 {var1!r} != pi^2/24 - (4/9) ln^2 2 = {ref['var1']!r}")
    if "sum" in ref:
        total = math.fsum(r["mu"] for r in rows)
        if abs(total - ref["sum"]) > TRACE_TOL:
            problems.append(f"sum of mu {total!r} != trace identity {ref['sum']!r}")
        if abs(out["route_mu1"] - mu1) > ROUTE_TOL:
            problems.append(f"kargin_mu1 {out['route_mu1']!r} != sigma_spectrum_complex "
                            f"mu_1 {mu1!r}")
    return problems


def check_stability(op, out, ref):
    if "error" in out:
        return [f"raised {out['error']}"]
    reps = np.asarray(out["reps"], dtype=float)
    if reps.shape != (op["reps"], op["d"], 2):
        return [f"output shape {reps.shape} instead of {(op['reps'], op['d'], 2)}"]
    if not np.all(np.isfinite(reps)):
        return ["non-finite exponent or phase"]
    problems = []
    if np.any(np.abs(reps[:, :, 1]) > math.pi + 1e-12):
        problems.append("phase outside [-pi, pi]")
    lam = reps[:, :, 0]
    z = (lam.mean(axis=0) - np.asarray(ref["mu"])) / (lam.std(axis=0, ddof=1) / math.sqrt(len(lam)))
    for k in np.flatnonzero(np.abs(z) > Z_GATE):
        problems.append(f"lambda_{k + 1} mean {float(lam[:, k].mean())!r} is {z[k]:+.1f} standard "
                        f"errors from mu_{k + 1} = {ref['mu'][k]!r}")
    return problems


_CHECKS = {"compare": check_compare, "theory": check_theory, "stability": check_stability}


def check(op, out, ref):
    return _CHECKS[op["op"]](op, out, ref)
