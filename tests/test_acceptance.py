"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with -s or -rA); the test
name itself identifies the criterion in the pytest report.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lyaprod.ensembles import (GaussianInverseMixture, GeneralSigmaGaussian,
                               RectangularGaussian, StandardGaussian,
                               TruncatedUnitary, chain_rng)
from lyaprod.montecarlo import (estimate, spectral_ratio_samples,
                                stability_exponents)
from lyaprod.sigma import (SigmaSpec, j_integrals, kargin_mu1,
                           kargin_variance1, residue_j_sums,
                           sigma_spectrum_complex, sigma_variance1_complex)
from lyaprod.theory import (RectangularSpec, gaussian_spectrum,
                            mixture_spectrum, rectangular_spectrum,
                            truncated_unitary_spectrum)


def report(name, detail):
    print(f"[acceptance] {name}: PASS  {detail}")


def test_criterion_1_truncated_unitary_closed_forms():
    th = truncated_unitary_spectrum(2, 2, 2)
    targets = {
        "mu_1": (th.mu[0], Fraction(-5, 12)),
        "mu_1+mu_2": (th.mu[0] + th.mu[1], Fraction(-7, 6)),
        "N*s2_1": (th.n_sigma2[0], Fraction(13, 144)),
        "N*(s2_1+s2_2)": (th.n_sigma2[0] + th.n_sigma2[1], Fraction(29, 72)),
    }
    for label, (got, exact) in targets.items():
        assert abs(got - float(exact)) <= 1e-12, (label, got, float(exact))
    report("criterion 1", "truncated unitary beta=2 d=n=2 closed forms exact to 1e-12")


def test_criterion_2_general_sigma_variance():
    spec = SigmaSpec((1.0, 0.25))
    exact = math.pi**2 / 24.0 - (4.0 / 9.0) * math.log(2.0) ** 2
    direct = sigma_variance1_complex(spec)
    assert abs(direct - exact) <= 1e-12
    via_contour = kargin_variance1(2, spec)
    assert abs(via_contour - exact) <= 1e-8
    report("criterion 2", f"N*s2_1 = {direct:.12f} (exact {exact:.12f})")


def test_criterion_3a_monte_carlo_general_sigma_variance():
    spec = GeneralSigmaGaussian(2, SigmaSpec((1.0, 0.25)))
    est = estimate(spec, 1, 1_000_000, 1, 20_250_101)
    target = 0.197699
    assert abs(est.n_sigma2_hat[0] - target) <= 0.01, est.n_sigma2_hat
    report("criterion 3a", f"N=1e6 chain gives N*s2_1 = {est.n_sigma2_hat[0]:.5f} "
                           f"(closed form {target})")


def test_criterion_3b_monte_carlo_truncated_unitary():
    est = estimate(TruncatedUnitary(2, 2, 2), 2, 100_000, 1, 20_250_102)
    assert abs(est.mu_hat[0] - (-5.0 / 12.0)) <= 0.01, est.mu_hat
    assert abs(est.partial_sum_mu[1] - (-7.0 / 6.0)) <= 0.02, est.partial_sum_mu
    assert abs(est.n_sigma2_hat[0] - 13.0 / 144.0) <= 0.02, est.n_sigma2_hat
    assert abs(est.partial_sum_n_sigma2[1] - 29.0 / 72.0) <= 0.05, est.partial_sum_n_sigma2
    report("criterion 3b", f"mu_1 = {est.mu_hat[0]:.5f}, sum = {est.partial_sum_mu[1]:.5f}, "
                           f"N*s2_1 = {est.n_sigma2_hat[0]:.5f}, "
                           f"sum var = {est.partial_sum_n_sigma2[1]:.5f}")


def test_criterion_4_cross_formula_consistency():
    rng = np.random.default_rng(20_250_103)
    worst_mu = worst_var = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        while True:
            y = np.sort(rng.uniform(0.2, 5.0, size=d))
            if d == 1 or np.all((y[1:] - y[:-1]) / y[1:] > 0.02):
                break
        spec = SigmaSpec(tuple(y))
        worst_mu = max(worst_mu, abs(kargin_mu1(2, spec) - sigma_spectrum_complex(spec)[0]))
        worst_var = max(worst_var, abs(kargin_variance1(2, spec) - sigma_variance1_complex(spec)))
    assert worst_mu <= 1e-8 and worst_var <= 1e-8

    worst_j = 0.0
    for beta in (1, 2, 4):
        for d in range(1, 11):
            if (beta * d) % 2:
                continue
            q = j_integrals(beta, SigmaSpec((1.0,) * d))
            r = residue_j_sums(beta, d)
            worst_j = max(worst_j, abs(q.J1 - r.J1), abs(q.J2 - r.J2))
    assert worst_j <= 1e-8
    report("criterion 4", f"50 random specs: worst |d mu| = {worst_mu:.2e}, "
                          f"worst |d var| = {worst_var:.2e}; "
                          f"quadrature vs residue worst = {worst_j:.2e}")


REGRESSION_CASES = []
for _beta in (1, 2, 4):
    for _d in (1, 2, 3):
        REGRESSION_CASES.append((StandardGaussian(_beta, _d),
                                 gaussian_spectrum(_beta, _d)))
_HALF = RectangularSpec(((0, 0.5), (1, 0.5)))
REGRESSION_CASES.append((RectangularGaussian(2, 2, _HALF),
                         rectangular_spectrum(2, 2, _HALF)))
REGRESSION_CASES.append((GaussianInverseMixture(2, 2, 0.5),
                         mixture_spectrum(2, 2, 0.5)))
# n = 1 < d = 3: the truncation has no density, but the increment law of
# the closed form holds for every n >= 1 (see the theory module)
for _beta in (1, 2, 4):
    for _d, _n in ((2, 2), (3, 1)):
        REGRESSION_CASES.append((TruncatedUnitary(_beta, _d, _n),
                                 truncated_unitary_spectrum(_beta, _d, _n)))


@pytest.mark.parametrize(
    "spec,th", REGRESSION_CASES,
    ids=[f"{type(s).__name__}_b{s.beta}_d{s.d}" for s, _ in REGRESSION_CASES])
def test_criterion_5_theory_simulation_regression(spec, th):
    est = estimate(spec, spec.d, 200_000, 4, 20_250_104)
    z = (est.mu_hat - np.array(th.mu)) / est.se_mu
    assert np.abs(z).max() <= 5.0, (spec, z)
    rel = np.abs(est.n_sigma2_hat - np.array(th.n_sigma2)) / np.array(th.n_sigma2)
    assert rel.max() <= 0.15, (spec, est.n_sigma2_hat, th.n_sigma2)
    report("criterion 5", f"{type(spec).__name__} beta={spec.beta} d={spec.d}: "
                          f"max |z| = {np.abs(z).max():.2f}, "
                          f"max var rel err = {rel.max():.3f}")


def test_criterion_6_stability_exponents_gaussian_shape():
    spec = StandardGaussian(2, 2)
    th = gaussian_spectrum(2, 2)
    reps, n = 200, 500
    samples = np.array([
        [lam for lam, _ in stability_exponents(spec, n, chain_rng(20_250_105, r))]
        for r in range(reps)
    ])
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(reps)
    for k in range(2):
        assert abs(means[k] - th.mu[k]) <= 4.0 * ses[k], (k, means, th.mu, ses)
        p = stats.normaltest(samples[:, k]).pvalue
        assert p > 0.001, (k, p)
    report("criterion 6", f"lambda means {means} vs {th.mu}; "
                          f"normality p = {[stats.normaltest(samples[:, k]).pvalue for k in range(2)]}")


@pytest.mark.parametrize("beta", [1, 2])
def test_criterion_7_spectral_ratio(beta):
    rng = chain_rng(20_250_106, beta)
    ratios = spectral_ratio_samples(beta, 500, 20, rng)
    assert np.all(ratios >= 1.0)
    mean_ratio = float(ratios.mean())
    assert abs(mean_ratio - 2.0) <= 0.1, (
        f"measured mean ratio {mean_ratio:.4f} at d=500 is not within 0.1 of "
        f"the limit 2: the largest singular value of a d x d standard Gaussian "
        f"matrix grows like 2 sqrt(d) while its spectral radius grows like "
        f"sqrt(d); the finite-d bias at d=500 is about -0.08")
    report("criterion 7", f"beta={beta}: mean ratio {mean_ratio:.4f}")
