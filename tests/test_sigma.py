import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaprod.specfun import EULER_GAMMA, PI2_OVER_6, digamma, trigamma
import lyaprod
from lyaprod.cli import main
from lyaprod.ensembles import GeneralSigmaGaussian, chain_rng
from lyaprod.montecarlo import run_chain
from lyaprod.sigma import (DistinctnessError, QuadratureError, SigmaSpec,
                           j_integrals, kargin_mu1, kargin_top,
                           residue_j_sums, sigma_spectrum_complex)
from lyaprod.theory import gaussian_spectrum


def random_distinct_spec(rng, d, lo=0.2, hi=5.0, min_sep=0.05):
    while True:
        y = np.sort(rng.uniform(lo, hi, size=d))
        if d == 1 or np.all((y[1:] - y[:-1]) / y[1:] > min_sep):
            return SigmaSpec(tuple(y))


def sweep_spectrum(rng, d, lo=0.2, hi=5.0, min_gap=0.05):
    """Eigenvalues drawn log-uniformly from [lo, hi], pairwise relative gaps
    of at least min_gap (the general-covariance grid of theory-sweep)."""
    while True:
        y = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), size=d)))
        if np.all((y[1:] - y[:-1]) / y[1:] >= min_gap):
            return tuple(float(v) for v in y)


def mp_spectrum_complex(y, digits=50):
    """(mu, N sigma^2) lists: mu_k = psi(k)/2 - L_kk/2 and N sigma_k^2 =
    (psi'(1) + H^(2)_(k-1) + (L^2)_kk - L_kk^2)/4, from L = V diag(log y)
    V^-1, V_pl = y_l^p, formed and inverted in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        ys = [mpmath.mpf(v) for v in y]
        vander = mpmath.matrix([[v ** p for v in ys] for p in range(len(ys))])
        log_matrix = vander * mpmath.diag([mpmath.log(v) for v in ys]) * vander ** -1
        square = log_matrix * log_matrix
        mu = [float(mpmath.digamma(k + 1) / 2 - log_matrix[k, k] / 2) for k in range(len(ys))]
        var = [float((mpmath.psi(1, 1) + mpmath.fsum(mpmath.mpf(s) ** -2 for s in range(1, k + 1))
                      + square[k, k] - log_matrix[k, k] ** 2) / 4) for k in range(len(ys))]
        return mu, var


def trace_identity(y):
    """sum_k mu_k = sum_k psi(k)/2 - (1/2) sum_k log y_k at beta = 2."""
    return (math.fsum(0.5 * digamma(k) for k in range(1, len(y) + 1))
            - 0.5 * math.fsum(math.log(v) for v in y))


def mp_j_integrals(beta, y, digits=20):
    """(J1, J2) from their definitions by mpmath quadrature on the log axis.

    No logistic is subtracted: the integrand is chi_{s<0} - f(s), split at
    s = 0 and at every log y_i.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        half_beta = mpmath.mpf(beta) / 2
        logy = [mpmath.log(mpmath.mpf(v)) for v in y]

        def chi_minus_f(s):
            one_minus_f = -mpmath.expm1(
                -half_beta * mpmath.fsum(mpmath.log1p(mpmath.exp(s - v)) for v in logy))
            return one_minus_f if s < 0 else one_minus_f - 1

        cuts = [-mpmath.inf] + sorted(set(logy) | {mpmath.mpf(0)}) + [mpmath.inf]
        j1 = -mpmath.quad(chi_minus_f, cuts)
        j2 = 2 * mpmath.quad(lambda s: chi_minus_f(s) * s, cuts) + mpmath.pi ** 2 / 3
        return float(j1), float(j2)


def logaddexp_j_integrals(beta, y):
    """(J1, J2) from the trapezoid sum of j_integrals, on the same nodes,
    with G and F formed by np.logaddexp."""
    spec = SigmaSpec(y)
    logy = np.log(spec.y)
    half_beta = 0.5 * beta
    lo = lyaprod.sigma._low_cut(max(0.0, math.log(half_beta) + float(np.logaddexp.reduce(-logy))))
    hi = lyaprod.sigma._high_cut(max(0.0, float(logy[-1])), min(1.0, half_beta * spec.d))
    step = lyaprod.sigma.LOG_STEP
    s = np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) * step
    big_g = np.logaddexp(0.0, s)
    big_f = half_beta * np.sum(np.logaddexp(0.0, s[:, None] - logy), axis=1)
    diff = -np.exp(-big_g) * np.expm1(big_g - big_f)
    return -step * float(np.sum(diff)), 2.0 * step * float(np.sum(diff * s))


HARD_SPECTRA = {
    "wide": (1e-6, 1.0, 1e6),
    "geometric12": tuple(float(v) for v in np.geomspace(1e-4, 1e4, 12)),
    "large": (1e6,),
    "small": (1e-6,),
    "identity16": (1.0,) * 16,
}


class TestSigmaSpec:
    def test_sorted_canonical_order(self):
        assert SigmaSpec((3.0, 1.0, 2.0)).y == (1.0, 2.0, 3.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SigmaSpec((1.0, 0.0))
        with pytest.raises(ValueError):
            SigmaSpec((1.0, -2.0))
        with pytest.raises(ValueError):
            SigmaSpec(())

    def test_distinctness_guard(self):
        SigmaSpec((1.0, 2.0)).require_distinct()
        with pytest.raises(DistinctnessError):
            SigmaSpec((1.0, 1.0)).require_distinct()
        with pytest.raises(DistinctnessError):
            SigmaSpec((1.0, 1.0 + 1e-9)).require_distinct()


class TestSpectrumComplex:
    def test_two_eigenvalue_closed_form(self):
        mu = sigma_spectrum_complex(SigmaSpec((1.0, 0.25))).mu
        expected = (4.0 / 3.0) * math.log(2.0) - EULER_GAMMA / 2.0
        assert mu[0] == pytest.approx(expected, abs=1e-10)
        assert mu[0] == pytest.approx(0.6355884082958272, abs=1e-10)

    def test_scalar_case(self):
        for c in (0.5, 1.0, 3.0):
            mu = sigma_spectrum_complex(SigmaSpec((c,))).mu
            assert mu[0] == pytest.approx(-0.5 * math.log(c) - EULER_GAMMA / 2.0, abs=1e-13)

    def test_symmetric_in_eigenvalues(self):
        assert sigma_spectrum_complex(SigmaSpec((2.0, 3.0))) == \
            sigma_spectrum_complex(SigmaSpec((3.0, 2.0)))

    def test_identity_covariance_matches_gaussian(self):
        # y -> 1 limit: perturb slightly around 1 and compare with the
        # standard complex Gaussian spectrum
        mu = sigma_spectrum_complex(SigmaSpec((1.0, 1.0001))).mu
        th = gaussian_spectrum(2, 2)
        assert mu[0] == pytest.approx(th.mu[0], abs=1e-3)
        assert mu[1] == pytest.approx(th.mu[1], abs=1e-3)

    def test_partial_sum_identity(self):
        # sum_k mu_k = sum_k psi(k)/2 + (1/2) log det Sigma
        rng = np.random.default_rng(3)
        spec = random_distinct_spec(rng, 4)
        mu = sigma_spectrum_complex(spec).mu
        expected = sum(0.5 * digamma(k) for k in range(1, 5)) \
            - 0.5 * math.fsum(math.log(v) for v in spec.y)
        assert math.fsum(mu) == pytest.approx(expected, abs=1e-9)

    def test_requires_distinct(self):
        with pytest.raises(DistinctnessError):
            sigma_spectrum_complex(SigmaSpec((1.0, 1.0)))


#: beta = 2 spectra some of whose powers y^p over- or underflow a double.
WIDE_SPECTRA = [(5e-324, 1.0), (1e-300, 1e-10, 1.0), (1.0, 1e200, 1e300), (1e-300, 1.0, 1e300),
                (1e-100, 1e-50, 1.0, 1e50, 1e100)]


class TestComplexWideAndAccurate:
    @pytest.mark.parametrize("y", WIDE_SPECTRA, ids=repr)
    def test_wide_spectra_match_quadrature_and_trace(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            th = sigma_spectrum_complex(y)
        assert all(math.isfinite(v) for v in th.mu + th.n_sigma2)
        top = kargin_top(2, y)
        assert abs(th.mu[0] - top.mu[0]) <= 1e-8
        assert abs(th.n_sigma2[0] - top.n_sigma2[0]) <= 1e-8
        assert abs(math.fsum(th.mu) - trace_identity(y)) <= 1e-9

    def test_d10_sweep_spectra_match_50_digit_matrix(self):
        rng = np.random.default_rng(24)
        worst_mu = worst_var = 0.0
        for _ in range(60):
            y = sweep_spectrum(rng, 10)
            th = sigma_spectrum_complex(y)
            mu, var = mp_spectrum_complex(y)
            worst_mu = max(worst_mu, max(abs(a - b) for a, b in zip(th.mu, mu)))
            worst_var = max(worst_var, max(abs(a - b) for a, b in zip(th.n_sigma2, var)))
        assert worst_mu <= 1e-9 and worst_var <= 1e-9, (worst_mu, worst_var)


#: Clustered beta = 2 spectra that require_distinct admits but no double
#: precision L resolves: mu_1 of order -1e49, and mu off by 3.45 and 0.56.
CLUSTERED_SPECTRA = {
    "2e-8-d10": tuple(1.0 + 2e-8 * i for i in range(10)),
    "1e-2-d10": tuple(1.0 + 0.01 * i for i in range(10)),
    "1e-4-d5": tuple(1.0 + 1e-4 * i for i in range(5)),
}


class TestClusteredRefused:
    @pytest.mark.parametrize("name", sorted(CLUSTERED_SPECTRA))
    def test_refused(self, name):
        spec = SigmaSpec(CLUSTERED_SPECTRA[name])
        spec.require_distinct()  # the cheap pre-check admits it
        with pytest.raises(DistinctnessError, match="too clustered"):
            sigma_spectrum_complex(spec)

    @pytest.mark.parametrize("name", sorted(CLUSTERED_SPECTRA))
    def test_cli_exits_2(self, name, capsys):
        spec = ('{"kind":"general_sigma_gaussian","beta":2,"sigma_inv_eigenvalues":%s}'
                % list(CLUSTERED_SPECTRA[name]))
        assert main(["theory", "--ensemble", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too clustered" in err and err.count("\n") == 1

    def test_sweep_spectra_admitted(self):
        # the refusal bound stays far below its tolerance on the
        # theory-sweep grid (eigenvalues in [0.2, 5], gaps >= 5%)
        rng = np.random.default_rng(25)
        for d in (8, 9, 10):
            for _ in range(200):
                sigma_spectrum_complex(sweep_spectrum(rng, d))


#: Distinct beta = 2 spectra whose z = y / y_max, or the products of the
#: differences z_l - z_m, underflow to 0, which leaves the bound on L NaN.
UNDERFLOWING_SPECTRA = {
    "1e-300-2e-300-1e300": (1e-300, 2e-300, 1e300),
    "1e-250-to-1": (1e-250, 1e-200, 1e-150, 1.0),
    "1e-300-1e-299-1e-298-1": (1e-300, 1e-299, 1e-298, 1.0),
}


class TestUnderflowRefused:
    @pytest.mark.parametrize("name", sorted(UNDERFLOWING_SPECTRA))
    def test_refused(self, name):
        # refused with no RuntimeWarning, not returned as NaN rows
        spec = SigmaSpec(UNDERFLOWING_SPECTRA[name])
        spec.require_distinct()
        with pytest.raises(DistinctnessError, match="is not finite"):
            sigma_spectrum_complex(spec)

    @pytest.mark.parametrize("name", sorted(UNDERFLOWING_SPECTRA))
    def test_cli_exits_2(self, name, capsys):
        spec = ('{"kind":"general_sigma_gaussian","beta":2,"sigma_inv_eigenvalues":%s}'
                % list(UNDERFLOWING_SPECTRA[name]))
        assert main(["theory", "--ensemble", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert captured.err.count("\n") == 1


class TestVariancesComplex:
    def test_quarter_scale_values(self):
        th = sigma_spectrum_complex(SigmaSpec((1.0, 0.25)))
        expected = PI2_OVER_6 / 4.0 - (4.0 / 9.0) * math.log(2.0) ** 2
        assert th.n_sigma2[0] == pytest.approx(expected, abs=1e-13)
        assert th.n_sigma2[0] == pytest.approx(0.19769884385952266, abs=1e-12)
        # index 2 adds H^(2)_1 = 1 to psi'(1) and has the same L_12 L_21
        assert th.n_sigma2[1] == pytest.approx(expected + 0.25, abs=1e-13)

    def test_scalar_case_scale_free(self):
        for c in (0.3, 1.0, 7.0):
            assert sigma_spectrum_complex(SigmaSpec((c,))).n_sigma2 == \
                pytest.approx((PI2_OVER_6 / 4.0,), abs=1e-13)

    def test_symmetric(self):
        assert sigma_spectrum_complex(SigmaSpec((2.0, 5.0))) == \
            sigma_spectrum_complex(SigmaSpec((5.0, 2.0)))

    def test_run_chain_z_scores(self):
        # every mean and every variance against 4 x 5e4 seeded increments;
        # the variance's standard error comes from the fourth moment
        y = (0.3, 1.0, 2.5)
        th = sigma_spectrum_complex(y)
        x = run_chain(GeneralSigmaGaussian(2, y), 3, 50_000,
                      [chain_rng(20_251_019, c) for c in range(4)]).reshape(-1, 3)
        n, mean, var = len(x), x.mean(axis=0), x.var(axis=0)
        z_mu = (mean - th.mu) / np.sqrt(np.asarray(th.n_sigma2) / n)
        fourth = ((x - mean) ** 4).mean(axis=0)
        z_var = (var - th.n_sigma2) / np.sqrt((fourth - var ** 2) / n)
        assert np.all(np.abs(z_mu) <= 4.0) and np.all(np.abs(z_var) <= 4.0), (z_mu, z_var)


class TestJIntegrals:
    def test_identity_covariance_d2(self):
        pair = j_integrals(2, SigmaSpec((1.0, 1.0)))
        assert pair.J1 == pytest.approx(-1.0, abs=1e-10)
        assert pair.J2 == pytest.approx(0.0, abs=1e-10)

    def test_identity_covariance_d3(self):
        pair = j_integrals(2, SigmaSpec((1.0, 1.0, 1.0)))
        assert pair.J1 == pytest.approx(-1.5, abs=1e-10)
        assert pair.J2 == pytest.approx(-1.0, abs=1e-10)

    def test_real_case_empty_sums(self):
        pair = j_integrals(1, SigmaSpec((1.0, 1.0)))
        assert pair.J1 == pytest.approx(0.0, abs=1e-10)
        assert pair.J2 == pytest.approx(0.0, abs=1e-10)

    def test_real_scalar_closed_form(self):
        # beta=1, d=1, y=1: J1 = 2 ln 2 and J2 = -pi^2/3 - 4 (ln 2)^2, from
        # matching the known mu_1 = (log 2 + psi(1/2))/2 and N s1^2 = psi'(1/2)/4
        pair = j_integrals(1, SigmaSpec((1.0,)))
        assert pair.J1 == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
        assert pair.J2 == pytest.approx(-math.pi**2 / 3.0 - 4.0 * math.log(2.0) ** 2, abs=1e-10)

    def test_no_distinctness_required(self):
        j_integrals(4, SigmaSpec((2.0, 2.0, 2.0)))

    @pytest.mark.parametrize("beta,d", [(1, 2), (1, 10), (2, 1), (2, 7), (4, 3), (4, 10)])
    def test_matches_residue_sums(self, beta, d):
        q = j_integrals(beta, SigmaSpec((1.0,) * d))
        r = residue_j_sums(beta, d)
        assert q.J1 == pytest.approx(r.J1, abs=1e-8)
        assert q.J2 == pytest.approx(r.J2, abs=1e-8)


    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(HARD_SPECTRA))
    def test_hard_spectra_match_mpmath(self, name, beta):
        y = HARD_SPECTRA[name]
        j1, j2 = mp_j_integrals(beta, y)
        pair = j_integrals(beta, SigmaSpec(y))
        assert abs(pair.J1 - j1) <= 1e-12
        assert abs(pair.J2 - j2) <= 1e-12

    @pytest.mark.parametrize("beta,d", [(1, 2), (1, 10), (1, 16), (2, 1), (2, 7),
                                        (2, 16), (4, 1), (4, 3), (4, 10), (4, 16)])
    def test_matches_residue_sums_tightly(self, beta, d):
        q = j_integrals(beta, SigmaSpec((1.0,) * d))
        r = residue_j_sums(beta, d)
        assert abs(q.J1 - r.J1) <= 1e-13
        assert abs(q.J2 - r.J2) <= 1e-13

    def test_unreachable_target_raises(self, monkeypatch):
        # at step 1 the step-halving estimate is about e^-(pi^2), far above the target
        monkeypatch.setattr(lyaprod.sigma, "LOG_STEP", 1.0)
        with pytest.raises(QuadratureError) as info:
            j_integrals(1, SigmaSpec((0.5, 2.0)))
        estimate = info.value.estimate
        assert math.isfinite(estimate) and estimate > lyaprod.sigma.QUADRATURE_TARGET
        assert f"{estimate:.3e}" in str(info.value)

    @pytest.mark.parametrize("beta", [1, 4])
    @pytest.mark.parametrize("name", sorted(HARD_SPECTRA))
    def test_matches_logaddexp_formula(self, name, beta):
        got = j_integrals(beta, SigmaSpec(HARD_SPECTRA[name]))
        j1, j2 = logaddexp_j_integrals(beta, HARD_SPECTRA[name])
        assert abs(got.J1 - j1) <= 1e-14
        assert abs(got.J2 - j2) <= 1e-14


def test_softplus_matches_logaddexp():
    t = np.concatenate((np.linspace(-800.0, 800.0, 160_001), [0.0, -0.0, -745.2, -708.4, 709.8],
                        np.geomspace(1e-300, 1.0, 301), -np.geomspace(1e-300, 1.0, 301)))
    want = np.logaddexp(0.0, t)
    got = lyaprod.sigma._softplus(t.copy())
    assert got[0] == 0.0 and got[160_000] == 800.0  # both tails underflow
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_cli_import_leaves_out_scipy_integrate():
    src = str(Path(lyaprod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # no module of the package imports scipy (see also the test below), nor
    # mpmath, which only the tests use
    code = ("import sys, lyaprod.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules]"
            " + [m for m in sys.modules if m.partition('.')[0] == 'mpmath'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_compare_leaves_out_scipy_linalg_and_integrate():
    # both kernels, the stability run and the theory steps, real and complex
    # general covariance, with numpy alone: no module under scipy or mpmath
    # is loaded
    src = str(Path(lyaprod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, sys; from lyaprod.cli import main\n"
            "from lyaprod.ensembles import StandardGaussian, TruncatedUnitary, chain_rng\n"
            "from lyaprod.montecarlo import product_chain, stability_exponents\n"
            "for spec in sys.argv[1:]:\n"
            "    main(['compare', '--ensemble', spec, '--N', '300', '--chains', '2',"
            " '--seed', '5', '--out', os.devnull])\n"
            "product_chain(TruncatedUnitary(4, 2, 1), 2, 50, [chain_rng(5, 0)])\n"
            "stability_exponents(StandardGaussian(2, 2), 50, chain_rng(5, 1))\n"
            "main(['theory', '--ensemble', '{\"kind\":\"general_sigma_gaussian\",\"beta\":1,"
            "\"sigma_inv_eigenvalues\":[0.5,2.0]}', '--out', os.devnull])\n"
            "main(['theory', '--ensemble', '{\"kind\":\"general_sigma_gaussian\",\"beta\":2,"
            "\"sigma_inv_eigenvalues\":[0.5,2.0,3.0]}', '--out', os.devnull])\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'mpmath')))")
    specs = ['{"kind":"standard_gaussian","beta":2,"d":2}',
             '{"kind":"truncated_unitary","beta":1,"d":2,"n":2}']
    out = subprocess.run([sys.executable, "-c", code, *specs], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert out.stderr.count("compare: N=300 chains=2") == 2


class TestResidueSums:
    def test_examples(self):
        assert residue_j_sums(2, 2) == residue_j_sums(2, 2)
        p = residue_j_sums(2, 2)
        assert (p.J1, p.J2) == (-1.0, 0.0)
        p = residue_j_sums(2, 3)
        assert p.J1 == pytest.approx(-1.5, abs=1e-15)
        assert p.J2 == pytest.approx(-1.0, abs=1e-15)
        p = residue_j_sums(4, 1)
        assert (p.J1, p.J2) == (-1.0, 0.0)

    def test_rejects_non_integer_half_beta_d(self):
        with pytest.raises(ValueError):
            residue_j_sums(1, 1)
        with pytest.raises(ValueError):
            residue_j_sums(1, 3)

    @pytest.mark.parametrize("d", [2.7, 2.0, True, "2"])
    def test_rejects_non_integer_d(self, d):
        with pytest.raises(ValueError, match="d must be an integer"):
            residue_j_sums(2, d)


class TestKarginRoute:
    def test_identity_covariance_matches_gaussian(self):
        for d in (1, 2, 4):
            mu1 = kargin_mu1(2, SigmaSpec((1.0,) * d))
            assert mu1 == pytest.approx(0.5 * digamma(float(d)), abs=1e-9)

    def test_real_identity_two(self):
        mu1 = kargin_mu1(1, SigmaSpec((1.0, 1.0)))
        assert mu1 == pytest.approx(0.5 * (math.log(2.0) - EULER_GAMMA), abs=1e-9)

    def test_variance_matches_trigamma(self):
        v = kargin_top(2, SigmaSpec((1.0, 1.0, 1.0))).n_sigma2[0]
        assert v == pytest.approx(0.25 * trigamma(3.0), abs=1e-9)
        v = kargin_top(4, SigmaSpec((1.0,))).n_sigma2[0]
        assert v == pytest.approx(0.25 * trigamma(2.0), abs=1e-9)

    def test_contour_route_variance_value(self):
        v = kargin_top(2, SigmaSpec((1.0, 0.25))).n_sigma2[0]
        assert v == pytest.approx(0.19769884385952266, abs=1e-8)

    def test_cross_formula_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            spec = random_distinct_spec(rng, int(rng.integers(1, 6)))
            th = sigma_spectrum_complex(spec)
            assert kargin_mu1(2, spec) == pytest.approx(th.mu[0], abs=1e-8)
            assert kargin_top(2, spec).n_sigma2[0] == pytest.approx(th.n_sigma2[0], abs=1e-8)

    def test_all_beta_gaussian_reduction(self):
        # y = 1^d reduces to the standard Gaussian closed form for every beta
        for beta in (1, 2, 4):
            for d in (1, 2, 3):
                spec = SigmaSpec((1.0,) * d)
                th = gaussian_spectrum(beta, d)
                assert kargin_mu1(beta, spec) == pytest.approx(th.mu[0], abs=1e-9)
                assert kargin_top(beta, spec).n_sigma2 == pytest.approx(th.n_sigma2[:1], abs=1e-9)


    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_smallest_double_eigenvalue(self, beta):
        # as y_1 -> 0 the top row of Sigma^{1/2} G dominates, so
        # mu_1 -> -(1/2) log y_1 + (psi(beta/2) + log(2/beta))/2 and
        # N sigma_1^2 -> psi'(beta/2)/4; sum 1/y_i overflows at y_1 = 5e-324,
        # so the quadrature's low cut comes from its log
        from scipy.special import digamma as psi, polygamma
        top = kargin_top(beta, SigmaSpec((5e-324, 1.0)))
        (mu,), (var,) = top.mu, top.n_sigma2
        assert mu == pytest.approx(
            -0.5 * math.log(5e-324) + 0.5 * (psi(beta / 2) + math.log(2 / beta)), abs=1e-9)
        assert var == pytest.approx(0.25 * polygamma(1, beta / 2), abs=1e-9)


class TestScaleCovariance:
    def test_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            spec = random_distinct_spec(rng, d)
            c = float(rng.uniform(0.2, 4.0))
            scaled = SigmaSpec(tuple(c * v for v in spec.y))
            shift = -0.5 * math.log(c)
            th_a = sigma_spectrum_complex(spec)
            th_b = sigma_spectrum_complex(scaled)
            for a, b in zip(th_a.mu, th_b.mu):
                assert b == pytest.approx(a + shift, abs=1e-9)
            assert th_b.n_sigma2 == pytest.approx(th_a.n_sigma2, abs=1e-9)

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=30)
    def test_kargin_scale_property(self, c, ys):
        spec = SigmaSpec(tuple(ys))
        scaled = SigmaSpec(tuple(c * v for v in ys))
        assert kargin_mu1(2, scaled) == pytest.approx(
            kargin_mu1(2, spec) - 0.5 * math.log(c), abs=1e-9)
        assert kargin_top(2, scaled).n_sigma2 == pytest.approx(
            kargin_top(2, spec).n_sigma2, abs=1e-9)
