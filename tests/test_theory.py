import math

import numpy as np
import pytest
from scipy import integrate

from lyaprod.specfun import EULER_GAMMA, PI2_OVER_6, digamma, trigamma
from lyaprod.theory import (RectangularSpec, TheorySpectrum,
                            gaussian_spectrum, mixture_spectrum,
                            rectangular_spectrum, truncated_unitary_spectrum)


class TestGaussianSpectrum:
    def test_complex_two_by_two(self):
        th = gaussian_spectrum(2, 2)
        assert th.mu[0] == pytest.approx(0.5 * (1.0 - EULER_GAMMA), abs=1e-14)
        assert th.mu[1] == pytest.approx(-EULER_GAMMA / 2.0, abs=1e-14)
        assert th.n_sigma2[0] == pytest.approx(0.25 * (PI2_OVER_6 - 1.0), abs=1e-14)
        assert th.n_sigma2[1] == pytest.approx(0.25 * PI2_OVER_6, abs=1e-14)

    def test_real_scalar_against_quadrature_oracle(self):
        # independent oracle: E[log |N(0,1)|] by direct quadrature, split at
        # x = 1 to keep the log singularity inside a finite panel
        head, e1 = integrate.quad(
            lambda x: math.log(x) * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x),
            0.0, 1.0)
        tail, e2 = integrate.quad(
            lambda x: math.log(x) * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x),
            1.0, np.inf)
        oracle = head + tail
        assert e1 + e2 < 1e-8
        th = gaussian_spectrum(1, 1)
        assert th.mu[0] == pytest.approx(oracle, abs=1e-8)
        assert th.mu[0] == pytest.approx(-(EULER_GAMMA + math.log(2.0)) / 2.0, abs=1e-14)

    def test_complex_scalar(self):
        th = gaussian_spectrum(2, 1)
        assert th.mu[0] == pytest.approx(-EULER_GAMMA / 2.0, abs=1e-14)
        assert th.n_sigma2[0] == pytest.approx(PI2_OVER_6 / 4.0, abs=1e-14)

    def test_complex_case_reduces_to_plain_digamma(self):
        # for beta = 2 the general formula must give mu_i = psi(d-i+1)/2 and
        # N sigma_i^2 = psi'(d-i+1)/4 exactly
        for d in range(1, 21):
            th = gaussian_spectrum(2, d)
            for i in range(1, d + 1):
                assert abs(th.mu[i - 1] - 0.5 * digamma(d - i + 1)) <= 1e-14
                assert abs(th.n_sigma2[i - 1] - 0.25 * trigamma(d - i + 1)) <= 1e-14

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_mu_non_increasing(self, beta, d):
        th = gaussian_spectrum(beta, d)
        assert all(a >= b for a, b in zip(th.mu, th.mu[1:]))
        assert all(v >= 0.0 for v in th.n_sigma2)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            gaussian_spectrum(3, 2)
        with pytest.raises(ValueError):
            gaussian_spectrum(2, 0)


class TestRectangularSpectrum:
    def test_single_square_shape_equals_gaussian_bitwise(self):
        spec = RectangularSpec(((0, 1.0),))
        for beta in (1, 2, 4):
            for d in (1, 2, 5):
                a = rectangular_spectrum(beta, d, spec)
                b = gaussian_spectrum(beta, d)
                assert a.mu == b.mu
                assert a.n_sigma2 == b.n_sigma2

    def test_half_half_scalar(self):
        th = rectangular_spectrum(2, 1, RectangularSpec(((0, 0.5), (1, 0.5))))
        assert th.mu[0] == pytest.approx((1.0 - 2.0 * EULER_GAMMA) / 4.0, abs=1e-14)

    def test_pure_offset_two_scalar(self):
        th = rectangular_spectrum(2, 1, RectangularSpec(((2, 1.0),)))
        assert th.mu[0] == pytest.approx((1.5 - EULER_GAMMA) / 2.0, abs=1e-14)

    def test_permutation_invariance(self):
        a = rectangular_spectrum(2, 3, RectangularSpec(((0, 0.2), (1, 0.3), (3, 0.5))))
        b = rectangular_spectrum(2, 3, RectangularSpec(((3, 0.5), (0, 0.2), (1, 0.3))))
        assert a.mu == pytest.approx(b.mu, abs=1e-15)
        assert a.n_sigma2 == pytest.approx(b.n_sigma2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RectangularSpec(((0, 0.5), (1, 0.6)))  # proportions sum > 1
        with pytest.raises(ValueError):
            RectangularSpec(((0, 0.5), (0, 0.5)))  # duplicate offsets
        with pytest.raises(ValueError):
            RectangularSpec(((-1, 1.0),))  # negative offset
        with pytest.raises(ValueError):
            RectangularSpec(())
        for share in (True, "0.5", float("nan")):
            with pytest.raises(ValueError, match="proportion"):
                RectangularSpec(((0, share), (1, 0.5)))


class TestMixtureSpectrum:
    def test_pure_gaussian(self):
        a = mixture_spectrum(2, 2, 1.0)
        b = gaussian_spectrum(2, 2)
        assert a.mu == pytest.approx(b.mu, abs=1e-15)
        assert a.n_sigma2 == pytest.approx(b.n_sigma2, abs=1e-15)

    def test_half_half_top_exponent(self):
        th = mixture_spectrum(2, 2, 0.5)
        assert th.mu[0] == pytest.approx(0.25 * (digamma(2.0) - digamma(1.0)), abs=1e-14)
        assert th.mu[0] == pytest.approx(0.25, abs=1e-14)

    def test_pure_inverse_scalar(self):
        th = mixture_spectrum(2, 1, 0.0)
        assert th.mu[0] == pytest.approx(EULER_GAMMA / 2.0, abs=1e-14)

    def test_pure_inverse_reverses_and_negates(self):
        base = gaussian_spectrum(2, 4)
        inv = mixture_spectrum(2, 4, 0.0)
        assert inv.mu == pytest.approx(tuple(-m for m in reversed(base.mu)), abs=1e-15)
        assert inv.n_sigma2 == pytest.approx(tuple(reversed(base.n_sigma2)), abs=1e-15)

    def test_mu_non_increasing(self):
        for ap in (0.0, 0.3, 0.5, 0.8, 1.0):
            th = mixture_spectrum(2, 4, ap)
            assert all(a >= b for a, b in zip(th.mu, th.mu[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mixture_spectrum(2, 2, 1.5)
        with pytest.raises(ValueError):
            mixture_spectrum(2, 2, -0.5)
        for share in (True, "0.5", float("nan")):
            with pytest.raises(ValueError, match="alpha_plus must"):
                mixture_spectrum(2, 2, share)


class TestTruncatedUnitarySpectrum:
    def test_d2_n2_exact_rationals(self):
        th = truncated_unitary_spectrum(2, 2, 2)
        assert th.mu[0] == pytest.approx(-5.0 / 12.0, abs=1e-13)
        assert th.mu[0] + th.mu[1] == pytest.approx(-7.0 / 6.0, abs=1e-13)
        assert th.n_sigma2[0] == pytest.approx(13.0 / 144.0, abs=1e-13)
        assert th.n_sigma2[0] + th.n_sigma2[1] == pytest.approx(29.0 / 72.0, abs=1e-13)

    def test_zero_truncation_gives_zero_spectrum(self):
        th = truncated_unitary_spectrum(2, 3, 0)
        assert th.mu == (0.0, 0.0, 0.0)
        assert th.n_sigma2 == (0.0, 0.0, 0.0)

    def test_scalar_case(self):
        th = truncated_unitary_spectrum(2, 1, 1)
        assert th.mu[0] == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_strictly_negative_for_positive_truncation(self, beta):
        for n in (1, 2, 5):
            th = truncated_unitary_spectrum(beta, 3, n)
            assert all(m < 0.0 for m in th.mu)
            assert all(v > 0.0 for v in th.n_sigma2)
            assert all(a >= b for a, b in zip(th.mu, th.mu[1:]))

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError):
            truncated_unitary_spectrum(2, 2, -1)


class TestTheorySpectrumType:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            TheorySpectrum(beta=2, d=2, mu=(0.0,), n_sigma2=(0.0, 0.0))

    @pytest.mark.parametrize("m", [0, 3])
    def test_covered_length_between_1_and_d(self, m):
        with pytest.raises(ValueError):
            TheorySpectrum(beta=2, d=2, mu=(0.0,) * m, n_sigma2=(0.0,) * m)

    def test_leading_indices_only(self):
        th = TheorySpectrum(beta=1, d=3, mu=(0.5,), n_sigma2=(0.25,))
        assert (th.d, th.mu, th.n_sigma2) == (3, (0.5,), (0.25,))

    def test_partial_sums(self):
        th = truncated_unitary_spectrum(2, 2, 2)
        assert th.mu[0] + th.mu[1] == pytest.approx(-7.0 / 6.0, abs=1e-13)
