import math

import numpy as np
import pytest

from lyaprod.ensembles import (FactorStream, GaussianInverseMixture,
                               GeneralSigmaGaussian, InverseGaussian,
                               RectangularGaussian, StandardGaussian,
                               TruncatedUnitary, chain_rng)
from lyaprod import montecarlo
from lyaprod.montecarlo import (estimate, run_chain, spectral_ratio,
                                spectral_ratio_samples, stability_exponents)
from lyaprod.sigma import SigmaSpec
from lyaprod.theory import (RectangularSpec, gaussian_spectrum,
                            truncated_unitary_spectrum)


def direct_log_volume(spec, k, n, rng):
    """Oracle: (1/2) log det of the Gram matrix of the first k columns of P_N.

    Evaluated in extended precision (the Gram matrix condition grows like
    exp(2 n (mu_1 - mu_k)), which exceeds double precision already for
    moderate n), with the factors taken bit-identically from the stream.
    """
    import mpmath
    mpmath.mp.dps = 60
    d = spec.d
    size = 2 * d if spec.beta == 4 else d
    cols = 2 * k if spec.beta == 4 else k
    prod = mpmath.eye(size)
    for a in FactorStream(spec, rng).factors(n):
        step = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in np.atleast_2d(a)])
        prod = step * prod
    b = prod[:, :cols]
    gram = b.transpose_conj() * b
    value = 0.5 * float(mpmath.log(mpmath.fabs(mpmath.det(gram))))
    return 0.5 * value if spec.beta == 4 else value


class TestRunChain:
    def test_unitary_factors_zero_increments(self):
        res = run_chain(TruncatedUnitary(2, 2, 0), 2, 40, [chain_rng(1, 0)])[0]
        assert np.abs(res.increments).max() <= 1e-12

    @pytest.mark.parametrize("beta,d,k", [
        (1, 2, 1), (1, 3, 2), (2, 2, 2), (2, 3, 3), (4, 2, 2), (4, 3, 1),
    ])
    def test_volume_telescoping(self, beta, d, k):
        # summed per-step increments must equal the directly computed
        # log-volume of the propagated frame
        spec = StandardGaussian(beta, d)
        n = 18
        res = run_chain(spec, k, n, [chain_rng(9, beta)])[0]
        direct = direct_log_volume(spec, k, n, chain_rng(9, beta))
        assert math.fsum(res.increments.sum(axis=1)) == pytest.approx(direct, abs=1e-8)

    def test_volume_telescoping_general_sigma(self):
        spec = GeneralSigmaGaussian(2, SigmaSpec((0.5, 2.0, 3.0)))
        res = run_chain(spec, 2, 15, [chain_rng(10, 0)])[0]
        direct = direct_log_volume(spec, 2, 15, chain_rng(10, 0))
        assert res.increments.sum() == pytest.approx(direct, abs=1e-8)

    def test_increments_shape_and_finiteness(self):
        res = run_chain(StandardGaussian(2, 3), 2, 25, [chain_rng(11, 0)])[0]
        assert res.increments.shape == (25, 2)
        assert np.all(np.isfinite(res.increments))
        assert res.k_max == 2
        assert res.redraw_count == 0

    def test_quaternion_pair_degeneracy(self):
        # the two R-diagonal entries of a quaternion column pair agree, so
        # a k_max = d run has increments equal to the half-pair averages
        spec = StandardGaussian(4, 2)
        res = run_chain(spec, 2, 30, [chain_rng(12, 0)])[0]
        assert np.all(np.isfinite(res.increments))

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 3, 5, [chain_rng(13, 0)])[0]
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 0, 5, [chain_rng(13, 0)])[0]
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 1, 0, [chain_rng(13, 0)])[0]


class TestEstimate:
    def test_partial_sum_mu_is_exact_cumsum(self):
        est = estimate(StandardGaussian(2, 3), 3, 2000, 2, 17)
        assert np.array_equal(est.partial_sum_mu, np.cumsum(est.mu_hat))

    def test_se_positive_and_mu_ordered(self):
        est = estimate(StandardGaussian(2, 3), 3, 20_000, 2, 18)
        assert np.all(est.se_mu > 0)
        for i in range(2):
            assert est.mu_hat[i] >= est.mu_hat[i + 1] - 3.0 * est.se_mu[i + 1]

    @pytest.mark.parametrize("spec,k", [
        (GaussianInverseMixture(2, 2, 0.5), 2),
        (StandardGaussian(4, 3), 3),
        (StandardGaussian(1, 1), 1),
        (RectangularGaussian(2, 2, RectangularSpec(((0, 0.5), (1, 0.5)))), 2),
    ], ids=["mixture", "beta4_d3", "d1", "rectangular"])
    def test_chains_stepped_together_match_single_chains(self, spec, k, monkeypatch):
        # estimate steps its four chains in one batched run_chain call; the
        # same chains run one at a time must give bit-identical results
        together = estimate(spec, k, 3000, 4, 19)

        def one_at_a_time(spec, k_max, N, rngs, **kwargs):
            return [run_chain(spec, k_max, N, [rng], **kwargs)[0] for rng in rngs]

        monkeypatch.setattr(montecarlo, "run_chain", one_at_a_time)
        alone = estimate(spec, k, 3000, 4, 19)
        for field in ("mu_hat", "se_mu", "n_sigma2_hat", "partial_sum_mu",
                      "partial_sum_n_sigma2"):
            assert np.array_equal(getattr(together, field), getattr(alone, field)), field
        assert together.redraw_count == alone.redraw_count

    def test_bit_identical_across_parallelism(self, monkeypatch):
        # however the chains of an estimate are split into groups stepped
        # apart (as separate workers would run them), the result is the same
        spec = GaussianInverseMixture(2, 2, 0.5)
        together = estimate(spec, 2, 4000, 4, 19)

        def in_groups(spec, k_max, N, rngs, **kwargs):
            groups = [rngs[:2], rngs[2:3], rngs[3:]]
            return [res for group in groups
                    for res in run_chain(spec, k_max, N, group, **kwargs)]

        monkeypatch.setattr(montecarlo, "run_chain", in_groups)
        grouped = estimate(spec, 2, 4000, 4, 19)
        assert np.array_equal(together.mu_hat, grouped.mu_hat)
        assert np.array_equal(together.n_sigma2_hat, grouped.n_sigma2_hat)
        assert np.array_equal(together.partial_sum_n_sigma2, grouped.partial_sum_n_sigma2)
        assert together.redraw_count == grouped.redraw_count

    def test_block_size_invariance(self):
        a = estimate(StandardGaussian(2, 2), 2, 3000, 2, 20, block=64)
        b = estimate(StandardGaussian(2, 2), 2, 3000, 2, 20, block=1024)
        assert np.array_equal(a.mu_hat, b.mu_hat)

    def test_matches_theory_complex_gaussian(self):
        est = estimate(StandardGaussian(2, 2), 2, 50_000, 2, 21)
        th = gaussian_spectrum(2, 2)
        z = (est.mu_hat - np.array(th.mu)) / est.se_mu
        assert np.abs(z).max() <= 4.0
        assert np.allclose(est.n_sigma2_hat, th.n_sigma2, rtol=0.1)

    def test_matches_theory_truncated(self):
        est = estimate(TruncatedUnitary(2, 2, 2), 2, 50_000, 2, 22)
        th = truncated_unitary_spectrum(2, 2, 2)
        z = (est.mu_hat - np.array(th.mu)) / est.se_mu
        assert np.abs(z).max() <= 4.0

    def test_multi_seed_coverage(self):
        # |mu_hat - mu| <= 4 se should hold in at least 95% of seeded runs
        th = gaussian_spectrum(2, 1)
        hits = 0
        seeds = range(500, 520)
        for seed in seeds:
            est = estimate(StandardGaussian(2, 1), 1, 10_000, 1, seed)
            if abs(est.mu_hat[0] - th.mu[0]) <= 4.0 * est.se_mu[0]:
                hits += 1
        assert hits / len(seeds) >= 0.95

    def test_rejects_bad_chains(self):
        with pytest.raises(ValueError):
            estimate(StandardGaussian(2, 1), 1, 10, 0, 1)


class TestVarianceAgreement:
    def test_subset_at_one_million_steps(self):
        # spot check of the 10% variance agreement at N = 1e6 (full sweep of
        # the regression ensembles lives behind the slow marker)
        for spec in (StandardGaussian(2, 1), StandardGaussian(1, 2)):
            est = estimate(spec, spec.d, 1_000_000, 1, 23)
            th = gaussian_spectrum(spec.beta, spec.d)
            assert np.allclose(est.n_sigma2_hat, th.n_sigma2, rtol=0.10)

    @pytest.mark.slow
    def test_regression_ensembles_at_one_million_steps(self):
        cases = []
        for beta in (1, 2, 4):
            for d in (1, 2, 3):
                cases.append((StandardGaussian(beta, d), gaussian_spectrum(beta, d)))
        from lyaprod.theory import mixture_spectrum, rectangular_spectrum, MixtureSpec
        half = RectangularSpec(((0, 0.5), (1, 0.5)))
        cases.append((RectangularGaussian(2, 2, half), rectangular_spectrum(2, 2, half)))
        cases.append((GaussianInverseMixture(2, 2, 0.5),
                      mixture_spectrum(2, 2, MixtureSpec(0.5))))
        for beta in (1, 2, 4):
            cases.append((TruncatedUnitary(beta, 2, 2),
                          truncated_unitary_spectrum(beta, 2, 2)))
        for spec, th in cases:
            est = estimate(spec, spec.d, 1_000_000, 1, 24)
            assert np.allclose(est.n_sigma2_hat, th.n_sigma2, rtol=0.10), spec


class TestStabilityExponents:
    def test_unitary_product_zero(self):
        lams = stability_exponents(TruncatedUnitary(2, 2, 0), 300, chain_rng(30, 0))
        assert all(abs(l) <= 1e-10 for l, _ in lams)

    def test_scalar_equals_mean_increment(self):
        spec = StandardGaussian(2, 1)
        lams = stability_exponents(spec, 800, chain_rng(31, 0))
        res = run_chain(spec, 1, 800, [chain_rng(31, 0)])[0]
        assert abs(lams[0][0] - res.increments.mean()) <= 1e-12

    def test_complex_pair_matches_theory(self):
        # average over repetitions; combined SE from the theory variances
        spec = StandardGaussian(2, 2)
        th = gaussian_spectrum(2, 2)
        n, reps = 500, 60
        samples = np.array([[l for l, _ in stability_exponents(spec, n, chain_rng(32, r))]
                            for r in range(reps)])
        means = samples.mean(axis=0)
        ses = samples.std(axis=0, ddof=1) / math.sqrt(reps)
        for k in range(2):
            assert abs(means[k] - th.mu[k]) <= 6.0 * ses[k]

    def test_quaternion_returns_d_unique_pairs(self):
        lams = stability_exponents(StandardGaussian(4, 3), 200, chain_rng(33, 0))
        assert len(lams) == 3
        assert all(lams[i][0] >= lams[i + 1][0] for i in range(2))
        assert all(t >= 0.0 for _, t in lams)

    def test_step_cap_enforced(self):
        with pytest.raises(ValueError):
            stability_exponents(StandardGaussian(2, 2), 5000, chain_rng(34, 0))
        # explicit override allows longer runs
        stability_exponents(StandardGaussian(2, 2), 2500, chain_rng(34, 0), step_cap=3000)

    def test_rectangular_factors_rejected(self):
        spec = RectangularGaussian(2, 2, RectangularSpec(((0, 0.5), (1, 0.5))))
        with pytest.raises(ValueError):
            stability_exponents(spec, 100, chain_rng(35, 0))

    def test_square_rectangular_allowed(self):
        spec = RectangularGaussian(2, 2, RectangularSpec(((0, 1.0),)))
        stability_exponents(spec, 50, chain_rng(36, 0))


class TestSpectralRatio:
    def test_ratio_at_least_one_always(self):
        rng = chain_rng(40, 0)
        ratios = spectral_ratio_samples(2, 2, 1000, rng)
        assert np.all(ratios >= 1.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_all_fields_supported(self, beta):
        rng = chain_rng(41, beta)
        r = spectral_ratio(beta, 20, 5, rng)
        assert r >= 1.0

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            spectral_ratio(2, 1, 5, chain_rng(42, 0))
