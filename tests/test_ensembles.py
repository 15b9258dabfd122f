import itertools
import math

import numpy as np
import pytest
from scipy import stats

import lyaprod
import lyaprod.ensembles as ens
from lyaprod.ensembles import (FactorStream, GaussianInverseMixture,
                               GeneralSigmaGaussian, InverseGaussian,
                               RectangularGaussian, StandardGaussian,
                               TruncatedUnitary, chain_rng,
                               is_quaternion_structured, quaternion_dual,
                               _quota_schedule)
from lyaprod.montecarlo import estimate
from lyaprod.sigma import SigmaSpec
from lyaprod.specfun import EULER_GAMMA
from lyaprod.theory import RectangularSpec

HALF_HALF = RectangularSpec(((0, 0.5), (1, 0.5)))


def collect(spec, n, rng):
    return list(FactorStream(spec, rng).factors(n))


def first_factor(spec, rng):
    return next(FactorStream(spec, rng).factors(1))


def schedule(spec, n):
    """The types of a stream's first n steps."""
    return ens._step_types(spec, n)


class TestGaussianSampling:
    def test_real_second_moment(self):
        rng = chain_rng(100, 0)
        draws = ens._gaussian_data(1, 2, 2, rng, size=250_000)
        mean_sq = float((draws**2).mean())
        assert abs(mean_sq - 1.0) < 0.01

    def test_complex_log_modulus_mean(self):
        # E log|g| = -gamma/2 for a standard complex Gaussian scalar
        rng = chain_rng(101, 0)
        g = ens._gaussian_data(2, 1, 1, rng, size=1_000_000).ravel()
        logs = np.log(np.abs(g))
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        assert abs(logs.mean() + EULER_GAMMA / 2.0) < 3.0 * se

    def test_complex_entry_normalization(self):
        rng = chain_rng(102, 0)
        g = ens._gaussian_data(2, 1, 1, rng, size=500_000).ravel()
        assert abs(float((np.abs(g)**2).mean()) - 1.0) < 0.01

    def test_quaternion_matrix_structure_exact(self):
        rng = chain_rng(103, 0)
        m = ens._gaussian_data(4, 1, 1, rng)
        assert m.shape == (2, 2)
        assert is_quaternion_structured(m)
        m = ens._gaussian_data(4, 3, 5, rng)
        assert m.shape == (6, 10)
        assert is_quaternion_structured(m)

    def test_quaternion_entry_normalization(self):
        rng = chain_rng(104, 0)
        m = ens._gaussian_data(4, 1, 1, rng, size=300_000)
        # |q|^2 = |alpha|^2 + |beta|^2, from the first block row
        sq = (np.abs(m[:, 0, 0])**2 + np.abs(m[:, 0, 1])**2)
        assert abs(float(sq.mean()) - 1.0) < 0.01


class TestHaarSampling:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_unitarity(self, beta):
        rng = chain_rng(200, beta)
        u = ens._haar_columns(beta, 3, 3, rng)
        dev = np.abs(np.conj(u.T) @ u - np.eye(u.shape[0])).max()
        assert dev <= 1e-12

    def test_real_determinant_is_sign(self):
        rng = chain_rng(201, 0)
        for _ in range(20):
            u = ens._haar_columns(1, 2, 2, rng)
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12

    def test_quaternion_structure_exact(self):
        rng = chain_rng(202, 0)
        for m in (1, 2, 4):
            u = ens._haar_columns(4, m, m, rng)
            assert is_quaternion_structured(u)

    def test_first_entry_phase_uniform(self, monkeypatch):
        # Haar measure makes the phase of U_11 uniform on the circle; without
        # the diagonal phase correction this test fails, for the Haar columns
        # and for the truncated factors drawn from them
        rng = chain_rng(203, 0)
        haar = ens._haar_columns(2, 2, 2, rng, size=100_000)
        monkeypatch.setattr(ens, "BLOCK", 100_000)
        spec = TruncatedUnitary(2, 2, 2)
        truncated = next(FactorStream(spec, rng).blocks(schedule(spec, 100_000)))
        for u in (haar, truncated):
            phases = np.angle(u[:, 0, 0])
            p = stats.kstest(phases, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf).pvalue
            assert p > 0.001

    @pytest.mark.parametrize("beta", [1, 2])
    def test_left_invariance_chi_square(self, beta):
        # statistics of V U match U for a fixed unitary V
        rng = chain_rng(204, beta)
        v = ens._haar_columns(beta, 2, 2, rng)
        u_plain = ens._haar_columns(beta, 2, 2, rng, size=100_000)
        u_mult = v @ ens._haar_columns(beta, 2, 2, rng, size=100_000)
        a = np.abs(u_plain[:, 0, 0])
        b = np.abs(u_mult[:, 0, 0])
        edges = np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 21))
        edges[0], edges[-1] = 0.0, np.inf
        table = np.array([np.histogram(a, edges)[0], np.histogram(b, edges)[0]])
        p = stats.chi2_contingency(table).pvalue
        assert p > 0.001

    def test_quaternion_haar_invariance(self):
        # same check through the embedding for the symplectic case
        rng = chain_rng(205, 0)
        v = ens._haar_columns(4, 2, 2, rng)
        u_plain = ens._haar_columns(4, 2, 2, rng, size=30_000)
        u_mult = v @ ens._haar_columns(4, 2, 2, rng, size=30_000)
        a = np.abs(u_plain[:, 0, 0])
        b = np.abs(u_mult[:, 0, 0])
        edges = np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 16))
        edges[0], edges[-1] = 0.0, np.inf
        table = np.array([np.histogram(a, edges)[0], np.histogram(b, edges)[0]])
        p = stats.chi2_contingency(table).pvalue
        assert p > 0.001


class TestFactorSampling:
    def test_truncated_zero_is_unitary(self):
        rng = chain_rng(300, 0)
        f = first_factor(TruncatedUnitary(2, 2, 0), rng)
        dev = np.abs(np.conj(f.T) @ f - np.eye(2)).max()
        assert dev <= 1e-12

    def test_general_sigma_factor_is_scaled_gaussian(self):
        # y = {1, 1/4} sorted ascending gives row scales (2, 1)
        spec = GeneralSigmaGaussian(2, SigmaSpec((1.0, 0.25)))
        f = first_factor(spec, chain_rng(301, 0))
        g = ens._gaussian_data(2, 2, 2, chain_rng(301, 0))
        assert np.array_equal(f, np.diag([2.0, 1.0]) @ g)

    def test_inverse_scalar_log_mean(self, monkeypatch):
        # E log|1/g| = +gamma/2, the negation of the Gaussian value
        rng = chain_rng(302, 0)
        monkeypatch.setattr(ens, "BLOCK", 8192)
        vals = np.array([math.log(abs(f[0, 0]))
                         for f in FactorStream(InverseGaussian(2, 1), rng).factors(400_000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - EULER_GAMMA / 2.0) < 3.0 * se

    def test_inverse_is_matrix_inverse(self):
        spec = InverseGaussian(2, 3)
        f = first_factor(spec, chain_rng(303, 0))
        g = ens._gaussian_data(2, 3, 3, chain_rng(303, 0))
        assert np.allclose(f @ g, np.eye(3), atol=1e-10)

    def test_inverse_quaternion_structure_exact(self):
        f = first_factor(InverseGaussian(4, 2), chain_rng(304, 0))
        assert is_quaternion_structured(f)

    def test_mixture_structure_exact_and_runs(self):
        rng = chain_rng(305, 0)
        for f in FactorStream(GaussianInverseMixture(4, 2, 0.5), rng).factors(20):
            assert is_quaternion_structured(f)


class TestDeterminism:
    SPECS = [
        StandardGaussian(2, 2),
        StandardGaussian(4, 2),
        GeneralSigmaGaussian(2, SigmaSpec((1.0, 0.25))),
        InverseGaussian(2, 2),
        InverseGaussian(1, 1),
        GaussianInverseMixture(2, 2, 0.5),
        RectangularGaussian(2, 2, HALF_HALF),
        RectangularGaussian(1, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5)))),
        RectangularGaussian(4, 2, RectangularSpec(((0, 0.25), (2, 0.75)))),
        TruncatedUnitary(2, 2, 2),
        TruncatedUnitary(4, 2, 1),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(s.beta))
    def test_same_seed_same_stream(self, spec):
        a = collect(spec, 9, chain_rng(42, 3))
        b = collect(spec, 9, chain_rng(42, 3))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(s.beta))
    def test_block_size_does_not_change_stream(self, spec, monkeypatch):
        runs = []
        for block in (1, 257, 4):
            monkeypatch.setattr(ens, "BLOCK", block)
            runs.append(collect(spec, 9, chain_rng(43, 1)))
        a, b, c = runs
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x, y)
            assert np.array_equal(x, z)

    def test_distinct_chains_differ(self):
        a = collect(StandardGaussian(2, 2), 3, chain_rng(42, 0))
        b = collect(StandardGaussian(2, 2), 3, chain_rng(42, 1))
        assert not np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("spec", [s for s in SPECS if s.beta == 4],
                             ids=lambda s: type(s).__name__)
    def test_quaternion_stream_structure_exact(self, spec):
        for f in collect(spec, 6, chain_rng(45, 0)):
            assert is_quaternion_structured(f)


def one_at_a_time(spec, n, rng):
    """Reference draw, factor by factor: step t takes the t-th Gaussian draw
    and inverts it on inverse steps.

    Mixture types follow the quota schedule over (alpha_plus, alpha_minus):
    type 0 is a Gaussian step, type 1 an inverse one.
    """
    if isinstance(spec, InverseGaussian):
        types = [1] * n
    else:
        types = _quota_schedule((spec.alpha_plus, 1.0 - spec.alpha_plus), n)
    out = []
    for t in types:
        g = ens._gaussian_data(spec.beta, spec.d, spec.d, rng)
        if t == 1:
            g = np.linalg.inv(g)
            if spec.beta == 4:
                g = 0.5 * (g + quaternion_dual(g))
        out.append(g)
    return out


def reversed_adjoint(g):
    """J G^H J of each stacked matrix, J the order reversal."""
    return g[..., ::-1, ::-1].conj().swapaxes(-1, -2)


class TestInverseStreams:
    """Every inverse step takes the next Gaussian draw of its stream."""

    SPECS = [InverseGaussian(b, d) for b in (1, 2, 4) for d in (1, 2, 3)] + [
        GaussianInverseMixture(2, 2, 0.5),
        GaussianInverseMixture(1, 3, 0.3),
        GaussianInverseMixture(4, 2, 0.7),
    ]

    @pytest.mark.parametrize("block", [1, 4, 257])
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_factors_and_panels_are_the_draws(self, spec, block, monkeypatch):
        # factors invert the draws of inverse steps; panels are the draws,
        # d columns wide whatever k, on every step
        n = 40
        types = schedule(spec, n)
        g = ens._gaussian_data(spec.beta, spec.d, spec.d, chain_rng(50, 1), size=n)
        inverse = np.ones(n, dtype=bool) if spec.proportions is None else types == 1
        np.testing.assert_array_equal(ens._inverse_steps(spec, types), inverse)
        want_factors = g.copy()
        want_factors[inverse] = ens._invert(spec.beta, g[inverse])
        monkeypatch.setattr(ens, "BLOCK", block)
        factors = np.concatenate(list(FactorStream(spec, chain_rng(50, 1)).blocks(types)))
        panels = np.concatenate(list(FactorStream(spec, chain_rng(50, 1)).panels(types, 1)))
        np.testing.assert_array_equal(factors, want_factors)
        np.testing.assert_array_equal(panels, g)
        np.testing.assert_array_equal(factors, one_at_a_time(spec, n, chain_rng(50, 1)))

    @pytest.mark.parametrize("steps", [1, 257])
    @pytest.mark.parametrize("mask", ["all", "none", "mixed"])
    @pytest.mark.parametrize("beta,d", list(itertools.product((1, 2, 4), (1, 2, 3))))
    def test_batch_copy_writes_reversed_adjoints(self, beta, d, mask, steps):
        # _batch_last writes J G^H J of the marked steps in its one copy, bit
        # for bit what it copies from reversed adjoints taken beforehand
        rng = chain_rng(51, 10 * beta + d)
        panels = [ens._gaussian_data(beta, d, d, rng, size=steps) for _ in range(2)]
        inverse = {"all": np.ones(steps, dtype=bool), "none": np.zeros(steps, dtype=bool),
                   "mixed": rng.random(steps) < 0.5}[mask]
        want = []
        for p in panels:
            q = p.copy()
            q[inverse] = reversed_adjoint(p[inverse])
            want.append(q)
        got = ens._batch_last(panels, beta, inverse)
        np.testing.assert_array_equal(got, ens._batch_last(want, beta))
        assert got.flags.c_contiguous


class TestMixtureSchedule:
    @pytest.mark.parametrize("alpha", [0.5, 0.3, 0.85])
    def test_type_prefix_frequencies_within_one(self, alpha):
        gaussian = np.cumsum(ens._step_types(GaussianInverseMixture(1, 2, alpha), 3000) == 0)
        n = np.arange(1, gaussian.size + 1)
        assert np.abs(gaussian - alpha * n).max() <= 1.0 + 1e-9
        # the schedule is a function of the proportions alone: rectangular
        # offset classes in the same shares take the same types
        shapes = RectangularSpec(((0, alpha), (1, 1.0 - alpha)))
        rectangular = ens._step_types(RectangularGaussian(1, 2, shapes), 3000)
        np.testing.assert_array_equal(np.cumsum(rectangular == 0), gaussian)

    @pytest.mark.parametrize("alpha,kind", [(0.0, 1), (1.0, 0)])
    def test_pure_proportions_use_one_type(self, alpha, kind):
        spec = GaussianInverseMixture(2, 2, alpha)
        types = ens._step_types(spec, 50)
        assert list(types) == [kind] * 50
        assert list(ens._inverse_steps(spec, types)) == [kind == 1] * 50
        factors = np.concatenate(list(FactorStream(spec, chain_rng(53, 0)).blocks(types)))
        g = ens._gaussian_data(2, 2, 2, chain_rng(53, 0), size=50)
        np.testing.assert_array_equal(factors, ens._invert(2, g) if kind == 1 else g)

    def test_factors_follow_the_type_trace(self, monkeypatch):
        # step t takes the t-th Gaussian draw, inverted at type 1
        spec = GaussianInverseMixture(2, 3, 0.4)
        monkeypatch.setattr(ens, "BLOCK", 16)
        stream = FactorStream(spec, chain_rng(54, 0))
        factors = list(stream.factors(100))
        g = ens._gaussian_data(2, 3, 3, chain_rng(54, 0), size=100)
        for f, x, t in zip(factors, g, schedule(spec, 100)):
            assert np.array_equal(f, np.linalg.inv(x) if t == 1 else x)


def step_by_step_schedule(proportions, steps):
    """The quota round-robin one step at a time: the most overdue type,
    priority (c + 0.5)/p, ties by position; p = 0 is never due."""
    counts = [0] * len(proportions)
    priorities = [0.5 / p if p > 0 else math.inf for p in proportions]
    out = []
    for _ in range(steps):
        s = priorities.index(min(priorities))
        counts[s] += 1
        priorities[s] = (counts[s] + 0.5) / proportions[s]
        out.append(s)
    return out


class TestOneCallStreams:
    """A stream keeps its ensemble and its generator and nothing else: the
    types of every call start at step 1, for mixture and rectangular streams
    alike."""

    @pytest.mark.parametrize("spec", [GaussianInverseMixture(2, 2, 0.4),
                                      RectangularGaussian(2, 2, HALF_HALF)],
                             ids=lambda s: s.kind)
    def test_second_call_restarts_the_schedule(self, spec):
        stream = FactorStream(spec, chain_rng(59, 0))
        first, second = list(stream.factors(3)), list(stream.factors(3))
        assert vars(stream).keys() == {"spec", "rng"}
        # the same as two new streams on the stream's generator
        rng = chain_rng(59, 0)
        again = [f for _ in range(2) for f in FactorStream(spec, rng).factors(3)]
        np.testing.assert_array_equal(first + second, again)
        # one call of six steps goes on with the schedule instead (types
        # 1, 0, 1, 0, 1, 1 and 0, 1, 0, 1, 0, 1), so the second call differs
        # from its last three factors
        whole = list(FactorStream(spec, chain_rng(59, 0)).factors(6))
        np.testing.assert_array_equal(whole[:3], first)
        assert not np.array_equal(whole[3:], second)


class TestRectangularSchedule:
    def test_half_half_alternates(self):
        seq = _quota_schedule(HALF_HALF.proportions, 6)
        assert [HALF_HALF.offsets[s] for s in seq] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("shapes", [
        HALF_HALF,
        RectangularSpec(((0, 0.25), (2, 0.75))),
        RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5))),
    ])
    def test_prefix_frequencies_within_one_over_n(self, shapes):
        seq = _quota_schedule(shapes.proportions, 5000)
        counts = {g: 0 for g in shapes.offsets}
        for i, off in enumerate((shapes.offsets[s] for s in seq), start=1):
            counts[off] += 1
            for (g, a) in shapes.shapes:
                assert abs(counts[g] - a * i) <= 1.0 + 1e-9

    @pytest.mark.parametrize("proportions", [
        (0.5, 0.5), (1 / 3, 2 / 3), (0.1, 0.9), (0.2, 0.3, 0.5), (0.25, 0.0, 0.75),
    ])
    def test_whole_run_matches_step_loop(self, proportions):
        steps = 1_000_003
        expected = step_by_step_schedule(proportions, steps)
        seq = _quota_schedule(proportions, steps)
        assert seq.dtype == np.uint8
        assert seq.tolist() == expected

    def test_256_offset_classes_run_and_257_are_rejected(self):
        # the schedule's type indices are uint8, so 256 classes is the limit
        spec = RectangularGaussian(2, 1, [(g, 1 / 256) for g in range(256)])
        est = estimate(spec, 1, 512, 2, 58)
        assert np.isfinite(est.mu_hat).all() and np.isfinite(est.n_sigma2_hat).all()
        with pytest.raises(ValueError, match="at most 256 offset classes"):
            RectangularGaussian(2, 1, [(g, 1 / 257) for g in range(257)])

    def test_factor_shapes_follow_schedule(self):
        spec = RectangularGaussian(2, 2, HALF_HALF)
        factors = collect(spec, 5, chain_rng(46, 0))
        # every factor is padded to 3 x 3; schedule 0,1,0,1,0 with nu_0 = 0
        # puts the nonzero corners at (2,2),(3,2),(2,3),(3,2),(2,3)
        assert [f.shape for f in factors] == [(3, 3)] * 5
        for f, (r, c) in zip(factors, [(2, 2), (3, 2), (2, 3), (3, 2), (2, 3)]):
            assert np.all(f[:r, :c] != 0)
            padding = f.copy()
            padding[:r, :c] = 0
            assert np.all(padding == 0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_corners_take_successive_draws(self, beta, monkeypatch):
        # the padded block consumes the generator exactly as drawing each
        # factor's r x c entries in turn would
        spec = RectangularGaussian(beta, 2, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5))))
        monkeypatch.setattr(ens, "BLOCK", 4)
        stream = FactorStream(spec, chain_rng(55, beta))
        factors = list(stream.factors(10))
        rng = chain_rng(55, beta)
        nus = [0] + [spec.shapes.offsets[s] for s in schedule(spec, 10)]
        scale = 2 if beta == 4 else 1
        for f, prev, nu in zip(factors, nus, nus[1:]):
            r, c = spec.d + nu, spec.d + prev
            want = ens._to_field(beta, rng.standard_normal((r * c, beta)).reshape(r, c, beta))
            assert np.array_equal(f[:scale * r, :scale * c], want)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_panels_take_successive_draws(self, beta, monkeypatch):
        # a block of panels consumes the generator exactly as drawing each
        # step's (d + nu_t) x k entries in turn would, below zero rows
        spec = RectangularGaussian(beta, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5))))
        k = 2
        monkeypatch.setattr(ens, "BLOCK", 4)
        stream = FactorStream(spec, chain_rng(57, beta))
        panels = np.concatenate(list(stream.panels(schedule(spec, 10), k)))
        rng = chain_rng(57, beta)
        scale = 2 if beta == 4 else 1
        assert panels.shape == (10, scale * spec.width, scale * k)
        for p, s in zip(panels, schedule(spec, 10)):
            r = spec.d + spec.shapes.offsets[s]
            want = ens._to_field(beta, rng.standard_normal((r * k, beta)).reshape(r, k, beta))
            assert np.array_equal(p[:scale * r], want)
            assert not p[scale * r:].any()


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestFieldMap:
    @pytest.mark.parametrize("shape", [(256, 10, 10), (64, 3, 3)])
    def test_matches_component_formulas(self, shape):
        rng = chain_rng(56, 0)
        comps = rng.standard_normal(shape + (2,))
        want = (comps[..., 0] + 1j * comps[..., 1]) * (1.0 / math.sqrt(2.0))
        assert np.array_equal(bits(ens._to_field(2, comps)), bits(want))
        comps = rng.standard_normal(shape + (4,))
        a = (comps[..., 0] + 1j * comps[..., 1]) * 0.5
        b = (comps[..., 2] + 1j * comps[..., 3]) * 0.5
        q = ens._to_field(4, comps)
        for got, want in [(q[..., 0::2, 0::2], a), (q[..., 0::2, 1::2], b),
                          (q[..., 1::2, 0::2], -np.conj(b)), (q[..., 1::2, 1::2], np.conj(a))]:
            assert np.array_equal(bits(got), bits(want))


class TestQuaternionHelpers:
    def test_dual_is_involution(self):
        rng = chain_rng(47, 0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(quaternion_dual(quaternion_dual(m)), m)

    def test_structured_iff_fixed_point(self):
        rng = chain_rng(48, 0)
        m = ens._gaussian_data(4, 2, 2, rng)
        assert is_quaternion_structured(m)
        m2 = m.copy()
        m2[0, 0] += 1.0
        assert not is_quaternion_structured(m2)


class TestChainRng:
    def test_documented_split(self):
        ss = np.random.SeedSequence(77, spawn_key=(3,))
        expected = np.random.default_rng(ss).standard_normal(4)
        got = chain_rng(77, 3).standard_normal(4)
        assert np.array_equal(expected, got)

    def test_negative_seed_names_itself(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -5"):
            chain_rng(-5, 0)


@pytest.mark.parametrize("module", [lyaprod, ens], ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
