import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from lyaprod.ensembles import (ENSEMBLES, Ensemble, FactorStream, GaussianInverseMixture,
                               GeneralSigmaGaussian, InverseGaussian,
                               RectangularGaussian, StandardGaussian,
                               TruncatedUnitary, _gaussian_data, _step_types,
                               chain_rng, is_quaternion_structured)
from lyaprod import ensembles, montecarlo
from lyaprod.montecarlo import (estimate, product_chain, run_chain,
                                spectral_ratio_samples, stability_exponents)
from lyaprod.sigma import SigmaSpec
from lyaprod.theory import (RectangularSpec, gaussian_spectrum, mixture_spectrum,
                            rectangular_spectrum, truncated_unitary_spectrum)


def direct_log_volume(spec, k, n, rng):
    """Oracle: (1/2) log det of the Gram matrix of the first k columns of P_N.

    Evaluated in extended precision (the Gram matrix condition grows like
    exp(2 n (mu_1 - mu_k)), which exceeds double precision already for
    moderate n), with the factors taken bit-identically from the stream.
    """
    import mpmath
    mpmath.mp.dps = 60
    factors = list(FactorStream(spec, rng).factors(n))
    cols = 2 * k if spec.beta == 4 else k
    # zero-padded rectangular factors are D x D, the embedding 2D x 2D
    prod = mpmath.eye(np.atleast_2d(factors[0]).shape[1])
    for a in factors:
        step = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in np.atleast_2d(a)])
        prod = step * prod
    b = prod[:, :cols]
    gram = b.transpose_conj() * b
    value = 0.5 * float(mpmath.log(mpmath.fabs(mpmath.det(gram))))
    return 0.5 * value if spec.beta == 4 else value


def identity_frame(spec, k_max):
    # rectangular factors come zero-padded to D = d + max(offsets)
    size = spec.d + (max(spec.shapes.offsets) if isinstance(spec, RectangularGaussian) else 0)
    if spec.beta == 4:
        return np.eye(2 * size, 2 * k_max, dtype=np.complex128)
    dtype = np.float64 if spec.beta == 1 else np.complex128
    return np.eye(size, k_max, dtype=dtype)


def schedule(spec, n):
    """The types of the first n steps of every stream of ``spec``."""
    return _step_types(spec, n)


def reference_qr_chains(spec, k_max, N, rngs):
    """Oracle for the step kernel: the chains stepped together with an
    explicit orthonormal frame, multiplied by each factor and refactored by
    np.linalg.qr, phases fixed by rdiag / |rdiag|.  Returns the increments
    as (chains, N, k_max)."""
    streams = [FactorStream(spec, rng) for rng in rngs]
    frames = np.repeat(identity_frame(spec, k_max)[None], len(rngs), axis=0)
    out = []
    for step in zip(*(stream.factors(N) for stream in streams)):
        q, r = np.linalg.qr(np.stack(step) @ frames)
        rdiag = r.diagonal(axis1=1, axis2=2)
        rabs = np.abs(rdiag)
        logs = np.log(rabs)
        out.append(0.5 * (logs[:, 0::2] + logs[:, 1::2]) if spec.beta == 4 else logs)
        q *= (rdiag / rabs)[:, None]
        frames = q
    return np.stack(out, axis=1)


def sequential_stability(spec, N, rng):
    """Oracle for stability_exponents: the product multiplied one factor at
    a time, divided by its largest entry modulus after every step, the logs
    of those scales summed with math.fsum.  Eigenvalues, sort and repairs as
    in stability_exponents."""
    size = 2 * spec.d if spec.beta == 4 else spec.d
    prod = np.eye(size, dtype=np.complex128 if spec.beta != 1 else np.float64)
    log_scales = []
    log_dets = []
    det_phases = []
    for block in FactorStream(spec, rng).blocks(schedule(spec, N)):
        signs, logdets = np.linalg.slogdet(block)
        for a in block:
            prod = a @ prod
            scale = float(np.abs(prod).max())
            prod /= scale
            log_scales.append(math.log(scale))
        log_dets.extend(logdets.tolist())
        det_phases.extend(np.angle(signs).tolist())
    eigs = np.linalg.eigvals(prod)
    with np.errstate(divide="ignore"):
        lams = (math.fsum(log_scales) + np.log(np.abs(eigs))) / N
    thetas = np.angle(eigs)
    order = np.argsort(-lams)
    lams, thetas = lams[order], thetas[order]
    logdet_sum = math.fsum(log_dets)
    if spec.beta == 4:
        lams[-1] = lams[-2] = 0.5 * (logdet_sum / N - lams[:-2].sum())
        lams = 0.5 * (lams[0::2] + lams[1::2])
        thetas = np.abs(thetas[0::2])
    else:
        lams[-1] = logdet_sum / N - lams[:-1].sum()
        thetas[-1] = math.remainder(math.fsum(det_phases) - thetas[:-1].sum(), 2.0 * math.pi)
    return np.array(lams), np.array(thetas)


@dataclass(frozen=True)
class BrokenGaussian(Ensemble):
    """Standard Gaussian factors, except that the ``columns`` of step 3 of
    each block are all ``fill``."""

    d: int

    kind = "broken_gaussian"
    fill = 0.0
    columns = slice(None)

    def panel(self, rng, types, k, previous):
        g = _gaussian_data(self.beta, self.d, k, rng, size=len(types))
        g[min(2, len(types) - 1), :, self.columns] = self.fill
        return g


#: (spec, k_max, chains) covering every kind, each beta, k < d and k = d,
#: non-square rectangular factors (one with offsets wider than d) and
#: quaternion single-column frames.  Real d = 3 cases stop at k = 2: at
#: k = d a near-singular real step makes the rounding of log|r_33| itself
#: reach 1e-12, in this kernel and in the oracle alike.
KERNEL_CASES = [
    (StandardGaussian(1, 3), 2, 3),
    (StandardGaussian(2, 2), 2, 1),
    (GeneralSigmaGaussian(2, SigmaSpec((0.5, 1.0, 2.0))), 3, 3),
    (GeneralSigmaGaussian(1, SigmaSpec((0.5, 2.0))), 2, 1),
    (InverseGaussian(4, 2), 1, 3),
    (GaussianInverseMixture(2, 3, 0.4), 3, 3),
    (GaussianInverseMixture(1, 2, 0.5), 2, 1),
    (RectangularGaussian(2, 2, RectangularSpec(((0, 0.5), (1, 0.5)))), 2, 3),
    (RectangularGaussian(4, 2, RectangularSpec(((0, 0.25), (2, 0.75)))), 1, 1),
    (RectangularGaussian(1, 3, RectangularSpec(((0, 1.0),))), 2, 3),
    (RectangularGaussian(1, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5)))), 2, 3),
    (TruncatedUnitary(4, 3, 2), 3, 1),
    (TruncatedUnitary(2, 3, 1), 2, 3),
]


#: Ensembles whose factor type follows the quota schedule: a
#: Gaussian/inverse mixture and three rectangular offset classes.
SCHEDULED_SPECS = [
    GaussianInverseMixture(2, 2, 0.4),
    RectangularGaussian(1, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5)))),
]


class PoisonedStream(FactorStream):
    """Factor stream whose factor or panel at step ``poison_step`` (from 1) is
    all ``fill``."""

    poison_step = None
    fill = np.nan

    def blocks(self, types):
        return self._poisoned(super().blocks(types))

    def panels(self, types, k):
        return self._poisoned(super().panels(types, k))

    def _poisoned(self, blocks):
        done = 0
        for block in blocks:
            if done < self.poison_step <= done + len(block):
                block[self.poison_step - done - 1] = self.fill
            done += len(block)
            yield block


class TestStepKernel:
    def test_cases_cover_every_kind(self):
        assert {spec.kind for spec, _, _ in KERNEL_CASES} == set(ENSEMBLES)

    @pytest.mark.parametrize("spec,k,chains", KERNEL_CASES,
                             ids=lambda v: getattr(v, "kind", str(v)))
    def test_matches_np_linalg_qr_reference(self, spec, k, chains, monkeypatch):
        # 250 steps in blocks of 64: the last block is short.  The kernel
        # fixes no phase on its frame and the reference does; dropping the
        # phase is exact, so the two agree up to rounding.
        monkeypatch.setattr(ensembles, "BLOCK", 64)
        rngs = [chain_rng(60, c) for c in range(chains)]
        got = product_chain(spec, k, 250, rngs)
        want = reference_qr_chains(spec, k, 250, [chain_rng(60, c) for c in range(chains)])
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("spec,k,chains", KERNEL_CASES,
                             ids=lambda v: getattr(v, "kind", str(v)))
    def test_chains_stepped_together_match_stepped_apart(self, spec, k, chains, monkeypatch):
        # the chains' factors and frames are stacked at every step; no chain
        # may see another's, so each one alone gives the same increments
        monkeypatch.setattr(ensembles, "BLOCK", 8)
        seeds = [chain_rng(62, c) for c in range(chains)]
        together = product_chain(spec, k, 20, seeds)
        apart = np.concatenate([product_chain(spec, k, 20, [chain_rng(62, c)])
                                for c in range(chains)])
        np.testing.assert_array_equal(together, apart)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 1], ids=["k2", "k1"])
    @pytest.mark.parametrize("step", [1, 4, 5, 7],
                             ids=["first", "block-end", "block-start", "inside"])
    def test_nan_factor_names_its_step(self, k, step, monkeypatch):
        # blocks of 4 steps: step 4 ends the first block, step 5 starts the
        # second; step 1 has no frame to multiply yet
        monkeypatch.setattr(PoisonedStream, "poison_step", step)
        monkeypatch.setattr(montecarlo, "FactorStream", PoisonedStream)
        monkeypatch.setattr(ensembles, "BLOCK", 4)
        rngs = [chain_rng(61, c) for c in range(3)]
        with pytest.raises(ArithmeticError, match=f"non-finite increment at step {step}$"):
            product_chain(StandardGaussian(2, 2), k, 12, rngs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 1], ids=["k2", "k1"])
    @pytest.mark.parametrize("step", [1, 4, 5, 7],
                             ids=["first", "block-end", "block-start", "inside"])
    def test_nan_panel_names_its_step(self, k, step, monkeypatch):
        # an inverse step's panel is flipped after the kernel (see
        # Ensemble.panel): a zero column then gives +inf, a NaN one NaN
        monkeypatch.setattr(PoisonedStream, "poison_step", step)
        monkeypatch.setattr(montecarlo, "FactorStream", PoisonedStream)
        monkeypatch.setattr(ensembles, "BLOCK", 4)
        for spec, fill in ((StandardGaussian(2, 2), np.nan),
                           (InverseGaussian(2, 2), np.nan), (InverseGaussian(2, 2), 0.0),
                           (GaussianInverseMixture(2, 2, 0.5), np.nan),
                           (GaussianInverseMixture(2, 2, 0.5), 0.0)):
            monkeypatch.setattr(PoisonedStream, "fill", fill)
            rngs = [chain_rng(61, c) for c in range(3)]
            with pytest.raises(ArithmeticError, match=f"non-finite increment at step {step}$"):
                run_chain(spec, k, 12, rngs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("step", [1, 4, 5, 7],
                             ids=["first", "block-end", "block-start", "inside"])
    @pytest.mark.parametrize("spec", [InverseGaussian(2, 2), GaussianInverseMixture(2, 2, 0.2)],
                             ids=lambda s: s.kind)
    def test_singular_inverse_draw_names_its_step(self, spec, step, monkeypatch):
        # the Gaussian that step ``step`` of every stream draws is zeroed,
        # wherever the blocks of 4 steps cut it, and nothing redraws it:
        # whole factors fail to invert it, panels give a zero R entry
        rngs = lambda: [chain_rng(65, c) for c in range(3)]
        if spec.proportions is not None:
            assert schedule(spec, step)[-1] == 1
        singular = [_gaussian_data(2, 2, 2, rng, size=step)[-1] for rng in rngs()]
        draw = ensembles._gaussian_data

        def zero_singular(*args, **kwargs):
            g = draw(*args, **kwargs)
            for z in singular:
                g[(g == z).all(axis=(-2, -1))] = 0.0
            return g

        monkeypatch.setattr(ensembles, "_gaussian_data", zero_singular)
        monkeypatch.setattr(ensembles, "BLOCK", 4)
        for call in (lambda: list(FactorStream(spec, rngs()[0]).blocks(schedule(spec, 12))),
                     lambda: product_chain(spec, 2, 12, rngs())):
            with pytest.raises(ArithmeticError, match=f"^singular factor at step {step}$"):
                call()
        with pytest.raises(ArithmeticError, match=f"^non-finite increment at step {step}$"):
            run_chain(spec, 2, 12, rngs())


def kernel_logs(panels, beta):
    """log|diag R| of a (B, rows, cols) stack of panels by the Gram-Schmidt
    kernel, (B, k); quaternion pairs count once."""
    rdiag2 = ensembles._orthonormalize(ensembles._batch_last([panels], beta), beta)
    return 0.5 * np.log(rdiag2[..., 0].T)


def lapack_logs(panels, beta):
    """log|diag R| by np.linalg.qr, half the summed logs of each quaternion
    column pair."""
    logs = np.log(np.abs(np.diagonal(np.linalg.qr(panels)[1], 0, -2, -1)))
    return 0.5 * (logs[..., 0::2] + logs[..., 1::2]) if beta == 4 else logs


def with_singular_values(beta, rows, k, kappa, rng, size):
    """``size`` rows x k panels U diag(s) V^dag, U and V Haar, s log-spaced
    from 1 down to 1/kappa (quaternion for beta = 4)."""
    u = ensembles._haar_columns(beta, rows, k, rng, size=size)
    v = ensembles._haar_columns(beta, k, k, rng, size=size)
    s = np.logspace(0.0, -math.log10(kappa), k)
    p = (u * np.repeat(s, 2 if beta == 4 else 1)) @ np.conj(np.swapaxes(v, -1, -2))
    return ensembles._quaternion_symmetrize(p) if beta == 4 else p


#: (beta, d, k): k = 1..d for d = 1, 2, 3 at each beta, and a few k at d = 6.
GRAM_SCHMIDT_SHAPES = [(beta, d, k) for beta in (1, 2, 4)
                       for d, ks in ((1, (1,)), (2, (1, 2)), (3, (1, 2, 3)), (6, (1, 4, 6)))
                       for k in ks]


class TestGramSchmidtKernel:
    """_orthonormalize, the step kernel of run_chain and of truncated panels,
    against LAPACK's Householder QR."""

    @pytest.mark.parametrize("beta,d,k", GRAM_SCHMIDT_SHAPES,
                             ids=lambda v: str(v))
    def test_log_rdiag_matches_np_linalg_qr(self, beta, d, k):
        # both R factors are backward stable, so log|r_jj| of a panel of
        # condition number kappa agrees to a few kappa * eps; the gate, fixed
        # from the dtype before the first run, is 10 kappa eps per panel
        rng = chain_rng(90, 100 * beta + 10 * d + k)
        rectangular = RectangularGaussian(beta, d, RectangularSpec(((0, 0.5), (2, 0.5))))
        stacks = [
            _gaussian_data(beta, d, k, rng, size=512),
            # tall: the Gaussian whose Q a truncated panel keeps
            _gaussian_data(beta, d + 4, k, rng, size=512),
            # zero-padded rows
            next(FactorStream(rectangular, rng).panels(schedule(rectangular, 512), k)),
        ] + [with_singular_values(beta, d + 1, k, kappa, rng, 64)
             for kappa in (1e2, 1e6, 1e12) if k > 1]
        for panels in stacks:
            diff = np.abs(kernel_logs(panels.copy(), beta) - lapack_logs(panels, beta))
            gate = 10.0 * np.linalg.cond(panels) * np.finfo(np.float64).eps
            assert np.all(diff.max(axis=1) <= gate), (panels.shape, diff.max())

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("rows,k", [(5, 3), (8, 1), (9, 6)])
    def test_q_orthonormal(self, beta, rows, k):
        # with n = 0 a truncated panel is the whole Q of a rows x k Gaussian
        spec = TruncatedUnitary(beta, rows, 0)
        q = next(FactorStream(spec, chain_rng(91, rows + k)).panels(schedule(spec, 512), k))
        gram = np.conj(np.swapaxes(q, -1, -2)) @ q
        assert np.abs(gram - np.eye(q.shape[-1])).max() <= 1e-13
        if beta == 4:
            assert is_quaternion_structured(q)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_zero_column_names_its_step(self, beta, column, monkeypatch):
        # the kernel meets a zero column at step 3 of each block of 4; the
        # run stops there with the step named and no RuntimeWarning
        monkeypatch.setattr(BrokenGaussian, "columns", 2 * column if beta == 4 else column)
        monkeypatch.setattr(ensembles, "BLOCK", 4)
        rngs = [chain_rng(92, c) for c in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="non-finite increment at step 3$"):
                run_chain(BrokenGaussian(beta, 3), 3, 10, rngs)


#: (spec, k): inverse Gaussians at every beta, d = 1, 2, 3, 5 and k = 1, d,
#: and one Gaussian/inverse mixture per beta.
INVERSE_CASES = [(InverseGaussian(beta, d), k) for beta in (1, 2, 4) for d in (1, 2, 3, 5)
                 for k in sorted({1, d})] + [
                 (GaussianInverseMixture(beta, 3, 0.4), 2) for beta in (1, 2, 4)]

#: Each kind with inverse steps at every beta.
INVERSE_KINDS = ([InverseGaussian(beta, 3) for beta in (1, 2, 4)]
                 + [GaussianInverseMixture(beta, 3, 0.4) for beta in (1, 2, 4)])


class TestInverseSteps:
    """run_chain factors the reversed adjoint J G^H J of an inverse step's
    Gaussian G and flips its logs (see Ensemble.panel); it never inverts."""

    @pytest.mark.parametrize("spec,k", INVERSE_CASES,
                             ids=lambda v: f"{v.kind}-beta{v.beta}-d{v.d}" if hasattr(v, "kind")
                             else f"k{v}")
    def test_increments_are_those_of_the_explicit_inverse(self, spec, k, monkeypatch):
        # same seeds: the stream of whole factors holds the explicit
        # inverses of the same draws, so the two differ by rounding only;
        # the gate, fixed before the first run, is 1e-10
        monkeypatch.setattr(ensembles, "BLOCK", 64)
        N, chains = 250, 2
        got = run_chain(spec, k, N, [chain_rng(63, c) for c in range(chains)])
        types = schedule(spec, N)
        factors = np.stack([np.concatenate(list(FactorStream(spec, chain_rng(63, c)).blocks(types)))
                            for c in range(chains)])
        first_k = factors[..., :2 * k if spec.beta == 4 else k]
        assert np.abs(got - lapack_logs(first_k, spec.beta)).max() <= 1e-10
        if spec.proportions is not None:
            # Gaussian steps: the kernel on their first k columns, bit for bit
            gaussian = types == 0
            for c in range(chains):
                np.testing.assert_array_equal(
                    got[c, gaussian], kernel_logs(first_k[c, gaussian].copy(), spec.beta))

    @pytest.mark.parametrize("spec", INVERSE_KINDS, ids=lambda s: f"{s.kind}-beta{s.beta}")
    def test_run_chain_and_estimate_never_invert(self, spec, monkeypatch):
        def refuse(*args):
            raise RuntimeError("inverted a matrix")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(ensembles, "_invert", refuse)
        # whole factors are true inverses, so the patch reaches them
        with pytest.raises(RuntimeError, match="inverted a matrix"):
            next(FactorStream(spec, chain_rng(64, 0)).blocks(schedule(spec, 8)))
        res = run_chain(spec, 2, 300, [chain_rng(64, c) for c in range(2)])
        assert np.all(np.isfinite(res))
        est = estimate(spec, 2, 300, 2, 64)
        assert np.all(np.isfinite(est.mu_hat))

    @pytest.mark.parametrize("spec", INVERSE_KINDS, ids=lambda s: f"{s.kind}-beta{s.beta}")
    def test_draws_take_no_condition_number(self, spec, monkeypatch):
        # no inverse draw is tested for its condition before it is used
        def refuse(*args, **kwargs):
            raise RuntimeError("took a condition number")

        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        monkeypatch.setattr(np.linalg, "cond", refuse)
        next(FactorStream(spec, chain_rng(66, 0)).blocks(schedule(spec, 8)))
        est = estimate(spec, 2, 300, 2, 66)
        assert np.all(np.isfinite(est.mu_hat))


def pooled_moments(x, spec):
    """mu_hat, N sigma^2 and the standard error of each, per index, from the
    (C, N, k) increments ``x`` of a run of ``spec``.  As in estimate, the variance is
    that of each type's steps weighted by the type's share; the standard
    error of a type's sample variance is sqrt((m4 - var^2) / count)."""
    chains, n, k = x.shape
    types = np.zeros(n) if spec.proportions is None else schedule(spec, n)
    ns2, var_ns2 = np.zeros(k), np.zeros(k)
    for t in np.unique(types):
        rows = x[:, types == t].reshape(-1, k)
        share = len(rows) / (chains * n)
        var = rows.var(axis=0, ddof=1)
        m4 = ((rows - rows.mean(axis=0)) ** 4).mean(axis=0)
        ns2 += share * var
        var_ns2 += share ** 2 * (m4 - var ** 2) / len(rows)
    return x.mean(axis=(0, 1)), np.sqrt(ns2 / (chains * n)), ns2, np.sqrt(var_ns2)


#: (spec, k_max): every kind at beta = 1, 2 and 4, truncations n < d and
#: n > d, rectangular offsets wider than d, the mixture, k < d and k = d.
EQUIVALENCE_CASES = [case for beta in (1, 2, 4) for case in (
    (StandardGaussian(beta, 3), 2),
    (GeneralSigmaGaussian(beta, SigmaSpec((0.5, 1.0, 2.0))), 3),
    (InverseGaussian(beta, 2), 2),
    (GaussianInverseMixture(beta, 3, 0.4), 2),
    (RectangularGaussian(beta, 2, RectangularSpec(((0, 0.5), (3, 0.5)))), 2),
    (TruncatedUnitary(beta, 3, 1), 3),
    (TruncatedUnitary(beta, 2, 3), 1),
)] + [(RectangularGaussian(1, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5)))), 3)]


class TestKernelEquivalence:
    """run_chain draws panels, product_chain multiplies whole factors: on
    independent seeds their increments must have the same law."""

    #: Gate on |z| of each index's mu_hat and N sigma^2 difference, fixed
    #: before the first run: 96 z-scores, P(|z| > 4.5) = 6.8e-6 each.
    Z_GATE = 4.5

    def test_cases_cover_every_kind_and_beta(self):
        assert {(spec.kind, spec.beta) for spec, _ in EQUIVALENCE_CASES} == {
            (kind, beta) for kind in ENSEMBLES for beta in (1, 2, 4)}

    @pytest.mark.parametrize("spec,k", EQUIVALENCE_CASES,
                             ids=lambda v: f"{v.kind}-beta{v.beta}" if hasattr(v, "kind") else str(v))
    def test_panel_kernel_matches_product_law(self, spec, k):
        N, chains = 5000, 2
        panel = run_chain(spec, k, N, [chain_rng(80, c) for c in range(chains)])
        product = product_chain(spec, k, N, [chain_rng(81, c) for c in range(chains)])
        mu_a, se_mu_a, ns2_a, se_ns2_a = pooled_moments(panel, spec)
        mu_b, se_mu_b, ns2_b, se_ns2_b = pooled_moments(product, spec)
        z_mu = (mu_a - mu_b) / np.hypot(se_mu_a, se_mu_b)
        z_ns2 = (ns2_a - ns2_b) / np.hypot(se_ns2_a, se_ns2_b)
        assert np.abs(z_mu).max() <= self.Z_GATE, z_mu
        assert np.abs(z_ns2).max() <= self.Z_GATE, z_ns2


#: The increment law of each quota-schedule type of a spec, from the closed
#: form's table (TheorySpectrum.laws).  An inverse Gaussian is the mixture
#: of Gaussian share 0, whose inverse type holds the whole share.
TYPE_LAWS = {
    "standard_gaussian": lambda s: gaussian_spectrum(s.beta, s.d).laws,
    "inverse_gaussian": lambda s: mixture_spectrum(s.beta, s.d, 0.0).laws[1:],
    "gaussian_inverse_mixture": lambda s: mixture_spectrum(s.beta, s.d, s.alpha_plus).laws,
    "rectangular_gaussian": lambda s: rectangular_spectrum(s.beta, s.d, s.shapes).laws,
    "truncated_unitary": lambda s: truncated_unitary_spectrum(s.beta, s.d, s.n).laws,
}

#: Every kind with an exact increment law, at beta = 1, 2 and 4: truncations
#: with n < d and n > d, rectangular offsets wider than d and the mixture.
#: n = 0 (xi = 0 exactly) is test_unitary_factors_zero_increments.
EXACT_LAW_CASES = [spec for beta in (1, 2, 4) for spec in (
    StandardGaussian(beta, 3),
    InverseGaussian(beta, 3),
    GaussianInverseMixture(beta, 3, 0.4),
    RectangularGaussian(beta, 2, RectangularSpec(((0, 0.5), (3, 0.5)))),
    TruncatedUnitary(beta, 3, 1),
    TruncatedUnitary(beta, 2, 3),
)]


def law_draws(beta, law, i, size, rng):
    """Draws of sign * xi_i for one entry (share, sign, a, b) of a law table:
    xi_i = (1/2) log(2/beta) + (1/2) log Gamma(a[i]) when b is None, else
    (1/2) log Beta(a[i], b)."""
    _, sign, a, b = law
    if b is None:
        xi = 0.5 * math.log(2.0 / beta) + 0.5 * np.log(rng.gamma(a[i], size=size))
    else:
        xi = 0.5 * np.log(rng.beta(a[i], b, size=size))
    return sign * xi


class TestExactIncrementLaws:
    """The increments of run_chain and of product_chain have, index by index
    and type by type, the law that the closed form was reduced from."""

    #: Two-sample KS tests: both runners x every index x every type.
    KS_TESTS = sum(2 * spec.d * len(TYPE_LAWS[spec.kind](spec)) for spec in EXACT_LAW_CASES)
    #: Bonferroni gate, fixed before the first run: a family-wise false
    #: alarm rate of 1e-3 over all KS tests of all cases.
    P_GATE = 1e-3 / KS_TESTS

    def test_cases_cover_every_law_kind_and_beta(self):
        assert {(spec.kind, spec.beta) for spec in EXACT_LAW_CASES} == {
            (kind, beta) for kind in TYPE_LAWS for beta in (1, 2, 4)}
        assert set(TYPE_LAWS) == set(ENSEMBLES) - {"general_sigma_gaussian"}

    @pytest.mark.parametrize("spec", EXACT_LAW_CASES,
                             ids=lambda s: f"{s.kind}-beta{s.beta}-d{s.d}")
    def test_increments_follow_the_law_table(self, spec):
        laws = TYPE_LAWS[spec.kind](spec)
        assert len(laws) == len(spec.proportions or (1.0,))
        rng = np.random.default_rng(90)
        p_values = {}
        for runner, N, seed in ((run_chain, 20_000, 91), (product_chain, 4_000, 92)):
            x = runner(spec, spec.d, N, [chain_rng(seed, 0)])[0]
            types = np.zeros(N) if spec.proportions is None else schedule(spec, N)
            for t, law in enumerate(laws):
                for i in range(spec.d):
                    reference = law_draws(spec.beta, law, i, 200_000, rng)
                    p_values[runner.__name__, t, i] = stats.ks_2samp(
                        x[types == t, i], reference).pvalue
        worst = min(p_values, key=p_values.get)
        assert p_values[worst] >= self.P_GATE, (worst, p_values[worst])


#: (spec, k) for the extended-precision oracle: Gaussian factors of each
#: beta, and every kind whose factors are not plain Gaussians (general
#: covariance has its own test): non-square rectangular factors, inverses,
#: the mixture and a truncated unitary.
TELESCOPING_CASES = [
    pytest.param(StandardGaussian(beta, d), k, id=f"{beta}-{d}-{k}")
    for beta, d, k in ((1, 2, 1), (1, 3, 2), (2, 2, 2), (2, 3, 3), (4, 2, 2), (4, 3, 1))
] + [pytest.param(spec, k, id=f"{spec.kind}-beta{spec.beta}-k{k}") for spec, k in (
    (RectangularGaussian(1, 3, RectangularSpec(((0, 0.2), (1, 0.3), (4, 0.5)))), 2),
    (RectangularGaussian(4, 2, RectangularSpec(((0, 0.25), (2, 0.75)))), 1),
    (GaussianInverseMixture(2, 3, 0.4), 2),
    (TruncatedUnitary(4, 3, 2), 3),
    (InverseGaussian(1, 2), 2),
)]


#: (id, argument name, call passing ``bad`` for that argument) for every
#: integer argument of a run.
RUN_SIZE_CALLS = [
    ("estimate-k_max", "k_max", lambda bad: estimate(StandardGaussian(2, 2), bad, 5, 1, 13)),
    ("estimate-N", "N", lambda bad: estimate(StandardGaussian(2, 2), 1, bad, 1, 13)),
    ("estimate-chains", "chains", lambda bad: estimate(StandardGaussian(2, 2), 1, 5, bad, 13)),
    ("estimate-seed", "master_seed", lambda bad: estimate(StandardGaussian(2, 2), 1, 5, 1, bad)),
    ("run_chain-k_max", "k_max",
     lambda bad: run_chain(StandardGaussian(2, 2), bad, 5, [chain_rng(13, 0)])),
    ("run_chain-N", "N", lambda bad: run_chain(StandardGaussian(2, 2), 1, bad, [chain_rng(13, 0)])),
    ("product_chain-N", "N",
     lambda bad: product_chain(StandardGaussian(2, 2), 1, bad, [chain_rng(13, 0)])),
    ("stability-N", "N", lambda bad: stability_exponents(StandardGaussian(2, 2), bad,
                                                         chain_rng(13, 0))),
    ("ratio-samples", "samples", lambda bad: spectral_ratio_samples(2, 2, bad, chain_rng(13, 0))),
    ("ratio-d", "d", lambda bad: spectral_ratio_samples(2, bad, 5, chain_rng(13, 0))),
    ("ratio-beta", "beta", lambda bad: spectral_ratio_samples(bad, 2, 5, chain_rng(13, 0))),
    ("chain_rng-seed", "master_seed", lambda bad: chain_rng(bad, 0)),
    ("chain_rng-index", "chain_index", lambda bad: chain_rng(13, bad)),
]


class TestRunChain:
    def test_unitary_factors_zero_increments(self):
        res = run_chain(TruncatedUnitary(2, 2, 0), 2, 40, [chain_rng(1, 0)])
        assert np.abs(res).max() <= 1e-12

    @pytest.mark.parametrize("spec,k", TELESCOPING_CASES)
    def test_volume_telescoping(self, spec, k):
        # summed per-step increments must equal the directly computed
        # log-volume of the propagated frame
        n = 18
        increments = product_chain(spec, k, n, [chain_rng(9, spec.beta)])[0]
        direct = direct_log_volume(spec, k, n, chain_rng(9, spec.beta))
        assert math.fsum(increments.sum(axis=1)) == pytest.approx(direct, abs=1e-8)

    def test_volume_telescoping_general_sigma(self):
        spec = GeneralSigmaGaussian(2, SigmaSpec((0.5, 2.0, 3.0)))
        increments = product_chain(spec, 2, 15, [chain_rng(10, 0)])[0]
        direct = direct_log_volume(spec, 2, 15, chain_rng(10, 0))
        assert increments.sum() == pytest.approx(direct, abs=1e-8)

    def test_increments_shape_and_finiteness(self):
        res = run_chain(StandardGaussian(2, 3), 2, 25, [chain_rng(11, 0), chain_rng(11, 1)])
        assert res.shape == (2, 25, 2)
        assert np.all(np.isfinite(res))

    @pytest.mark.parametrize("runner", [run_chain, product_chain], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("spec,k", [(StandardGaussian(2, 3), 2),
                                        (GaussianInverseMixture(4, 2, 0.5), 2)],
                             ids=["gaussian", "mixture-beta4"])
    def test_returns_index_major_array_as_view(self, runner, spec, k):
        # estimate transposes the result back to (k_max, C, N) and relies on
        # that being a view, not a copy
        x = runner(spec, k, 30, [chain_rng(14, c) for c in range(3)])
        assert type(x) is np.ndarray and x.shape == (3, 30, k)
        assert np.shares_memory(np.ascontiguousarray(x.transpose(2, 0, 1)), x)

    @pytest.mark.parametrize("spec", [StandardGaussian(4, 2)]
                             + [spec for spec, _, _ in KERNEL_CASES if spec.width == spec.d],
                             ids=lambda v: f"{v.kind}-beta{v.beta}-d{v.d}")
    def test_full_frame_increments_sum_to_log_det(self, spec, monkeypatch):
        # with k = d the frame is unitary, so a step's increments sum to
        # log|det A_n| (half of it for the embedding of a quaternion factor,
        # whose column pairs are halved), whatever the QR does
        n = 200
        monkeypatch.setattr(ensembles, "BLOCK", 64)
        increments = product_chain(spec, spec.d, n, [chain_rng(12, 0)])[0]
        factors = np.stack(list(FactorStream(spec, chain_rng(12, 0)).factors(n)))
        logdet = np.linalg.slogdet(factors)[1]
        want = 0.5 * logdet if spec.beta == 4 else logdet
        assert np.abs(increments.sum(axis=1) - want).max() <= 1e-12

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 3, 5, [chain_rng(13, 0)])
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 0, 5, [chain_rng(13, 0)])
        with pytest.raises(ValueError):
            run_chain(StandardGaussian(2, 2), 1, 0, [chain_rng(13, 0)])

    @pytest.mark.parametrize("bad", [2.7, "64", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("name,call", [case[1:] for case in RUN_SIZE_CALLS],
                             ids=[case[0] for case in RUN_SIZE_CALLS])
    def test_rejects_non_integer_run_sizes(self, name, call, bad):
        # a size, count or seed that is not an integer is an error, not truncated
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(bad)


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
            return np.concatenate([run_chain(spec, k_max, N, [rng], **kwargs) for rng in rngs])

        monkeypatch.setattr(montecarlo, "run_chain", one_at_a_time)
        alone = estimate(spec, k, 3000, 4, 19)
        for field in ("mu_hat", "se_mu", "n_sigma2_hat", "partial_sum_mu",
                      "partial_sum_n_sigma2"):
            assert np.array_equal(getattr(together, field), getattr(alone, field)), field

    def test_bit_identical_across_parallelism(self, monkeypatch):
        # however the chains of an estimate are split into groups stepped
        # apart (as separate workers would run them), the result is the same
        spec = GaussianInverseMixture(2, 2, 0.5)
        together = estimate(spec, 2, 4000, 4, 19)

        def in_groups(spec, k_max, N, rngs, **kwargs):
            groups = [rngs[:2], rngs[2:3], rngs[3:]]
            return np.concatenate([run_chain(spec, k_max, N, group, **kwargs)
                                   for group in groups])

        monkeypatch.setattr(montecarlo, "run_chain", in_groups)
        grouped = estimate(spec, 2, 4000, 4, 19)
        assert np.array_equal(together.mu_hat, grouped.mu_hat)
        assert np.array_equal(together.n_sigma2_hat, grouped.n_sigma2_hat)
        assert np.array_equal(together.partial_sum_n_sigma2, grouped.partial_sum_n_sigma2)

    @pytest.mark.parametrize("spec", SCHEDULED_SPECS, ids=["mixture", "rectangular-3"])
    def test_reduction_matches_direct_computation(self, spec):
        # per type, the two-pass sample variance of the rows of all chains,
        # weighted by the type's share of the C x N steps
        N, chains, k = 500, 3, spec.d
        est = estimate(spec, k, N, chains, 71)
        res = run_chain(spec, k, N, [chain_rng(71, c) for c in range(chains)])
        types = schedule(spec, N)
        for field, x in (("n_sigma2_hat", res),
                         ("partial_sum_n_sigma2", np.cumsum(res, axis=2))):
            want = np.zeros(k)
            for t in set(types.tolist()):
                rows = np.concatenate([chain[types == t] for chain in x])
                dev = rows - rows.mean(axis=0)
                want += len(rows) / (chains * N) * (dev * dev).sum(axis=0) / (len(rows) - 1)
            assert np.abs(getattr(est, field) - want).max() <= 1e-13, field
        assert np.abs(est.mu_hat - res.mean(axis=(0, 1))).max() <= 1e-13

    def test_block_size_invariance(self, monkeypatch):
        monkeypatch.setattr(ensembles, "BLOCK", 64)
        a = estimate(StandardGaussian(2, 2), 2, 3000, 2, 20)
        monkeypatch.setattr(ensembles, "BLOCK", 1024)
        b = estimate(StandardGaussian(2, 2), 2, 3000, 2, 20)
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
        from lyaprod.theory import mixture_spectrum, rectangular_spectrum
        half = RectangularSpec(((0, 0.5), (1, 0.5)))
        cases.append((RectangularGaussian(2, 2, half), rectangular_spectrum(2, 2, half)))
        cases.append((GaussianInverseMixture(2, 2, 0.5),
                      mixture_spectrum(2, 2, 0.5)))
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
        increments = run_chain(spec, 1, 800, [chain_rng(31, 0)])[0]
        assert abs(lams[0][0] - increments.mean()) <= 1e-12

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
        for n in (2001, 5000):
            with pytest.raises(ValueError, match="step cap 2000"):
                stability_exponents(StandardGaussian(2, 2), n, chain_rng(34, 0))
        with pytest.raises(ValueError, match="N must be >= 1"):
            stability_exponents(StandardGaussian(2, 2), 0, chain_rng(34, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 500, 2000])
    @pytest.mark.parametrize("beta,d", [(b, d) for b in (1, 2, 4) for d in (1, 2)])
    def test_tree_product_matches_sequential(self, beta, d, n):
        # the tree and the per-step product differ in rounding only; phases
        # are compared while the bottom eigenvalue is resolved (N * gap < 36)
        spec = StandardGaussian(beta, d)
        got = np.array(stability_exponents(spec, n, chain_rng(37, n)))
        lams, thetas = sequential_stability(spec, n, chain_rng(37, n))
        assert np.abs(got[:, 0] - lams).max() <= 1e-12
        th = gaussian_spectrum(beta, d)
        if d == 1 or n * (th.mu[0] - th.mu[1]) < 36:
            diff = [math.remainder(a - b, 2.0 * math.pi) for a, b in zip(got[:, 1], thetas)]
            assert np.abs(diff).max() <= 1e-12

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    @pytest.mark.parametrize("n", [3, 300])
    def test_singular_factor_rejected(self, fill, n, monkeypatch):
        monkeypatch.setattr(BrokenGaussian, "fill", fill)
        with pytest.raises(ArithmeticError, match="singular factor in stability run"):
            stability_exponents(BrokenGaussian(2, 2), n, chain_rng(38, 0))

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
        r = spectral_ratio_samples(beta, 20, 5, rng).mean()
        assert r >= 1.0

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            spectral_ratio_samples(2, 1, 5, chain_rng(42, 0)).mean()

    def test_rejects_unknown_beta(self):
        with pytest.raises(ValueError, match="beta must be one of"):
            spectral_ratio_samples(3, 2, 5, chain_rng(42, 0))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            spectral_ratio_samples(2, 2, samples, chain_rng(42, 0))
