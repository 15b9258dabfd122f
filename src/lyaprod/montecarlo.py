"""Numerically stable Monte Carlo estimation for random matrix products.

A chain carries an orthonormal d x k frame Q_{n-1}[:, :k] through the
product: each step factors A_n Q_{n-1}[:, :k] = Q_n[:, :k] R_n, and the log
of |(R_n)_ii| is the step's log-volume increment for index i.  Its running
mean estimates mu_1..mu_k in one pass and its variance, which carries the
1/N factor of the estimator variance, estimates N sigma_i^2 directly.

Every ensemble here is right-unitarily invariant, A U ~ A for each fixed
unitary U: Gaussian and Sigma^{1/2} G factors, their inverses (by the left
invariance of G), rectangular Gaussians and corners of Haar unitaries.
Q_{n-1} depends on the past only and A_n is independent of it, so given the
past A_n Q_{n-1}[:, :k] has the law of A_n[:, :k].  The increments of step n
are therefore independent draws of log|diag R| of QR(A_n[:, :k]) (Newman,
Commun. Math. Phys. 103 (1986) 121), and run_chain draws them that way: no
frame, no product, one batched QR per block of steps.  A kind draws its
panel, the law of A[:, :k], more cheaply than a whole factor where it can
(see Ensemble.panel).  A rectangular panel is a (d + nu_t) x k Gaussian
padded with zero rows, which leave |diag R| unchanged.  Ensembles that mix
factor types keep their quota schedule; the law of a step's increments
depends on its own type only, so they are independent, not identically
distributed, and estimate reduces them type by type.

product_chain steps the product itself with that explicit frame, one
np.linalg.qr per step, and stays the reference oracle: its increments
telescope to the log-volumes of one seeded product, and on independent
seeds they have run_chain's law (tests/test_montecarlo.py checks both).

No phase is fixed on the R diagonal, so product_chain's frame is Q_n times
a diagonal unitary, and dropping the phase is exact: if M = Q' R,
then M D = (Q' D)(D^* R D) for any diagonal unitary D, D^* R D is upper
triangular with the diagonal of R, and a QR factorization is unique up to
such a D, so |diag R| of QR(M D) equals that of QR(M).  Only the rounding
differs.

For beta = 4 the frame is the complex embedding with 2k columns; the two R
diagonal entries of a quaternion column pair agree up to rounding and half
their summed logs is recorded as the quaternion increment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import FactorStream, chain_rng, _gaussian_data

__all__ = [
    "ChainResult",
    "McEstimate",
    "run_chain",
    "product_chain",
    "estimate",
    "stability_exponents",
    "spectral_ratio_samples",
]

#: Cap on product length for stability_exponents; beyond a few thousand
#: steps the final matrix is numerically rank deficient because the
#: eigenvalue gaps close like exp(-N * (mu_k - mu_{k+1})).
STABILITY_STEP_CAP = 2000


@dataclass(frozen=True)
class ChainResult:
    """Per-step log-volume increments of the C chains of one run.

    increments has shape (C, N, k_max), chain c in the order of the
    Generators passed to run_chain.  type_ids is the (N,) factor type of each
    step for ensembles that mix factor distributions (rectangular offset
    classes, Gaussian vs inverse factors), or None when all factors are
    identically distributed; every chain follows the same deterministic
    quota schedule, so one trace serves them all.  redraw_count sums the
    redraws of all chains.
    """

    increments: np.ndarray
    redraw_count: int = 0
    type_ids: np.ndarray | None = None


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimates pooled over all chains of a run.

    mu_hat[i] is the grand mean of the per-step increments for index i+1
    over every chain and step, n_sigma2_hat[i] their sample variance
    (divisor count-1, which is N times the variance of mu_hat for one
    chain), and se_mu[i] the standard error sqrt(n_sigma2_hat / total
    steps).  The partial-sum fields are the analogous statistics of the
    per-step log-determinant increments sum_{i<=k} xi^(i).

    For ensembles that mix factor types on a deterministic schedule
    (rectangular offsets, Gaussian/inverse mixtures) the variance is that of
    each type's steps, pooled over the chains, weighted by the type's share
    of all steps.  The increment mean shifts with the type, and that
    deterministic alternation contributes nothing to the variance of mu_hat,
    so a naive pool across types would overstate N sigma^2 by the
    between-type mean spread.
    """

    mu_hat: np.ndarray
    se_mu: np.ndarray
    n_sigma2_hat: np.ndarray
    partial_sum_mu: np.ndarray
    partial_sum_n_sigma2: np.ndarray
    redraw_count: int = 0


def run_chain(spec, k_max, N, rngs, *, block=256):
    """Run one chain per Generator in ``rngs``, N steps each, all together.

    Chain c draws its panels (see Ensemble.panel) from its own FactorStream
    on rngs[c].  Each block of the C streams is stacked into one
    (b, C, rows, k) array, and one np.linalg.qr(mode="raw") factors all of it;
    the logs of the R diagonals, the quaternion pair halving and the
    finiteness check run once per block.  Returns one ChainResult holding the
    (C, N, k_max) increments of all chains, in the order of ``rngs``, the
    type trace of the first stream and the summed redraws.  The increments
    are a view of a C-ordered (k_max, C, N) array, the layout estimate
    reduces.  The increments have the law of product_chain's (see the module
    docstring), not its values.
    """
    k_max, N, streams = _start(spec, k_max, N, rngs, block)
    by_index = np.empty((k_max, len(streams), N))
    done = 0
    for panels in zip(*(stream.panels(N, k_max) for stream in streams)):
        # mode="raw" returns the factored panels transposed, R's diagonal on
        # theirs, without mode="r"'s triu copy
        raw = np.linalg.qr(np.stack(panels, axis=1), mode="raw")[0]
        done = _record(by_index, done, np.log(np.abs(np.diagonal(raw, 0, -2, -1))), spec.beta)
    return _result(by_index, streams)


def product_chain(spec, k_max, N, rngs, *, block=256):
    """run_chain on the product itself: the reference oracle of the panel kernel.

    Chain c multiplies the factors of its own FactorStream on rngs[c], and
    its increments telescope to the log-volumes of that product.  Returns a
    ChainResult like run_chain's.  Steps run one at a time, so this is
    several times slower than run_chain.

    Each chain carries an explicit orthonormal frame, reorthonormalised at
    every step (Benettin, Galgani, Giorgilli & Strelcyn, Meccanica 15 (1980)
    9).  The first step factors A_1[:, :k]; each later one factors
    A_n Q_{n-1}[:, :k] with np.linalg.qr, stacked over the chains, and keeps
    its Q as the next frame.  Non-square rectangular factors come zero-padded
    (see FactorStream.blocks): the frame then has zero trailing rows, so the
    padding never enters the product and the R diagonals are those of the
    true product.
    """
    k_max, N, streams = _start(spec, k_max, N, rngs, block)
    by_index = np.empty((k_max, len(streams), N))
    k = 2 * k_max if spec.beta == 4 else k_max
    frames = None
    done = 0
    for blocks in zip(*(stream.blocks(N) for stream in streams)):
        steps = np.stack(blocks, axis=1)
        rdiag = np.empty(steps.shape[:2] + (k,))
        for step, out in zip(steps, rdiag):
            frames, r = np.linalg.qr(step[..., :k] if frames is None else step @ frames)
            np.abs(np.diagonal(r, 0, -2, -1), out=out)
        done = _record(by_index, done, np.log(rdiag), spec.beta)
    return _result(by_index, streams)


def _start(spec, k_max, N, rngs, block):
    """k_max and N as ints, checked, and the streams of a run."""
    d = spec.d
    k_max = int(k_max)
    N = int(N)
    if not 1 <= k_max <= d:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= d = {d}, got {k_max}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    streams = [FactorStream(spec, rng, block=block) for rng in rngs]
    if not streams:
        raise ValueError("a run needs at least one Generator")
    return k_max, N, streams


def _record(by_index, done, logs, beta):
    """Store a block's (b, C, k) R-diagonal logs from step ``done`` on (half
    the summed logs of each quaternion column pair for beta = 4); returns the
    steps done.  A non-finite increment names its step."""
    finite = np.isfinite(logs.sum(axis=(1, 2)))
    if not finite.all():
        raise ArithmeticError(f"non-finite increment at step {done + int(finite.argmin()) + 1}")
    by_index[..., done:done + len(logs)] = (
        0.5 * (logs[..., 0::2] + logs[..., 1::2]) if beta == 4 else logs).T
    return done + len(logs)


def _result(by_index, streams):
    trace = streams[0].type_trace
    return ChainResult(increments=by_index.transpose(1, 2, 0),
                       redraw_count=sum(stream.redraws for stream in streams),
                       type_ids=None if trace is None else np.asarray(trace, dtype=np.uint8))


def _within_type_variance(x, steps):
    """Share-weighted var(ddof=1) of each type's samples of x, pooled over chains.

    x is a C-ordered (k, C, N) array and ``steps`` selects each type's steps
    on its last axis.  A type with a single sample adds 0.
    """
    k, chains, n = x.shape
    var = np.zeros(k)
    for sel in steps:
        samples = x[..., sel]
        count = samples[0].size
        if count > 1:
            var += (count / (chains * n)) * samples.var(axis=(1, 2), ddof=1)
    return var


def estimate(spec, k_max, N, chains, master_seed, *, block=256):
    """Estimate the top k_max exponents and variances from seeded chains.

    Chain c draws from chain_rng(master_seed, c).  One run_chain call steps
    all chains together, and its (C, N, k_max) increments are reduced in one
    pass: the grand mean, and the within-type variances of the increments
    and of their partial sums over the index (see McEstimate).
    """
    chains = int(chains)
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")

    rngs = [chain_rng(master_seed, c) for c in range(chains)]
    result = run_chain(spec, k_max, N, rngs, block=block)
    # index-major, so every sum below runs over contiguous memory and numpy
    # sums it pairwise; no copy for the layout run_chain returns
    xi = np.ascontiguousarray(result.increments.transpose(2, 0, 1))
    if result.type_ids is None:
        steps = [slice(None)]
    else:
        steps = [result.type_ids == t for t in np.unique(result.type_ids)]
    mu_hat = xi.mean(axis=(1, 2))
    n_sigma2 = _within_type_variance(xi, steps)
    return McEstimate(
        mu_hat=mu_hat,
        se_mu=np.sqrt(n_sigma2 / xi[0].size),
        n_sigma2_hat=n_sigma2,
        partial_sum_mu=np.cumsum(mu_hat),
        partial_sum_n_sigma2=_within_type_variance(np.cumsum(xi, axis=0), steps),
        redraw_count=result.redraw_count,
    )


def stability_exponents(spec, N, rng):
    """Growth rates and phases of the eigenvalues of the product itself.

    The product is accumulated with a per-step rescaling by its largest
    entry modulus (log-scales summed exactly with math.fsum), then
    eigendecomposed once.  Returns d (lambda_k, theta_k) pairs sorted by
    descending lambda; for beta = 4 one representative per conjugate-
    degenerate pair is returned, with theta >= 0.

    An eigensolver applied to the final matrix cannot resolve eigenvalue
    moduli below machine epsilon times the dominant one, i.e. exponent gaps
    with N * (lambda_1 - lambda_k) > ~36 drown.  The determinant telescopes
    exactly over the factors, so the smallest exponent (smallest pair for
    beta = 4) is recovered from sum ln|det A_j|, which also makes d = 1
    exact and repairs d = 2 for any N.  Intermediate exponents of d >= 3
    products are only meaningful while N stays below ~36 / gap.
    """
    N = int(N)
    if N > STABILITY_STEP_CAP:
        raise ValueError(
            f"N = {N} exceeds the stability step cap {STABILITY_STEP_CAP}; the "
            "product becomes numerically rank deficient")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not spec.square:
        raise ValueError("stability exponents require square factors")

    d = spec.d
    size = 2 * d if spec.beta == 4 else d
    prod = np.eye(size, dtype=np.complex128 if spec.beta != 1 else np.float64)
    log_scales = []
    log_dets = []
    det_phases = []
    for block in FactorStream(spec, rng).blocks(N):
        signs, logdets = np.linalg.slogdet(block)
        singular = (signs == 0) | ~np.isfinite(logdets)
        for a, bad in zip(block, singular):
            prod = a @ prod
            scale = float(np.abs(prod).max())
            if not (scale > 0.0 and math.isfinite(scale)):
                raise ArithmeticError("product collapsed to zero or overflowed")
            if bad:
                raise ArithmeticError("singular factor in stability run")
            prod /= scale
            log_scales.append(math.log(scale))
        log_dets.extend(logdets.tolist())
        det_phases.extend(np.angle(signs).tolist())
    offset = math.fsum(log_scales)
    logdet_sum = math.fsum(log_dets)

    eigs = np.linalg.eigvals(prod)
    mods = np.abs(eigs)
    with np.errstate(divide="ignore"):
        # exact zeros land at the bottom after sorting and are repaired below
        lams = (offset + np.log(mods)) / N
    thetas = np.angle(eigs)
    order = np.argsort(-lams)
    lams, thetas = lams[order], thetas[order]

    repaired = 2 if spec.beta == 4 else 1
    if not np.all(np.isfinite(lams[:-repaired] if repaired < len(lams) else lams[:0])):
        raise np.linalg.LinAlgError("unresolved zero eigenvalue in rescaled product")
    if spec.beta == 4:
        # embedded determinant is real non-negative; repair the bottom pair
        lams[-1] = lams[-2] = 0.5 * (logdet_sum / N - lams[:-2].sum())
        lams = 0.5 * (lams[0::2] + lams[1::2])
        thetas = np.abs(thetas[0::2])
    else:
        lams[-1] = logdet_sum / N - lams[:-1].sum()
        phase = math.fsum(det_phases) - thetas[:-1].sum()
        thetas[-1] = math.remainder(phase, 2.0 * math.pi)
    return [(float(l), float(t)) for l, t in zip(lams, thetas)]


def spectral_ratio_samples(beta, d, samples, rng):
    """Largest-singular-value to largest-eigenvalue-modulus ratios.

    One d x d standard Gaussian matrix per sample, normalized by 1/sqrt(d)
    so both spectra stay O(1); the ratio itself is scale invariant and is
    always >= 1.

    For beta = 1 and 2 the ratio tends to 2 as d grows: the largest singular
    value tends to 2 (Geman 1980; the Marchenko-Pastur edge) and the spectral
    radius to 1 (the circular-law edge; Geman 1986, Bai 1997). Convergence is
    slow. Rider's (2003) spectral-radius correction
    1 + sqrt(g/4d) + E[Gumbel]/sqrt(4dg), g = log(d/2pi) - 2 log log d,
    together with the Tracy-Widom shift of the largest singular value puts
    the mean ratio near 1.92 at d = 500, which is what is measured.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    out = np.empty(int(samples))
    for i in range(int(samples)):
        x = _gaussian_data(beta, d, d, rng) / math.sqrt(d)
        smax = np.linalg.svd(x, compute_uv=False)[0]
        emax = np.abs(np.linalg.eigvals(x)).max()
        out[i] = smax / emax
    return out

