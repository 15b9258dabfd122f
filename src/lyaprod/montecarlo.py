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
frame, no product, one call of the Gram-Schmidt kernel per block of steps
(ensembles._orthonormalize: modified Gram-Schmidt in numpy on a
(k, rows, steps x chains) array, the batch last and contiguous, which at
these sizes is faster than LAPACK's per-matrix QR).  Each kind draws its
panel, the law of A[:, :k] (see Ensemble.panel); a whole factor is the
panel as wide as the factor.  A rectangular panel is a (d + nu_t) x k
Gaussian padded with zero rows, which leave |diag R| unchanged.  An inverse
step G^-1 is never inverted, and its Gaussian G is the next draw of the
stream, with no condition check: its panel is G, d columns wide.  The QR
of G^-1 is read off that of the reversed adjoint J G^H J (J the order
reversal; the identity of the inverse law in the theory module), so the
step's increments are the log|diag R| of J G^H J negated in reversed
order, truncated to k: run_chain factors J G^H J and flips the logs on the
steps that ensembles._inverse_steps marks.  Ensembles that mix factor
types follow the deterministic quota schedule, one array of step types per
run (ensembles._step_types) that every stream of the run is handed; the law
of a step's increments depends on its own type only, so they are
independent, not identically distributed, and estimate reduces them type
by type.

product_chain steps the product itself with that explicit frame, one
np.linalg.qr (LAPACK's Householder QR) per step, and stays the reference
oracle, independent of the kernel: its increments telescope to the
log-volumes of one seeded product, and on independent seeds they have
run_chain's law (tests/test_montecarlo.py checks both).  Its whole factors
invert the Gaussians of inverse steps explicitly, so an exactly singular
draw stops it with the step's number (see FactorStream.blocks); in
run_chain the same draw gives a non-finite increment of that step.

No phase is fixed on the R diagonal, so product_chain's frame is Q_n times
a diagonal unitary, and dropping the phase is exact: if M = Q' R,
then M D = (Q' D)(D^* R D) for any diagonal unitary D, D^* R D is upper
triangular with the diagonal of R, and a QR factorization is unique up to
such a D, so |diag R| of QR(M D) equals that of QR(M).  Only the rounding
differs.

For beta = 4 the frame is the complex embedding with 2k columns.  In
product_chain the two R diagonal entries of a quaternion column pair agree
up to rounding, and half their summed logs is recorded as the quaternion
increment.  run_chain's kernel orthogonalises only the even columns, each
against the pairs (q, J conj q) of the ones before it, so the two entries
of a pair are one number, whose log is the increment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (FactorStream, chain_rng, _batch_last, _check_beta, _check_int,
                        _gaussian_data, _inverse_steps, _orthonormalize, _step_types)

__all__ = [
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


def run_chain(spec, k_max, N, rngs):
    """Run one chain per Generator in ``rngs``, N steps each, all together.

    Chain c draws its panels (see Ensemble.panel) from its own FactorStream
    on rngs[c].  The step types, ensembles._step_types(spec, N), are
    computed once: they mark the inverse steps, and every chain's panels
    follow them.  The columns of each block of BLOCK steps of the C streams
    are copied into one (k, rows, b, C) array (the even columns only for
    beta = 4; J G^H J for an inverse step's G, see Ensemble.panel), and the
    Gram-Schmidt kernel (ensembles._orthonormalize) factors all of it; half
    the logs of its squared R diagonal, negated in reversed order on inverse
    steps, and the finiteness check run once per block.  A singular inverse
    draw is not redrawn: its step fails that check.

    Returns the (C, N, k_max) per-step log-volume increments, chain c in the
    order of ``rngs``: a view of a C-ordered (k_max, C, N) array, the layout
    estimate reduces.  The increments have the law of product_chain's (see
    the module docstring), not its values.
    """
    k_max, N, streams = _start(spec, k_max, N, rngs)
    types = _step_types(spec, N)
    inverse = _inverse_steps(spec, types)
    by_index = np.empty((k_max, len(streams), N))
    done = 0
    for panels in zip(*(stream.panels(types, k_max) for stream in streams)):
        flip = None if inverse is None else inverse[done:done + len(panels[0])]
        rdiag2 = _orthonormalize(_batch_last(panels, spec.beta, flip), spec.beta)
        with np.errstate(divide="ignore"):
            # a zero entry gives -inf (+inf once flipped), which _record
            # reports with its step
            logs = 0.5 * np.log(rdiag2)
        if flip is not None:
            logs = np.where(flip[:, None], -logs[::-1], logs)
        done = _record(by_index, done, logs[:k_max])
    return by_index.transpose(1, 2, 0)


def product_chain(spec, k_max, N, rngs):
    """run_chain on the product itself: the reference oracle of the panel kernel.

    Chain c multiplies the factors of its own FactorStream on rngs[c], and
    its increments telescope to the log-volumes of that product.  Returns
    increments in run_chain's layout.  Steps run one at a time, so this is
    several times slower than run_chain.

    Each chain carries an explicit orthonormal frame, reorthonormalised at
    every step (Benettin, Galgani, Giorgilli & Strelcyn, Meccanica 15 (1980)
    9).  The first step factors A_1[:, :k]; each later one factors
    A_n Q_{n-1}[:, :k] with np.linalg.qr, stacked over the chains, and keeps
    its Q as the next frame.  The factors are the streams' full-width panels
    (see FactorStream.blocks), so non-square rectangular factors come
    zero-padded: the frame then has zero trailing rows, so the padding never
    enters the product and the R diagonals are those of the true product.
    """
    k_max, N, streams = _start(spec, k_max, N, rngs)
    types = _step_types(spec, N)
    by_index = np.empty((k_max, len(streams), N))
    k = 2 * k_max if spec.beta == 4 else k_max
    frames = None
    done = 0
    for blocks in zip(*(stream.blocks(types) for stream in streams)):
        steps = np.stack(blocks, axis=1)
        rdiag = np.empty(steps.shape[:2] + (k,))
        for step, out in zip(steps, rdiag):
            frames, r = np.linalg.qr(step[..., :k] if frames is None else step @ frames)
            np.abs(np.diagonal(r, 0, -2, -1), out=out)
        logs = np.log(rdiag)
        if spec.beta == 4:
            # half the summed logs of each quaternion column pair
            logs = 0.5 * (logs[..., 0::2] + logs[..., 1::2])
        done = _record(by_index, done, logs.transpose(2, 0, 1))
    return by_index.transpose(1, 2, 0)


def _start(spec, k_max, N, rngs):
    """k_max and N as ints, checked, and the streams of a run."""
    d = spec.d
    k_max = _check_int("k_max", k_max)
    N = _check_int("N", N)
    if not 1 <= k_max <= d:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= d = {d}, got {k_max}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    streams = [FactorStream(spec, rng) for rng in rngs]
    if not streams:
        raise ValueError("a run needs at least one Generator")
    return k_max, N, streams


def _record(by_index, done, logs):
    """Store a block's (k, b, C) increments from step ``done`` on; returns
    the steps done.  A non-finite increment names its step."""
    finite = np.isfinite(logs.sum(axis=(0, 2)))
    if not finite.all():
        raise ArithmeticError(f"non-finite increment at step {done + int(finite.argmin()) + 1}")
    by_index[..., done:done + logs.shape[1]] = logs.transpose(0, 2, 1)
    return done + logs.shape[1]


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


def estimate(spec, k_max, N, chains, master_seed):
    """Estimate the top k_max exponents and variances from seeded chains.

    Chain c draws from chain_rng(master_seed, c).  One run_chain call steps
    all chains together, and its (C, N, k_max) increments are reduced in one
    pass: the grand mean, and the within-type variances of the increments
    and of their partial sums over the index (see McEstimate), with the step
    types taken from the quota schedule.
    """
    chains = _check_int("chains", chains)
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")

    rngs = [chain_rng(master_seed, c) for c in range(chains)]
    # index-major, so every sum below runs over contiguous memory and numpy
    # sums it pairwise; no copy for the layout run_chain returns
    xi = np.ascontiguousarray(run_chain(spec, k_max, N, rngs).transpose(2, 0, 1))
    if spec.proportions is None:
        steps = [slice(None)]
    else:
        types = _step_types(spec, xi.shape[2])
        steps = [types == t for t in np.unique(types)]
    mu_hat = xi.mean(axis=(1, 2))
    n_sigma2 = _within_type_variance(xi, steps)
    return McEstimate(
        mu_hat=mu_hat,
        se_mu=np.sqrt(n_sigma2 / xi[0].size),
        n_sigma2_hat=n_sigma2,
        partial_sum_mu=np.cumsum(mu_hat),
        partial_sum_n_sigma2=_within_type_variance(np.cumsum(xi, axis=0), steps),
    )


def stability_exponents(spec, N, rng):
    """Growth rates and phases of the eigenvalues of the product itself.

    All N factors are drawn at once from FactorStream(spec, rng).blocks(N),
    one batched slogdet checks them, and the product P_N = A_N ... A_1 is
    reduced as a tree: each level multiplies neighbouring partial products
    in one batched matmul, the later one on the left, and carries an odd
    last one up unchanged, so about log2(N) matmuls form P_N.  Before the
    first level and after every level each partial product is rescaled by
    the power of two 2^-e that brings its largest entry modulus into
    [1/2, 1).  Such a scale is exact, so the log of the dropped scale is the
    integer sum of the e times ln 2.  P_N is then eigendecomposed once.
    Returns d (lambda_k, theta_k) pairs sorted by descending lambda; for
    beta = 4 one representative per conjugate-degenerate pair is returned,
    with theta >= 0.

    An eigensolver applied to the final matrix cannot resolve eigenvalue
    moduli below machine epsilon times the dominant one, i.e. exponent gaps
    with N * (lambda_1 - lambda_k) > ~36 drown.  The determinant telescopes
    exactly over the factors, so the smallest exponent (smallest pair for
    beta = 4) is recovered from sum ln|det A_j|, which also makes d = 1
    exact and repairs d = 2 for any N.  For beta != 4 the determinant's
    phase repairs the smallest eigenvalue's phase too.  The embedded
    determinant of a quaternion product is real, so for beta = 4 only the
    modulus of the bottom pair is repaired: its phase is not resolved once
    N * gap > ~36.  Intermediate exponents of d >= 3 products are only
    meaningful while N stays below ~36 / gap.

    Raises ArithmeticError for a singular or non-finite factor, before any
    product is formed, and when a partial product collapses to zero (or
    below the normal floating-point range) or overflows.
    """
    N = _check_int("N", N)
    if N > STABILITY_STEP_CAP:
        raise ValueError(
            f"N = {N} exceeds the stability step cap {STABILITY_STEP_CAP}; the "
            "product becomes numerically rank deficient")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if spec.width != spec.d:
        raise ValueError("stability exponents require square factors")

    # N <= STABILITY_STEP_CAP, so all factors together are a few hundred KiB
    m = np.concatenate(list(FactorStream(spec, rng).blocks(_step_types(spec, N))))
    with np.errstate(invalid="ignore"):
        # a NaN factor gives a NaN log-determinant, rejected just below
        signs, logdets = np.linalg.slogdet(m)
    if not np.all((signs != 0) & np.isfinite(logdets)):
        raise ArithmeticError("singular factor in stability run")
    logdet_sum = math.fsum(logdets.tolist())
    det_phase = math.fsum(np.angle(signs).tolist())

    exponent = 0
    while True:
        scales = np.abs(m).max(axis=(-2, -1))
        # a normal, finite scale keeps its power-of-two inverse finite
        if not np.all((scales >= np.finfo(np.float64).tiny) & (scales < np.inf)):
            raise ArithmeticError("product collapsed to zero or overflowed")
        e = np.frexp(scales)[1]
        m *= (2.0 ** -e)[:, None, None]
        exponent += int(e.sum())
        if len(m) == 1:
            break
        h = len(m) // 2
        pairs = m[1:2 * h:2] @ m[0:2 * h:2]
        m = np.concatenate((pairs, m[2 * h:])) if len(m) % 2 else pairs

    eigs = np.linalg.eigvals(m[0])
    mods = np.abs(eigs)
    with np.errstate(divide="ignore"):
        # exact zeros land at the bottom after sorting and are repaired below
        lams = (exponent * math.log(2.0) + np.log(mods)) / N
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
        phase = det_phase - thetas[:-1].sum()
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
    beta = _check_beta(beta)
    d = _check_int("d", d)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    samples = _check_int("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    out = np.empty(samples)
    for i in range(samples):
        x = _gaussian_data(beta, d, d, rng) / math.sqrt(d)
        smax = np.linalg.svd(x, compute_uv=False)[0]
        emax = np.abs(np.linalg.eigvals(x)).max()
        out[i] = smax / emax
    return out

