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
these sizes is faster than LAPACK's per-matrix QR).  Each kind draws the
raw normals of its panel (see Ensemble.panel; Sigma^{1/2} G scales their
rows there), and one writer, ensembles._batch_last, scales them straight
into the kernel's array, with no matrix in between; the kind's ``columns``
then gives the law of A[:, :k] (for truncated unitaries the top rows of
Haar columns from one kernel call over the block).  A whole factor is the
kind's ``factors`` map of the same draw, the panel as wide as the factor.
A rectangular panel is a (d + nu_t) x k Gaussian padded with zero rows,
which leave |diag R| unchanged.  An inverse
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

from .ensembles import (FactorStream, chain_rng, _batch_last, _gaussian_data, _inverse_steps,
                        _live_types, _orthonormalize, _step_types)
from .specfun import _check_int
from .theory import _check_beta

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
    per-step log-determinant increments sum_{i<=k} xi^(i); that variance is
    the sum of the leading k x k block of the increments' covariance, whose
    diagonal is n_sigma2_hat, so its rounding is absolute, about
    eps * sum_{i,j<=k} |cov_ij|.

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
    follow them.  The raw normals of each block of BLOCK steps of the C
    streams are written once, scaled, into one (k, rows, b, C) array
    (ensembles._batch_last: the even columns only for beta = 4; J G^H J for
    an inverse step's G, see Ensemble.panel), the kind's ``columns`` makes
    the columns of its law there, and the Gram-Schmidt kernel
    (ensembles._orthonormalize) factors all of them; half the logs of its
    squared R diagonal, negated in reversed order on inverse steps, and the
    finiteness check run once per block.  A singular inverse
    draw is not redrawn: its step fails that check.  The kernel gives each
    step of each chain the bits it has in any batch, so every chain's
    increments are, bit for bit, those of the chain run alone, whatever
    BLOCK.

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
        rdiag2 = _orthonormalize(spec.columns(_batch_last(panels, spec.beta, flip)), spec.beta)
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


def _check_run(spec, k_max, N):
    """k_max and N of a run as ints, checked."""
    d = spec.d
    k_max = _check_int("k_max", k_max)
    N = _check_int("N", N, 1)
    if not 1 <= k_max <= d:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= d = {d}, got {k_max}")
    return k_max, N


def _start(spec, k_max, N, rngs):
    """k_max and N as ints, checked, and the streams of a run."""
    k_max, N = _check_run(spec, k_max, N)
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


def _within_type_covariance(x, steps):
    """Share-weighted, ddof = 1 k x k covariance of each type's samples of x,
    pooled over chains.

    x is a C-ordered (k, C, N) array, and ``steps`` holds each type's mask
    over its last axis, or None alone for one live type, which is centred in x
    itself.  Every type has two or more samples (estimate checks it).
    """
    k, chains, n = x.shape
    cov = np.zeros((k, k))
    for mask in steps:
        s = (x if mask is None else np.compress(mask, x, axis=2)).reshape(k, -1)
        count = s.shape[1]
        s -= s.mean(axis=1, keepdims=True)
        cov += (count / (chains * n) / (count - 1)) * (s @ s.T)
    return cov


def estimate(spec, k_max, N, chains, master_seed):
    """Estimate the top k_max exponents and variances from seeded chains.

    Chain c draws from chain_rng(master_seed, c).  One run_chain call steps
    all chains together, and its (C, N, k_max) increments, centred in place,
    are reduced to the grand mean and one within-type covariance (see
    McEstimate), with the step types taken from the quota schedule when
    two or more types have a non-zero share (ensembles._live_types).  Sizes
    whose increments cannot be allocated raise MemoryError or ValueError,
    and a run in which a type with a non-zero share has fewer than two
    increments over all chains raises ValueError, both before any chain
    starts: such a type has no standard error.
    """
    chains = _check_int("chains", chains, 1)
    k_max, N = _check_run(spec, k_max, N)
    # a run whose increments cannot be allocated fails here, not after
    # building a Generator for each of its chains
    np.empty((k_max, chains, N))
    live = _live_types(spec)
    steps = [None]
    if len(live) > 1:
        types = _step_types(spec, N)
        steps = [types == t for t in live]
    for mask in steps:
        count = N if mask is None else int(np.count_nonzero(mask))
        if count * chains < 2:
            # more chains cannot help a type with no step in the first N
            advice = "raise N" if count == 0 else "raise N or chains"
            raise ValueError(f"a standard error needs at least two increments per index "
                             f"and step type, got {count * chains} ({advice})")

    rngs = [chain_rng(master_seed, c) for c in range(chains)]
    # index-major, so the means below run over contiguous memory, which numpy
    # sums pairwise; no copy for the layout run_chain returns
    xi = np.ascontiguousarray(run_chain(spec, k_max, N, rngs).transpose(2, 0, 1))
    # before the reduction, which may centre xi in place
    mu_hat = xi.mean(axis=(1, 2))
    cov = _within_type_covariance(xi, steps)
    n_sigma2 = cov.diagonal().copy()
    return McEstimate(
        mu_hat=mu_hat,
        se_mu=np.sqrt(n_sigma2 / xi[0].size),
        n_sigma2_hat=n_sigma2,
        partial_sum_mu=np.cumsum(mu_hat),
        partial_sum_n_sigma2=np.cumsum(np.cumsum(cov, axis=0), axis=1).diagonal().copy(),
    )


def stability_exponents(spec, N, rng):
    """Growth rates and phases of the eigenvalues of the product itself.

    All N factors are drawn at once, FactorStream(spec, rng).blocks of the
    step types _step_types(spec, N), one batched slogdet checks them, and
    the product P_N = A_N ... A_1 is reduced as a tree: each level
    multiplies neighbouring partial products in one batched matmul, the
    later one on the left, and carries an odd last one up unchanged, so
    about log2(N) matmuls form P_N.  Before the first level and after every
    level each partial product is rescaled by the power of two 2^-e that
    brings its largest real or imaginary part into [1/2, 1), and P_N
    itself by the one that brings its largest entry modulus there.  A
    level's scales come from one pass over the batch: the absolute real
    and imaginary parts are written batch-last, entries x products, and
    their maximum is taken over the entries, so the reduction's inner loop
    runs over the products and not over the 4-32 entries of one.  A
    maximum is exact, so this order gives the same scales.  Such a scale
    is exact and commutes with the products, so P_N does not depend on the
    intermediate ones, and the log of the dropped scale is the integer sum
    of the e times ln 2.  P_N is then eigendecomposed once.
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
    N = _check_int("N", N, 1)
    if N > STABILITY_STEP_CAP:
        raise ValueError(
            f"N = {N} exceeds the stability step cap {STABILITY_STEP_CAP}; the "
            "product becomes numerically rank deficient")
    if spec.width != spec.d:
        raise ValueError("stability exponents require square factors")

    # N <= STABILITY_STEP_CAP, so all factors together are a few hundred KiB
    m = np.concatenate(list(FactorStream(spec, rng).blocks(_step_types(spec, N))))
    with np.errstate(invalid="ignore"):
        # a NaN factor gives a NaN log-determinant, rejected just below
        signs, logdets = np.linalg.slogdet(m)
    bad = (signs == 0) | ~np.isfinite(logdets)
    if bad.any():
        raise ArithmeticError(f"singular factor in stability run at step {bad.argmax() + 1}")
    logdet_sum = math.fsum(logdets.tolist())
    det_phase = math.fsum(np.angle(signs).tolist())

    tiny = np.finfo(np.float64).tiny
    exponent = 0
    while True:
        # one row per partial product, real and imaginary parts side by side
        flat = m.view(np.float64).reshape(len(m), -1)
        # by the largest real or imaginary part, P_N by its largest entry
        # modulus; reduced batch-last, so the inner loop runs over the partial
        # products and not over one's entries
        scales = np.abs((m.reshape(1, -1) if len(m) == 1 else flat).T, order="C").max(axis=0)
        # a normal, finite scale keeps its power-of-two inverse finite; a NaN
        # fails both comparisons
        if not (scales.min() >= tiny and scales.max() < np.inf):
            raise ArithmeticError("product collapsed to zero or overflowed")
        e = np.frexp(scales)[1]
        np.ldexp(flat, -e[:, None], out=flat)
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
    d = _check_int("d", d, 2)
    samples = _check_int("samples", samples, 1)
    out = np.empty(samples)
    for i in range(samples):
        x = _gaussian_data(beta, d, d, rng) / math.sqrt(d)
        smax = np.linalg.svd(x, compute_uv=False)[0]
        emax = np.abs(np.linalg.eigvals(x)).max()
        out[i] = smax / emax
    return out

