"""Numerically stable Monte Carlo estimation for random matrix products.

A chain carries an orthonormal d x k frame Q_{n-1}[:, :k] through the
product: each step factors A_n Q_{n-1}[:, :k] = Q_n[:, :k] R_n, and the log
of |(R_n)_ii| is the step's log-volume increment for index i.  Its running
mean estimates mu_1..mu_k in one pass and its variance, which carries the
1/N factor of the estimator variance, estimates N sigma_i^2 directly.
Per-step renormalization keeps every quantity in range for arbitrarily
long products.

The frame is never formed.  A chain keeps only the Householder reflectors
(v, tau) of its last LAPACK geqrf, which define the full unitary Q_{n-1}.
ormqr (unmqr for complex frames) applies them from the right to the next
factor, in place, giving A_n Q_{n-1}, whose first k columns are
A_n Q_{n-1}[:, :k]; geqrf then factors those columns in place, and its R
diagonal holds the step's increments.  The first step is geqrf on
A_1[:, :k] alone.

No phase is fixed on the R diagonal, and dropping it is exact: if M = Q' R,
then M D = (Q' D)(D^* R D) for any diagonal unitary D, D^* R D is upper
triangular with the diagonal of R, and a QR factorization is unique up to
such a D, so |diag R| of QR(M D) equals that of QR(M).  Only the rounding
differs.

Non-square rectangular factors come zero-padded (see FactorStream.blocks)
and are stepped as they are: a geqrf reflector of a panel with zero trailing
rows is zero there, so the kept Q is blockdiag(Q_true, I), ormqr gives
[A_n Q_true, 0], and the R diagonals are those of the true product.

For beta = 4 the frame is the complex embedding with 2k columns; the two R
diagonal entries of a quaternion column pair agree up to rounding and half
their summed logs is recorded as the quaternion increment.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import FactorStream, chain_rng, _gaussian_data

__all__ = [
    "ChainResult",
    "McEstimate",
    "run_chain",
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

    Chain c draws its factors from its own FactorStream on rngs[c].  Each
    block of the C streams is copied once into column-major storage per
    factor, a (b, C, cols, rows) array, for every kind.  A step is then two
    LAPACK calls per chain on that storage (see the module docstring), and
    the logs of the R diagonals, the quaternion pair halving and the
    finiteness check run once per block.  Returns one ChainResult holding
    the (C, N, k_max) increments of all chains, in the order of ``rngs``,
    the type trace of the first stream and the summed redraws.  The
    increments are a view of a C-ordered (k_max, C, N) array, the layout
    estimate reduces.
    """
    d = spec.d
    k_max = int(k_max)
    N = int(N)
    if not 1 <= k_max <= d:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= d = {d}, got {k_max}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    streams = [FactorStream(spec, rng, block=block) for rng in rngs]
    if not streams:
        raise ValueError("run_chain needs at least one Generator")

    quaternion = spec.beta == 4
    k = 2 * k_max if quaternion else k_max
    dtype = np.dtype(np.float64 if spec.beta == 1 else np.complex128)
    by_index = np.empty((k_max, len(streams), N))
    last = [None] * len(streams)
    done = 0
    for blocks in zip(*(stream.blocks(N) for stream in streams)):
        steps = _column_major(blocks, dtype)
        last = _qr_steps(steps, last, k)
        logs = np.log(np.abs(np.diagonal(steps, 0, -2, -1)[..., :k]))
        finite = np.isfinite(logs.sum(axis=(1, 2)))
        if not finite.all():
            raise ArithmeticError(f"non-finite increment at step {done + int(finite.argmin()) + 1}")
        by_index[..., done:done + len(logs)] = (
            0.5 * (logs[..., 0::2] + logs[..., 1::2]) if quaternion else logs).T
        done += len(logs)

    trace = streams[0].type_trace
    return ChainResult(increments=by_index.transpose(1, 2, 0),
                       redraw_count=sum(stream.redraws for stream in streams),
                       type_ids=None if trace is None else np.asarray(trace, dtype=np.uint8))


def _column_major(blocks, dtype):
    """Stack ``blocks``, one (b, rows, cols) array per chain, as one C-ordered
    (b, C, cols, rows) array: the transpose of each trailing matrix is a
    Fortran-ordered view of one factor."""
    b, rows, cols = blocks[0].shape
    out = np.empty((b, len(blocks), cols, rows), dtype)
    for c, block in enumerate(blocks):
        out[:, c] = np.swapaxes(block, 1, 2)
    return out


@functools.cache
def _lapack(dtype):
    """geqrf and ormqr (unmqr for complex dtypes).  scipy.linalg is imported
    here, so commands that never step a chain do not pay for it."""
    from scipy.linalg.lapack import get_lapack_funcs
    return get_lapack_funcs(("geqrf", "ormqr"), dtype=dtype)


def _qr_steps(steps, last, k):
    """Step every chain through ``steps`` (each (C, cols, rows)), in place.

    ``last`` holds per chain the reflectors and tau of its last geqrf, or
    None before its first step; the reflectors of the last step are
    returned.  ormqr (side='R') and geqrf overwrite the transposed buffer
    slices themselves: they are Fortran-ordered and of the LAPACK dtype, so
    f2py passes them on without a copy.  Both get the smallest workspace
    LAPACK accepts.  Below 32 columns, LAPACK's block size, they take their
    unblocked path whatever the workspace, and f2py allocates it on every
    call: the optimal one of ormqr, over 4000 entries, added 30-110% to the
    time of each call at d <= 10.
    """
    geqrf, ormqr = _lapack(steps[0].dtype)
    for step in steps:
        lwork = step.shape[-1]
        nxt = []
        for m, prev in zip(step, last):
            m = m.T
            if prev is not None:
                ormqr("R", "N", prev[0], prev[1], m, lwork, 1)
            frame = m[:, :k]
            nxt.append((frame, geqrf(frame, k, 1)[1]))
        last = nxt
    return last


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

