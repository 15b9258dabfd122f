"""Numerically stable Monte Carlo estimation for random matrix products.

A chain keeps a d x k orthonormal frame, multiplies a fresh factor in each
step and re-orthonormalizes by QR with the R diagonal forced real positive.
The log of the i-th diagonal entry is the step's log-volume increment for
index i; its running mean estimates mu_1..mu_k in one pass and its variance,
which carries the 1/N factor of the estimator variance, estimates
N sigma_i^2 directly.  Per-step renormalization keeps every quantity in
range for arbitrarily long products.

The QR step calls the LAPACK routines geqrf and orgqr (ungqr for complex
frames) directly, once per chain and step, instead of numpy's batched QR,
whose Python wrapper costs more than the factorization itself at small d.
numpy's QR calls the same two routines with the same workspace sizes, and
tests/test_montecarlo.py holds the kernel bit for bit to a step loop on it.
LAPACK's Householder reflectors make every R diagonal entry real, for
complex matrices too, so the phase factor rdiag / |rdiag| is a sign up to
rounding.

For beta = 4 the frame is the complex embedding with 2k columns; the two R
diagonal entries of a quaternion column pair agree up to rounding and half
their summed logs is recorded as the quaternion increment.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .ensembles import FactorStream, chain_rng, _gaussian_data

__all__ = [
    "ChainResult",
    "McEstimate",
    "run_chain",
    "estimate",
    "stability_exponents",
    "spectral_ratio_samples",
]

#: Default cap on product length for stability_exponents; beyond a few
#: thousand steps the final matrix is numerically rank deficient because the
#: eigenvalue gaps close like exp(-N * (mu_k - mu_{k+1})).
STABILITY_STEP_CAP = 2000


@dataclass(frozen=True)
class ChainResult:
    """Per-step log-volume increments of one chain (shape N x k_max).

    type_ids flags the factor type of each step for ensembles that mix
    factor distributions (rectangular offset classes, Gaussian vs inverse
    factors); it is None when all factors are identically distributed.
    """

    k_max: int
    increments: np.ndarray
    redraw_count: int = 0
    type_ids: np.ndarray | None = None


@dataclass(frozen=True)
class McEstimate:
    """Aggregated Monte Carlo estimates across chains.

    mu_hat[i] is the grand mean of the pooled per-step increments for index
    i+1, n_sigma2_hat[i] their pooled sample variance (divisor count-1,
    which is N times the variance of mu_hat for one chain), and se_mu[i] the
    standard error sqrt(n_sigma2_hat / total steps).  The partial-sum fields
    are the analogous statistics of the per-step log-determinant increments
    sum_{i<=k} xi^(i).

    For ensembles that mix factor types on a deterministic schedule
    (rectangular offsets, Gaussian/inverse mixtures) the variances are pooled
    within each type and combined with the realized frequencies.  The
    increment mean shifts with the type, and that deterministic alternation
    contributes nothing to the variance of mu_hat, so a naive pool across
    types would overstate N sigma^2 by the between-type mean spread.
    """

    mu_hat: np.ndarray
    se_mu: np.ndarray
    n_sigma2_hat: np.ndarray
    partial_sum_mu: np.ndarray
    partial_sum_n_sigma2: np.ndarray
    N: int
    chains: int
    redraw_count: int = 0


def _identity_frame(spec, k_max):
    if spec.beta == 4:
        return np.eye(2 * spec.d, 2 * k_max, dtype=np.complex128)
    dtype = np.float64 if spec.beta == 1 else np.complex128
    return np.eye(spec.d, k_max, dtype=dtype)


def run_chain(spec, k_max, N, rngs, *, block=256):
    """Run one chain per Generator in ``rngs``, N steps each, all together.

    Chain c draws its factors from its own FactorStream on rngs[c].  Each
    block of the C streams is stacked as (b, C, rows, cols), so a step makes
    one batched matmul over the C frames and one LAPACK QR per frame.
    Single-column frames take a scalar update chain by chain instead.  Returns one
    ChainResult per chain, in the order of ``rngs``.
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

    frame = _identity_frame(spec, k_max)
    increments = np.empty((len(streams), N, k_max))
    if frame.shape[1] == 1:
        frames = [frame] * len(streams)
        steps = _scalar_steps
    else:
        frames = np.repeat(frame[None], len(streams), axis=0)
        steps = functools.partial(_qr_steps, lapack=_lapack_qr(frame), quaternion=spec.beta == 4)
    done = 0
    for blocks in zip(*(stream.blocks(N) for stream in streams)):
        # non-square rectangular factors change shape from step to step
        factors = (np.stack(blocks, axis=1) if spec.square
                   else [np.stack(step) for step in zip(*blocks)])
        frames = steps(factors, frames, increments[:, done:done + len(factors)], done)
        done += len(factors)

    return [ChainResult(k_max=k_max, increments=inc, redraw_count=stream.redraws,
                        type_ids=(np.asarray(stream.type_trace, dtype=np.uint8)
                                  if stream.type_trace is not None else None))
            for inc, stream in zip(increments, streams)]


def _scalar_steps(factors, frames, out, done):
    """Single-column frames, chain by chain: the step is a norm and a log."""
    for c, frame in enumerate(frames):
        for i, a in enumerate(factors):
            y = a[c] @ frame
            r = math.sqrt(np.vdot(y, y).real)
            if not (r > 0.0 and math.isfinite(r)):
                raise ArithmeticError(f"non-finite increment at step {done + i + 1}")
            out[c, i, 0] = math.log(r)
            frame = y / r
        frames[c] = frame
    return frames


def _lapack_qr(frame):
    """geqrf and orgqr (ungqr for complex frames) for frames like ``frame``,
    each with the workspace size LAPACK reports as optimal, as numpy's QR
    uses: a smaller one changes the blocking of frames over 128 columns."""
    geqrf, orgqr = get_lapack_funcs(("geqrf", "orgqr"), (frame,))
    k = frame.shape[1]
    lwork_r = int(geqrf(frame, -1)[2][0].real)
    lwork_q = int(orgqr(frame, np.zeros(k, frame.dtype), -1)[1][0].real)
    return geqrf, lwork_r, orgqr, lwork_q


def _qr_steps(factors, frames, out, done, lapack, quaternion=False):
    """All chains at once: one batched matmul per step, then geqrf and
    orgqr per chain, phases fixed so that the R diagonal is real positive.

    Each chain's product is copied once into column-major order, where
    geqrf and then orgqr overwrite it in place (f2py skips its own copy for
    a Fortran-ordered array when overwrite_a is set).  The Householder
    reflectors of geqrf leave every R diagonal entry real, so
    rdiag / |rdiag| is a sign up to rounding; it is computed as that
    division, in the frame's dtype, so that Q matches numpy's QR-based step
    bit for bit.  The diagonals of the block are kept in a (b, C, k)
    buffer, and their logs, the quaternion pair halving and the finiteness
    check are taken once per block.  The phase-fixed Q overwrites its
    step's product ``y``, whose row count follows the factor's (non-square
    rectangular factors change it from step to step).
    """
    geqrf, lwork_r, orgqr, lwork_q = lapack
    rdiag = np.empty((len(factors), len(frames), frames.shape[2]), dtype=frames.dtype)
    for i, a in enumerate(factors):
        y = a @ frames
        yt = y.transpose(0, 2, 1).copy()
        taus = [geqrf(m.T, lwork_r, 1)[1] for m in yt]
        rd = rdiag[i]
        rd[:] = yt.diagonal(0, 1, 2)
        for m, tau in zip(yt, taus):
            orgqr(m.T, tau, lwork_q, 1)
        np.multiply(yt.transpose(0, 2, 1), (rd / np.abs(rd))[:, None], out=y)
        frames = y
    logs = np.log(np.abs(rdiag))
    finite = np.isfinite(logs.sum(axis=(1, 2)))
    if not finite.all():
        raise ArithmeticError(f"non-finite increment at step {done + int(finite.argmin()) + 1}")
    out[:] = (0.5 * (logs[..., 0::2] + logs[..., 1::2]) if quaternion else logs).swapaxes(0, 1)
    return frames


def _chain_moments(result):
    """Per-type (n, mean, M2) accumulators for increments and partial sums."""
    xi = result.increments
    eta = np.cumsum(xi, axis=1)
    if result.type_ids is None:
        groups = {0: slice(None)}
    else:
        groups = {int(t): result.type_ids == t for t in np.unique(result.type_ids)}
    out = {}
    for t, sel in groups.items():
        x, e = xi[sel], eta[sel]
        n = x.shape[0]
        out[t] = ((n, x.mean(axis=0), x.var(axis=0) * n),
                  (n, e.mean(axis=0), e.var(axis=0) * n))
    return out, result.redraw_count


def _merge_moments(acc, nxt):
    """Chan et al. pairwise merge of (n, mean, M2) accumulators."""
    n_a, mean_a, m2_a = acc
    n_b, mean_b, m2_b = nxt
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def _combine_types(per_type):
    """Grand mean plus frequency-weighted within-type variance.

    The mean merges across types as usual; the variance is the
    realized-frequency average of the per-type sample variances, matching
    the type-averaged closed forms.
    """
    total = sum(acc[0] for acc in per_type.values())
    mean_acc = None
    var = None
    for t in sorted(per_type):
        acc = per_type[t]
        mean_acc = acc if mean_acc is None else _merge_moments(mean_acc, acc)
        n_t, _, m2_t = acc
        v_t = m2_t / (n_t - 1) if n_t > 1 else np.zeros_like(m2_t)
        contrib = (n_t / total) * v_t
        var = contrib if var is None else var + contrib
    return total, mean_acc[1], var


def estimate(spec, k_max, N, chains, master_seed, *, block=256):
    """Estimate the top k_max exponents and variances from seeded chains.

    Chain c draws from chain_rng(master_seed, c); all chains are stepped
    together by one run_chain call and merged by a deterministic reduction
    in chain order.
    """
    chains = int(chains)
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")

    rngs = [chain_rng(master_seed, c) for c in range(chains)]
    redraws = 0
    acc_xi = {}
    acc_eta = {}
    for result in run_chain(spec, k_max, N, rngs, block=block):
        per_type, rd = _chain_moments(result)
        redraws += rd
        for t, (mom_xi, mom_eta) in per_type.items():
            acc_xi[t] = mom_xi if t not in acc_xi else _merge_moments(acc_xi[t], mom_xi)
            acc_eta[t] = mom_eta if t not in acc_eta else _merge_moments(acc_eta[t], mom_eta)

    total, mu_hat, n_sigma2 = _combine_types(acc_xi)
    _, _, ps_sigma2 = _combine_types(acc_eta)
    se = np.sqrt(n_sigma2 / total)
    return McEstimate(
        mu_hat=mu_hat,
        se_mu=se,
        n_sigma2_hat=n_sigma2,
        partial_sum_mu=np.cumsum(mu_hat),
        partial_sum_n_sigma2=ps_sigma2,
        N=int(N),
        chains=chains,
        redraw_count=redraws,
    )


def stability_exponents(spec, N, rng, *, step_cap=STABILITY_STEP_CAP):
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
    if N > step_cap:
        raise ValueError(
            f"N = {N} exceeds the stability step cap {step_cap}; the product "
            "becomes numerically rank deficient (override with step_cap=...)")
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

