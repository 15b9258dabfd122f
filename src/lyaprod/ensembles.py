"""Seeded sampling of the factor-matrix ensembles.

Conventions
-----------
* Every Gaussian entry has beta independent real components of variance
  1/beta, so E|entry|^2 = 1 (the density exp(-(beta/2) Tr G^dag G)).
* beta = 1 matrices are real float64 arrays, beta = 2 complex128 arrays.
* beta = 4 (real quaternion) matrices are stored as their 2x2-block complex
  embedding: quaternion entry q = a + b i + c j + d k becomes
  [[alpha, beta], [-conj(beta), conj(alpha)]] with alpha = a + b i,
  beta = c + d i.  A quaternion r x c matrix is therefore a 2r x 2c
  complex array satisfying M = J conj(M) J^{-1} exactly, where J is
  block-diagonal in [[0, 1], [-1, 0]].
* Haar unitaries come from QR of a Gaussian matrix with the diagonal phase
  correction Q -> Q diag(r_jj / |r_jj|) (plain QR is not Haar).  For
  beta = 4 a structure-exact Gram-Schmidt over quaternion column pairs is
  used instead, so the embedding symmetry holds bit-for-bit.
* All randomness flows through numpy Generators.  Batched draws consume the
  underlying bit stream exactly like repeated single draws, so block size is
  a pure performance knob and identical seeds give identical factor streams
  regardless of batching.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .sigma import SigmaSpec
from .theory import (MixtureSpec, RectangularSpec, _check_beta, _check_dim,
                     _check_truncation)

__all__ = [
    "Ensemble",
    "ENSEMBLES",
    "StandardGaussian",
    "GeneralSigmaGaussian",
    "InverseGaussian",
    "GaussianInverseMixture",
    "RectangularGaussian",
    "TruncatedUnitary",
    "FactorStream",
    "chain_rng",
    "quaternion_dual",
    "is_quaternion_structured",
]

#: Redraw threshold for the condition number of a factor about to be inverted.
CONDITION_LIMIT = 1e12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Ensemble descriptions
# ---------------------------------------------------------------------------

#: Validation and normalization of every ensemble field, keyed by field name.
_NORMALIZE = {
    "beta": _check_beta,
    "d": _check_dim,
    "n": _check_truncation,
    "alpha_plus": lambda a: MixtureSpec(a).alpha_plus,
    "sigma_inv_eigenvalues": lambda y: y if isinstance(y, SigmaSpec) else SigmaSpec(tuple(y)),
    "shapes": lambda s: s if isinstance(s, RectangularSpec) else RectangularSpec(tuple(s)),
}


@dataclass(frozen=True)
class Ensemble:
    """A factor ensemble: Dyson index beta plus the fields of its kind.

    ``kind`` is the JSON name of the ensemble.  ``square`` tells whether
    every factor is d x d (only the explicit product of stability_exponents
    needs that), and ``proportions`` gives the shares of the factor types of
    an ensemble that mixes types on the deterministic quota schedule (None
    when all factors are identically distributed).
    """

    beta: int

    kind = None
    square = True
    proportions = None

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _NORMALIZE[f.name](getattr(self, f.name)))


@dataclass(frozen=True)
class StandardGaussian(Ensemble):
    d: int

    kind = "standard_gaussian"


@dataclass(frozen=True)
class GeneralSigmaGaussian(Ensemble):
    sigma_inv_eigenvalues: SigmaSpec

    kind = "general_sigma_gaussian"

    @property
    def d(self):
        return self.sigma_inv_eigenvalues.d


@dataclass(frozen=True)
class InverseGaussian(Ensemble):
    d: int

    kind = "inverse_gaussian"


@dataclass(frozen=True)
class GaussianInverseMixture(Ensemble):
    d: int
    alpha_plus: float

    kind = "gaussian_inverse_mixture"

    @property
    def proportions(self):
        return (self.alpha_plus, 1.0 - self.alpha_plus)


@dataclass(frozen=True)
class RectangularGaussian(Ensemble):
    d: int
    shapes: RectangularSpec

    kind = "rectangular_gaussian"

    @property
    def square(self):
        return self.shapes.offsets == (0,)

    @property
    def proportions(self):
        return self.shapes.proportions


@dataclass(frozen=True)
class TruncatedUnitary(Ensemble):
    d: int
    n: int

    kind = "truncated_unitary"


#: Ensemble classes by their JSON ``kind``.
ENSEMBLES = {cls.kind: cls for cls in (
    StandardGaussian, GeneralSigmaGaussian, InverseGaussian,
    GaussianInverseMixture, RectangularGaussian, TruncatedUnitary)}


# ---------------------------------------------------------------------------
# Quaternion embedding helpers
# ---------------------------------------------------------------------------

def quaternion_dual(m):
    """J conj(M) J^{-1} for the 2x2-block embedding; equals M iff structured.

    Acts on the last two axes, so a stack of matrices is dualized at once.
    """
    out = np.empty_like(m)
    out[..., 0::2, 0::2] = np.conj(m[..., 1::2, 1::2])
    out[..., 0::2, 1::2] = -np.conj(m[..., 1::2, 0::2])
    out[..., 1::2, 0::2] = -np.conj(m[..., 0::2, 1::2])
    out[..., 1::2, 1::2] = np.conj(m[..., 0::2, 0::2])
    return out


def is_quaternion_structured(m):
    """Exact (bitwise) test of the embedding symmetry M = J conj(M) J^{-1}."""
    return np.array_equal(m, quaternion_dual(m))


def _quaternion_symmetrize(m):
    """Exact projection onto the structured subspace (used after inversion)."""
    return 0.5 * (m + quaternion_dual(m))


def _embed_quaternion(comps):
    """(..., r, c, 4) real components -> (..., 2r, 2c) complex embedding."""
    ab = comps.view(np.complex128) * 0.5
    a, b = ab[..., 0], ab[..., 1]
    r, c = a.shape[-2], a.shape[-1]
    out = np.empty(comps.shape[:-3] + (2 * r, 2 * c), dtype=np.complex128)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -np.conj(b)
    out[..., 1::2, 1::2] = np.conj(a)
    return out


def _mate_columns(v):
    """Structure mate -J conj(v) of embedded column vectors (last axis 2m)."""
    out = np.empty_like(v)
    out[..., 0::2] = -np.conj(v[..., 1::2])
    out[..., 1::2] = np.conj(v[..., 0::2])
    return out


# ---------------------------------------------------------------------------
# Gaussian and Haar sampling (batched; stream-compatible with single draws)
# ---------------------------------------------------------------------------

def _to_field(beta, comps):
    """(..., beta) real Gaussian components -> entries of variance 1.

    beta is also the number of real components per entry; quaternion
    entries come out as the complex embedding.
    """
    if beta == 1:
        return comps[..., 0]
    if beta == 2:
        return comps.view(np.complex128)[..., 0] * _SQRT_HALF
    return _embed_quaternion(comps)


def _gaussian_data(beta, rows, cols, rng, size=None):
    shape = (rows, cols) if size is None else (size, rows, cols)
    return _to_field(beta, rng.standard_normal(shape + (beta,)))


def _haar_data(beta, m, rng, size=None):
    g = _gaussian_data(beta, m, m, rng, size=size)
    if beta in (1, 2):
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (diag / np.abs(diag))[..., None, :]
        return q
    return _quaternion_gram_schmidt(g)


def _quaternion_gram_schmidt(g):
    """Orthonormalize quaternion columns of embedded matrices (batched).

    Works on the first complex column of each quaternion pair; the second is
    the explicitly constructed structure mate, which keeps the embedding
    symmetry exact.  Two projection passes keep orthogonality near machine
    precision.
    """
    squeeze = g.ndim == 2
    if squeeze:
        g = g[None]
    b, two_m, _ = g.shape
    m = two_m // 2
    q = np.empty_like(g)
    for i in range(m):
        v = g[:, :, 2 * i].copy()
        for _ in range(2):
            for j in range(2 * i):
                u = q[:, :, j]
                coef = np.einsum("bi,bi->b", np.conj(u), v)
                v -= coef[:, None] * u
        norm = np.sqrt(np.einsum("bi,bi->b", np.conj(v), v).real)
        v /= norm[:, None]
        q[:, :, 2 * i] = v
        q[:, :, 2 * i + 1] = _mate_columns(v)
    return q[0] if squeeze else q


# ---------------------------------------------------------------------------
# Deterministic type schedule (rectangular offsets, Gaussian/inverse mixture)
# ---------------------------------------------------------------------------

def _quota_schedule(proportions, counts, steps):
    """The next ``steps`` type indices of the quota round-robin.

    Each step takes the type whose quota is most overdue (Sainte-Lague
    priority, ties by position), so prefix frequencies track the proportions
    to within one occurrence.  The j-th pick of type s (from 0) falls due at
    (j + 0.5)/p_s, so the next ``steps`` picks are the ``steps`` smallest of
    the due times still ahead, ties by position; a type with p_s = 0 is never
    picked.  ``counts`` holds how often each type was picked so far and is
    advanced in place.
    """
    due, types = [], []
    for s, (c, p) in enumerate(zip(counts, proportions)):
        if p > 0:
            # at most ``steps`` picks of one type fit in the window
            due.append((np.arange(c, c + steps) + 0.5) / p)
            types.append(np.full(steps, s))
    # a stable sort keeps equal due times in type order
    order = np.argsort(np.concatenate(due), kind="stable")[:steps]
    out = np.concatenate(types)[order]
    for s, n in enumerate(np.bincount(out, minlength=len(counts))):
        counts[s] += int(n)
    return out.tolist()


def _sigma_scale(spec, g):
    """Sigma^{1/2} G for a factor or a stack of factors."""
    scale = np.asarray(spec.sigma_inv_eigenvalues.y) ** -0.5
    if spec.beta == 4:
        scale = np.repeat(scale, 2)
    return scale[:, None] * g


def _ill_conditioned(g):
    """Flags the stacked matrices that np.linalg.cond puts above CONDITION_LIMIT.

    cond(g) < (2 / |det g|) (||g||_F / sqrt(n))^n for n x n g (Guggenheimer,
    Edelman & Johnson, College Math. J. 26 (1995) 2) costs one LU; the SVD
    of np.linalg.cond runs only where this bound misses the limit by more
    than a factor of 1000, far beyond the rounding of either route.
    """
    n = g.shape[-1]
    _, logdet = np.linalg.slogdet(g)
    frob2 = np.square(np.abs(g)).sum(axis=(-2, -1))
    log_bound = math.log(2.0) - logdet + 0.5 * n * np.log(frob2 / n)
    unsure = ~(log_bound <= math.log(CONDITION_LIMIT / 1e3))
    bad = np.zeros(len(g), dtype=bool)
    if unsure.any():
        bad[unsure] = ~(np.linalg.cond(g[unsure]) <= CONDITION_LIMIT)
    return bad


def _invert(beta, g):
    inv = np.linalg.inv(g)
    return _quaternion_symmetrize(inv) if beta == 4 else inv


# ---------------------------------------------------------------------------
# Factor streams
# ---------------------------------------------------------------------------

class FactorStream:
    """Sequential factor source for one Monte Carlo chain.

    Yields raw matrix data (the complex embedding for beta = 4), drawn a
    block at a time.  Tracks the number of redraws triggered by the
    near-singular guard on factors that get inverted, and, for ensembles
    mixing factor types (rectangular offset classes, Gaussian vs inverse),
    the per-step type trace of the deterministic type schedule.
    """

    def __init__(self, spec, rng, block=256):
        self.spec = spec
        self.rng = rng
        self.block = max(1, int(block))
        self.redraws = 0
        self._proportions = spec.proportions
        self._counts = [0] * len(self._proportions) if self._proportions else None
        self.type_trace = [] if self._proportions else None

    def _schedule(self, b):
        """Type indices of the next b steps; extends ``type_trace``."""
        types = _quota_schedule(self._proportions, self._counts, b)
        self.type_trace.extend(types)
        return types

    def blocks(self, n):
        """Yield n factors as (b, rows, cols) arrays of at most ``block`` steps.

        Non-square rectangular factors, whose shape changes from step to
        step, come zero-padded: each fills the top-left corner of a zero
        D x D square, D = d + max(offsets) (twice that for the quaternion
        embedding).  The generator is consumed exactly as by drawing factor
        by factor, so block size does not change the stream.
        """
        left = n
        while left > 0:
            b = min(self.block, left)
            yield self._block(b)
            left -= b

    def factors(self, n):
        """Yield n factors one by one."""
        for block in self.blocks(n):
            yield from block

    def _block(self, b):
        spec = self.spec
        beta, d = spec.beta, spec.d
        if isinstance(spec, StandardGaussian):
            return _gaussian_data(beta, d, d, self.rng, size=b)
        if isinstance(spec, GeneralSigmaGaussian):
            return _sigma_scale(spec, _gaussian_data(beta, d, d, self.rng, size=b))
        if isinstance(spec, TruncatedUnitary):
            k = d if beta != 4 else 2 * d
            z = _haar_data(beta, d + spec.n, self.rng, size=b)
            return np.ascontiguousarray(z[:, :k, :k])
        if isinstance(spec, RectangularGaussian):
            return self._rectangular_block(b)
        if isinstance(spec, InverseGaussian):
            return _invert(beta, self._guarded_draws(np.ones(b, dtype=bool)))
        if isinstance(spec, GaussianInverseMixture):
            inverse = np.array(self._schedule(b)) == 1
            g = self._guarded_draws(inverse)
            g[inverse] = _invert(beta, g[inverse])
            return g
        raise TypeError(f"unknown ensemble spec {spec!r}")

    def _guarded_draws(self, inverse):
        """Gaussian draws for one block; ``inverse`` flags the steps to be inverted.

        A step to be inverted skips every draw whose condition number exceeds
        CONDITION_LIMIT (counted in ``redraws``) and takes the next draw of
        the stream instead, as drawing factor by factor would.  Each round
        draws exactly the steps still missing, so no draw is wasted.
        """
        spec = self.spec
        b = len(inverse)
        kept = []
        filled = 0
        while filled < b:
            g = _gaussian_data(spec.beta, spec.d, spec.d, self.rng, size=b - filled)
            keep = np.ones(len(g), dtype=bool)
            skipped = 0
            for i in np.flatnonzero(_ill_conditioned(g)):
                # each skipped draw moves the later draws one step back
                if inverse[filled + i - skipped]:
                    keep[i] = False
                    skipped += 1
            kept.append(g[keep] if skipped else g)
            filled += len(g) - skipped
            self.redraws += skipped
        return kept[0] if len(kept) == 1 else np.concatenate(kept)

    def _rectangular_block(self, b):
        """Factors of shape (d + nu_t, d + nu_{t-1}) from one draw (nu_0 = 0),
        each in the top-left corner of a zero D x D square.  The mask's True
        entries, in C order, run through each step's corner row by row, so the
        draw fills the factors as single draws would."""
        spec = self.spec
        offsets = spec.shapes.offsets
        nus = [offsets[self.type_trace[-1]] if self.type_trace else 0]
        nus += [offsets[s] for s in self._schedule(b)]
        rows = spec.d + np.array(nus[1:])
        cols = spec.d + np.array(nus[:-1])
        index = np.arange(spec.d + max(offsets))
        corner = (index[:, None] < rows[:, None, None]) & (index < cols[:, None, None])
        comps = np.zeros(corner.shape + (spec.beta,))
        comps[corner] = self.rng.standard_normal((int(rows @ cols), spec.beta))
        return _to_field(spec.beta, comps)


def chain_rng(master_seed, chain_index):
    """Generator for one chain: PCG64 seeded by SeedSequence(master_seed, spawn_key=(chain_index,))."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(chain_index),))
    return np.random.default_rng(ss)
