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
from dataclasses import dataclass

import numpy as np

from .sigma import SigmaSpec
from .theory import MixtureSpec, RectangularSpec, VALID_BETA, _check_beta, _check_dim

__all__ = [
    "StandardGaussian",
    "GeneralSigmaGaussian",
    "InverseGaussian",
    "GaussianInverseMixture",
    "RectangularGaussian",
    "TruncatedUnitary",
    "FieldMatrix",
    "FactorStream",
    "sample_gaussian",
    "sample_haar_unitary",
    "sample_factor",
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

@dataclass(frozen=True)
class StandardGaussian:
    beta: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "d", _check_dim(self.d))


@dataclass(frozen=True)
class GeneralSigmaGaussian:
    beta: int
    sigma_inv_eigenvalues: SigmaSpec

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        spec = self.sigma_inv_eigenvalues
        if not isinstance(spec, SigmaSpec):
            spec = SigmaSpec(tuple(spec))
        object.__setattr__(self, "sigma_inv_eigenvalues", spec)

    @property
    def d(self):
        return self.sigma_inv_eigenvalues.d


@dataclass(frozen=True)
class InverseGaussian:
    beta: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "d", _check_dim(self.d))


@dataclass(frozen=True)
class GaussianInverseMixture:
    beta: int
    d: int
    alpha_plus: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "d", _check_dim(self.d))
        MixtureSpec(self.alpha_plus)  # validates the proportion
        object.__setattr__(self, "alpha_plus", float(self.alpha_plus))


@dataclass(frozen=True)
class RectangularGaussian:
    beta: int
    d: int
    shapes: RectangularSpec

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "d", _check_dim(self.d))
        shapes = self.shapes
        if not isinstance(shapes, RectangularSpec):
            shapes = RectangularSpec(tuple(shapes))
        object.__setattr__(self, "shapes", shapes)

    @property
    def square(self):
        return self.shapes.offsets == (0,)


@dataclass(frozen=True)
class TruncatedUnitary:
    beta: int
    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "d", _check_dim(self.d))
        n = int(self.n)
        if n < 0:
            raise ValueError(f"truncation size n must be >= 0, got {n}")
        object.__setattr__(self, "n", n)


EnsembleSpec = (StandardGaussian | GeneralSigmaGaussian | InverseGaussian
                | GaussianInverseMixture | RectangularGaussian | TruncatedUnitary)

_FIELD_NAMES = {1: "real", 2: "complex", 4: "quaternion"}


@dataclass(frozen=True)
class FieldMatrix:
    """A sampled factor; rows/cols count entries over the base field.

    For beta = 4 ``data`` is the complex embedding of shape (2*rows, 2*cols).
    """

    beta: int
    rows: int
    cols: int
    data: np.ndarray

    @property
    def field(self):
        return _FIELD_NAMES[self.beta]


def is_square(spec):
    """True when every factor of the ensemble is d x d."""
    return not isinstance(spec, RectangularGaussian) or spec.square


# ---------------------------------------------------------------------------
# Quaternion embedding helpers
# ---------------------------------------------------------------------------

def quaternion_dual(m):
    """J conj(M) J^{-1} for the 2x2-block embedding; equals M iff structured."""
    out = np.empty_like(m)
    out[0::2, 0::2] = np.conj(m[1::2, 1::2])
    out[0::2, 1::2] = -np.conj(m[1::2, 0::2])
    out[1::2, 0::2] = -np.conj(m[0::2, 1::2])
    out[1::2, 1::2] = np.conj(m[0::2, 0::2])
    return out


def is_quaternion_structured(m):
    """Exact (bitwise) test of the embedding symmetry M = J conj(M) J^{-1}."""
    return np.array_equal(m, quaternion_dual(m))


def _quaternion_symmetrize(m):
    """Exact projection onto the structured subspace (used after inversion)."""
    return 0.5 * (m + quaternion_dual(m))


def _embed_quaternion(comps):
    """(..., r, c, 4) real components -> (..., 2r, 2c) complex embedding."""
    a = (comps[..., 0] + 1j * comps[..., 1]) * 0.5
    b = (comps[..., 2] + 1j * comps[..., 3]) * 0.5
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

def _gaussian_data(beta, rows, cols, rng, size=None):
    shape = (rows, cols) if size is None else (size, rows, cols)
    if beta == 1:
        return rng.standard_normal(shape)
    if beta == 2:
        comps = rng.standard_normal(shape + (2,))
        return (comps[..., 0] + 1j * comps[..., 1]) * _SQRT_HALF
    comps = rng.standard_normal(shape + (4,))
    return _embed_quaternion(comps)


def sample_gaussian(beta, rows, cols, rng):
    """One standard Gaussian matrix with E|entry|^2 = 1."""
    beta = _check_beta(beta)
    return FieldMatrix(beta, _check_dim(rows), _check_dim(cols),
                       _gaussian_data(beta, rows, cols, rng))


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


def sample_haar_unitary(beta, m, rng):
    """One Haar-distributed unitary (orthogonal / unitary / symplectic)."""
    beta = _check_beta(beta)
    return FieldMatrix(beta, _check_dim(m), _check_dim(m), _haar_data(beta, m, rng))


# ---------------------------------------------------------------------------
# Rectangular offset schedule
# ---------------------------------------------------------------------------

def _schedule_pick(proportions, counts):
    """Index whose quota is most overdue (Sainte-Lague priority), ties by position."""
    priorities = [(counts[s] + 0.5) / proportions[s] for s in range(len(counts))]
    return priorities.index(min(priorities))


def rectangular_offsets(shapes, steps):
    """Deterministic quota round-robin sequence of offsets for the given steps.

    Prefix frequencies track the proportions to within one occurrence.
    """
    if not isinstance(shapes, RectangularSpec):
        shapes = RectangularSpec(tuple(shapes))
    counts = [0] * len(shapes.shapes)
    out = []
    for _ in range(steps):
        s = _schedule_pick(shapes.proportions, counts)
        counts[s] += 1
        out.append(shapes.offsets[s])
    return out


# ---------------------------------------------------------------------------
# Factor streams
# ---------------------------------------------------------------------------

class FactorStream:
    """Sequential factor source for one Monte Carlo chain.

    Yields raw matrix data (the complex embedding for beta = 4).  Tracks the
    number of redraws triggered by the near-singular guard on factors that
    get inverted, and the offset schedule state for rectangular ensembles.
    """

    def __init__(self, spec, rng, block=256):
        self.spec = spec
        self.rng = rng
        self.block = max(1, int(block))
        self.redraws = 0
        self._counts = ([0] * len(spec.shapes.shapes)
                        if isinstance(spec, RectangularGaussian) else None)
        self._nu_prev = 0
        # per-step factor-type trace for ensembles mixing factor
        # distributions (offset class / Gaussian-vs-inverse coin)
        self.type_trace = ([] if isinstance(
            spec, (RectangularGaussian, GaussianInverseMixture)) else None)

    # -- single factors ----------------------------------------------------

    def _inverse_gaussian(self, beta, d):
        while True:
            g = _gaussian_data(beta, d, d, self.rng)
            if d == 1 or np.linalg.cond(g) <= CONDITION_LIMIT:
                break
            self.redraws += 1
        inv = np.linalg.inv(g)
        if beta == 4:
            inv = _quaternion_symmetrize(inv)
        return inv

    def _one(self):
        spec = self.spec
        beta = spec.beta
        if isinstance(spec, StandardGaussian):
            return _gaussian_data(beta, spec.d, spec.d, self.rng)
        if isinstance(spec, GeneralSigmaGaussian):
            return self._sigma_scale(_gaussian_data(beta, spec.d, spec.d, self.rng))
        if isinstance(spec, InverseGaussian):
            return self._inverse_gaussian(beta, spec.d)
        if isinstance(spec, GaussianInverseMixture):
            if self.rng.random() < spec.alpha_plus:
                self.type_trace.append(0)
                return _gaussian_data(beta, spec.d, spec.d, self.rng)
            self.type_trace.append(1)
            return self._inverse_gaussian(beta, spec.d)
        if isinstance(spec, RectangularGaussian):
            s = _schedule_pick(spec.shapes.proportions, self._counts)
            self._counts[s] += 1
            self.type_trace.append(s)
            nu = spec.shapes.offsets[s]
            data = _gaussian_data(beta, spec.d + nu, spec.d + self._nu_prev, self.rng)
            self._nu_prev = nu
            return data
        if isinstance(spec, TruncatedUnitary):
            z = _haar_data(beta, spec.d + spec.n, self.rng)
            k = spec.d if beta != 4 else 2 * spec.d
            return np.ascontiguousarray(z[:k, :k])
        raise TypeError(f"unknown ensemble spec {spec!r}")

    def _sigma_scale(self, g):
        y = np.asarray(self.spec.sigma_inv_eigenvalues.y)
        scale = y ** -0.5
        if self.spec.beta == 4:
            scale = np.repeat(scale, 2)
        return scale[:, None] * g

    # -- batched stream ----------------------------------------------------

    def blocks(self, n):
        """Yield n factors in blocks of at most ``block`` steps.

        I.i.d. square ensembles draw a block as one (b, rows, cols) array;
        the others draw factor by factor and give a list of b factors.
        Either way the generator is consumed exactly as by single draws.
        """
        spec = self.spec
        left = n
        while left > 0:
            b = min(self.block, left)
            if isinstance(spec, (StandardGaussian, GeneralSigmaGaussian)) or (
                    isinstance(spec, InverseGaussian) and spec.d == 1):
                yield self._simple_block(b)
            elif isinstance(spec, TruncatedUnitary):
                yield self._truncated_block(b)
            else:
                yield [self._one() for _ in range(b)]
            left -= b

    def factors(self, n):
        """Yield n factors one by one."""
        for block in self.blocks(n):
            yield from block

    def _simple_block(self, b):
        spec = self.spec
        data = _gaussian_data(spec.beta, spec.d, spec.d, self.rng, size=b)
        if isinstance(spec, GeneralSigmaGaussian):
            y = np.asarray(spec.sigma_inv_eigenvalues.y)
            scale = y ** -0.5
            if spec.beta == 4:
                scale = np.repeat(scale, 2)
            data = scale[None, :, None] * data
        elif isinstance(spec, InverseGaussian):
            data = np.linalg.inv(data)
            if spec.beta == 4:
                data = _quaternion_symmetrize_batch(data)
        return data

    def _truncated_block(self, b):
        spec = self.spec
        k = spec.d if spec.beta != 4 else 2 * spec.d
        z = _haar_data(spec.beta, spec.d + spec.n, self.rng, size=b)
        return np.ascontiguousarray(z[:, :k, :k])


def _quaternion_symmetrize_batch(m):
    out = np.empty_like(m)
    out[..., 0::2, 0::2] = np.conj(m[..., 1::2, 1::2])
    out[..., 0::2, 1::2] = -np.conj(m[..., 1::2, 0::2])
    out[..., 1::2, 0::2] = -np.conj(m[..., 0::2, 1::2])
    out[..., 1::2, 1::2] = np.conj(m[..., 0::2, 0::2])
    return 0.5 * (m + out)


def sample_factor(spec, step_index, rng):
    """One product factor A_{step_index} (step indices start at 1).

    Stateless convenience wrapper around FactorStream: i.i.d. ensembles
    ignore step_index; for rectangular ensembles the offset schedule is
    replayed up to step_index (O(step_index) bookkeeping), so chains should
    prefer FactorStream.
    """
    if step_index < 1:
        raise ValueError(f"step_index starts at 1, got {step_index}")
    stream = FactorStream(spec, rng)
    if isinstance(spec, RectangularGaussian):
        nus = rectangular_offsets(spec.shapes, step_index)
        nu, nu_prev = nus[-1], (nus[-2] if step_index >= 2 else 0)
        data = _gaussian_data(spec.beta, spec.d + nu, spec.d + nu_prev, rng)
        rows, cols = spec.d + nu, spec.d + nu_prev
    else:
        data = stream._one()
        rows = cols = spec.d
        if data.ndim == 2 and spec.beta != 4:
            rows, cols = data.shape
        elif spec.beta == 4:
            rows, cols = data.shape[0] // 2, data.shape[1] // 2
    return FieldMatrix(spec.beta, rows, cols, data)


def chain_rng(master_seed, chain_index):
    """Generator for one chain: PCG64 seeded by SeedSequence(master_seed, spawn_key=(chain_index,))."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(chain_index),))
    return np.random.default_rng(ss)
