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
* Haar columns come from QR of a Gaussian matrix with the diagonal phase
  correction Q -> Q diag(r_jj / |r_jj|) (plain QR is not Haar; Mezzadri,
  Notices AMS 54 (2007) 592).  For beta = 4 the phase-fixed complex QR of
  the embedding is the quaternion QR up to rounding (both have a positive
  R diagonal, which makes the factorization unique); projecting Q onto the
  structured subspace makes the embedding symmetry hold bit-for-bit.
* All randomness flows through numpy Generators.  Streams draw BLOCK steps
  at a time, and batched draws consume the underlying bit stream exactly
  like repeated single draws, so identical seeds give identical factor
  streams whatever BLOCK is.  No draw is skipped: step t takes the t-th
  draw of its stream, inverse steps included.
"""

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .sigma import SigmaSpec
from .theory import (RectangularSpec, _check_beta, _check_dim, _check_int,
                     _check_share, _check_truncation)

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

#: Steps a FactorStream draws at once.  The stream does not depend on it;
#: 256 is the fastest size, or within 3% of it, on every benchmark shape.
BLOCK = 256

_SQRT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Ensemble descriptions
# ---------------------------------------------------------------------------

def _check_shapes(shapes):
    """``shapes`` as a RectangularSpec whose offset classes fit the uint8
    type indices of the quota schedule."""
    shapes = shapes if isinstance(shapes, RectangularSpec) else RectangularSpec(tuple(shapes))
    if len(shapes.shapes) > 256:
        raise ValueError(f"at most 256 offset classes are supported, got {len(shapes.shapes)}")
    return shapes


#: Validation and normalization of every ensemble field, keyed by field name.
_NORMALIZE = {
    "beta": _check_beta,
    "d": _check_dim,
    "n": _check_truncation,
    "alpha_plus": _check_share,
    "sigma_inv_eigenvalues": lambda y: y if isinstance(y, SigmaSpec) else SigmaSpec(tuple(y)),
    "shapes": _check_shapes,
}


@dataclass(frozen=True)
class Ensemble:
    """A factor ensemble: Dyson index beta plus the fields of its kind.

    ``kind`` is the JSON name of the ensemble.  ``width`` is the column count
    of a whole factor: d, or D = d + max(offsets) for rectangular factors,
    which come zero-padded to D x D (only the explicit product of
    stability_exponents needs width == d).  ``proportions`` gives the shares
    of the factor types of an ensemble that mixes types on the deterministic
    quota schedule (None when all factors are identically distributed).
    Every kind draws through ``panel``; truncated unitaries and the kinds
    with inverse steps also override ``factors``.
    """

    beta: int

    kind = None
    proportions = None

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _NORMALIZE[f.name](getattr(self, f.name)))

    @property
    def width(self):
        return self.d

    @property
    def signs(self):
        """The sign of the increments of each quota-schedule type (one entry
        when the factors are identically distributed), as in
        TheorySpectrum.laws: -1 marks the inverse steps, whose panels are
        reversed adjoints (see panel)."""
        return (1,) * len(self.proportions or (1,))

    def panel(self, stream, b, k):
        """The panels of the next b steps of ``stream``, a (b, rows, cols)
        array (twice the columns for the quaternion embedding).

        On a step of sign +1 the panel is k columns wide, a draw with the law
        of the first k columns of a factor.  Every kind here is
        right-unitarily invariant, so it stands for A_n Q_{n-1}[:, :k] (see
        the montecarlo module).  An inverse step, a factor G^-1 of a Gaussian
        G, draws no inverse: its panel is the reversed adjoint J G^H J (J the
        order reversal), d columns wide whatever k.  If J G^H J = Q R, then
        G^-1 = (J Q J)(J R^-H J) is the QR factorization of G^-1, with R
        diagonal 1/conj(r_{d+1-i}) (the identity behind the inverse law in
        the theory module), so the log|diag R| of G^-1, the increments of the
        step, are those of the panel negated in reversed order.  Kinds with
        inverse steps set ``signs``, and run_chain flips those steps.  G is
        not checked: a singular draw gives a zero R diagonal entry, which
        run_chain reports as a non-finite increment of its step.
        """
        raise NotImplementedError

    def factors(self, stream, b):
        """The next b factors of ``stream``, a (b, rows, cols) array: the
        panels as wide as a factor."""
        return self.panel(stream, b, self.width)


@dataclass(frozen=True)
class StandardGaussian(Ensemble):
    d: int

    kind = "standard_gaussian"

    def panel(self, stream, b, k):
        return _gaussian_data(self.beta, self.d, k, stream.rng, size=b)


@dataclass(frozen=True)
class GeneralSigmaGaussian(Ensemble):
    sigma_inv_eigenvalues: SigmaSpec

    kind = "general_sigma_gaussian"

    @property
    def d(self):
        return self.sigma_inv_eigenvalues.d

    def panel(self, stream, b, k):
        return _sigma_scale(self, _gaussian_data(self.beta, self.d, k, stream.rng, size=b))


@dataclass(frozen=True)
class InverseGaussian(Ensemble):
    """Inverses G^-1 of d x d Gaussians G, each step the next draw of the
    stream with no condition check.  For a real Gaussian P(cond G > x) is
    about 2d/x at large x (Edelman, SIAM J. Matrix Anal. Appl. 9 (1988)
    543), so near-singular draws are rare and leave no mark on an
    estimate; an exactly singular one fails loudly (see FactorStream.blocks
    and Ensemble.panel)."""

    d: int

    kind = "inverse_gaussian"
    signs = (-1,)

    def panel(self, stream, b, k):
        """The reversed adjoints of the Gaussian draws (see Ensemble.panel)."""
        return _reversed_adjoint(_gaussian_data(self.beta, self.d, self.d, stream.rng, size=b))

    def factors(self, stream, b):
        """The inverses of the Gaussian draws."""
        return _invert(self.beta, _gaussian_data(self.beta, self.d, self.d, stream.rng, size=b))


@dataclass(frozen=True)
class GaussianInverseMixture(Ensemble):
    d: int
    alpha_plus: float

    kind = "gaussian_inverse_mixture"
    signs = (1, -1)

    @property
    def proportions(self):
        return (self.alpha_plus, 1.0 - self.alpha_plus)

    def panel(self, stream, b, k):
        """Whole Gaussian draws on Gaussian steps (type 0) and their reversed
        adjoints on inverse steps (type 1), d columns wide whatever k (see
        Ensemble.panel)."""
        return self._draw(stream, b, _reversed_adjoint)

    def factors(self, stream, b):
        """Gaussian draws on Gaussian steps, their inverses on inverse steps."""
        return self._draw(stream, b, lambda g: _invert(self.beta, g))

    def _draw(self, stream, b, invert):
        inverse = stream.schedule(b) == 1
        g = _gaussian_data(self.beta, self.d, self.d, stream.rng, size=b)
        g[inverse] = invert(g[inverse])
        return g


@dataclass(frozen=True)
class RectangularGaussian(Ensemble):
    d: int
    shapes: RectangularSpec

    kind = "rectangular_gaussian"

    @property
    def width(self):
        return self.d + max(self.shapes.offsets)

    @property
    def proportions(self):
        return self.shapes.proportions

    def panel(self, stream, b, k):
        """Gaussians of shape (d + nu_t, min(k, d + nu_{t-1})) from one draw
        (nu_0 = 0), each in the top-left corner of a zero D x k panel.  For
        k <= d a panel is a (d + nu_t) x k Gaussian padded with zero rows; for
        k = D it is the whole factor.  The mask's True entries, in C order,
        run through each step's corner row by row, so the draw fills the
        panels as single draws would."""
        offsets = np.array(self.shapes.offsets)
        first = 0 if stream.last_type is None else offsets[stream.last_type]
        nus = np.concatenate(([first], offsets[stream.schedule(b)]))
        index = np.arange(self.width)
        mask = ((index[:, None] < self.d + nus[1:, None, None])
                & (index[:k] < self.d + nus[:-1, None, None]))
        comps = np.zeros(mask.shape + (self.beta,))
        comps[mask] = stream.rng.standard_normal((int(np.count_nonzero(mask)), self.beta))
        return _to_field(self.beta, comps)


@dataclass(frozen=True)
class TruncatedUnitary(Ensemble):
    d: int
    n: int

    kind = "truncated_unitary"

    def panel(self, stream, b, k):
        """The top rows of k Haar columns: Q of a (d + n) x k Gaussian.

        Q comes from the Gram-Schmidt kernel (_orthonormalize), whose R has a
        positive diagonal, so the columns are Haar without a phase fix, for
        beta = 4 too (each odd column of the embedding is the partner of the
        even one before it, so the panel is quaternion structured exactly).
        """
        g = _gaussian_data(self.beta, self.d + self.n, k, stream.rng, size=b)
        q = _batch_last([g], self.beta)[..., 0]
        _orthonormalize(q, self.beta)
        if self.beta != 4:
            return q[:, :self.d].T
        rows_first = q[:, :2 * self.d].transpose(1, 0, 2)
        out = np.empty((b, 2 * self.d, 2 * k), dtype=np.complex128)
        out[..., 0::2] = rows_first.transpose(2, 0, 1)
        out[..., 1::2] = _partner(rows_first).transpose(2, 0, 1)
        return out

    def factors(self, stream, b):
        """The top d rows of d Haar columns in dimension d + n, from
        np.linalg.qr with the phase fix (_haar_columns).  The stream of
        whole factors, and product_chain with it, stays independent of the
        Gram-Schmidt kernel."""
        q = _haar_columns(self.beta, self.d + self.n, self.d, stream.rng, size=b)
        return q[:, :2 * self.d if self.beta == 4 else self.d]


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
    """Exact projection onto the structured subspace (used after inversion and QR)."""
    return 0.5 * (m + quaternion_dual(m))


def _embed_quaternion(comps):
    """(..., r, c, 4) real components -> (..., 2r, 2c) complex embedding.
    Scales ``comps`` in place."""
    comps *= 0.5
    ab = comps.view(np.complex128)
    a, b = ab[..., 0], ab[..., 1]
    r, c = a.shape[-2], a.shape[-1]
    out = np.empty(comps.shape[:-3] + (2 * r, 2 * c), dtype=np.complex128)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -np.conj(b)
    out[..., 1::2, 1::2] = np.conj(a)
    return out


# ---------------------------------------------------------------------------
# Gaussian and Haar sampling (batched; stream-compatible with single draws)
# ---------------------------------------------------------------------------

def _to_field(beta, comps):
    """(..., beta) real Gaussian components -> entries of variance 1.

    beta is also the number of real components per entry; quaternion
    entries come out as the complex embedding.  ``comps`` is scaled in
    place; for beta = 1 and 2 the result is a view of it.
    """
    if beta == 1:
        return comps[..., 0]
    if beta == 2:
        comps *= _SQRT_HALF
        return comps.view(np.complex128)[..., 0]
    return _embed_quaternion(comps)


def _gaussian_data(beta, rows, cols, rng, size=None):
    shape = (rows, cols) if size is None else (size, rows, cols)
    return _to_field(beta, rng.standard_normal(shape + (beta,)))


def _haar_columns(beta, rows, k, rng, size=None):
    """k orthonormal columns with the law of the first k of a rows x rows
    Haar unitary: the Q of a rows x k Gaussian times the phases of R's
    diagonal (see the module docstring)."""
    q, r = np.linalg.qr(_gaussian_data(beta, rows, k, rng, size=size))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return _quaternion_symmetrize(q) if beta == 4 else q


# ---------------------------------------------------------------------------
# Gram-Schmidt step kernel (batch axes last)
# ---------------------------------------------------------------------------

def _batch_last(panels, beta):
    """(b, rows, cols) panels, one array per chain -> the C-ordered
    (k, rows, b, C) array of their columns that _orthonormalize takes: all
    columns, or the even ones of a quaternion embedding."""
    step = 2 if beta == 4 else 1
    cols = [p[..., ::step] for p in panels]
    # np.stack would keep the panels' memory order, with the batch first
    a = np.empty(cols[0].shape[::-1] + (len(cols),), dtype=cols[0].dtype)
    for c, p in enumerate(cols):
        a[..., c] = p.T
    return a


def _partner(v):
    """J conj(v) for embedding columns v with rows on the first axis: the odd
    column that the embedding of a quaternion matrix pairs with the even
    column v.  It is orthogonal to v and has v's norm, exactly."""
    w = np.empty_like(v)
    w[0::2] = -np.conj(v[1::2])
    w[1::2] = np.conj(v[0::2])
    return w


def _orthonormalize(a, beta):
    """Modified Gram-Schmidt, in place, on the columns a[0], ..., a[k-1] of a
    (k, rows, ...) array whose trailing axes are the batch.

    Returns the squared R diagonal, a (k, ...) array; the columns become Q.
    The MGS R factor is backward stable like the Householder one (Bjorck,
    BIT 7 (1967) 1; Bjorck & Paige, SIAM J. Matrix Anal. Appl. 13 (1992)
    176), and with the batch last and contiguous every operation runs over
    the whole batch at once.  For beta = 4, ``a`` holds the even columns of
    the embedding only: each is orthogonalised against the pairs
    (q, _partner(q)) of the columns before it, and its entry is the squared
    R diagonal entry of both columns of its pair.  A zero or non-finite
    column gives a zero or non-finite entry, and NaN columns from there on,
    without a warning; callers check the entries.
    """
    diag = np.empty(a.shape[:1] + a.shape[2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, v in enumerate(a):
            diag[j] = (v.conj() * v).real.sum(axis=0)
            v *= 1.0 / np.sqrt(diag[j])
            rest = a[j + 1:]
            for u in (v, _partner(v)) if beta == 4 else (v,):
                rest -= u * (u.conj() * rest).sum(axis=1)[:, None]
    return diag


# ---------------------------------------------------------------------------
# Deterministic type schedule (rectangular offsets, Gaussian/inverse mixture)
# ---------------------------------------------------------------------------

def _quota_schedule(proportions, counts, steps):
    """The next ``steps`` type indices of the quota round-robin, a uint8 array.

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
            types.append(np.full(steps, s, dtype=np.uint8))
    # a stable sort keeps equal due times in type order
    order = np.argsort(np.concatenate(due), kind="stable")[:steps]
    out = np.concatenate(types)[order]
    for s, n in enumerate(np.bincount(out, minlength=len(counts))):
        counts[s] += int(n)
    return out


def _sigma_scale(spec, g):
    """Sigma^{1/2} G for a factor or a stack of factors."""
    scale = np.asarray(spec.sigma_inv_eigenvalues.y) ** -0.5
    if spec.beta == 4:
        scale = np.repeat(scale, 2)
    return scale[:, None] * g


def _invert(beta, g):
    inv = np.linalg.inv(g)
    return _quaternion_symmetrize(inv) if beta == 4 else inv


def _reversed_adjoint(g):
    """J G^H J of each stacked matrix, J the order reversal, by indexing and
    conjugation only, so the embedding of a quaternion matrix gives the
    embedding of one, exactly.  A view of real G; ndarray.conj() copies
    complex G (beta = 2 and 4)."""
    return g[..., ::-1, ::-1].conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Factor streams
# ---------------------------------------------------------------------------

class FactorStream:
    """Sequential factor source for one Monte Carlo chain.

    Yields raw matrix data (the complex embedding for beta = 4), drawn BLOCK
    steps at a time by the ensemble's ``panel``, or ``factors`` for whole
    factors.  Every step takes the next draw of the stream, inverse steps
    included.  For ensembles mixing factor types (rectangular offset
    classes, Gaussian vs inverse) it keeps the counts of the deterministic
    type schedule and ``last_type``, the type of the last step drawn (None
    before the first); step t's type is entry t of
    _quota_schedule(spec.proportions, [0] * S, N) for every stream.  A
    stream yields either factors or panels, not both.
    """

    #: Always 0: no draw is ever skipped.  The benchmark's draw_alone
    #: (bench/layers.py) still reads it.
    redraws = 0

    def __init__(self, spec, rng):
        self.spec = spec
        self.rng = rng
        self.last_type = None
        self._counts = [0] * len(spec.proportions) if spec.proportions else None

    def schedule(self, b):
        """Type indices of the next b steps, a uint8 array; moves ``last_type``."""
        types = _quota_schedule(self.spec.proportions, self._counts, b)
        self.last_type = types[-1]
        return types

    def blocks(self, n):
        """Yield n factors as (b, rows, cols) arrays of at most BLOCK steps.

        A factor is the panel as wide as the factor (see Ensemble.width), so
        non-square rectangular factors, whose shape changes from step to
        step, come zero-padded: each fills the top-left corner of a zero
        D x D square, D = d + max(offsets) (twice that for the quaternion
        embedding).  The generator is consumed exactly as by drawing factor
        by factor, so BLOCK does not change the stream.  An inverse step
        whose Gaussian draw is singular raises ArithmeticError naming the
        step (from 1).
        """
        for done in range(0, n, BLOCK):
            b = min(BLOCK, n - done)
            start = (self.rng.bit_generator.state, self.last_type,
                     None if self._counts is None else list(self._counts))
            try:
                block = self.spec.factors(self, b)
            except np.linalg.LinAlgError:
                raise ArithmeticError(
                    f"singular factor at step {done + self._first_singular(start, b)}") from None
            yield block

    def panels(self, n, k):
        """Yield the panels of n steps (see Ensemble.panel) as (b, rows, k)
        arrays of at most BLOCK steps.  Like the factors, they do not
        depend on BLOCK."""
        for done in range(0, n, BLOCK):
            yield self.spec.panel(self, min(BLOCK, n - done), k)

    def factors(self, n):
        """Yield n factors one by one."""
        for block in self.blocks(n):
            yield from block

    def _first_singular(self, start, b):
        """The step, from 1, of the first of the b factors drawn from
        ``start`` (generator state, last_type and schedule counts) that
        np.linalg.inv rejects: they are drawn again one at a time, from a
        copy of the generator."""
        replay = FactorStream(self.spec, copy.deepcopy(self.rng))
        replay.rng.bit_generator.state, replay.last_type, replay._counts = start
        for step in range(1, b + 1):
            try:
                self.spec.factors(replay, 1)
            except np.linalg.LinAlgError:
                return step


def chain_rng(master_seed, chain_index):
    """Generator for one chain: PCG64 seeded by SeedSequence(master_seed, spawn_key=(chain_index,))."""
    master_seed = _check_int("master_seed", master_seed)
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    ss = np.random.SeedSequence(master_seed, spawn_key=(_check_int("chain_index", chain_index),))
    return np.random.default_rng(ss)
