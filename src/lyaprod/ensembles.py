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
* Every kind draws only through Ensemble.panel (general covariance scales
  the rows of its draw there: Sigma^{1/2} G), and two maps read that one
  draw, both through the one field map _field_pairs: Ensemble.columns
  gives the step kernel's columns, and Ensemble.factors gives whole factors
  from the draw as wide as a factor.  Only whole factors are matrices
  (FactorStream.blocks, _to_field).  The panels that run_chain steps stay
  the raw (b, rows, cols, beta) normals of their draw until _batch_last
  writes them, scaled, straight into the step kernel's (cols, rows, b, C)
  layout: for beta = 4 only the even columns of the embedding, alpha above
  -conj(beta), which stand for their pairs.
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
  draw of its stream, inverse steps included.  The step kernel gives each
  lane of its batch, one step of one chain, the bits it has in any batch
  (_orthonormalize), so neither BLOCK nor the chains a chain runs with
  change its increments.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .sigma import SigmaSpec
from .specfun import _check_int
from .theory import RectangularSpec, _check_beta, _check_dim, _check_share, _check_truncation

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
    shapes = shapes if isinstance(shapes, RectangularSpec) else RectangularSpec(shapes)
    if len(shapes.shapes) > 256:
        raise ValueError(f"at most 256 offset classes are supported, got {len(shapes.shapes)}")
    return shapes


#: Validation and normalization of every ensemble field, keyed by field name.
_NORMALIZE = {
    "beta": _check_beta,
    "d": _check_dim,
    "n": _check_truncation,
    "alpha_plus": _check_share,
    "sigma_inv_eigenvalues": SigmaSpec.of,
    "shapes": _check_shapes,
}


@dataclass(frozen=True)
class Ensemble:
    """A factor ensemble: Dyson index beta plus the fields of its kind.

    ``kind`` is the JSON name of the ensemble.  ``width`` is the column count
    of a whole factor: d, or D = d + max(offsets) for rectangular factors,
    which come zero-padded to D x D (only the explicit product of
    stability_exponents needs width == d).  ``proportions`` gives the share
    of each factor type on the deterministic quota schedule, 0 for a type
    that never occurs (None when there is one type).
    Every kind draws only through ``panel``, and two maps read a block's
    draw: ``columns`` turns it, once _batch_last has written it in the
    kernel's layout, into the columns the kernel factors, and ``factors``
    turns the draw of panels as wide as a factor into whole matrices.
    Rectangular factors and general covariance (Sigma^{1/2} G, its rows
    scaled in the draw) override ``panel``, truncated unitaries all three.
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
        when there is one type): -1 marks the inverse steps (see panel)."""
        return (1,) * len(self.proportions or (1,))

    def panel(self, rng, types, k, previous):
        """The raw draw of the steps of quota-schedule ``types`` from ``rng``:
        a (len(types), rows, cols, beta) array of the real Gaussian
        components of a rows x cols matrix per step, which _to_field maps to
        field entries and _batch_last writes into the step kernel's layout.
        For a Gaussian kind its matrix has the law of the first k columns of
        a factor.  ``previous`` is the type of the step before them (None
        before step 1); only whole rectangular factors read it.  Every kind
        here is right-unitarily invariant, so a panel stands for
        A_n Q_{n-1}[:, :k] (see the montecarlo module).  Here it is the
        Gaussian draw of every step, d columns wide whatever k on kinds with
        inverse steps.  An inverse step, a factor G^-1 of a Gaussian G, draws
        no inverse: if the reversed adjoint J G^H J = Q R (J the order
        reversal), then G^-1 = (J Q J)(J R^-H J) is the QR factorization of
        G^-1, with R diagonal 1/conj(r_{d+1-i}) (the identity behind the
        inverse law in the theory module), so run_chain factors J G^H J (see
        _batch_last) and negates its log|diag R| in reversed order.  G is not
        checked: a singular draw gives a zero R diagonal entry, which
        run_chain reports as a non-finite increment of its step.
        """
        cols = self.d if -1 in self.signs else k
        return rng.standard_normal((len(types), self.d, cols, self.beta))

    def columns(self, a):
        """The columns the step kernel factors, from the (k, rows, b, C)
        array that _batch_last wrote from this kind's panels, in place: the
        array itself, whose columns have the law of A[:, :k]."""
        return a

    def factors(self, g):
        """The whole factors of a block from ``g``, the draw of its panels as
        wide as a factor: those panels mapped to field entries (the complex
        embedding for beta = 4), scaling ``g`` in place."""
        return _to_field(self.beta, g)


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

    def panel(self, rng, types, k, previous):
        """Sigma^{1/2} G: the Gaussian draw with row i scaled in place by
        y_i^{-1/2}, one scale for all beta components of an entry."""
        g = super().panel(rng, types, k, previous)
        g *= (np.asarray(self.sigma_inv_eigenvalues.y) ** -0.5)[:, None, None]
        return g


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
    #: the mixture at Gaussian share 0: type t has the law TheorySpectrum.laws[t]
    proportions = (0.0, 1.0)
    signs = (1, -1)


@dataclass(frozen=True)
class GaussianInverseMixture(Ensemble):
    d: int
    alpha_plus: float

    kind = "gaussian_inverse_mixture"
    signs = (1, -1)

    @property
    def proportions(self):
        return (self.alpha_plus, 1.0 - self.alpha_plus)


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

    def panel(self, rng, types, k, previous):
        """The components of Gaussians of shape (d + nu_t, min(k, d + nu_{t-1}))
        from one draw (nu_0 = 0), each in the top-left corner of a zero D x k
        panel.  For k <= d a panel is a (d + nu_t) x k Gaussian padded with
        zero rows; for k = D it is the whole factor.  The mask's True entries, in C order,
        run through each step's corner row by row, so the draw fills the
        panels as single draws would."""
        offsets = np.array(self.shapes.offsets)
        first = 0 if previous is None else offsets[previous]
        nus = np.concatenate(([first], offsets[types]))
        index = np.arange(self.width)
        mask = ((index[:, None] < self.d + nus[1:, None, None])
                & (index[:k] < self.d + nus[:-1, None, None]))
        comps = np.zeros(mask.shape + (self.beta,))
        comps[mask] = rng.standard_normal((int(np.count_nonzero(mask)), self.beta))
        return comps


@dataclass(frozen=True)
class TruncatedUnitary(Ensemble):
    d: int
    n: int

    kind = "truncated_unitary"

    def panel(self, rng, types, k, previous):
        """The components of a (d + n) x k Gaussian, whose Q is k Haar
        columns (see columns)."""
        return rng.standard_normal((len(types), self.d + self.n, k, self.beta))

    def columns(self, a):
        """The top d rows of k Haar columns: the Q of the Gaussians in ``a``,
        all chains of a block orthonormalised in one call of the
        Gram-Schmidt kernel (_orthonormalize), which gives each chain's step
        the bits it has alone.  Its R has a positive diagonal, so the
        columns are Haar without a phase fix, for beta = 4 too (each even
        column of the embedding stands for its pair)."""
        _orthonormalize(a, self.beta)
        return a[:, :2 * self.d if self.beta == 4 else self.d]

    def factors(self, g):
        """The top d rows of d Haar columns in dimension d + n: the
        phase-fixed np.linalg.qr of the Gaussians of ``g`` (_haar_columns).
        The stream of whole factors, and product_chain with it, stays
        independent of the Gram-Schmidt kernel."""
        q = _haar_columns(self.beta, super().factors(g))
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


# ---------------------------------------------------------------------------
# Gaussian and Haar sampling (batched; stream-compatible with single draws)
# ---------------------------------------------------------------------------

def _to_field(beta, comps):
    """(..., beta) real Gaussian components -> entries of variance 1.

    beta is also the number of real components per entry; quaternion
    entries come out as the complex embedding.  ``comps`` is scaled in
    place; for beta = 1 and 2 the result is a view of it.
    """
    pairs = _field_pairs(beta, comps)
    if beta != 4:
        return pairs[..., 0]
    # the pairs are the even columns, their partners J conj the odd ones
    r, c = pairs.shape[-3:-1]
    out = np.empty(pairs.shape[:-3] + (2 * r, 2 * c), dtype=np.complex128)
    out[..., 0::2, 0::2] = pairs[..., 0]
    out[..., 1::2, 0::2] = pairs[..., 1]
    out[..., 0::2, 1::2] = -np.conj(pairs[..., 1])
    out[..., 1::2, 1::2] = np.conj(pairs[..., 0])
    return out


def _field_pairs(beta, comps):
    """(..., beta) real Gaussian components -> a view of them, scaled in
    place, as the (..., beta // 2 or 1) entries of one column of their
    field matrix: the entry for beta = 1 and 2, and for beta = 4 the
    even-column pair of the embedding (see the module docstring), alpha
    above -conj(beta).  _to_field and _batch_last both write from it."""
    if beta == 1:
        return comps
    comps *= _SQRT_HALF if beta == 2 else 0.5
    if beta == 4:
        np.negative(comps[..., 2], out=comps[..., 2])
    return comps.view(np.complex128)


def _gaussian_data(beta, rows, cols, rng, size=None):
    shape = (rows, cols) if size is None else (size, rows, cols)
    return _to_field(beta, rng.standard_normal(shape + (beta,)))


def _haar_columns(beta, g):
    """The Q of each rows x k Gaussian of ``g`` (field matrices) times the
    phases of R's diagonal (see the module docstring): k orthonormal columns
    with the law of the first k of a rows x rows Haar unitary."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return _quaternion_symmetrize(q) if beta == 4 else q


# ---------------------------------------------------------------------------
# Gram-Schmidt step kernel (batch axes last)
# ---------------------------------------------------------------------------

#: By beta, the ufunc that writes each row of a column pair of J G^H J
#: from the reversed entries of _field_pairs (see _batch_last): their
#: conjugate, but for beta = 4 alpha as it is above conj(-conj(beta)).
_ADJOINT = {1: (np.conjugate,), 2: (np.conjugate,), 4: (np.positive, np.conjugate)}


def _batch_last(panels, beta, inverse=None):
    """(b, rows, cols, beta) real Gaussian components (see Ensemble.panel),
    one array per chain -> the C-ordered (cols, rows, b, C) array of the
    columns of their field matrices that _orthonormalize takes (two rows
    per quaternion row: the even columns of the embedding only).

    Each panel is scaled in place (_field_pairs) and copied once, by
    indexing and conjugation only, so every entry is the float64 that
    _to_field makes.  For the square panels G of the steps that
    ``inverse`` marks the copy writes J G^H J (see Ensemble.panel): column
    j is row rows-1-j of G reversed, conjugated, which for the embedding of
    a quaternion matrix is the embedding of one, exactly.
    """
    b, rows, cols = panels[0].shape[:3]
    p = 2 if beta == 4 else 1
    a = np.empty((cols, p * rows, b, len(panels)),
                 dtype=np.float64 if beta == 1 else np.complex128)
    by_pair = a.reshape(cols, rows, p, b, len(panels))
    for c, g in enumerate(panels):
        pairs = _field_pairs(beta, g)
        out = by_pair[..., c]
        if inverse is None:
            out[...] = pairs.transpose(2, 1, 3, 0)
        else:
            np.copyto(out, pairs.transpose(2, 1, 3, 0), where=~inverse)
            reversed_ = pairs[:, ::-1, ::-1].transpose(1, 2, 3, 0)
            for i, write in enumerate(_ADJOINT[beta]):
                write(reversed_[:, :, i], out=out[:, :, i], where=inverse)
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
    the whole batch at once.  Each lane of the batch (one step of one
    chain) gets the bits it has in any wider batch: numpy sums a reduction
    pairwise only when it is the innermost loop, as it is over the rows of a
    batch of one lane, so such a batch runs as two copies of its lane, whose
    rows are then summed one after another as in every wider batch.  For
    beta = 4, ``a`` holds the even columns of the embedding only: each is
    orthogonalised against the pairs (q, _partner(q)) of the columns before
    it, and its entry is the squared R diagonal entry of both columns of its
    pair.  A zero or non-finite
    column, or one whose squared norm overflows, gives a zero or non-finite
    entry, and NaN columns from there on, without a warning; callers check
    the entries.
    """
    if a[0, 0].size == 1:
        pair = np.concatenate((a, a), axis=-1)
        diag = _orthonormalize(pair, beta)
        a[...] = pair[..., :1]
        return diag[..., :1]
    diag = np.empty(a.shape[:1] + a.shape[2:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

def _quota_schedule(proportions, steps):
    """The uint8 type indices of the first ``steps`` steps of the quota round-robin.

    Each step takes the type whose quota is most overdue (Sainte-Lague
    priority, ties by position), so prefix frequencies track the proportions
    to within one occurrence.  The j-th pick of type s (from 0) falls due at
    (j + 0.5)/p_s, so the schedule is the ``steps`` smallest due times in
    order, ties by position; a type with p_s = 0 is never picked.  Of T live
    types, floor(t p_s + 1/2) picks of type s, at least t - T/2 in all, fall
    due by time t, so type s takes at most floor(t p_s + 1/2) of the steps
    for t = steps + T/2 (one more candidate each absorbs rounding).
    """
    live = [s for s, p in enumerate(proportions) if p > 0]
    horizon = steps + 0.5 * len(live)
    picks = [math.floor(horizon * proportions[s] + 0.5) + 1 for s in live]
    due = [(np.arange(n) + 0.5) / proportions[s] for s, n in zip(live, picks)]
    # a stable sort keeps equal due times in type order
    order = np.argsort(np.concatenate(due), kind="stable")[:steps]
    return np.repeat(np.array(live, dtype=np.uint8), picks)[order]


def _live_types(spec):
    """The quota-schedule types of ``spec`` with a non-zero share, in order."""
    return [t for t, p in enumerate(spec.proportions or (1,)) if p > 0]


def _step_types(spec, n):
    """The quota-schedule type of each of the first n steps of every stream
    of ``spec``: all t when t is its one live type (_live_types), as for
    identically distributed factors (t = 0).  A run computes it once and
    hands it to each of its streams (see FactorStream)."""
    live = _live_types(spec)
    if len(live) == 1:
        return np.full(n, live[0], dtype=np.uint8)
    return _quota_schedule(spec.proportions, n)


def _inverse_steps(spec, types):
    """Which steps of quota-schedule ``types`` are inverse steps (Ensemble.signs
    -1), a boolean array, or None when ``spec`` has none."""
    if -1 not in spec.signs:
        return None
    return np.array(spec.signs)[types] < 0


def _invert(beta, g):
    inv = np.linalg.inv(g)
    return _quaternion_symmetrize(inv) if beta == 4 else inv


# ---------------------------------------------------------------------------
# Factor streams
# ---------------------------------------------------------------------------

class FactorStream:
    """Sequential factor source for one Monte Carlo chain: an ensemble and
    the Generator its draws come from, and no other state.

    Yields, BLOCK steps at a time, the raw normals of the ensemble's
    ``panel`` (panels), or whole factors as matrices, the complex embedding
    for beta = 4 (blocks, factors), which blocks maps from the panels as
    wide as a factor (Ensemble.factors).  Every step takes the next draw of
    the generator, inverse steps included.  The caller hands in the
    quota-schedule types of the steps, _step_types(spec, N), which a run
    computes once for all its streams; the types of a call start at step 1,
    so a stream is drawn by one call of blocks, panels or factors.
    """

    #: Always 0: no draw is ever skipped.  The benchmark's draw_alone
    #: (bench/layers.py) still reads it.
    redraws = 0

    def __init__(self, spec, rng):
        self.spec = spec
        self.rng = rng

    def blocks(self, types):
        """Yield the factors of the steps of ``types`` as (b, rows, cols)
        arrays of at most BLOCK steps.

        A factor is the map (Ensemble.factors) of the panel as wide as the
        factor (see Ensemble.width), so non-square rectangular factors,
        whose shape changes from step to step, come zero-padded: each fills
        the top-left corner of a zero D x D square, D = d + max(offsets)
        (twice that for the quaternion embedding).  The generator is
        consumed exactly as by drawing factor by factor, so BLOCK does not
        change the stream.  The draws of a block's inverse steps
        (_inverse_steps) are inverted in one call; if one is singular, the
        first whose slogdet sign is 0 raises ArithmeticError naming its
        step (from 1).
        """
        inverse = _inverse_steps(self.spec, types)
        done = 0
        for g in self.panels(types, self.spec.width):
            block = self.spec.factors(g)
            if inverse is not None:
                steps = np.flatnonzero(inverse[done:done + len(block)])
                try:
                    block[steps] = _invert(self.spec.beta, block[steps])
                except np.linalg.LinAlgError:
                    # slogdet runs inv's LU (getrf): sign 0 is its exact zero pivot
                    s = steps[np.linalg.slogdet(block[steps])[0] == 0][0]
                    raise ArithmeticError(f"singular factor at step {done + s + 1}") from None
            done += len(block)
            yield block

    def panels(self, types, k):
        """Yield the draws of the panels of the steps of ``types`` (see
        Ensemble.panel), the one per-block draw of run_chain and of blocks:
        (b, rows, cols, beta) arrays of real normals, at most BLOCK steps
        each.  They do not depend on BLOCK."""
        for done in range(0, len(types), BLOCK):
            yield self.spec.panel(self.rng, types[done:done + BLOCK], k,
                                  types[done - 1] if done else None)

    def factors(self, n):
        """Yield the first n factors one by one."""
        for block in self.blocks(_step_types(self.spec, n)):
            yield from block


def chain_rng(master_seed, chain_index):
    """Generator for one chain: PCG64 seeded by SeedSequence(master_seed, spawn_key=(chain_index,))."""
    ss = np.random.SeedSequence(_check_int("master_seed", master_seed, 0),
                                spawn_key=(_check_int("chain_index", chain_index, 0),))
    return np.random.default_rng(ss)
