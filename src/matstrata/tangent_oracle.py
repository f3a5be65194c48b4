"""Tangent-space rank oracle for every dimension formula.

Each matrix class is a parametrized set: transforms act on a base matrix
whose multiplicities are prescribed, and the values themselves may move.
The oracle assembles the differential of that parametrization at a generic
base point and counts its numerical rank, which must equal the closed-form
stratum dimension.  Differentials are assembled in the frame where the
base transform is the identity.  Rank is an orbit invariant: a transform of
the class's group maps the stratum onto itself, and the tangent space at a
point invertibly onto the tangent space at its image, so every point of an
orbit gives the same rank and the identity frame loses nothing.

Each class has one operator, built by :func:`_operator` in one batched
pass over all its tangent directions and over a stack of base points: the
matrix units' images are written entry by entry (:func:`_unit_images`),
the skew bases' images come from one batched matmul.  :func:`verify_class`
handles a profile in one array pass: it builds all trials' base points as
one stack, assembles their operators as one stack, permutes it once, reads
it with stacked SVDs and decides the free and the fixed stack with one
:func:`~matstrata.ranktools.decide_ranks` call each.  At fixed values the
operator's kernel is the stabiliser of the base point:
:func:`verify_class` keeps the read of its first trial's fixed-values
operator, which :func:`matstrata.commutant.read_stabilizer` turns into the
stabiliser.
Every SVD goes through :func:`_svd`, which permutes the operator's rows and
columns into the connected blocks of its own nonzero pattern
(:func:`_block_order`).  At the identity-frame base points the operators
split into many small blocks, and LAPACK skips the zero work between them
only when each block's entries sit together.  The order is read off the
assembled matrix, so it assumes nothing about the structure under test,
and it is exact: permutation matrices are orthogonal, so the singular
values are unchanged and the right singular vectors are mapped back.

Group-transform classes map images to real coordinates, so their ranks are
real ranks.  The complex-linear classes (diagonalizable, Jordan) keep the
complex operator and double its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import factory
from .formulas import (
    COMPLEX_FIELD_CLASSES,
    MatrixClass,
    dimension_report,
    resolve_alias,
)
from .profiles import JordanStructure, MultiplicityProfile, SingularProfile
from .ranktools import (
    DEFAULT_GAP_REQUIREMENT,
    DEFAULT_TOLERANCE,
    InconclusiveRankError,
    RankDecision,
    decide_ranks,
)

_MEMBERSHIP_TOL = 1e-10

_SPECTRUM_KIND = {
    MatrixClass.DIAGONALIZABLE_COMPLEX: "complex",
    MatrixClass.NORMAL: "complex",
    MatrixClass.HERMITIAN: "real",
    MatrixClass.UNITARY: "unimodular",
    MatrixClass.REAL_SYMMETRIC: "real",
    MatrixClass.JORDAN: "complex",
    MatrixClass.SINGULAR_VALUES: "positive-decreasing",
}

#: Classes whose stabiliser's null basis is checked for structure (the
#: Toeplitz commutant, the coupled QP blocks), so their kernel read keeps
#: the right singular vectors.
STRUCTURED_CLASSES = frozenset({MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES})


def _predicted_ranks(matrix_class: MatrixClass, data) -> tuple[int, int]:
    """Stratum dimensions the probe must reproduce with values free and
    fixed, as real ranks, from one dimension report."""
    report = dimension_report(matrix_class, data)
    if report.field_kind == "complex":
        report = report.realified()
    free = report.stratum_dim
    return free, free - dict(report.terms).get("value-parameters", 0)


def predicted_rank(matrix_class: MatrixClass, data, free_values: bool = True) -> int:
    """Stratum dimension the probe must reproduce, as a real rank."""
    free, fixed = _predicted_ranks(matrix_class, data)
    return free if free_values else fixed


def _frozen(basis):
    basis.flags.writeable = False
    return basis


@cache
def _skew_symmetric(n):
    """Basis E_ij - E_ji (i < j) of the real antisymmetric n-by-n matrices."""
    i, j = np.triu_indices(n, 1)
    t = np.arange(i.size)
    basis = np.zeros((i.size, n, n))
    basis[t, i, j] = 1.0
    basis[t, j, i] = -1.0
    return _frozen(basis)


@cache
def _skew_hermitian(n):
    """Real basis of the skew-Hermitian n-by-n matrices: i E_jj for each j,
    then E_ij - E_ji and i (E_ij + E_ji) for each i < j."""
    i, j = np.triu_indices(n, 1)
    d = np.arange(n)
    re = n + 2 * np.arange(i.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[d, d, d] = 1j
    basis[re, i, j] = 1.0
    basis[re, j, i] = -1.0
    basis[re + 1, i, j] = basis[re + 1, j, i] = 1j
    return _frozen(basis)


def _unit_images(base):
    """Images ``E_ij B - B E_ij`` (..., n*n, n, n) of the matrix units in
    row-major order, without a matmul: image ``ij`` holds row j of ``B`` in
    its row i, less column i of ``B`` in its column j."""
    *lead, n, _ = base.shape
    images = np.zeros((*lead, n, n, n, n), dtype=base.dtype)
    d = np.arange(n)
    images[..., d, :, d, :] = base
    images[..., :, d, :, d] -= base.swapaxes(-1, -2)
    return images.reshape(*lead, n * n, n, n)


def _indicators(parts, shape):
    """Diagonal indicator of each value's slots, in profile order."""
    slots = np.arange(sum(parts))
    out = np.zeros((len(parts), *shape))
    out[np.repeat(np.arange(len(parts)), parts), slots, slots] = 1.0
    return out


def _require(images, residual, message):
    """Raise unless every image's residual is negligible at its own scale."""
    worst = np.abs(residual).max(axis=(-2, -1), initial=0.0)
    scale = 1.0 + np.abs(images).max(axis=(-2, -1), initial=0.0)
    if np.any(worst > _MEMBERSHIP_TOL * scale):
        raise ValueError(f"{message} (residual {worst.max():.3e})")


def _flat(images):
    *lead, n, m = images.shape
    return images.reshape(*lead, n * m).swapaxes(-1, -2)


def _realified(images):
    flat = _flat(images)
    return np.concatenate([flat.real, flat.imag], axis=-2)


def _hermitian_coords(images):
    _require(images, images - images.conj().swapaxes(-1, -2), "image is not Hermitian")
    n = images.shape[-1]
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    upper = images[..., i, j]
    coords = [images[..., d, d].real, upper.real, upper.imag]
    return np.concatenate(coords, axis=-1).swapaxes(-1, -2)


def _symmetric_coords(images):
    _require(images, images - images.swapaxes(-1, -2), "image is not symmetric")
    i, j = np.triu_indices(images.shape[-1])
    return images[..., i, j].swapaxes(-1, -2)


def _operator(matrix_class, data, base, free_values):
    """Stacked images (..., p, n, m) of the class's tangent directions at
    ``base``, a base point (n, m) or a stack of them (..., n, m), the map
    from stacked images to coordinate columns (..., rows, p), and the
    number of value directions.

    The transform directions come first, in basis order; with
    ``free_values`` one direction per distinct value follows (two for
    normal: real and imaginary shifts), so dropping the trailing value
    columns leaves the fixed-values operator.  ``data`` is only read for the
    value directions."""
    cls = resolve_alias(matrix_class)
    *lead, n, m = base.shape
    point = base[..., None, :, :]
    if cls is MatrixClass.SINGULAR_VALUES:
        images = [_skew_symmetric(n) @ point, -point @ _skew_symmetric(m)]
        coords = _flat
    elif cls in COMPLEX_FIELD_CLASSES:
        images, coords = [_unit_images(base)], _flat
    else:
        if cls is MatrixClass.REAL_SYMMETRIC:
            basis, coords = _skew_symmetric(n), _symmetric_coords
        else:
            basis = _skew_hermitian(n)
            coords = _hermitian_coords if cls is MatrixClass.HERMITIAN else _realified
        images = [basis @ point - point @ basis]
    transforms = sum(x.shape[-3] for x in images)
    if free_values:
        # One shared shift per eigenvalue, acting on all of its Jordan blocks.
        parts = data.multiplicities if cls is MatrixClass.JORDAN else data.parts
        values = _indicators(parts, (n, m))
        if cls is MatrixClass.NORMAL:
            values = np.stack([values, 1j * values], axis=1).reshape(-1, n, n)
        elif cls is MatrixClass.UNITARY:
            values = 1j * values * np.diagonal(point, axis1=-2, axis2=-1)[..., None, :]
        images.append(np.broadcast_to(values, (*lead, *values.shape[-3:])))
    images = np.concatenate(images, axis=-3)
    if cls is MatrixClass.UNITARY:
        drift = images @ point.conj().swapaxes(-1, -2) + point @ images.conj().swapaxes(-1, -2)
        _require(images, drift, "direction leaves the unitary tangent space")
    return images, coords, images.shape[-3] - transforms


def _block_order(op):
    """Row and column order that gathers ``op`` into the connected blocks of
    its nonzero pattern.

    Each column is labelled with the smallest column index of its connected
    component in the bipartite graph of ``op != 0`` (rows joined to the
    columns of their nonzeros), each row with the label of its nonzeros.
    Labels spread by alternating row and column minima, with pointer
    jumping, until they stop changing.  A stable sort by label lists the
    blocks in order of their first column, each block's rows and columns in
    their original order, and all-zero rows and columns last."""
    nz = op != 0
    count = nz.shape[1]
    label = np.arange(count)
    while True:
        row_label = np.where(nz, label, count).min(axis=1, initial=count)
        spread = np.where(nz, row_label[:, None], count).min(axis=0, initial=count)
        merged = np.minimum(label, spread)
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    label[~nz.any(axis=0)] = count
    return np.argsort(row_label, kind="stable"), np.argsort(label, kind="stable")


def _svd(op, vectors=False, order=None, cols=None):
    """Singular values of ``op``, a matrix (R, C) or a stack of them
    (..., R, C), in descending order and, with ``vectors``, its full right
    singular vectors; the one SVD site of the package.

    The SVD is taken of ``op`` with its rows and columns permuted by
    ``order``, a ``(rows, cols)`` pair that defaults to
    :func:`_block_order` of ``op``, a single matrix; a stack is permuted by
    one order, all its matrices at once, and decomposed by one
    ``np.linalg.svd`` call.  With ``cols``, ``op`` is taken as already
    permuted, its columns in the order ``cols``, and decomposed as it is.
    Permutation matrices are orthogonal, so the permuted matrix has exactly
    the singular values of ``op``, and its right singular vectors are those
    of ``op`` with their entries permuted; they are mapped back here, so the
    rows of ``vh`` from the rank on span the kernel of ``op`` itself.  Any
    order is exact, a good one only faster: LAPACK's bidiagonalisation trims
    each reflector to its last nonzero row and column, so it skips the zero
    work between blocks only when each block's entries sit together."""
    *lead, r, c = op.shape
    if not op.size:
        eye = np.broadcast_to(np.eye(c, dtype=op.dtype), (*lead, c, c))
        return np.zeros((*lead, min(r, c))), eye.copy() if vectors else None
    if cols is None:
        rows, cols = _block_order(op) if order is None else order
        op = op[..., rows, :][..., cols]
    if vectors:
        _, s, vh = np.linalg.svd(op)
        out = np.empty_like(vh)
        out[..., cols] = vh
        return s, out
    return np.linalg.svd(op, compute_uv=False), None


def _base_point(matrix_class, data, seeds):
    """Generic base matrices of the class, stacked (T, n, m): each seed's
    values, sampled from its own generator, in profile order."""
    kind = _SPECTRUM_KIND[resolve_alias(matrix_class)]
    if isinstance(data, JordanStructure):
        gap = factory.JORDAN_SPECTRUM_GAP
        specs = [factory.sample_spectrum(data.num_eigenvalues, kind, s, gap) for s in seeds]
        return factory.make_jordan(data, specs)
    if isinstance(data, SingularProfile):
        count = data.num_distinct
        specs = [factory.sample_spectrum(count, kind, s) if count else None for s in seeds]
        return factory.make_sigma(data, specs)
    if isinstance(data, MultiplicityProfile):
        specs = [factory.sample_spectrum(data.num_distinct, kind, s) for s in seeds]
        return factory.make_block_diagonal_lambda(data, specs)
    raise TypeError(f"unsupported data {type(data)}")


def _probe(matrix_class, data, seeds, free_values):
    """Base points of ``seeds`` stacked (T, n, m), the coordinate matrices of
    the class's operator there (T, rows, columns), and the number of their
    trailing value columns."""
    base = _base_point(matrix_class, data, seeds)
    images, coords, values = _operator(matrix_class, data, base, free_values)
    return base, coords(images), values


def _real_factor(matrix_class):
    """Real coordinates per operator coordinate: 2 for the complex-linear classes."""
    return 2 if resolve_alias(matrix_class) in COMPLEX_FIELD_CLASSES else 1


@dataclass(frozen=True)
class TrialResult:
    rank_free: int
    gap_free: float
    rank_fixed: int
    gap_fixed: float


@dataclass(frozen=True)
class KernelRead:
    """Band-only rank decision of the fixed-values ``operator`` at ``base``,
    whose kernel is the stabiliser of that base point.  ``vh`` holds the full
    right singular vectors (rows from ``decision.rank`` on span the kernel)
    for the :data:`STRUCTURED_CLASSES` and is None for the others."""

    base: np.ndarray
    operator: np.ndarray
    decision: RankDecision
    vh: np.ndarray | None


@dataclass(frozen=True)
class ClassVerdict:
    """Oracle verdict over all trials.  ``kernel`` is the band-only read of
    trial 0's fixed-values operator, None when that read is inconclusive;
    it is taken even when the oracle is not conclusive."""

    verdict: str  # PASS | FAIL | INCONCLUSIVE
    predicted_free: int
    predicted_fixed: int
    trials: tuple[TrialResult, ...]
    kernel: KernelRead | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def verify_class(
    matrix_class: MatrixClass,
    data,
    trials: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOLERANCE,
    gap_requirement: float = DEFAULT_GAP_REQUIREMENT,
) -> ClassVerdict:
    """Probe the class at independent base points against the closed form.

    PASS means every probe was conclusive and reproduced the predicted rank
    with values both free and frozen; a single bad gap makes the verdict
    INCONCLUSIVE (not FAIL, which is reserved for a genuine rank mismatch).
    All trials are handled at once: their base points are built as one
    stack, and one stack of free-values operators is assembled there, whose
    transform columns are the fixed-values operators.  The block order of
    :func:`_block_order` is taken once, from trial 0's free operator, and
    the free stack is permuted by it once; the fixed stack is its transform
    columns, taken in that order.  A trial whose nonzero pattern differed
    would only take a slower SVD, never a different one.  The free stack is
    read by one SVD call and the fixed stack by another; for the
    :data:`STRUCTURED_CLASSES` trial 0's fixed operator is read apart, with
    vectors.  Each stack is then decided by one
    :func:`~matstrata.ranktools.decide_ranks` call.  Row 0 of the fixed
    decisions, with the indecision band alone, is
    :attr:`ClassVerdict.kernel`'s; the oracle reads every row with
    ``gap_requirement``, in trial order and free before fixed, and the
    verdict reports the trials up to the first bad one.  The trials after
    it were sampled, read and decided, but are not reported.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    predicted_free, predicted_fixed = _predicted_ranks(matrix_class, data)
    real = _real_factor(matrix_class)
    seeds = [factory.derive_seed(seed, trial) for trial in range(trials)]
    base, differential, values = _probe(matrix_class, data, seeds, True)
    columns = differential.shape[-1]
    fixed_columns = columns - values
    rows, cols = _block_order(differential[0])
    ordered = differential[..., rows, :][..., cols]
    free_s, _ = _svd(ordered, cols=cols)
    transform = cols < fixed_columns
    fixed_ordered, fixed_cols = ordered[..., transform], cols[transform]
    del ordered  # free the permuted free stack before the fixed SVDs' buffers
    if resolve_alias(matrix_class) in STRUCTURED_CLASSES:
        first_s, vh = _svd(fixed_ordered[0], True, cols=fixed_cols)
        rest_s, _ = _svd(fixed_ordered[1:], cols=fixed_cols)
        fixed_s = np.concatenate([first_s[None], rest_s])
    else:
        fixed_s, vh = _svd(fixed_ordered, cols=fixed_cols)
    free = decide_ranks(free_s, columns, tol)
    fixed = decide_ranks(fixed_s, fixed_columns, tol)
    try:
        kernel = KernelRead(base[0], differential[0, :, :fixed_columns], fixed.decision(0), vh)
    except InconclusiveRankError:
        kernel = None
    results = []
    for trial in range(trials):
        try:
            free_read = free.decision(trial, gap_requirement)
            fixed_read = fixed.decision(trial, gap_requirement)
        except InconclusiveRankError as err:
            return ClassVerdict(
                "INCONCLUSIVE",
                predicted_free,
                predicted_fixed,
                tuple(results),
                kernel,
                f"trial {trial}: {err}",
            )
        rank_free, rank_fixed = real * free_read.rank, real * fixed_read.rank
        results.append(
            TrialResult(rank_free, free_read.gap_ratio, rank_fixed, fixed_read.gap_ratio)
        )
        if rank_free != predicted_free or rank_fixed != predicted_fixed:
            return ClassVerdict(
                "FAIL",
                predicted_free,
                predicted_fixed,
                tuple(results),
                kernel,
                f"trial {trial}: observed ({rank_free}, {rank_fixed}), "
                f"predicted ({predicted_free}, {predicted_fixed})",
            )
    return ClassVerdict("PASS", predicted_free, predicted_fixed, tuple(results), kernel)
