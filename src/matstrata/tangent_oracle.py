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

Each class has one operator: the coordinate columns of the differential,
transform directions first and one column per value direction last
(:func:`_operator`).  Its transform columns alone are the fixed-values
operator, whose kernel is the stabiliser of the base point.
:func:`verify_class` handles a profile in one array pass over a stack of
trials: one assembly, one read of both sides (:func:`_split_read`), one
:func:`~matstrata.ranktools.decide_ranks` call for both, and one
:func:`matstrata.commutant.read_stabilizer` call on trial 0's fixed
operator, whose stabiliser the verdict carries.  Every SVD is values-only.

Group-transform classes map images to real coordinates, so their ranks are
real ranks.  The complex-linear classes (diagonalizable, Jordan) count over
the complex field: their operator is read at a real base point
(:data:`_SPECTRUM_KIND` says why that suffices) and its rank doubled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import factory
from .commutant import Stabilizer, _frozen, _triangle, read_stabilizer
from .formulas import (
    COMPLEX_FIELD_CLASSES,
    DimensionReport,
    MatrixClass,
    dimension_report,
    resolve_alias,
)
from .profiles import JordanStructure, MultiplicityProfile, SingularProfile
from .ranktools import (
    DEFAULT_GAP_REQUIREMENT,
    DEFAULT_TOLERANCE,
    InconclusiveRankError,
    decide_ranks,
)

_MEMBERSHIP_TOL = 1e-10

#: Spectrum kind of each class's base points.  Jordan and diagonalizable
#: points are real although their counts are over the complex field: the
#: rank is the same at every point of a stratum, distinct real values give
#: a point of the complex stratum, and a real matrix's complex rank is its
#: real rank (Arnold 1971; Edelman, Elmroth and Kågström 1997).  So their
#: operators, and every SVD of them, are real.
_SPECTRUM_KIND = {
    MatrixClass.DIAGONALIZABLE_COMPLEX: "real",
    MatrixClass.NORMAL: "complex",
    MatrixClass.HERMITIAN: "real",
    MatrixClass.UNITARY: "unimodular",
    MatrixClass.REAL_SYMMETRIC: "real",
    MatrixClass.JORDAN: "real",
    MatrixClass.SINGULAR_VALUES: "positive-decreasing",
}


@cache
def _skew_symmetric(n):
    """Basis E_ij - E_ji (i < j) of the real antisymmetric n-by-n matrices."""
    i, j = _triangle(n, 1)
    t = np.arange(i.size)
    basis = np.zeros((i.size, n, n))
    basis[t, i, j] = 1.0
    basis[t, j, i] = -1.0
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


def _skew_hermitian_images(base):
    """Images ``X B - B X`` (..., n*n, n, n) of the real basis of the
    skew-Hermitian matrices, i E_jj for each j, then E_ij - E_ji and
    i (E_ij + E_ji) for each i < j, taken from the unit images without a
    matmul: ``i U_jj``, then ``U_ij - U_ji`` and ``i (U_ij + U_ji)``."""
    *lead, n, _ = base.shape
    units = _unit_images(base).reshape(*lead, n, n, n, n)
    d = np.arange(n)
    i, j = _triangle(n, 1)
    upper, lower = units[..., i, j, :, :], units[..., j, i, :, :]
    pairs = np.stack([upper - lower, 1j * (upper + lower)], axis=-3)
    return np.concatenate([1j * units[..., d, d, :, :], pairs.reshape(*lead, -1, n, n)], axis=-3)


def _indicators(parts, shape):
    """Diagonal indicator of each value's slots, in profile order."""
    slots = np.arange(sum(parts))
    out = np.zeros((len(parts), *shape))
    out[np.repeat(np.arange(len(parts)), parts), slots, slots] = 1.0
    return out


def _require(images, residual, message):
    """Raise unless every image's residual is negligible at its own scale.

    The maxima are taken over the float view, real and imaginary parts
    apart, which is cheaper than the complex modulus.  Since
    ``|r| <= sqrt(2) max(|re r|, |im r|)`` and ``max(|re x|, |im x|) <=
    |x|``, the residual's maximum times sqrt(2) bounds its modulus from
    above and the images' scale is bounded by theirs from below, so this
    never accepts what the modulus check would reject."""
    worst = np.sqrt(2) * np.abs(residual.view(np.float64)).max(axis=(-2, -1), initial=0.0)
    scale = 1.0 + np.abs(images.view(np.float64)).max(axis=(-2, -1), initial=0.0)
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
    i, j = _triangle(n, 1)
    upper = images[..., i, j]
    coords = [images[..., d, d].real, upper.real, upper.imag]
    return np.concatenate(coords, axis=-1).swapaxes(-1, -2)


def _symmetric_coords(images):
    _require(images, images - images.swapaxes(-1, -2), "image is not symmetric")
    i, j = _triangle(images.shape[-1], 0)
    return images[..., i, j].swapaxes(-1, -2)


def _operator(matrix_class, data, base):
    """Coordinate columns (..., rows, p) of the class's tangent directions
    at ``base``, a base point (n, m) or a stack of them (..., n, m), and
    the number of value directions.

    The transform directions come first, in basis order; one direction per
    distinct value follows (two for normal: real and imaginary shifts), so
    dropping the trailing value columns leaves the fixed-values operator.

    Only the real skew-symmetric transforms (real-symmetric, singular
    values) take a matmul with their basis; the others are written from
    ``B``'s entries (:func:`_unit_images`, :func:`_skew_hermitian_images`),
    bit-equal to ``X B - B X``.  Unitary directions are checked tangent to
    the group, ``X B^H + B X^H = 0``, by one matmul of all images' rows
    against ``B^H``; the coordinate maps check Hermitian and symmetric
    images."""
    cls = resolve_alias(matrix_class)
    *lead, n, m = base.shape
    point = base[..., None, :, :]
    if cls is MatrixClass.SINGULAR_VALUES:
        images = [_skew_symmetric(n) @ point, -point @ _skew_symmetric(m)]
        coords = _flat
    elif cls in COMPLEX_FIELD_CLASSES:
        images, coords = [_unit_images(base)], _flat
    elif cls is MatrixClass.REAL_SYMMETRIC:
        basis, coords = _skew_symmetric(n), _symmetric_coords
        images = [basis @ point - point @ basis]
    else:
        images = [_skew_hermitian_images(base)]
        coords = _hermitian_coords if cls is MatrixClass.HERMITIAN else _realified
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
        # A + A^H with A = X B^H is X B^H + B X^H.
        a = (images.reshape(*lead, -1, n) @ base.conj().swapaxes(-1, -2)).reshape(images.shape)
        drift = a + a.conj().swapaxes(-1, -2)
        _require(images, drift, "direction leaves the unitary tangent space")
    return coords(images), values.shape[-3]


def _block_order(pattern, fixed_columns):
    """Row and column order that gathers a matrix with nonzero ``pattern``
    into the connected blocks of that pattern, in five segments, and where
    each segment starts and ends on each side (two lists of six bounds):

    0. value-free blocks of two or more columns;
    1. value-free blocks of one column;
    2. the all-zero rows and columns;
    3. value blocks of two or more columns;
    4. value blocks of one column.

    A value block holds a value column (index ``fixed_columns`` or later).
    Each column is labelled with the smallest column index of its connected
    component in the bipartite graph of ``pattern`` (rows joined to the
    columns of their nonzeros), each row with the label of its nonzeros.
    Labels spread over the nonzero list by row and column minima, with
    pointer jumping, until they stop changing.  A stable sort by segment,
    then label, lists each segment's blocks in order of their first column,
    each block's rows and columns in their original order.  A lone zero
    column is no block.  No entry couples two segments, so the matrix is
    block diagonal in them, with and without its value columns: those all
    sit in segments 3 and 4, and a one-column value block is a value column
    alone."""
    count = pattern.shape[1]
    r, c = np.divmod(np.flatnonzero(pattern), count)
    label = np.arange(count)
    while True:
        row_label = np.full(pattern.shape[0], count)
        np.minimum.at(row_label, r, label[c])
        spread = np.full(count, count)
        np.minimum.at(spread, c, row_label[r])
        merged = np.minimum(label, spread)
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    label[spread == count] = count  # the all-zero columns
    tail = np.zeros(count + 1, dtype=bool)
    tail[label[fixed_columns:]] = True
    segment = 3 * tail + (np.bincount(label, minlength=count + 1) == 1)
    segment[count] = 2
    order, bounds = [], []
    for labels in (row_label, label):
        key = segment[labels]
        order.append(np.argsort(key * (count + 1) + labels, kind="stable"))
        bounds.append([0, *np.cumsum(np.bincount(key, minlength=5)).tolist()])
    return (*order, *bounds)


def _split_read(differential, values):
    """Singular values of a stack (T, R, C) of operators whose last
    ``values`` columns are value directions, with those columns (free) and
    without them (fixed), stacked (2T, min(R, C)): free row t, then fixed
    row T + t, each in no set order and zero-padded, as
    :func:`~matstrata.ranktools.decide_ranks` takes them.

    One :func:`_block_order` is taken from the union nonzero pattern of the
    whole stack, so it splits every trial exactly.  A block-diagonal
    matrix's singular values are its blocks' values plus zeros, so each
    side is read by segment.  A one-column block has one singular value,
    its column's norm; one norm of every column of the stack serves both
    one-column segments.  A multi-column segment is gathered in block order
    and read by a values-only ``np.linalg.svd`` call on all T matrices, the
    package's only SVDs, where it has rows and columns: the value-free
    segment once for both sides, the value segment with all its columns
    (free) and with its transform columns alone (fixed).  A one-sided read
    passes 0 value columns; its value segments are then empty and both
    sides are the same.

    The order is read off the assembled matrices, so it assumes nothing
    about the structure under test, and it is exact: permutation matrices
    are orthogonal.  It only saves time: LAPACK's bidiagonalisation trims
    each reflector to its last nonzero row and column, so it skips the zero
    work between blocks only when each block's entries sit together."""
    trials, size, columns = differential.shape
    fixed_columns = columns - values
    rows, cols, row_at, col_at = _block_order(differential.any(axis=0), fixed_columns)
    norms = np.linalg.norm(differential, axis=-2)

    def svd(block):
        if min(block.shape[-2:]):
            return np.linalg.svd(block, compute_uv=False)
        return norms[..., :0]

    head = differential[..., rows[: row_at[1]], :][..., cols[: col_at[1]]]
    tail_cols = cols[col_at[3] : col_at[4]]
    tail = differential[..., rows[row_at[3] : row_at[4]], :][..., tail_cols]
    value_free = [svd(head), norms[..., cols[col_at[1] : col_at[2]]]]
    free = [*value_free, svd(tail), norms[..., cols[col_at[4] :]]]
    fixed = [*value_free, svd(tail[..., tail_cols < fixed_columns])]
    spectra = np.zeros((2, trials, min(size, columns)))
    for side, parts in zip(spectra, (free, fixed)):
        read = np.concatenate(parts, axis=-1)
        side[:, : read.shape[-1]] = read
    return spectra.reshape(2 * trials, spectra.shape[-1])


def _base_point(matrix_class, data, seed, trials):
    """Generic base matrices of the class, stacked (T, n, m) for T =
    ``trials``: row t of the profile's one ``(T, count)`` spectrum draw
    from ``seed``, in profile order, built by one ``factory.make_*`` call.
    Normal and unitary points are complex128, the others float64."""
    kind = _SPECTRUM_KIND[resolve_alias(matrix_class)]
    gap = factory.DEFAULT_MIN_GAP
    if isinstance(data, JordanStructure):
        make, count, gap = factory.make_jordan, data.num_eigenvalues, factory.JORDAN_SPECTRUM_GAP
    elif isinstance(data, SingularProfile):
        make, count = factory.make_sigma, data.num_distinct
    elif isinstance(data, MultiplicityProfile):
        make, count = factory.make_block_diagonal_lambda, data.num_distinct
    else:
        raise TypeError(f"unsupported data {type(data)}")
    return make(data, factory.sample_spectrum((trials, count), kind, seed, gap))


@dataclass(frozen=True)
class TrialResult:
    rank_free: int
    gap_free: float
    rank_fixed: int
    gap_fixed: float


@dataclass(frozen=True)
class ClassVerdict:
    """Oracle verdict over all trials.  ``report`` is the profile's free
    dimension report, over the class's field, and the predicted ranks are
    its real counts with values free and fixed.  ``stabilizer`` is read from
    the band-only decision of trial 0's fixed-values operator, None when
    that decision is inconclusive; it is read even when the oracle is not
    conclusive."""

    verdict: str  # PASS | FAIL | INCONCLUSIVE
    report: DimensionReport
    predicted_free: int
    predicted_fixed: int
    trials: tuple[TrialResult, ...]
    stabilizer: Stabilizer | None
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
    Both predictions come from one dimension report, which the verdict
    carries as :attr:`ClassVerdict.report`.  All trials are handled at
    once: their base points are built as one stack, trial t from row t of
    one spectrum draw from ``seed``, and one stack of free-values
    operators is assembled there, whose transform columns are the
    fixed-values operators.  :func:`_split_read` reads both sides of the
    stack, and one :func:`~matstrata.ranktools.decide_ranks` call decides
    its 2T rows, free row t and fixed row T + t.  Fixed row T, with the
    indecision band alone, and trial 0's fixed operator give
    :attr:`ClassVerdict.stabilizer` by
    :func:`~matstrata.commutant.read_stabilizer`.  The oracle reads every
    row with ``gap_requirement``, in trial order and free before fixed, and
    the verdict reports the trials up to the first bad one.  The trials
    after it were built, read and decided, but are not reported.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    report = dimension_report(matrix_class, data)
    real = 2 if report.field_kind == "complex" else 1
    predicted_free = real * report.stratum_dim
    predicted_fixed = real * report.fixed().stratum_dim
    base = _base_point(matrix_class, data, seed, trials)
    differential, values = _operator(matrix_class, data, base)
    columns = differential.shape[-1]
    fixed_columns = columns - values
    spectra = _split_read(differential, values)
    decisions = decide_ranks(spectra, [columns] * trials + [fixed_columns] * trials, tol)
    try:
        stabilizer = read_stabilizer(
            matrix_class, data, decisions.decision(trials), differential[0, :, :fixed_columns]
        )
    except InconclusiveRankError:
        stabilizer = None
    results = []

    def verdict(kind, detail=""):
        return ClassVerdict(
            kind, report, predicted_free, predicted_fixed, tuple(results), stabilizer, detail
        )

    for trial in range(trials):
        try:
            free_read = decisions.decision(trial, gap_requirement)
            fixed_read = decisions.decision(trials + trial, gap_requirement)
        except InconclusiveRankError as err:
            return verdict("INCONCLUSIVE", f"trial {trial}: {err}")
        rank_free, rank_fixed = real * free_read.rank, real * fixed_read.rank
        results.append(
            TrialResult(rank_free, free_read.gap_ratio, rank_fixed, fixed_read.gap_ratio)
        )
        if rank_free != predicted_free or rank_fixed != predicted_fixed:
            return verdict(
                "FAIL",
                f"trial {trial}: observed ({rank_free}, {rank_fixed}), "
                f"predicted ({predicted_free}, {predicted_fixed})",
            )
    return verdict("PASS")
