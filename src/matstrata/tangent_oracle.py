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

Each class has one operator, built by :func:`_operator` with one batched
matmul over a stacked basis of tangent directions.  At fixed values its
kernel is the stabiliser of the base point: :func:`verify_class` keeps the
read of its first trial's fixed-values operator, which
:func:`matstrata.commutant.read_stabilizer` turns into the stabiliser.
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
    decide_rank,
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


def predicted_rank(matrix_class: MatrixClass, data, free_values: bool = True) -> int:
    """Stratum dimension the probe must reproduce, as a real rank."""
    report = dimension_report(matrix_class, data)
    if report.field_kind == "complex":
        report = report.realified()
    if free_values:
        return report.stratum_dim
    return report.stratum_dim - dict(report.terms).get("value-parameters", 0)


def _frozen(basis):
    basis.flags.writeable = False
    return basis


@cache
def _units(n):
    """Matrix units E_ij in row-major order, so coefficients reshape to matrices."""
    return _frozen(np.eye(n * n).reshape(n * n, n, n))


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


def _indicators(parts, shape):
    """Diagonal indicator of each value's slots, in profile order."""
    slots = np.arange(sum(parts))
    out = np.zeros((len(parts), *shape))
    out[np.repeat(np.arange(len(parts)), parts), slots, slots] = 1.0
    return out


def _require(images, residual, message):
    """Raise unless every image's residual is negligible at its own scale."""
    worst = np.abs(residual).max(axis=(1, 2), initial=0.0)
    scale = 1.0 + np.abs(images).max(axis=(1, 2), initial=0.0)
    if np.any(worst > _MEMBERSHIP_TOL * scale):
        raise ValueError(f"{message} (residual {worst.max():.3e})")


def _flat(images):
    p, n, m = images.shape
    return images.reshape(p, n * m).T


def _realified(images):
    flat = _flat(images)
    return np.concatenate([flat.real, flat.imag])


def _hermitian_coords(images):
    _require(images, images - images.conj().transpose(0, 2, 1), "image is not Hermitian")
    n = images.shape[1]
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    upper = images[:, i, j]
    return np.concatenate([images[:, d, d].real, upper.real, upper.imag], axis=1).T


def _symmetric_coords(images):
    _require(images, images - images.transpose(0, 2, 1), "image is not symmetric")
    i, j = np.triu_indices(images.shape[1])
    return images[:, i, j].T


def _operator(matrix_class, data, base, free_values):
    """Stacked images (p, n, m) of the class's tangent directions at ``base``,
    the map from stacked images to coordinate columns, and the number of
    value directions.

    The transform directions come first, in basis order; with
    ``free_values`` one direction per distinct value follows (two for
    normal: real and imaginary shifts), so dropping the trailing value
    columns leaves the fixed-values operator.  ``data`` is only read for the
    value directions."""
    cls = resolve_alias(matrix_class)
    if cls is MatrixClass.SINGULAR_VALUES:
        n, m = base.shape
        images = np.concatenate([_skew_symmetric(n) @ base, -base @ _skew_symmetric(m)])
        transforms = len(images)
        if free_values:
            images = np.concatenate([images, _indicators(data.parts, base.shape)])
        return images, _flat, len(images) - transforms
    n = base.shape[0]
    if cls in COMPLEX_FIELD_CLASSES:
        basis, coords = _units(n), _flat
    elif cls is MatrixClass.REAL_SYMMETRIC:
        basis, coords = _skew_symmetric(n), _symmetric_coords
    else:
        basis = _skew_hermitian(n)
        coords = _hermitian_coords if cls is MatrixClass.HERMITIAN else _realified
    images = basis @ base - base @ basis
    transforms = len(images)
    if free_values:
        # One shared shift per eigenvalue, acting on all of its Jordan blocks.
        parts = data.multiplicities if cls is MatrixClass.JORDAN else data.parts
        values = _indicators(parts, base.shape)
        if cls is MatrixClass.NORMAL:
            values = np.stack([values, 1j * values], axis=1).reshape(-1, n, n)
        elif cls is MatrixClass.UNITARY:
            values = 1j * values * np.diagonal(base)
        images = np.concatenate([images, values])
    if cls is MatrixClass.UNITARY:
        drift = images @ base.conj().T + base @ images.conj().transpose(0, 2, 1)
        _require(images, drift, "direction leaves the unitary tangent space")
    return images, coords, len(images) - transforms


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


def _svd(op, vectors=False, order=None):
    """Singular values of ``op`` in descending order and, with ``vectors``,
    its full right singular vectors; the one SVD site of the package.

    The SVD is taken of ``op`` with its rows and columns permuted by
    ``order``, a ``(rows, cols)`` pair that defaults to
    :func:`_block_order` of ``op``.  Permutation matrices are orthogonal, so
    the permuted matrix has exactly the singular values of ``op``, and its
    right singular vectors are those of ``op`` with their entries permuted;
    they are mapped back here, so the rows of ``vh`` from the rank on span
    the kernel of ``op`` itself.  Any order is exact, a good one only
    faster: LAPACK's bidiagonalisation trims each reflector to its last
    nonzero row and column, so it skips the zero work between blocks only
    when each block's entries sit together."""
    if not min(op.shape):
        return np.zeros(0), np.eye(op.shape[1], dtype=op.dtype) if vectors else None
    rows, cols = _block_order(op) if order is None else order
    ordered = op[rows][:, cols]
    if vectors:
        _, s, vh = np.linalg.svd(ordered)
        out = np.empty_like(vh)
        out[:, cols] = vh
        return s, out
    return np.linalg.svd(ordered, compute_uv=False), None


def _read(op, tol, require_gap=None, vectors=False, order=None):
    """One SVD of ``op`` (rows and columns in ``order``, see :func:`_svd`)
    resolved into a rank decision over its field.

    Returns the decision and, with ``vectors``, the full right singular
    vectors, whose rows from ``decision.rank`` on span the null space."""
    s, vh = _svd(op, vectors, order)
    return decide_rank(s, op.shape[1], tol, require_gap=require_gap), vh


def _base_point(matrix_class, data, seed):
    """Generic base matrix of the class: seeded values in profile order."""
    kind = _SPECTRUM_KIND[resolve_alias(matrix_class)]
    if isinstance(data, JordanStructure):
        spectrum = factory.sample_spectrum(
            data.num_eigenvalues, kind, seed, factory.JORDAN_SPECTRUM_GAP
        )
        return factory.make_jordan(data, spectrum)
    if isinstance(data, SingularProfile):
        count = data.num_distinct
        spectrum = factory.sample_spectrum(count, kind, seed) if count else None
        return factory.make_sigma(data, spectrum)
    if isinstance(data, MultiplicityProfile):
        spectrum = factory.sample_spectrum(data.num_distinct, kind, seed)
        return factory.make_block_diagonal_lambda(data, spectrum)
    raise TypeError(f"unsupported data {type(data)}")


def _probe(matrix_class, data, seed, free_values):
    """Base point of ``seed``, the coordinate matrix of the class's operator
    there, and the number of its trailing value columns."""
    base = _base_point(matrix_class, data, seed)
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
    Each trial assembles one operator, the free-values one, and reads its
    transform columns alone as the fixed-values operator.  Trial 0's
    fixed-values SVD is read twice: with the indecision band alone for
    :attr:`ClassVerdict.kernel`, and with ``gap_requirement`` for the
    oracle.  The block order of
    :func:`_block_order` is taken once, from trial 0's free operator, and
    every trial reuses it, the fixed reads restricted to the transform
    columns; a trial whose nonzero pattern differed would only take a
    slower SVD, never a different one.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    predicted_free = predicted_rank(matrix_class, data, free_values=True)
    predicted_fixed = predicted_rank(matrix_class, data, free_values=False)
    real = _real_factor(matrix_class)
    structured = resolve_alias(matrix_class) in STRUCTURED_CLASSES
    results = []
    for trial in range(trials):
        base, differential, values = _probe(
            matrix_class, data, factory.derive_seed(seed, trial), True
        )
        transforms = differential[:, : differential.shape[1] - values]
        if trial == 0:
            rows, cols = order = _block_order(differential)
            fixed_order = rows, cols[cols < transforms.shape[1]]
        fixed_s, vh = _svd(transforms, structured and trial == 0, fixed_order)
        if trial == 0:
            try:
                decision = decide_rank(fixed_s, transforms.shape[1], tol)
            except InconclusiveRankError:
                kernel = None
            else:
                kernel = KernelRead(base, transforms, decision, vh)
        try:
            free, _ = _read(differential, tol, gap_requirement, order=order)
            fixed = decide_rank(
                fixed_s, transforms.shape[1], tol, require_gap=gap_requirement
            )
        except InconclusiveRankError as err:
            return ClassVerdict(
                "INCONCLUSIVE",
                predicted_free,
                predicted_fixed,
                tuple(results),
                kernel,
                f"trial {trial}: {err}",
            )
        rank_free, rank_fixed = real * free.rank, real * fixed.rank
        results.append(TrialResult(rank_free, free.gap_ratio, rank_fixed, fixed.gap_ratio))
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
