"""Numerical solution spaces of the commutation constraints S J = J S and
Q Sigma = Sigma P.

Each is the kernel of a class's fixed-values operator, assembled and read by
the same code as the rank probes of :mod:`matstrata.tangent_oracle`; here
the reader also returns the null basis when a structure check needs it.
:func:`read_stabilizer` judges such a read, whether :func:`stabilizer` takes
it at a seeded base point or the oracle's first trial took it.
Structure checks confirm what the closed forms predict: cross-eigenvalue
blocks of a commuting matrix vanish, same-eigenvalue blocks are
upper-trapezoidal Toeplitz, and the orthogonal pairs fixing a singular value
matrix couple blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import MatrixClass, qp_pair_dim, resolve_alias
from .profiles import JordanStructure, SingularProfile
from .ranktools import DEFAULT_TOLERANCE, InconclusiveRankError
from .tangent_oracle import (
    STRUCTURED_CLASSES,
    KernelRead,
    _base_point,
    _operator,
    _read,
    _skew_symmetric,
)

__all__ = [
    "CommutantBasis",
    "Stabilizer",
    "ToeplitzPattern",
    "ToeplitzStructureReport",
    "ToeplitzViolationError",
    "QPPairReport",
    "commutation_operator",
    "commutant_basis",
    "commutant_dimension",
    "read_stabilizer",
    "stabilizer",
    "verify_toeplitz_structure",
    "solve_qp_pair",
    "InconclusiveRankError",
]


def commutation_operator(J: np.ndarray, field: str = "auto") -> np.ndarray:
    """Matrix of S -> S J - J S acting on row-major vec(S).

    ``field`` is ``complex`` for complex J, ``real`` for real J; ``auto``
    infers it from the dtype.  Requesting the real field for a genuinely
    complex J is rejected.
    """
    J = np.asarray(J)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"J must be square, got shape {J.shape}")
    field = _resolve_field(J, field)
    J = J.astype(complex if field == "complex" else float)
    images, coords, _ = _operator(MatrixClass.JORDAN, None, J, False)
    return coords(images)


def _resolve_field(J, field):
    is_complex = np.iscomplexobj(J) and np.any(J.imag != 0)
    if field == "auto":
        return "complex" if is_complex else "real"
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    if field == "real" and is_complex:
        raise ValueError("cannot treat a complex matrix over the real field")
    return field


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the numerical null space of the commutation map.

    ``null_basis`` has shape (dimension, n, n): each slice commutes with J
    up to ``tolerance_used`` relative residual, and the slices are
    orthonormal under the Frobenius inner product.
    """

    operator_matrix: np.ndarray
    null_basis: np.ndarray
    dimension: int
    tolerance_used: float
    singular_values: np.ndarray
    gap_ratio: float


def commutant_basis(
    J: np.ndarray, field: str = "auto", tol: float = DEFAULT_TOLERANCE
) -> CommutantBasis:
    """Null space of S -> S J - J S, resolved with the indecision band."""
    J = np.asarray(J)
    op = commutation_operator(J, field)
    return _commutant_basis(op, *_read(op, tol, vectors=True), J.shape[0], tol)


def _commutant_basis(op, decision, vh, n, tol):
    """Null basis of the commutation operator ``op`` of an n-by-n matrix,
    from its read."""
    # The columns are the matrix units in row-major order.
    basis = vh[decision.rank :].conj().reshape(decision.nullity, n, n)
    return CommutantBasis(
        operator_matrix=op,
        null_basis=basis,
        dimension=decision.nullity,
        tolerance_used=tol,
        singular_values=decision.singular_values,
        gap_ratio=decision.gap_ratio,
    )


def commutant_dimension(
    J: np.ndarray, field: str = "auto", tol: float = DEFAULT_TOLERANCE
) -> int:
    """Numerical nullity of the commutation map for J, over J's field."""
    return _read(commutation_operator(J, field), tol)[0].nullity


@dataclass(frozen=True)
class ToeplitzPattern:
    """Constraint pattern of one same-eigenvalue block of a commuting matrix.

    For a block of shape (k_i, k_j) the entries with t < s + max(k_j - k_i, 0)
    (1-based) vanish and the rest is constant along diagonals, leaving
    min(k_i, k_j) free diagonals.
    """

    sizes: tuple[int, int]
    zero_mask: np.ndarray
    free_count: int

    @classmethod
    def for_sizes(cls, k_i: int, k_j: int) -> "ToeplitzPattern":
        shift = max(k_j - k_i, 0)
        s_idx, t_idx = np.indices((k_i, k_j))
        mask = (t_idx + 1) < (s_idx + 1) + shift
        return cls((k_i, k_j), mask, min(k_i, k_j))


class ToeplitzViolationError(Exception):
    """A commutant basis element breaks the predicted block pattern."""

    def __init__(self, condition, block_pair, entry, magnitude):
        super().__init__(
            f"{condition} violation of {magnitude:.3e} in block {block_pair}, "
            f"entry (s, t) = {entry} (1-based)"
        )
        self.condition = condition
        self.block_pair = block_pair
        self.entry = entry
        self.magnitude = magnitude


@dataclass(frozen=True)
class ToeplitzStructureReport:
    basis_size: int
    max_cross_violation: float
    max_toeplitz_violation: float
    max_mask_violation: float
    tolerance: float

    @property
    def max_violation(self) -> float:
        return max(
            self.max_cross_violation,
            self.max_toeplitz_violation,
            self.max_mask_violation,
        )


def _labels(js: JordanStructure):
    """Block, eigenvalue, 0-based place in the block and block size of each
    row (and column) of the Jordan matrix of ``js``."""
    sizes = np.array([k for part in js.blocks for k in part])
    block = np.repeat(np.arange(sizes.size), sizes)
    eig = np.repeat(np.arange(js.num_eigenvalues), js.block_counts)[block]
    place = np.arange(js.n) - (np.cumsum(sizes) - sizes)[block]
    return block, eig, place, sizes[block]


def _structure_masks(block, eig, place, size):
    """The entries each condition constrains, from the row/column labels.

    ``cross-block`` and ``zero-mask`` mark entries (i, j) of a commuting
    matrix that must vanish; ``toeplitz`` marks the (i, j) whose entry must
    equal entry (i + 1, j + 1), an (n-1, n-1) mask."""
    same = eig[:, None] == eig[None, :]
    shift = np.maximum(size[None, :] - size[:, None], 0)
    step = block[:-1] == block[1:]
    return {
        "cross-block": ~same,
        "toeplitz": same[:-1, :-1] & step[:, None] & step[None, :],
        "zero-mask": same & (place[None, :] < place[:, None] + shift),
    }


def verify_toeplitz_structure(
    J: np.ndarray,
    js: JordanStructure,
    basis: CommutantBasis,
    tol: float = DEFAULT_TOLERANCE,
) -> ToeplitzStructureReport:
    """Check every basis element against the predicted commutant block shape.

    Each row and column of J is labelled with its block, its eigenvalue, its
    place in the block and the block's size.  The labels give three masks,
    each a set of linear functionals that must vanish on the whole null
    space: (a) cross-block, the entries joining different eigenvalues;
    (b) toeplitz, the differences S[i, j] - S[i+1, j+1] with both steps
    inside one block of the same eigenvalue; (c) zero-mask, the same-
    eigenvalue entries below the trapezoid shift of
    :meth:`ToeplitzPattern.for_sizes`.  Each mask is applied to the whole
    (dimension, n, n) null basis with one fancy index.  Returns the largest
    violation per condition, or raises with the offending block pair and
    entry of the first condition, in that order, whose largest violation
    exceeds ``tol``.
    """
    if J.shape[0] != js.n:
        raise ValueError("matrix and structure order disagree")
    labels = _labels(js)
    masks = _structure_masks(*labels)
    S = basis.null_basis
    steps = S[:, :-1, :-1] - S[:, 1:, 1:]
    magnitudes = {
        "cross-block": np.abs(S[:, masks["cross-block"]]),
        "toeplitz": np.abs(steps[:, masks["toeplitz"]]),
        "zero-mask": np.abs(S[:, masks["zero-mask"]]),
    }
    worst = {c: float(m.max(initial=0.0)) for c, m in magnitudes.items()}
    for condition, magnitude in worst.items():
        if magnitude > tol:
            block_pair, entry = _locate(
                magnitudes[condition], masks[condition], labels, magnitude
            )
            raise ToeplitzViolationError(condition, block_pair, entry, magnitude)
    return ToeplitzStructureReport(
        basis_size=basis.dimension,
        max_cross_violation=worst["cross-block"],
        max_toeplitz_violation=worst["toeplitz"],
        max_mask_violation=worst["zero-mask"],
        tolerance=tol,
    )


def _locate(magnitudes, mask, labels, peak):
    """Block pair and 1-based in-block entry of ``peak``; among ties, the
    first by basis element, row block, column block, row, then column."""
    block, _, place, _ = labels
    rows, cols = np.nonzero(mask)
    element, k = np.nonzero(magnitudes == peak)
    r, c = rows[k], cols[k]
    first = np.lexsort((place[c], place[r], block[c], block[r], element))[0]
    r, c = r[first], c[first]
    return (int(block[r]), int(block[c])), (int(place[r]) + 1, int(place[c]) + 1)


@dataclass(frozen=True)
class QPPairReport:
    """Outcome of counting the orthogonal pairs (Q, P) with Q Sigma = Sigma P.

    The count is the nullity of the tangent map (X, Y) -> X Sigma - Sigma Y
    over skew pairs, compared against the closed form; the structure fields
    measure how far the null basis strays from the predicted coupled block
    diagonal shape.
    """

    dimension: int
    predicted_dimension: int
    max_offdiag_violation: float
    max_coupling_violation: float
    gap_ratio: float
    tolerance: float

    @property
    def matches_formula(self) -> bool:
        return self.dimension == self.predicted_dimension

    @property
    def structure_ok(self) -> bool:
        return (
            self.max_offdiag_violation <= self.tolerance
            and self.max_coupling_violation <= self.tolerance
        )

    @property
    def ok(self) -> bool:
        return self.matches_formula and self.structure_ok


def solve_qp_pair(
    Sigma: np.ndarray, profile: SingularProfile, tol: float = DEFAULT_TOLERANCE
) -> QPPairReport:
    """Dimension and structure of the orthogonal pairs fixing Sigma.

    Works at the tangent level: skew pairs (X, Y) with X Sigma = Sigma Y,
    whose solution dimension equals the group's.  The null basis must be
    block diagonal along the singular value groups, with the leading blocks
    of X and Y equal and the trailing (n-r) and (m-r) blocks free.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    n, m = Sigma.shape
    if (n, m) != (profile.n, profile.m):
        raise ValueError(f"Sigma shape {Sigma.shape} does not match profile")
    images, coords, _ = _operator(MatrixClass.SINGULAR_VALUES, profile, Sigma, False)
    decision, vh = _read(coords(images), tol, vectors=True)
    max_offdiag, max_coupling = _qp_violations(vh[decision.rank :], profile)
    return QPPairReport(
        dimension=decision.nullity,
        predicted_dimension=qp_pair_dim(profile),
        max_offdiag_violation=max_offdiag,
        max_coupling_violation=max_coupling,
        gap_ratio=decision.gap_ratio,
        tolerance=tol,
    )


def _qp_violations(null, profile):
    """Largest entries of the null pairs ``null`` (rows of skew-symmetric
    coordinates of X, then Y) outside the singular value groups' diagonal
    blocks, and largest X - Y difference inside the leading blocks."""
    n, m, r = profile.n, profile.m, profile.rank
    x_count = n * (n - 1) // 2
    X = np.tensordot(null[:, :x_count], _skew_symmetric(n), 1)
    Y = np.tensordot(null[:, x_count:], _skew_symmetric(m), 1)
    x_blocks = _block_mask((*profile.parts, n - r))
    y_blocks = _block_mask((*profile.parts, m - r))
    max_offdiag = max(
        np.abs(X[:, ~x_blocks]).max(initial=0.0), np.abs(Y[:, ~y_blocks]).max(initial=0.0)
    )
    coupled = np.abs(X[:, :r, :r] - Y[:, :r, :r])[:, _block_mask(profile.parts)]
    return float(max_offdiag), float(coupled.max(initial=0.0))


def _block_mask(block_sizes) -> np.ndarray:
    """Mask of the diagonal blocks of the given sizes, in order."""
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return labels[:, None] == labels[None, :]


@dataclass(frozen=True)
class Stabilizer:
    """Transforms fixing a class's base point: the null space of its
    fixed-values operator, of ``dimension`` over the class's field.
    ``structure_ok`` is false when a Jordan null space breaks the Toeplitz
    pattern or a singular one the coupled blocks."""

    dimension: int
    gap_ratio: float
    structure_ok: bool


def stabilizer(
    matrix_class: MatrixClass, data, seed: int, tol: float = DEFAULT_TOLERANCE
) -> Stabilizer:
    """Stabiliser of the class's generic base point at ``seed``, the same
    point :func:`matstrata.tangent_oracle.assemble_differential` probes.

    Raises :class:`InconclusiveRankError` when its nullity has no usable gap.
    """
    cls = resolve_alias(matrix_class)
    base = _base_point(cls, data, seed)
    images, coords, _ = _operator(cls, data, base, False)
    op = coords(images)
    decision, vh = _read(op, tol, vectors=cls in STRUCTURED_CLASSES)
    return read_stabilizer(cls, data, KernelRead(base, op, decision, vh), tol)


def read_stabilizer(
    matrix_class: MatrixClass, data, kernel: KernelRead, tol: float = DEFAULT_TOLERANCE
) -> Stabilizer:
    """Stabiliser from a band-only read of the class's fixed-values operator,
    such as :attr:`matstrata.tangent_oracle.ClassVerdict.kernel`: its nullity
    and gap, and for Jordan and singular whether its null basis has the
    Toeplitz or coupled-block shape."""
    cls = resolve_alias(matrix_class)
    decision = kernel.decision
    structure_ok = True
    if cls is MatrixClass.JORDAN:
        basis = _commutant_basis(kernel.operator, decision, kernel.vh, data.n, tol)
        try:
            verify_toeplitz_structure(kernel.base, data, basis, tol)
        except ToeplitzViolationError:
            structure_ok = False
    elif cls is MatrixClass.SINGULAR_VALUES:
        max_offdiag, max_coupling = _qp_violations(kernel.vh[decision.rank :], data)
        structure_ok = max_offdiag <= tol and max_coupling <= tol
    return Stabilizer(decision.nullity, decision.gap_ratio, structure_ok)
