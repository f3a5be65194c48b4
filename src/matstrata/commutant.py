"""Numerical solution spaces of the commutation constraints S J = J S and
Q Sigma = Sigma P.

Each is the kernel of a class's fixed-values operator, the stabiliser of
its base point.  :func:`matstrata.tangent_oracle.verify_class` keeps the
read of its first trial's fixed-values operator, and
:func:`read_stabilizer` turns that read into the stabiliser's dimension.
Structure checks confirm what the closed forms predict: cross-eigenvalue
blocks of a commuting matrix vanish, same-eigenvalue blocks are
upper-trapezoidal Toeplitz, and the orthogonal pairs fixing a singular value
matrix couple blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import MatrixClass, resolve_alias
from .profiles import JordanStructure
from .ranktools import DEFAULT_TOLERANCE
from .tangent_oracle import KernelRead, _skew_symmetric

__all__ = [
    "Stabilizer",
    "ToeplitzStructureReport",
    "ToeplitzViolationError",
    "read_stabilizer",
    "verify_toeplitz_structure",
]


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
    js: JordanStructure, null_basis: np.ndarray, tol: float = DEFAULT_TOLERANCE
) -> ToeplitzStructureReport:
    """Check every element of a (dimension, n, n) null basis of the
    commutation map against the predicted commutant block shape.

    Each row and column of the Jordan matrix is labelled with its block, its
    eigenvalue, its place in the block and the block's size.  The labels give
    three masks, each a set of linear functionals that must vanish on the
    whole null space: (a) cross-block, the entries joining different
    eigenvalues; (b) toeplitz, the differences S[i, j] - S[i+1, j+1] with
    both steps inside one block of the same eigenvalue; (c) zero-mask, the
    entries (s, t) (1-based, in block) of a same-eigenvalue block of sizes
    (k_i, k_j) with t < s + max(k_j - k_i, 0).  Each mask is applied to the
    whole null basis with one fancy index.  Returns the largest violation
    per condition, or raises with the offending block pair and entry of the
    first condition, in that order, whose largest violation exceeds ``tol``.
    """
    if null_basis.shape[1:] != (js.n, js.n):
        raise ValueError("null basis and structure order disagree")
    labels = _labels(js)
    masks = _structure_masks(*labels)
    S = null_basis
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
        basis_size=len(null_basis),
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
        # The columns are the matrix units in row-major order.
        basis = kernel.vh[decision.rank :].conj().reshape(decision.nullity, data.n, data.n)
        try:
            verify_toeplitz_structure(data, basis, tol)
        except ToeplitzViolationError:
            structure_ok = False
    elif cls is MatrixClass.SINGULAR_VALUES:
        max_offdiag, max_coupling = _qp_violations(kernel.vh[decision.rank :], data)
        structure_ok = max_offdiag <= tol and max_coupling <= tol
    return Stabilizer(decision.nullity, decision.gap_ratio, structure_ok)
