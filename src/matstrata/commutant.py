"""Stabilisers of the classes' base points, checked against the paper's
explicit witnesses.

Each stabiliser is the kernel of a class's fixed-values operator.
:func:`matstrata.tangent_oracle.verify_class` keeps its first trial's
fixed-values operator with that row's band-only rank decision, and
:func:`read_stabilizer` turns the read into the stabiliser's dimension.
For Jordan and singular values the paper names the stabiliser outright:
the matrices commuting with a Jordan matrix are block upper-trapezoidal
Toeplitz, one free band per same-eigenvalue block pair and diagonal, and
the orthogonal pairs fixing a singular value matrix couple X = Y inside
each singular value's block and leave the two trailing blocks free.  Each
is built as 0/1 witness columns with disjoint supports.  The operator must
annihilate every witness, and the witnesses must be as many as the read
nullity; together these mean the witnesses span the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import MatrixClass, resolve_alias
from .profiles import JordanStructure, SingularProfile
from .tangent_oracle import KernelRead, _triangle

__all__ = [
    "Stabilizer",
    "ToeplitzViolationError",
    "read_stabilizer",
    "verify_toeplitz_structure",
]


class ToeplitzViolationError(Exception):
    """A Toeplitz band of the predicted commutant is not annihilated."""

    def __init__(self, block_pair, offset, residual, threshold):
        super().__init__(
            f"band {offset} of block pair {block_pair} leaves a residual of "
            f"{residual:.3e}, above the threshold {threshold:.3e}"
        )
        self.block_pair = block_pair
        self.offset = offset
        self.residual = residual
        self.threshold = threshold


def _toeplitz_witness(js: JordanStructure):
    """Witness columns (n*n, c) of the commutant of a Jordan matrix of
    structure ``js``, over the matrix units in row-major order, and the
    (blocks, blocks) count of columns per block pair.

    Column (p, q, d), for blocks p and q of one eigenvalue and an offset
    d < min(k_p, k_q), is the band of ones at the in-block entries
    (s, s + max(k_q - k_p, 0) + d) of block (p, q); the entries left of the
    shift vanish in every commuting matrix.  The columns are sorted by
    block pair, then offset.  With s a row's place in its block and
    u = k - s its distance from the block's end, entry (i, j) has offset
    min(s_j - s_i, u_i - u_j)."""
    sizes = [k for part in js.blocks for k in part]
    owner = [e for e, part in enumerate(js.blocks) for _ in part]
    rows = [(b, s, k - s) for b, k in enumerate(sizes) for s in range(k)]
    block, place, rest = np.array(rows).T
    width = np.minimum.outer(sizes, sizes) * np.equal.outer(owner, owner)
    ends = np.cumsum(width)
    offset = np.minimum(place - place[:, None], rest[:, None] - rest)
    pair = block[:, None] * len(sizes) + block
    member = (width.ravel()[pair] > 0) & (offset >= 0)
    witness = np.zeros((js.n * js.n, ends[-1]))
    witness[member.ravel(), ((ends - width.ravel())[pair] + offset)[member]] = 1.0
    return witness, width


def _group_pairs(order, parts, trailing):
    """Row-major indices of the pairs i < j of the order-``order`` skew
    basis inside one of the diagonal blocks of sizes (*parts, trailing)."""
    label = np.repeat(np.arange(len(parts) + 1), (*parts, trailing))
    i, j = _triangle(order, 1)
    return np.flatnonzero(label[i] == label[j])


def _qp_witness(profile: SingularProfile):
    """Witness columns of the pairs (X, Y) with X Sigma = Sigma Y, over the
    skew coordinates of X, then of Y (the basis of
    :func:`~matstrata.tangent_oracle._skew_symmetric`).

    One column per pair i < j inside a singular value's group, with the
    same (i, j) coordinate of X and of Y, then one per pair inside X's
    trailing n - r block and one per pair inside Y's trailing m - r block.
    Pairs are listed row-major, so the coupled ones lead on both sides."""
    n, m, r = profile.n, profile.m, profile.rank
    x = _group_pairs(n, profile.parts, n - r)
    y = _group_pairs(m, profile.parts, m - r)
    coupled = sum(k * (k - 1) // 2 for k in profile.parts)
    y_column = np.arange(y.size)
    y_column[coupled:] += x.size - coupled
    x_count = n * (n - 1) // 2
    witness = np.zeros((x_count + m * (m - 1) // 2, x.size + y.size - coupled))
    witness[x, np.arange(x.size)] = 1.0
    witness[x_count + y, y_column] = 1.0
    return witness


def _residuals(operator, witness):
    """Norm of the operator's image of each witness column scaled to unit
    norm; the columns hold zeros and ones."""
    return np.linalg.norm(operator @ witness, axis=0) / np.sqrt(witness.sum(axis=0))


def verify_toeplitz_structure(js: JordanStructure, operator: np.ndarray, threshold: float) -> int:
    """Check the commutant of a Jordan matrix of structure ``js`` against its
    commutation operator ``operator`` (columns the matrix units in row-major
    order, as :attr:`~matstrata.tangent_oracle.KernelRead.operator`).

    Every unit-norm Toeplitz witness w must have ``|A w| <= threshold``.
    Returns the number of witnesses, the sum of min(k_p, k_q) over the
    same-eigenvalue block pairs; raises :class:`ToeplitzViolationError`
    with the block pair and offset of the first witness that is not
    annihilated."""
    if operator.shape[-1] != js.n * js.n:
        raise ValueError("operator and structure order disagree")
    witness, width = _toeplitz_witness(js)
    residuals = _residuals(operator, witness)
    bad = np.flatnonzero(residuals > threshold)
    if bad.size:
        column, ends = int(bad[0]), np.cumsum(width)
        pair = int(np.searchsorted(ends, column, side="right"))
        offset = column - int(ends[pair] - width.flat[pair])
        block_pair = divmod(pair, len(width))
        raise ToeplitzViolationError(block_pair, offset, float(residuals[column]), threshold)
    return witness.shape[1]


@dataclass(frozen=True)
class Stabilizer:
    """Transforms fixing a class's base point: the null space of its
    fixed-values operator, of ``dimension`` over the class's field.
    ``structure_ok`` is false when the paper's witness for a Jordan or a
    singular value base point does not span that null space."""

    dimension: int
    gap_ratio: float
    structure_ok: bool


def read_stabilizer(matrix_class: MatrixClass, data, kernel: KernelRead) -> Stabilizer:
    """Stabiliser from a band-only read of the class's fixed-values operator,
    such as :attr:`matstrata.tangent_oracle.ClassVerdict.kernel`: its nullity
    and gap, and for Jordan and singular values whether the witness spans
    the kernel: every witness within the read's threshold, and as many
    witnesses as the read nullity."""
    cls = resolve_alias(matrix_class)
    decision = kernel.decision
    structure_ok = True
    if cls is MatrixClass.JORDAN:
        try:
            count = verify_toeplitz_structure(data, kernel.operator, decision.threshold)
        except ToeplitzViolationError:
            count = None
        structure_ok = count == decision.nullity
    elif cls is MatrixClass.SINGULAR_VALUES:
        witness = _qp_witness(data)
        structure_ok = witness.shape[1] == decision.nullity and bool(
            np.all(_residuals(kernel.operator, witness) <= decision.threshold)
        )
    return Stabilizer(decision.nullity, decision.gap_ratio, structure_ok)
