"""Stabilisers of the classes' base points, checked against the paper's
explicit witnesses.

Each stabiliser is the kernel of a class's fixed-values operator.
:func:`matstrata.tangent_oracle.verify_class` passes its first trial's
fixed-values operator, with that row's band-only rank decision, to
:func:`read_stabilizer`, which turns the read into the stabiliser.
The paper names the stabiliser of every class outright (Arnold 1971,
Edelman, Elmroth and Kågström 1997): the matrices commuting with a Jordan
matrix are block upper-trapezoidal Toeplitz, one free band per
same-eigenvalue block pair and diagonal; a diagonal base point is fixed by
the GL(k_i), U(k_i) or O(k_i) blocks of its repeated values; and the
orthogonal pairs fixing a singular value matrix couple X = Y inside each
singular value's block and leave the two trailing blocks free.  One
witness, :func:`_witness`, builds each as 0/1 columns with disjoint
supports over the class's transform directions, and one check judges all
seven classes alike: the operator must annihilate every witness, and the
witnesses must be as many as the read nullity; together these mean the
witnesses span the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .formulas import MatrixClass, resolve_alias
from .profiles import JordanStructure, SingularProfile
from .ranktools import RankDecision

__all__ = ["Stabilizer", "read_stabilizer"]


def _frozen(basis):
    basis.flags.writeable = False
    return basis


@cache
def _triangle(n, k):
    """Frozen ``np.triu_indices(n, k)``: rows and columns of the n-by-n
    entries on and above diagonal ``k``, in row-major order."""
    return tuple(_frozen(index) for index in np.triu_indices(n, k))


def _toeplitz_witness(js: JordanStructure):
    """Witness columns (n*n, c) of the commutant of a Jordan matrix of
    structure ``js``, over the matrix units in row-major order.

    Column (p, q, d), for blocks p and q of one eigenvalue and an offset
    d < min(k_p, k_q), is the band of ones at the in-block entries
    (s, s + max(k_q - k_p, 0) + d) of block (p, q); the entries left of the
    shift vanish in every commuting matrix.  The columns are sorted by
    block pair, then offset.  With s a row's place in its block and
    u = k - s its distance from the block's end, entry (i, j) has offset
    min(s_j - s_i, u_i - u_j)."""
    sizes = np.array([k for part in js.blocks for k in part])
    owner = np.repeat(np.arange(len(js.blocks)), [len(part) for part in js.blocks])
    block = np.repeat(np.arange(sizes.size), sizes)
    place = np.arange(js.n) - (np.cumsum(sizes) - sizes)[block]
    rest = sizes[block] - place
    width = (np.minimum.outer(sizes, sizes) * np.equal.outer(owner, owner)).ravel()
    ends = np.cumsum(width)
    offset = np.minimum(place - place[:, None], rest[:, None] - rest)
    pair = block[:, None] * len(sizes) + block
    member = (width[pair] > 0) & (offset >= 0)
    witness = np.zeros((js.n * js.n, ends[-1]))
    witness[member.ravel(), ((ends - width)[pair] + offset)[member]] = 1.0
    return witness


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


def _witness(cls: MatrixClass, data):
    """The paper's stabiliser of the class's base point as 0/1 columns with
    disjoint supports, over the class's transform directions in basis order
    (the columns of the fixed-values operator).

    A diagonal base point with values repeated ``data.parts`` times is
    fixed by one block per value: GL(k), the matrix units E_ij with i and j
    in one group (diagonalizable); O(k), the pairs i < j of the skew basis
    inside one group (real-symmetric); U(k), each i E_jj of the
    skew-Hermitian basis and both of its elements for each pair inside one
    group (hermitian, normal, unitary)."""
    if cls is MatrixClass.JORDAN:
        return _toeplitz_witness(data)
    if cls is MatrixClass.SINGULAR_VALUES:
        return _qp_witness(data)
    n, parts = data.n, data.parts
    if cls is MatrixClass.DIAGONALIZABLE_COMPLEX:
        label = np.repeat(np.arange(len(parts)), parts)
        size, units = n * n, np.flatnonzero(np.equal.outer(label, label))
    elif cls is MatrixClass.REAL_SYMMETRIC:
        size, units = n * (n - 1) // 2, _group_pairs(n, parts, 0)
    else:
        pairs = n + 2 * _group_pairs(n, parts, 0)
        size, units = n * n, np.concatenate([np.arange(n), pairs, pairs + 1])
        units.sort()
    witness = np.zeros((size, units.size))
    witness[units, np.arange(units.size)] = 1.0
    return witness


def _residuals(operator, witness):
    """Norm of the operator's image of each witness column scaled to unit
    norm; the columns hold zeros and ones."""
    return np.linalg.norm(operator @ witness, axis=0) / np.sqrt(witness.sum(axis=0))


@dataclass(frozen=True)
class Stabilizer:
    """Transforms fixing a class's base point: the null space of its
    fixed-values operator, of ``dimension`` over the class's field.
    ``structure_ok`` is false when the paper's witness does not span that
    null space."""

    dimension: int
    gap_ratio: float
    structure_ok: bool


def read_stabilizer(
    matrix_class: MatrixClass, data, decision: RankDecision, operator: np.ndarray
) -> Stabilizer:
    """Stabiliser from the band-only ``decision`` of the class's fixed-values
    ``operator``, its columns the transform directions in basis order: its
    nullity and gap, and whether the class's witness spans the kernel.
    Every class is checked alike: every witness within the read's threshold,
    and as many witnesses as the read nullity.  Raises ``ValueError`` when
    the witness and the operator disagree on the number of transform
    directions."""
    witness = _witness(resolve_alias(matrix_class), data)
    if witness.shape[0] != operator.shape[-1]:
        raise ValueError(
            f"operator has {operator.shape[-1]} columns, the witness of "
            f"{data} has {witness.shape[0]} rows"
        )
    structure_ok = witness.shape[1] == decision.nullity and bool(
        np.all(_residuals(operator, witness) <= decision.threshold)
    )
    return Stabilizer(decision.nullity, decision.gap_ratio, structure_ok)
