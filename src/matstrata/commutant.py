"""Stabilisers of the classes' base points, checked against the paper's
explicit witnesses.

Each stabiliser is the kernel of a class's fixed-values operator.  The
paper names the stabiliser of every class outright (Arnold 1971; Edelman,
Elmroth and Kågström 1997): the matrices commuting with a Jordan matrix
are block upper-trapezoidal Toeplitz, one free band per same-eigenvalue
block pair and diagonal; a diagonal base point is fixed by the GL(k_i),
U(k_i) or O(k_i) blocks of its repeated values; and the orthogonal pairs
fixing a singular value matrix couple X = Y inside each singular value's
block and leave the two trailing blocks free.  One builder per class
(:func:`_witnesses`) writes these as 0/1 columns with disjoint supports
over the class's transform directions, for a whole chunk of profiles at
once, and :func:`check_witnesses` checks every class alike: the
witnesses span the kernel when the operator annihilates every one of them
and they are as many as the read nullity.  Where it annihilates them
exactly, they also bound the operator's rank from above at that point.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .formulas import MatrixClass

__all__ = ["check_witnesses"]


def _frozen(basis):
    basis.flags.writeable = False
    return basis


@cache
def _triangle(n, k):
    """Frozen ``np.triu_indices(n, k)``: rows and columns of the n-by-n
    entries on and above diagonal ``k``, in row-major order."""
    return tuple(_frozen(index) for index in np.triu_indices(n, k))


def _labels(parts, order):
    """Group label (P, order) of each index of a chunk whose profile p
    repeats its groups ``parts[p]`` times in order; the indices after them
    (a singular profile's trailing block) share one more label.  Labels
    are distinct across the chunk, so only a profile's own compare equal."""
    sizes = [k for counts in parts for k in (*counts, order - sum(counts))]
    return np.repeat(np.arange(len(sizes)), sizes).reshape(len(parts), order)


def _group_pairs(label):
    """Whether each pair i < j of the order-n skew basis, in row-major
    order, lies inside one group of ``label`` (P, n): (P, n(n-1)/2)."""
    i, j = _triangle(label.shape[1], 1)
    return label[:, i] == label[:, j]


def _ranks(member):
    """The place of each member among its profile's members, in order."""
    return np.cumsum(member, axis=1) - 1


def _stack(member, column, count):
    """A chunk's witness stack (P, C, max(count)) with a one in each of its
    ``member`` rows (P, C), at that row's ``column``, and the counts."""
    witness = np.zeros((*member.shape, max(count)))
    p, row = np.nonzero(member)
    witness[p, row, column[p, row]] = 1.0
    return witness, count


def _toeplitz_witnesses(structures):
    """The commutant witnesses of Jordan matrices of ``structures``, over
    the matrix units in row-major order, as :func:`_witnesses` returns
    them.

    Column (p, q, d), for blocks p and q of one eigenvalue and an offset
    d < min(k_p, k_q), is the band of ones at the in-block entries
    (s, s + max(k_q - k_p, 0) + d) of block (p, q); the entries left of the
    shift vanish in every commuting matrix.  The columns are sorted by
    block pair, then offset: a pair's first column is the exclusive cumsum
    of the block-pair widths before it, each width read at the pair's
    corner entry.  With s a row's place in its block and u = k - s its
    distance from the block's end, entry (i, j) has offset
    min(s_j - s_i, u_i - u_j)."""
    count, n = len(structures), structures[0].n
    sizes = np.array([k for js in structures for part in js.blocks for k in part])
    block = np.repeat(np.arange(sizes.size), sizes)
    first = (np.cumsum(sizes) - sizes)[block].reshape(count, n) % n
    place, size = np.arange(n) - first, sizes[block].reshape(count, n)
    rest, owner = size - place, _labels([js.multiplicities for js in structures], n)
    same = owner[:, :, None] == owner[:, None, :]
    width = np.minimum(size[:, :, None], size[:, None, :]) * same
    lead = place == 0
    pair_width = (width * (lead[:, :, None] & lead[:, None, :])).reshape(count, n * n)
    ends = np.cumsum(pair_width, axis=1)
    corner = (first[:, :, None] * n + first[:, None, :]).reshape(count, n * n)
    offset = np.minimum(place[:, None, :] - place[:, :, None], rest[:, :, None] - rest[:, None, :])
    width, offset = width.reshape(count, n * n), offset.reshape(count, n * n)
    column = np.take_along_axis(ends, corner, axis=1) - width + offset
    return _stack((width > 0) & (offset >= 0), column, ends[:, -1].tolist())


def _qp_witnesses(profiles):
    """The witnesses of the pairs (X, Y) with X Sigma = Sigma Y, over the
    skew coordinates of X, then of Y (the basis of
    :func:`~matstrata.tangent_oracle._skew_symmetric`), as
    :func:`_witnesses` returns them.

    One column per pair i < j inside a singular value's group, with the
    same (i, j) coordinate of X and of Y, then one per pair inside X's
    trailing n - r block and one per pair inside Y's trailing m - r block.
    Pairs are listed row-major, so the coupled ones lead on both sides."""
    parts = [sp.parts for sp in profiles]
    x = _group_pairs(_labels(parts, profiles[0].n))
    y = _group_pairs(_labels(parts, profiles[0].m))
    coupled = np.array([sum(k * (k - 1) // 2 for k in counts) for counts in parts])[:, None]
    x_count, y_rank = x.sum(axis=1, keepdims=True), _ranks(y)
    y_column = np.where(y_rank < coupled, y_rank, y_rank - coupled + x_count)
    member = np.concatenate([x, y], axis=1)
    column = np.concatenate([_ranks(x), y_column], axis=1)
    count = x_count + y.sum(axis=1, keepdims=True) - coupled
    return _stack(member, column, count.ravel().tolist())


def _group_witnesses(cls, profiles):
    """The witnesses of a diagonal base point with values repeated
    ``parts`` times, as :func:`_witnesses` returns them: one block per
    value fixes it, GL(k), the matrix units E_ij with i and j in one group
    (diagonalizable); O(k), the pairs i < j of the skew basis inside one
    group (real-symmetric); U(k), each i E_jj of the skew-Hermitian basis
    and both of its elements for each pair inside one group (hermitian,
    normal, unitary)."""
    label = _labels([data.parts for data in profiles], profiles[0].n)
    if cls is MatrixClass.DIAGONALIZABLE_COMPLEX:
        member = (label[:, :, None] == label[:, None, :]).reshape(len(profiles), -1)
    elif cls is MatrixClass.REAL_SYMMETRIC:
        member = _group_pairs(label)
    else:
        units = np.ones_like(label, dtype=bool)
        member = np.concatenate([units, np.repeat(_group_pairs(label), 2, axis=1)], axis=1)
    return _stack(member, _ranks(member), member.sum(axis=1).tolist())


def _witnesses(cls: MatrixClass, profiles):
    """The paper's stabilisers of the base points of a chunk of profiles of
    one shape, by the class's builder: a zero-padded stack (P, C, w) of 0/1
    columns with disjoint supports, over the class's C transform directions
    in basis order (the columns of the fixed-values operator), and each
    profile's witness count, its columns first and in order."""
    if cls is MatrixClass.JORDAN:
        return _toeplitz_witnesses(profiles)
    if cls is MatrixClass.SINGULAR_VALUES:
        return _qp_witnesses(profiles)
    return _group_witnesses(cls, profiles)


def _residuals(images, witness):
    """Norm of each witness column's image (P, R, w) under its operator,
    scaled to a unit-norm column, (P, w); the columns hold zeros and ones,
    and a padding column's residual is 0."""
    scale = np.sqrt(np.maximum(witness.sum(axis=-2), 1.0))
    return np.linalg.norm(images, axis=-2) / scale


def check_witnesses(matrix_class: MatrixClass, profiles, operators: np.ndarray):
    """The paper's witnesses of a chunk of profiles of one shape against
    each one's fixed-values operator ``operators[p]`` (P, R, C), its
    columns the transform directions in basis order, by one product of all
    operators with all witnesses, the same way for every class.  Returns
    three lists, one value per profile: its witness count, whether the
    operator annihilates every witness exactly, and its largest witness
    residual (0.0 where exact; only the inexact profiles take residuals).
    The witnesses span the kernel when they are as many as its nullity and
    every residual is within the nullity's read threshold.

    The product is exact in floating point.  As computed, each entry of
    A W is a sum of at most two nonzero terms, each an exact copy of an
    entry of the base point B up to sign and a factor i: W is 0/1, and the
    unit images, the products with the ±1 skew bases and the i-multiples
    of the skew-Hermitian basis only copy entries of B into the operators'
    coordinates.  Where the witness fits the point, the two terms are equal
    copies of one repeated value or of one superdiagonal 1 and cancel to
    exactly 0.0.  So an exact profile's c witness columns lie in the kernel
    at this very point, and being 0/1 with disjoint supports they are
    independent: ``rank_fixed <= C_fixed - c``, and, as they vanish on the
    value columns, ``rank_free <= C_free - c``.  That is the upper half of
    the oracle's rank certificate.  Raises ``ValueError`` when the
    witnesses and the operators disagree on the number of transform
    directions."""
    witness, counts = _witnesses(matrix_class, profiles)
    if witness.shape[1] != operators.shape[-1]:
        raise ValueError(
            f"operators have {operators.shape[-1]} columns, the witnesses of "
            f"{profiles[0]} have {witness.shape[1]} rows"
        )
    images = np.matmul(operators, witness)
    inexact = images.any(axis=(-2, -1))
    worst = np.zeros(len(profiles))
    if inexact.any():
        worst[inexact] = _residuals(images[inexact], witness[inexact]).max(axis=-1)
    return counts, (~inexact).tolist(), worst.tolist()
