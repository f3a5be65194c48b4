"""Tangent-space rank oracle for every dimension formula.

Each matrix class is a parametrized set: transforms act on a base matrix
whose multiplicities are prescribed, and the values themselves may move.
The oracle assembles the differential of that parametrization at one
seeded base point and certifies its rank, which must equal the closed-form
stratum dimension.  Differentials are assembled in the frame where the
base transform is the identity.  Rank is an orbit invariant: a transform of
the class's group maps the stratum onto itself, and the tangent space at a
point invertibly onto the tangent space at its image, so every point of an
orbit gives the same rank and the identity frame loses nothing.

Each class has one operator: the coordinate columns of the differential,
transform directions first and one column per value direction last
(:func:`_operator`).  Its transform columns alone are the fixed-values
operator, whose kernel is the stabiliser of the base point.
:func:`verify_profiles` draws every profile's spectrum in one keyed pass,
reads each chunk of profiles of one shape in one array pass at its rows of
that draw (:func:`_verify_chunk`: base points, assembly,
:func:`_split_read`, rank decisions, witness checks), then :func:`_decide`
decides the oracle and stabiliser cases of every profile at once.
README.md, "How the check works", says why one point suffices.

Group-transform classes map images to real coordinates, so their ranks are
real ranks.  The complex-linear classes (diagonalizable, Jordan) count over
the complex field: their operator is read at a real base point
(:data:`_SPECTRUM_KIND` says why that suffices) and its rank doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import factory
from .commutant import _frozen, _triangle, check_witnesses
from .factory import _value_parts, _value_slots
from .formulas import _COUNTS, COMPLEX_FIELD_CLASSES, MatrixClass
from .ranktools import DEFAULT_GAP_REQUIREMENT, DEFAULT_TOLERANCE, RankDecisions, decide_ranks

_MEMBERSHIP_TOL = 1e-10
#: Classes transformed by the unitary group, whose images are complex.
_UNITARY_GROUP = frozenset((MatrixClass.HERMITIAN, MatrixClass.NORMAL, MatrixClass.UNITARY))

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


def _unit_images(base, out=None):
    """Images ``E_ij B - B E_ij`` (..., n*n, n, n) of the matrix units in
    row-major order, without a matmul, written into ``out`` (zeros) when
    given: image ``ij`` holds row j of ``B`` in its row i, less column i of
    ``B`` in its column j."""
    *lead, n, _ = base.shape
    if out is None:
        out = np.zeros((*lead, n * n, n, n), dtype=base.dtype)
    images = out.reshape(*lead, n, n, n, n)  # a view: one axis split in two
    d = np.arange(n)
    images[..., d, :, d, :] = base
    images[..., :, d, :, d] -= base.swapaxes(-1, -2)
    return out


def _skew_hermitian_images(base, out):
    """Images ``X B - B X`` (..., n*n, n, n) of the real basis of the
    skew-Hermitian matrices, i E_jj for each j, then E_ij - E_ji and
    i (E_ij + E_ji) for each i < j, taken from the unit images without a
    matmul: ``i U_jj``, then ``U_ij - U_ji`` and ``i (U_ij + U_ji)``,
    written into the complex ``out``."""
    *lead, n, _ = base.shape
    units = _unit_images(base).reshape(*lead, n, n, n, n)
    d = np.arange(n)
    i, j = _triangle(n, 1)
    upper, lower = units[..., i, j, :, :], units[..., j, i, :, :]
    np.multiply(1j, units[..., d, d, :, :], out=out[..., :n, :, :])
    pairs = out[..., n:, :, :].reshape(*lead, i.size, 2, n, n)
    np.subtract(upper, lower, out=pairs[..., 0, :, :])
    np.multiply(1j, upper + lower, out=pairs[..., 1, :, :])
    return out


def _columns(cls, data):
    """Transform and value columns of the class's operator for ``data``
    (two value columns per value for normal: real and imaginary shifts)."""
    n = data.n
    values = (2 if cls is MatrixClass.NORMAL else 1) * len(_value_parts(data))
    if cls is MatrixClass.SINGULAR_VALUES:
        return (n * (n - 1) + data.m * (data.m - 1)) // 2, values
    if cls is MatrixClass.REAL_SYMMETRIC:
        return n * (n - 1) // 2, values
    return n * n, values


def _magnitude(x):
    """Largest absolute value in each matrix (..., n, m) of ``x``'s float
    view, the larger of its maximum and its negated minimum, so that no
    ``|x|`` copy is made."""
    v = x.view(np.float64)
    return np.maximum(v.max(axis=(-2, -1), initial=0.0), -v.min(axis=(-2, -1), initial=0.0))


def _require(images, residual, message):
    """Raise unless every image's residual is negligible at its own scale.

    The maxima are taken over the float view, real and imaginary parts
    apart, which is cheaper than the complex modulus.  Since
    ``|r| <= sqrt(2) max(|re r|, |im r|)`` and ``max(|re x|, |im x|) <=
    |x|``, the residual's maximum times sqrt(2) bounds its modulus from
    above and the images' scale is bounded by theirs from below, so this
    never accepts what the modulus check would reject."""
    worst = np.sqrt(2) * _magnitude(residual)
    scale = 1.0 + _magnitude(images)
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


def _operator(cls, profiles, base, slots):
    """Coordinate columns (P, rows, p) of the class's tangent directions at
    ``base``, a chunk (P, n, m) of base points, point p that of
    ``profiles[p]``, and each profile's number of value directions; the
    value directions sit on ``slots``, the chunk's value-slot map.

    The transform directions come first, in basis order; one direction per
    distinct value follows (two for normal: real and imaginary shifts), so
    dropping the trailing value columns leaves the fixed-values operator.
    A profile with fewer values than the chunk's most is padded with zero
    columns, which no read takes for a block.  All images are written into
    one preallocated stack.

    Only the real skew-symmetric transforms (real-symmetric, singular
    values) take a matmul with their basis; the others are written from
    ``B``'s entries (:func:`_unit_images`, :func:`_skew_hermitian_images`),
    bit-equal to ``X B - B X``.  Unitary directions are checked tangent to
    the group, ``X B^H + B X^H = 0``, by one matmul of all images' rows
    against ``B^H``; the coordinate maps check Hermitian and symmetric
    images."""
    *lead, n, m = base.shape
    columns = [_columns(cls, data) for data in profiles]
    transforms, values = columns[0][0], [v for _, v in columns]
    dtype = complex if cls in _UNITARY_GROUP else base.dtype
    images = np.zeros((*lead, transforms + max(values), n, m), dtype=dtype)
    moves = images[..., :transforms, :, :]
    point = base[..., None, :, :]
    if cls is MatrixClass.SINGULAR_VALUES:
        left = n * (n - 1) // 2
        np.matmul(_skew_symmetric(n), point, out=moves[..., :left, :, :])
        np.matmul(-point, _skew_symmetric(m), out=moves[..., left:, :, :])
        coords = _flat
    elif cls in COMPLEX_FIELD_CLASSES:
        _unit_images(base, moves)
        coords = _flat
    elif cls is MatrixClass.REAL_SYMMETRIC:
        basis, coords = _skew_symmetric(n), _symmetric_coords
        np.matmul(basis, point, out=moves)
        moves -= point @ basis
    else:
        _skew_hermitian_images(base, moves)
        coords = _hermitian_coords if cls is MatrixClass.HERMITIAN else _realified
    stack, value, slot = slots
    shifts = images[..., transforms:, :, :]
    if cls is MatrixClass.NORMAL:
        shifts[stack, 2 * value, slot, slot] = 1.0
        shifts[stack, 2 * value + 1, slot, slot] = 1j
    elif cls is MatrixClass.UNITARY:
        shifts[stack, value, slot, slot] = 1j * base[stack, slot, slot]
    else:
        shifts[stack, value, slot, slot] = 1.0
    if cls is MatrixClass.UNITARY:
        # A + A^H with A = X B^H is X B^H + B X^H.
        a = (images.reshape(*lead, -1, n) @ base.conj().swapaxes(-1, -2)).reshape(images.shape)
        a += a.conj().swapaxes(-1, -2)
        _require(images, a, "direction leaves the unitary tangent space")
    return coords(images), values


def _block_order(pattern, fixed_columns):
    """Row and column order that gathers each matrix of a chunk with
    nonzero ``pattern`` (..., R, C), P matrices of R rows and C columns,
    into the connected blocks of its own pattern, in three segments, where
    each segment starts and ends on each side (two lists of 3P + 1 bounds,
    matrix p's segment k from bound 3p + k to 3p + k + 1), and a mask
    (P, C) of the columns that are a one-column block:

    0. value-free blocks of two or more columns;
    1. value blocks of two or more columns;
    2. the rest: one-column blocks and the all-zero rows and columns.

    The chunk is taken as the disjoint union of its matrices: row r of
    matrix p is row pR + r, column c column pC + c.  The order lists each
    matrix's rows and columns, by their index within it, after the matrix
    before.  A value block holds a value column (index ``fixed_columns`` or
    later within its matrix).  Each column is labelled with the smallest
    column index of its connected component in the bipartite graph of
    ``pattern`` (rows joined to the columns of their nonzeros), each row
    with the label of its nonzeros.  Labels spread over the nonzero list by
    row and column minima, with pointer jumping, until they stop changing.
    A stable sort by matrix, segment, then label, lists each segment's
    blocks in order of their first column, each block's rows and columns in
    their original order.  A lone zero column is no block.  No entry
    couples two segments, so each matrix is block diagonal in them, with
    and without its value columns, which sit in segments 1 and 2 alone."""
    *lead, size, count = pattern.shape
    stacks = math.prod(lead)
    total = stacks * count
    r, c = np.divmod(np.flatnonzero(pattern), count)
    c += r // size * count
    label = np.arange(total)
    while True:
        row_label = np.full(stacks * size, total)
        np.minimum.at(row_label, r, label[c])
        spread = np.full(total, total)
        np.minimum.at(spread, c, row_label[r])
        merged = np.minimum(label, spread)
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    label[spread == total] = total  # the all-zero columns
    members = np.bincount(label, minlength=total + 1)
    members[total] = 0  # the all-zero columns are no block
    tail = np.zeros(total + 1, dtype=bool)
    tail[label.reshape(stacks, count)[:, fixed_columns:]] = True
    segment = np.where(members > 1, tail, 2)
    order, bounds = [], []
    for labels, per in ((row_label, size), (label, count)):
        key = segment[labels] + np.arange(labels.size) // per * 3  # matrix, then segment
        order.append(np.argsort(key * (total + 1) + labels, kind="stable") % per)
        bounds.append([0, *np.cumsum(np.bincount(key, minlength=3 * stacks)).tolist()])
    return (*order, *bounds, (members[label] == 1).reshape(stacks, count))


def _split_read(differential, fixed_columns):
    """Singular values of a chunk (P, R, C) of operators, each with its
    value columns from index ``fixed_columns`` on (zero columns pad them
    up to C), with those value columns (free) and without them (fixed),
    stacked (2P, min(R, C)): operator p's free row at 2p, its fixed row at
    2p + 1, each in descending order and zero-padded, as
    :func:`~matstrata.ranktools.decide_ranks` takes them.

    One :func:`_block_order` is taken over the chunk, from each operator's
    nonzero pattern, so it splits every operator exactly and never joins
    two.  A block-diagonal matrix's singular values are its blocks' values
    plus zeros.  A one-column block has one singular value, its column's
    norm: the chunk's column norms, masked to the one-column blocks (free)
    or to the value-free ones (fixed), are sorted, and the last min(R, C)
    kept.  Blocks have disjoint rows and columns, so the norms and the
    multi-column blocks' values number at most min(R, C), and only zeros
    are cut.  Each multi-column segment is gathered in block order and read
    by a values-only ``np.linalg.svd`` call, the package's only SVDs, where
    it has rows and columns, into the front of its operator's rows, which
    hold zeros there: the value-free segment once for both sides, the value
    segment with all its columns (free) and with its transform columns
    alone (fixed).  A last sort puts each row in descending order.

    The order is read off the assembled matrices, so it assumes nothing
    about the structure under test, and it is exact: permutation matrices
    are orthogonal.  It only saves time: LAPACK's bidiagonalisation trims
    each reflector to its last nonzero row and column, so it skips the zero
    work between blocks only when each block's entries sit together."""
    stacks, size, columns = differential.shape
    rows, cols, row_at, col_at, one_column = _block_order(differential != 0, fixed_columns)
    norms = np.linalg.norm(differential, axis=-2)[:, None, :]
    masks = np.stack([one_column, one_column & (np.arange(columns) < fixed_columns)], axis=1)
    width = min(size, columns)
    spectra = np.sort(np.where(masks, norms, 0.0), axis=-1)[..., columns - width :]
    spans = np.diff(col_at).reshape(stacks, 3)
    for p in np.flatnonzero(spans[:, 0] + spans[:, 1]).tolist():
        matrix, sides = differential[p], spectra[p]
        r0, r1, r2 = row_at[3 * p : 3 * p + 3]
        c0, c1, c2 = col_at[3 * p : 3 * p + 3]
        at = 0
        if c1 > c0:
            head = np.linalg.svd(matrix[rows[r0:r1]][:, cols[c0:c1]], compute_uv=False)
            at = head.size
            sides[:, :at] = head
        if c2 > c1:
            tail_cols = cols[c1:c2]
            tail = matrix[rows[r1:r2]][:, tail_cols]
            for side, block in zip(sides, (tail, tail[:, tail_cols < fixed_columns])):
                if block.shape[1]:
                    values = np.linalg.svd(block, compute_uv=False)
                    side[at : at + values.size] = values
    return np.sort(spectra, axis=-1)[..., ::-1].reshape(2 * stacks, width)


#: Most bytes of one chunk's image stack (P, columns, n, m), each
#: profile's columns padded to the chunk's most: twelve 8x8 singular-value
#: stacks.  Every temporary of the assembly and its checks is at most this
#: size.  A profile whose stack alone is larger is a chunk of one.
_CHUNK_BYTES = 393_216


def _stack_bytes(cls, shape, columns):
    """Bytes of one profile's image stack (columns, n, m) of the class,
    complex for the unitary-group classes and real for the others."""
    return columns * math.prod(shape) * (16 if cls in _UNITARY_GROUP else 8)


def largest_stack_bytes(max_n, max_m):
    """Most bytes of one profile's image stack, counted as :func:`_chunks`
    counts them, over every class and profile of a sweep to order
    ``max_n`` (singular values up to ``max_n`` by ``max_m``), plus the
    skew-symmetric basis of the larger order.  The largest stack is the
    normal one of n distinct values at n = ``max_n`` (complex, two value
    columns each) or the singular-value one of min(n, m) distinct values at
    ``max_n`` by ``max_m``, whichever is larger; arithmetic only, so no
    bound is too large to estimate."""
    n, m = max_n, max_m
    normal = _stack_bytes(MatrixClass.NORMAL, (n, n), n * n + 2 * n)
    columns = (n * (n - 1) + m * (m - 1)) // 2 + min(n, m)
    singular = _stack_bytes(MatrixClass.SINGULAR_VALUES, (n, m), columns)
    order = max(n, m)
    return max(normal, singular) + order * (order - 1) // 2 * order * order * 8


def _chunks(cls, profiles):
    """Slices of consecutive ``profiles`` with one base-point shape and at
    most :data:`_CHUNK_BYTES` in their chunk's image stack."""
    start, shape, widest = 0, None, 0
    for index, data in enumerate(profiles):
        columns = sum(_columns(cls, data))
        base_shape = (data.n, getattr(data, "m", data.n))
        if base_shape == shape:
            widest = max(widest, columns)
            size = (index - start + 1) * _stack_bytes(cls, shape, widest)
            if size <= _CHUNK_BYTES:
                continue
        if index > start:
            yield slice(start, index)
        start, shape, widest = index, base_shape, columns
    if profiles:
        yield slice(start, len(profiles))


#: Verdict names by code; a report exits with its verdict's code.
_VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")


def _reported(schema, **default):
    """A field that the report holds, with its JSON schema."""
    return field(metadata={"schema": schema}, **default)


@dataclass(frozen=True, kw_only=True)
class Columns:
    """One kind of case of a run of profiles, a list per field, entry p
    profile p's: the oracle case (real ranks against the real counts with
    values free and fixed) or the stabiliser case (the fixed-values nullity
    against the commutant term; no fixed lists).  The fields with a schema
    are the report's, in its order; a report leaves a None one out.
    ``observed`` is -1 and ``gap_ratio`` (uncapped) 0.0 where a read is
    undecided; ``certified`` where reads and exact witnesses prove the
    counts from both sides; ``detail``, not reported, is why a case did not
    pass, "" where it did."""

    predicted: list[int] = _reported({"type": "integer"})
    observed: list[int] = _reported({"type": "integer"})
    gap_ratio: list[float] = _reported({"type": "number"})
    verdict: list[str] = _reported({"enum": list(_VERDICTS)})
    certified: list[bool] = _reported({"type": "boolean"})
    predicted_fixed: list[int] | None = _reported({"type": "integer"}, default=None)
    observed_fixed: list[int] | None = _reported({"type": "integer"}, default=None)
    detail: list[str]


def _decide(matrix_class, profiles, decisions, witnesses, gap_requirement):
    """Both cases of every profile in one array pass, from ``decisions``,
    profile p's free row at 2p and fixed row at 2p + 1, and the witnesses'
    count, exactness and largest residual, a list each.  Predictions are
    the terms of the class's ``formulas._COUNTS`` record, doubled over the
    complex field.  The oracle case needs both rows decided with a gap
    ratio of at least ``gap_requirement``; a shortfall is INCONCLUSIVE, a
    rank mismatch FAIL.  The stabiliser case reads the fixed row,
    band-only: it fails where the nullity is not the commutant term or the
    witnesses do not span the kernel (not as many, or a residual above the
    threshold), and passes, certified, only where they annihilate it
    exactly; an inexact span is inconclusive.  A ``detail`` is formatted
    only where a case does not pass."""
    count, reason = _COUNTS[matrix_class], decisions.reason
    terms = [[t(data) for data in profiles] for t in (count.group, count.commutant, count.values)]
    group, commutant, values = np.array(terms, dtype=int).reshape(3, -1)
    real = 2 if count.field_kind == "complex" else 1
    predicted = real * np.stack([group - commutant + values, group - commutant], axis=-1)

    def rows(column, dtype):  # each profile's free and fixed rows
        return np.array(column, dtype=dtype).reshape(-1, 2)

    rank, nullity = rows(decisions.rank, int), rows(decisions.nullity, int)
    gap, threshold = rows(decisions.gap_ratio, float), rows(decisions.threshold, float)[:, 1]
    undecided = rows([r is not None for r in reason], bool)
    found, exact, worst = (np.array(w, dtype=t) for w, t in zip(witnesses, (int, bool, float)))
    fixed, read = nullity[:, 1], ~undecided[:, 1]
    faults = [undecided[:, 1], fixed != commutant, found != fixed, ~exact]
    branch = np.select(faults, [0, 1, 2, 3], 4)  # the stabiliser's first fault, 4 for none
    stabilizer = np.choose(branch, [2, 1, 1, np.where(worst > threshold, 1, 2), 0])
    blocked = undecided | (gap < gap_requirement)
    inconclusive = blocked.any(axis=-1)
    ranks = real * rank
    oracle = np.where(inconclusive, 2, (ranks != predicted).any(axis=-1))
    # Exact witnesses as many as both nullities bound both ranks from above.
    certified = (oracle == 0) & exact & (found == fixed) & (fixed == nullity[:, 0])
    observed = np.where(inconclusive[:, None], -1, ranks)
    least = np.where(gap[:, 1] < gap[:, 0], gap[:, 1], gap[:, 0])  # min(free, fixed), NaN as Python

    def oracle_detail(p):
        if not inconclusive[p]:
            return f"observed {tuple(ranks[p].tolist())}, predicted {tuple(predicted[p].tolist())}"
        row = 2 * p + int(not blocked[p, 0])
        if reason[row] is not None:
            return reason[row]
        return f"kept/dropped gap ratio {gap.flat[row]:.3e} below required {gap_requirement:.3e}"

    def stabilizer_detail(p):
        return (
            reason[2 * p + 1],
            f"nullity {fixed[p]}, predicted {commutant[p]}",
            f"{found[p]} witnesses for a kernel of dimension {fixed[p]}",
            f"witness residual {worst[p]:.3e} against threshold {threshold[p]:.3e}",
        )[branch[p]]

    def details(codes, detail):
        return [detail(p) if code else "" for p, code in enumerate(codes.tolist())]

    return (
        Columns(
            predicted=predicted[:, 0].tolist(), observed=observed[:, 0].tolist(),
            gap_ratio=np.where(inconclusive, 0.0, least).tolist(),
            verdict=[_VERDICTS[c] for c in oracle.tolist()], certified=certified.tolist(),
            detail=details(oracle, oracle_detail),
            predicted_fixed=predicted[:, 1].tolist(), observed_fixed=observed[:, 1].tolist(),
        ),
        Columns(
            predicted=commutant.tolist(), observed=np.where(read, fixed, -1).tolist(),
            gap_ratio=np.where(read, gap[:, 1], 0.0).tolist(),
            verdict=[_VERDICTS[c] for c in stabilizer.tolist()],
            certified=(stabilizer == 0).tolist(),
            detail=details(stabilizer, stabilizer_detail),
        ),
    )


def _verify_chunk(matrix_class, profiles, drawn, tol):
    """The decided rows of one chunk, at its rows ``drawn`` (P, count) of
    the scope's spectra, each profile's free row then its fixed row, each
    at its own operator's noise floor, and its witness checks, as
    :func:`_decide` takes them; its stacks are freed on return."""
    slots = _value_slots(profiles)
    base = factory.base_points(profiles, drawn, slots)
    differential, values = _operator(matrix_class, profiles, base, slots)
    _, rows, columns = differential.shape
    fixed_columns = columns - max(values)
    spectra = _split_read(differential, fixed_columns)
    sizes = [c for v in values for c in (fixed_columns + v, fixed_columns)]
    decisions = decide_ranks(spectra, sizes, tol, rows)
    return decisions, check_witnesses(matrix_class, profiles, differential[..., :fixed_columns])


def verify_profiles(
    matrix_class: MatrixClass,
    profiles,
    seeds,
    tol: float = DEFAULT_TOLERANCE,
    gap_requirement: float = DEFAULT_GAP_REQUIREMENT,
) -> tuple[Columns, Columns]:
    """Probe the class at one base point of each profile against the closed
    form, profile i's drawn from its key ``seeds[i]``, an integer in
    [0, 2**64) (:mod:`~matstrata.factory`): the oracle and the stabiliser
    :class:`Columns` (:func:`_decide`), entry i profile i's.  Raises
    ``ValueError`` for a key outside that range.  Every profile's spectrum
    is drawn in one :func:`~matstrata.factory.spectra` call, and each chunk
    takes its own rows, trimmed to its largest count: a row's values do not
    depend on the width or the rows beside it.  Consecutive profiles of
    one base-point shape are read in chunks of at most
    :data:`_CHUNK_BYTES` of images, whose padding is never read, and all
    rows are decided at once, so no case depends on the chunking."""
    profiles, seeds = list(profiles), factory._keys(seeds)
    if seeds.shape != (len(profiles),):
        raise ValueError(f"{len(profiles)} profiles but {seeds.size} seeds")
    jordan = matrix_class is MatrixClass.JORDAN
    gap = factory.JORDAN_SPECTRUM_GAP if jordan else factory.DEFAULT_MIN_GAP
    counts = [len(_value_parts(data)) for data in profiles]
    values = factory.spectra(_SPECTRUM_KIND[matrix_class], counts, seeds, gap)
    reads = [
        _verify_chunk(matrix_class, profiles[chunk], values[chunk, : max(counts[chunk])], tol)
        for chunk in _chunks(matrix_class, profiles)
    ]
    names = [f.name for f in fields(RankDecisions)]
    decisions = RankDecisions(*[[v for d, _ in reads for v in getattr(d, n)] for n in names])
    witnesses = [[v for _, w in reads for v in w[i]] for i in range(3)]
    return _decide(matrix_class, profiles, decisions, witnesses, gap_requirement)
