from dataclasses import dataclass

import numpy as np
import pytest
import sympy
from conftest import Inconclusive, commutant_term, point_of, read_at, spectrum_of, stabilizer

from matstrata import commutant, factory, tangent_oracle
from matstrata.commutant import _triangle, check_witnesses
from matstrata.factory import JORDAN_SPECTRUM_GAP, derive_seed
from matstrata.formulas import MatrixClass, dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from matstrata.tangent_oracle import _skew_symmetric, verify_profiles

DIAGONAL_CLASSES = (
    MatrixClass.DIAGONALIZABLE_COMPLEX,
    MatrixClass.NORMAL,
    MatrixClass.HERMITIAN,
    MatrixClass.UNITARY,
    MatrixClass.REAL_SYMMETRIC,
)
SINGULAR = MatrixClass.SINGULAR_VALUES
#: The classes whose stabiliser is U(k) blocks, over the skew-Hermitian basis.
UNITARY_BLOCK_CLASSES = (MatrixClass.NORMAL, MatrixClass.HERMITIAN, MatrixClass.UNITARY)


def exact_commutant_nullity(J_int):
    """Independent oracle: exact rational null space of the commutation map."""
    J = sympy.Matrix(J_int)
    n = J.shape[0]
    eye = sympy.eye(n)
    op = sympy.Matrix(np.kron(np.array(J.T.tolist()), np.array(eye.tolist()))) - sympy.Matrix(
        np.kron(np.array(eye.tolist()), np.array(J.tolist()))
    )
    return len(op.nullspace())


def exact_qp_nullity(sigma_int):
    """Independent oracle: exact nullity of (X, Y) -> X Sigma - Sigma Y over
    integer-weighted skew pairs."""
    sigma = sympy.Matrix(sigma_int)
    n, m = sigma.shape
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            x = sympy.zeros(n, n)
            x[i, j], x[j, i] = 1, -1
            cols.append((x * sigma).vec())
    for i in range(m):
        for j in range(i + 1, m):
            y = sympy.zeros(m, m)
            y[i, j], y[j, i] = 1, -1
            cols.append((-sigma * y).vec())
    if not cols:
        return 0
    op = sympy.Matrix.hstack(*cols)
    return op.cols - op.rank()


def int_jordan(js, eigenvalues):
    """Jordan matrix with integer eigenvalues, for the exact oracle."""
    mat = np.zeros((js.n, js.n), dtype=complex)
    pos = 0
    for lam, sizes in zip(eigenvalues, js.blocks):
        for size in sizes:
            mat[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
                np.ones(size - 1), 1
            )
            pos += size
    return mat.real.astype(int)


def commutant_of(J, tol=1e-8):
    """Band-only read of the commutation map S -> S J - J S at J (the Jordan
    class's fixed-values operator) and a (dimension, n, n) null basis of
    it, from this module's own SVD with vectors."""
    kernel, _ = read_at(MatrixClass.JORDAN, None, J, tol=tol)
    # The columns are the matrix units in row-major order.
    return kernel, null_basis(kernel).reshape(kernel.nullity, *J.shape)


def null_basis(kernel):
    """Rows spanning the null space of a read's operator, by the nullity the
    read decided."""
    vh = np.linalg.svd(kernel.operator)[2]
    return vh[kernel.rank :].conj()


def stabilizer_at(matrix_class, data, at, tol=1e-8):
    """Stabiliser of the class's base point ``at``, a matrix or a seed, read
    as :func:`matstrata.tangent_oracle.verify_profiles` reads its point."""
    kernel, _ = read_at(matrix_class, data, at, tol=tol)
    return stabilizer(matrix_class, data, kernel)


def witness_of(matrix_class, data):
    """The witness columns of one profile: its stack of
    :func:`commutant._witnesses` on a chunk of one, which has no padding."""
    witness, (count,) = commutant._witnesses(matrix_class, [data])
    assert witness.shape[-1] == count
    return witness[0]


def residuals_of(kernel, witness):
    """:func:`commutant._residuals` of one read's operator and one
    profile's witness columns, as a chunk of one."""
    images = np.matmul(kernel.operator[None], witness[None])
    return commutant._residuals(images, witness[None])[0]


def padded(witnesses):
    """Per-profile witness columns as a chunk's stack, zero-padded to the
    widest, with each one's count."""
    count = [w.shape[1] for w in witnesses]
    stack = np.zeros((len(witnesses), witnesses[0].shape[0], max(count)))
    for out, w in zip(stack, witnesses):
        out[:, : w.shape[1]] = w
    return stack, count


def verify_stabilizers(matrix_class, profiles, seeds):
    """The stabiliser checks of a whole sweep, in chunks, and its oracle
    checks."""
    oracles, stabilizers = zip(*verify_profiles(matrix_class, profiles, seeds))
    return stabilizers, oracles


class TestFrozenOracleValues:
    """Expected integers computed with the exact sympy oracle, then frozen."""

    def test_jordan_21_single_eigenvalue(self):
        js = JordanStructure.of((2, 1))
        J = int_jordan(js, [0])
        assert exact_commutant_nullity(J) == 5  # frozen from the oracle
        assert commutant_term(MatrixClass.JORDAN, js) == 5

    def test_two_eigenvalues_2_2(self):
        js = JordanStructure.of((2,), (2,))
        J = int_jordan(js, [0, 1])
        assert exact_commutant_nullity(J) == 4  # frozen from the oracle
        assert commutant_term(MatrixClass.JORDAN, js) == 4

    def test_distinct_diagonal(self):
        for n in (2, 3, 4):
            assert exact_commutant_nullity(np.diag(range(1, n + 1))) == n

    def test_qp_4x3_double_value(self):
        sigma = np.zeros((4, 3), dtype=int)
        sigma[0, 0] = sigma[1, 1] = 2
        assert exact_qp_nullity(sigma) == 2  # frozen from the oracle


class TestCommutantDimension:
    def test_single_jordan_block(self):
        for n in range(1, 7):
            js = JordanStructure.of((n,))
            J = point_of(js, spectrum_of(1, "complex", n))
            assert commutant_of(J)[0].nullity == n

    def test_identity(self):
        for n in (2, 4):
            assert commutant_of(np.eye(n))[0].nullity == n * n

    def test_distinct_diagonal(self):
        assert commutant_of(np.diag([1.0, 2.0, 3.0, 4.0]))[0].nullity == 4

    def test_indecision_band_raises(self):
        # eigenvalue gap of 1e-8 sits exactly at the relative threshold
        with pytest.raises(Inconclusive, match="inside the indecision band"):
            commutant_of(np.diag([0.0, 1.0, 1.0 + 1e-8]))

    def test_basis_properties(self):
        js = JordanStructure.of((3, 1), (2,))
        J = point_of(js, spectrum_of(2, "complex", 5))
        kernel, basis = commutant_of(J)
        dimension = kernel.nullity
        assert dimension == commutant_term(MatrixClass.JORDAN, js) == 8
        # orthonormality under the Frobenius inner product
        flat = basis.reshape(dimension, -1)
        gram = flat @ flat.conj().T
        assert np.abs(gram - np.eye(dimension)).max() < 1e-10
        # every element genuinely commutes
        j_norm = np.linalg.norm(J)
        for elem in basis:
            residual = np.linalg.norm(elem @ J - J @ elem)
            assert residual <= 1e-8 * j_norm * np.linalg.norm(elem)
        assert kernel.gap_ratio >= 1e4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_structured_dim_exhaustive(self, n):
        # three random spectra per structure
        for idx, js in enumerate(jordan_structures(n)):
            expected = commutant_term(MatrixClass.JORDAN, js)
            for draw in range(3):
                spec = spectrum_of(
                    js.num_eigenvalues,
                    "complex",
                    derive_seed(n, idx, draw),
                    JORDAN_SPECTRUM_GAP,
                )
                kernel, _ = commutant_of(point_of(js, spec))
                assert kernel.nullity == expected, (js, draw)
                assert kernel.gap_ratio >= 1e4


class TestRestrictedCommutant:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_lemmas(self, n):
        for idx, profile in enumerate(multiplicity_profiles(n)):
            sum_sq = sum(k * k for k in profile.parts)
            sum_pairs = sum(k * (k - 1) // 2 for k in profile.parts)

            # matrices commuting with a diagonal point of complex values, and
            # skew-Hermitian transforms commuting with a diagonal point, for
            # complex (normal), real (Hermitian) and unimodular values
            seed = derive_seed(7, n, idx)
            for cls in (MatrixClass.DIAGONALIZABLE_COMPLEX, *UNITARY_BLOCK_CLASSES):
                found = stabilizer_at(cls, profile, seed)
                assert found.dimension == sum_sq, (cls, profile)
                assert found.gap_ratio >= 1e4
                assert found.structure_ok, (cls, profile)

            found = stabilizer_at(MatrixClass.REAL_SYMMETRIC, profile, derive_seed(8, n, idx))
            assert found.dimension == sum_pairs
            assert found.gap_ratio >= 1e4
            assert found.structure_ok, profile


@dataclass(frozen=True)
class ToeplitzPattern:
    """Constraint pattern of one same-eigenvalue block of a commuting matrix,
    the per-block reference for the label masks of :func:`check_null_basis`
    and for the witness columns of :func:`commutant._toeplitz_witnesses`.

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


class TestToeplitzPattern:
    def test_tall_block(self):
        pat = ToeplitzPattern.for_sizes(2, 1)
        assert pat.free_count == 1
        np.testing.assert_array_equal(pat.zero_mask, [[False], [True]])

    def test_wide_block(self):
        pat = ToeplitzPattern.for_sizes(1, 2)
        assert pat.free_count == 1
        np.testing.assert_array_equal(pat.zero_mask, [[True, False]])

    def test_square_block(self):
        # a same-eigenvalue square block is upper-triangular Toeplitz
        pat = ToeplitzPattern.for_sizes(3, 3)
        assert pat.free_count == 3
        np.testing.assert_array_equal(pat.zero_mask, np.tril(np.ones((3, 3), bool), -1))

    def test_free_count_is_min(self):
        for ki in range(1, 6):
            for kj in range(1, 6):
                pat = ToeplitzPattern.for_sizes(ki, kj)
                # free diagonals = total diagonals minus fully masked ones
                free = 0
                for d in range(-(ki - 1), kj):
                    diag = np.diagonal(pat.zero_mask, offset=d)
                    if not diag.all():
                        free += 1
                assert free == pat.free_count == min(ki, kj)


class MaskViolationError(Exception):
    """A null basis element breaks the predicted commutant block pattern."""

    def __init__(self, condition, block_pair, entry, magnitude):
        super().__init__(f"{condition} violation of {magnitude:.3e} in block {block_pair}")
        self.condition = condition
        self.block_pair = block_pair
        self.entry = entry
        self.magnitude = magnitude


@dataclass(frozen=True)
class MaskReport:
    max_cross_violation: float
    max_toeplitz_violation: float
    max_mask_violation: float

    @property
    def max_violation(self) -> float:
        return max(
            self.max_cross_violation, self.max_toeplitz_violation, self.max_mask_violation
        )


def labels(js):
    """Block, eigenvalue, 0-based place in the block and block size of each
    row (and column) of the Jordan matrix of ``js``."""
    sizes = np.array([k for part in js.blocks for k in part])
    block = np.repeat(np.arange(sizes.size), sizes)
    eig = np.repeat(np.arange(js.num_eigenvalues), js.block_counts)[block]
    place = np.arange(js.n) - (np.cumsum(sizes) - sizes)[block]
    return block, eig, place, sizes[block]


def structure_masks(block, eig, place, size):
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


def check_null_basis(js, null_basis, tol=1e-8):
    """The label-mask reference for a (dimension, n, n) basis of commuting
    matrices, the Toeplitz check of the package before it read the paper's
    witness: (a) cross-block, the entries joining different eigenvalues;
    (b) toeplitz, the differences S[i, j] - S[i+1, j+1] with both steps
    inside one block of the same eigenvalue; (c) zero-mask, the entries
    (s, t) (1-based, in block) of a same-eigenvalue block of sizes
    (k_i, k_j) with t < s + max(k_j - k_i, 0).  Returns the largest
    violation per condition, or raises with the offending block pair and
    entry of the first condition, in that order, above ``tol``."""
    block_labels = labels(js)
    masks = structure_masks(*block_labels)
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
            block_pair, entry = locate(
                magnitudes[condition], masks[condition], block_labels, magnitude
            )
            raise MaskViolationError(condition, block_pair, entry, magnitude)
    return MaskReport(worst["cross-block"], worst["toeplitz"], worst["zero-mask"])


def locate(magnitudes, mask, block_labels, peak):
    """Block pair and 1-based in-block entry of ``peak``; among ties, the
    first by basis element, row block, column block, row, then column."""
    block, _, place, _ = block_labels
    rows, cols = np.nonzero(mask)
    element, k = np.nonzero(magnitudes == peak)
    r, c = rows[k], cols[k]
    first = np.lexsort((place[c], place[r], block[c], block[r], element))[0]
    r, c = r[first], c[first]
    return (int(block[r]), int(block[c])), (int(place[r]) + 1, int(place[c]) + 1)


def reference_toeplitz_check(js, basis, tol=1e-8):
    """Per-element, per-block-pair loop that the masked check replaced: the
    three maxima, or the violation the loop raised."""
    layout = []
    offset = 0
    for eig_index, sizes in enumerate(js.blocks):
        for size in sizes:
            layout.append((eig_index, size, offset))
            offset += size
    worst = {"cross-block": 0.0, "toeplitz": 0.0, "zero-mask": 0.0}
    locate = {}

    def track(condition, magnitudes, block_pair):
        if magnitudes.size == 0:
            return
        peak = float(magnitudes.max())
        if peak > worst[condition]:
            worst[condition] = peak
            s, t = np.unravel_index(int(np.argmax(magnitudes)), magnitudes.shape)
            locate[condition] = (block_pair, (int(s) + 1, int(t) + 1))

    for element in basis:
        for u, (eig_u, k_u, off_u) in enumerate(layout):
            for v, (eig_v, k_v, off_v) in enumerate(layout):
                block = element[off_u : off_u + k_u, off_v : off_v + k_v]
                if eig_u != eig_v:
                    track("cross-block", np.abs(block), (u, v))
                    continue
                if k_u > 1 and k_v > 1:
                    track("toeplitz", np.abs(block[:-1, :-1] - block[1:, 1:]), (u, v))
                pattern = ToeplitzPattern.for_sizes(k_u, k_v)
                if pattern.zero_mask.any():
                    masked = np.where(pattern.zero_mask, np.abs(block), 0.0)
                    track("zero-mask", masked, (u, v))
    for condition, magnitude in worst.items():
        if magnitude > tol:
            block_pair, entry = locate[condition]
            raise MaskViolationError(condition, block_pair, entry, magnitude)
    return worst["cross-block"], worst["toeplitz"], worst["zero-mask"]


def seeded_commutant_bases(max_n):
    for n in range(1, max_n + 1):
        for idx, js in enumerate(jordan_structures(n)):
            spec = spectrum_of(
                js.num_eigenvalues, "complex", derive_seed(11, n, idx), JORDAN_SPECTRUM_GAP
            )
            yield js, commutant_of(point_of(js, spec))[1]


def tampered(basis, element, entry):
    bad = basis.copy()
    bad[(element, *entry)] += 0.5
    return bad


def raised(check, *args):
    with pytest.raises(MaskViolationError) as info:
        check(*args)
    err = info.value
    return err.condition, err.block_pair, err.entry, err.magnitude


class TestToeplitzStructure:
    def test_diagonalizable_distinct_blocks_vanish(self):
        js = JordanStructure.of((1,), (1,), (1,))
        _, basis = commutant_of(point_of(js, spectrum_of(3, "complex", 4)))
        report = check_null_basis(js, basis)
        assert report.max_cross_violation <= 1e-8

    def test_single_block_spans_polynomials(self):
        n = 4
        js = JordanStructure.of((n,))
        _, basis = commutant_of(point_of(js, spectrum_of(1, "complex", 9)))
        report = check_null_basis(js, basis)
        assert report.max_violation <= 1e-8
        # I, H, H^2, H^3 all lie in the span of the numerical basis
        H = np.diag(np.ones(n - 1), 1)
        flat = basis.reshape(len(basis), -1)
        for power in range(n):
            target = np.linalg.matrix_power(H, power).astype(complex).ravel()
            coeffs = flat.conj() @ target
            assert np.linalg.norm(flat.T @ coeffs - target) < 1e-10
        # and they are the witness columns, the bands of H^d
        witness = witness_of(MatrixClass.JORDAN, js)
        for power in range(n):
            target = np.linalg.matrix_power(H, power).ravel()
            np.testing.assert_array_equal(witness[:, power], target)

    def test_21_same_eigenvalue_row2_zero(self):
        js = JordanStructure.of((2, 1))
        _, basis = commutant_of(point_of(js, spectrum_of(1, "complex", 2)))
        report = check_null_basis(js, basis)
        assert report.max_violation <= 1e-8
        # the tall (2, 1) cross block has its second row forced to zero
        for elem in basis:
            assert abs(elem[1, 2]) <= 1e-8
        witness = witness_of(MatrixClass.JORDAN, js)
        assert not witness.reshape(3, 3, -1)[1, 2].any()

    def test_violation_reported_with_location(self):
        # one eigenvalue claimed, two present: the bands of the (2, 1) block
        # pair join them, and are the first witnesses left with a residual
        js = JordanStructure.of((2, 1))
        J = point_of(JordanStructure.of((2,), (1,)), (0, 3))
        kernel, _ = read_at(MatrixClass.JORDAN, None, J)
        residuals = residuals_of(kernel, witness_of(MatrixClass.JORDAN, js))
        column = np.flatnonzero(residuals > kernel.threshold)[0]
        assert band_of(js, column) == ((0, 1), 0)
        assert residuals[column] == pytest.approx(3.0)
        assert not stabilizer(MatrixClass.JORDAN, js, kernel).structure_ok

    @pytest.mark.parametrize(
        "blocks, entry, condition, block_pair, located",
        [
            # single 3-block: entry (1, 0) enters only the difference S[1,0] - S[2,1]
            (((3,),), (1, 0), "toeplitz", (0, 0), (2, 1)),
            # blocks 3 and 2 of one eigenvalue: only S[0,3] - S[1,4] moves
            (((3, 2),), (0, 3), "toeplitz", (0, 1), (1, 1)),
            # the tall (2, 1) block's second row, outside any Toeplitz pair
            (((2, 1),), (1, 2), "zero-mask", (0, 1), (2, 1)),
            # the wide (1, 2) block's leading entry
            (((2, 1),), (2, 0), "zero-mask", (1, 0), (1, 1)),
        ],
    )
    def test_structure_violation_located(self, blocks, entry, condition, block_pair, located):
        js = JordanStructure.of(*blocks)
        J = point_of(js, spectrum_of(js.num_eigenvalues, "complex", 6))
        bad = tampered(commutant_of(J)[1], 0, entry)
        with pytest.raises(MaskViolationError) as info:
            check_null_basis(js, bad)
        assert info.value.condition == condition
        assert info.value.block_pair == block_pair
        assert info.value.entry == located

    def test_stabilizer_passes_tolerance(self):
        # the witness residuals are judged against the read's own threshold,
        # which follows the tolerance.  The operator is moved on the support
        # of a one-entry witness, so that witness's residual is the moved
        # entry: at the threshold it passes, one ulp above it fails, and
        # neither product is exact.
        js = JordanStructure.of((2, 1))
        assert stabilizer_at(MatrixClass.JORDAN, js, 3, tol=1e-3).structure_ok
        kernel, _ = read_at(MatrixClass.JORDAN, js, 3, tol=1e-3)
        threshold = kernel.threshold
        assert threshold == 1e-3 * kernel.singular_values[0]
        witness = witness_of(MatrixClass.JORDAN, js)
        column = np.flatnonzero(witness.sum(axis=0) == 1)[0]
        (entry,) = np.flatnonzero(witness[:, column])
        assert not kernel.operator[:, entry].any()
        for residual, ok in ((threshold, True), (np.nextafter(threshold, np.inf), False)):
            moved = kernel.operator.copy()
            moved[0, entry] = residual
            read = kernel._replace(operator=moved)
            assert residuals_of(read, witness)[column] == residual
            found = stabilizer(MatrixClass.JORDAN, js, read)
            assert not found.exact
            assert found.structure_ok is ok

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sweep_passes(self, n):
        for idx, js in enumerate(jordan_structures(n)):
            spec = spectrum_of(
                js.num_eigenvalues, "complex", derive_seed(3, n, idx), JORDAN_SPECTRUM_GAP
            )
            kernel, basis = commutant_of(point_of(js, spec))
            report = check_null_basis(js, basis)
            assert report.max_violation <= 1e-8
            found = stabilizer(MatrixClass.JORDAN, js, kernel)
            assert found.structure_ok, js
            expected = commutant_term(MatrixClass.JORDAN, js)
            assert found.dimension == kernel.nullity == expected, js


class TestToeplitzAgainstLoopReference:
    """The label-mask reference against the per-block loop it replaced."""

    def test_maxima_equal_reference(self):
        for js, basis in seeded_commutant_bases(6):
            report = check_null_basis(js, basis)
            maxima = (
                report.max_cross_violation,
                report.max_toeplitz_violation,
                report.max_mask_violation,
            )
            assert maxima == reference_toeplitz_check(js, basis), js

    @pytest.mark.parametrize("condition", ("cross-block", "toeplitz", "zero-mask"))
    def test_violation_equals_reference(self, condition):
        rng = np.random.default_rng(5)
        tried = 0
        for js, basis in seeded_commutant_bases(5):
            mask = structure_masks(*labels(js))[condition]
            entries = np.argwhere(mask)
            if not len(basis) or not entries.size:
                continue
            element = int(rng.integers(len(basis)))
            entry = tuple(entries[rng.integers(len(entries))])
            bad = tampered(basis, element, entry)
            assert raised(check_null_basis, js, bad) == raised(
                reference_toeplitz_check, js, bad
            ), (js, element, entry)
            tried += 1
        assert tried > 10

    def test_tie_located_in_block_order(self):
        # Equal peaks at (1, 2) in block pair (0, 1) and (0, 3) in (0, 2):
        # the loop met block pair (0, 1) first, row-major order meets (0, 3).
        js = JordanStructure.of((2,), (1,), (1,))
        _, basis = commutant_of(point_of(js, spectrum_of(3, "complex", 6)))
        bad = tampered(basis, 0, (1, 2))
        bad[0, 1, 2] = bad[0, 0, 3] = 1.0
        found = raised(check_null_basis, js, bad)
        assert found == raised(reference_toeplitz_check, js, bad)
        assert found == ("cross-block", (0, 1), (2, 1), 1.0)

    def test_zero_mask_matches_pattern(self):
        for n in range(1, 7):
            for js in jordan_structures(n):
                zero = structure_masks(*labels(js))["zero-mask"]
                sizes = [k for part in js.blocks for k in part]
                owner = [a for a, part in enumerate(js.blocks) for _ in part]
                starts = np.cumsum([0] + sizes)
                for u, k_u in enumerate(sizes):
                    for v, k_v in enumerate(sizes):
                        if owner[u] != owner[v]:
                            continue
                        got = zero[starts[u] : starts[u + 1], starts[v] : starts[v + 1]]
                        expected = ToeplitzPattern.for_sizes(k_u, k_v).zero_mask
                        np.testing.assert_array_equal(got, expected, err_msg=f"{js} {u} {v}")


def qp_violations(null, profile):
    """Coupled-block reference: the largest entries of the pairs ``null``
    (rows of skew-symmetric coordinates of X, then Y) outside the singular
    value groups' diagonal blocks, and the largest X - Y difference inside
    the leading blocks."""
    n, m, r = profile.n, profile.m, profile.rank
    x_count = n * (n - 1) // 2
    X = np.tensordot(null[:, :x_count], _skew_symmetric(n), 1)
    Y = np.tensordot(null[:, x_count:], _skew_symmetric(m), 1)
    x_blocks = block_mask((*profile.parts, n - r))
    y_blocks = block_mask((*profile.parts, m - r))
    max_offdiag = max(
        np.abs(X[:, ~x_blocks]).max(initial=0.0), np.abs(Y[:, ~y_blocks]).max(initial=0.0)
    )
    coupled = np.abs(X[:, :r, :r] - Y[:, :r, :r])[:, block_mask(profile.parts)]
    return float(max_offdiag), float(coupled.max(initial=0.0))


def block_mask(block_sizes):
    """Mask of the diagonal blocks of the given sizes, in order."""
    block_labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return block_labels[:, None] == block_labels[None, :]


def qp_pair(sigma, sp, tol=1e-8):
    """Stabiliser of Sigma among the orthogonal pairs, and the largest
    off-block and coupling violations of a null basis of its operator."""
    kernel, _ = read_at(MatrixClass.SINGULAR_VALUES, sp, sigma, tol=tol)
    violations = qp_violations(null_basis(kernel), sp)
    return stabilizer(MatrixClass.SINGULAR_VALUES, sp, kernel), violations


def matches_formula(found, sp):
    expected = commutant_term(MatrixClass.SINGULAR_VALUES, sp)
    return found.dimension == expected and found.structure_ok


class TestSolveQPPair:
    def test_square_double(self):
        sp = SingularProfile(2, 2, (2,))
        found, _ = qp_pair(point_of(sp, spectrum_of(1, "positive-decreasing", 1)), sp)
        assert found.dimension == 1
        assert matches_formula(found, sp)

    def test_rectangular_simple(self):
        sp = SingularProfile(3, 2, (1, 1))
        found, _ = qp_pair(point_of(sp, spectrum_of(2, "positive-decreasing", 2)), sp)
        assert found.dimension == 0
        assert matches_formula(found, sp)

    def test_4x3_double(self):
        sp = SingularProfile(4, 3, (2,))
        found, _ = qp_pair(point_of(sp, spectrum_of(1, "positive-decreasing", 3)), sp)
        assert found.dimension == 2  # matches the frozen sympy oracle value
        assert matches_formula(found, sp)

    def test_rank_zero(self):
        sp = SingularProfile(3, 4, ())
        found, _ = qp_pair(point_of(sp, ()), sp)
        assert found.dimension == 3 + 6  # two free orthogonal factors
        assert matches_formula(found, sp)

    def test_structure_violations_measured(self):
        # a double value claimed as two simple ones: the null pair mixes the
        # claimed blocks
        found, (max_offdiag, _) = qp_pair(np.eye(2), SingularProfile(2, 2, (1, 1)))
        assert max_offdiag == pytest.approx(2**-0.5)
        assert not found.structure_ok
        # Sigma = antidiag(1, 1) is fixed by (X, -X), not by coupled (X, X)
        found, (_, max_coupling) = qp_pair(np.fliplr(np.eye(2)), SingularProfile(2, 2, (2,)))
        assert found.dimension == 1
        assert max_coupling == pytest.approx(2**0.5)
        assert not found.structure_ok

    def test_indecision_raises(self):
        sp = SingularProfile(2, 2, (1, 1))
        sigma = point_of(sp, (1.0 + 1e-8, 1.0))
        with pytest.raises(Inconclusive):
            qp_pair(sigma, sp)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sweep_matches_formula(self, n):
        for m in range(1, 7):
            for idx, sp in enumerate(singular_profiles(n, m)):
                spec = spectrum_of(
                    sp.num_distinct, "positive-decreasing", derive_seed(4, n, m, idx)
                )
                found, violations = qp_pair(point_of(sp, spec), sp)
                assert matches_formula(found, sp), (sp, found)
                assert found.gap_ratio >= 1e4
                assert max(violations) <= 1e-8, (sp, violations)


class TestCheckWitnesses:
    def test_broken_structure_flagged(self):
        # two eigenvalues claimed, one present: the commutant joins them
        js = JordanStructure.of((1,), (1,))
        found = stabilizer_at(MatrixClass.JORDAN, js, np.eye(2, dtype=complex))
        assert found.dimension == 4 and not found.structure_ok
        # a double singular value claimed as two simple ones
        sp = SingularProfile(2, 2, (1, 1))
        found = stabilizer_at(MatrixClass.SINGULAR_VALUES, sp, np.eye(2))
        assert found.dimension == 1 and not found.structure_ok
        # two simple eigenvalues claimed, one double present: U(2) fixes the
        # point, the witness holds only the two i E_jj
        profile = MultiplicityProfile.of(1, 1)
        found = stabilizer_at(MatrixClass.HERMITIAN, profile, np.eye(2))
        assert found.dimension == 4 and not found.structure_ok

    def test_order_mismatch_rejected(self):
        # each class's witness of order 2 against an operator of order 3
        pair = MultiplicityProfile.of(1, 1), MultiplicityProfile.of(2, 1)
        cases = [(cls, *pair) for cls in DIAGONAL_CLASSES]
        cases += [
            (MatrixClass.JORDAN, JordanStructure.of((2,)), JordanStructure.of((2, 1))),
            (MatrixClass.SINGULAR_VALUES, SingularProfile(2, 2, (1,)), SingularProfile(3, 2, ())),
        ]
        for cls, data, other in cases:
            kernel, _ = read_at(cls, other, 5)
            with pytest.raises(ValueError, match="columns"):
                stabilizer(cls, data, kernel)


def block_starts(js):
    """Sizes, eigenvalue index and first row of each Jordan block."""
    sizes = [k for part in js.blocks for k in part]
    owner = [e for e, part in enumerate(js.blocks) for _ in part]
    return sizes, owner, np.cumsum([0] + sizes)


def band_widths(js):
    """The number of Toeplitz witness columns of each block pair, min(k_p,
    k_q) for blocks of one eigenvalue and 0 otherwise."""
    sizes, owner, _ = block_starts(js)
    return np.minimum.outer(sizes, sizes) * np.equal.outer(owner, owner)


def band_of(js, column):
    """Block pair and offset of a Toeplitz witness column; the columns are
    sorted by block pair, then offset."""
    width = band_widths(js)
    ends = np.cumsum(width)
    pair = int(np.searchsorted(ends, column, side="right"))
    return divmod(pair, len(width)), int(column - (ends[pair] - width.flat[pair]))


def unshifted_witness(js):
    """The Toeplitz witness with its zero-mask shift dropped: every band
    starts at the block's top-left corner, which is wrong for the wide
    blocks (k_p < k_q) of an eigenvalue with unequal block sizes."""
    sizes, owner, starts = block_starts(js)
    columns = []
    for p, q in np.ndindex(len(sizes), len(sizes)):
        if owner[p] != owner[q]:
            continue
        k = min(sizes[p], sizes[q])
        for d in range(k):
            band = np.zeros((js.n, js.n))
            s = np.arange(k - d)
            band[starts[p] + s, starts[q] + s + d] = 1.0
            columns.append(band.ravel())
    return np.array(columns).reshape(-1, js.n * js.n).T


def reference_toeplitz_witness(js):
    """The per-structure Toeplitz witness that the chunk builder replaced:
    columns (n*n, c) over the matrix units in row-major order, sorted by
    block pair, then offset."""
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


def reference_group_pairs(order, parts, trailing):
    """Row-major indices of the pairs i < j of the order-``order`` skew
    basis inside one of the diagonal blocks of sizes (*parts, trailing)."""
    label = np.repeat(np.arange(len(parts) + 1), (*parts, trailing))
    i, j = np.triu_indices(order, 1)
    return np.flatnonzero(label[i] == label[j])


def reference_qp_witness(profile):
    """The per-profile coupled-block witness that the chunk builder
    replaced: the coupled pairs of X and Y first, then X's and Y's
    trailing pairs."""
    n, m, r = profile.n, profile.m, profile.rank
    x = reference_group_pairs(n, profile.parts, n - r)
    y = reference_group_pairs(m, profile.parts, m - r)
    coupled = sum(k * (k - 1) // 2 for k in profile.parts)
    y_column = np.arange(y.size)
    y_column[coupled:] += x.size - coupled
    x_count = n * (n - 1) // 2
    witness = np.zeros((x_count + m * (m - 1) // 2, x.size + y.size - coupled))
    witness[x, np.arange(x.size)] = 1.0
    witness[x_count + y, y_column] = 1.0
    return witness


def reference_witness(cls, data):
    """The per-profile witness of every class that the chunk builders
    replaced."""
    if cls is MatrixClass.JORDAN:
        return reference_toeplitz_witness(data)
    if cls is MatrixClass.SINGULAR_VALUES:
        return reference_qp_witness(data)
    n, parts = data.n, data.parts
    if cls is MatrixClass.DIAGONALIZABLE_COMPLEX:
        label = np.repeat(np.arange(len(parts)), parts)
        size, units = n * n, np.flatnonzero(np.equal.outer(label, label))
    elif cls is MatrixClass.REAL_SYMMETRIC:
        size, units = n * (n - 1) // 2, reference_group_pairs(n, parts, 0)
    else:
        pairs = n + 2 * reference_group_pairs(n, parts, 0)
        size, units = n * n, np.concatenate([np.arange(n), pairs, pairs + 1])
        units.sort()
    witness = np.zeros((size, units.size))
    witness[units, np.arange(units.size)] = 1.0
    return witness


def sweeps_of_one_shape(cls, max_n):
    """Every profile of the class up to ``max_n`` (singular n, m <=
    ``max_n``), one list per base-point shape."""
    if cls is MatrixClass.SINGULAR_VALUES:
        orders = [(n, m) for n in range(1, max_n + 1) for m in range(1, max_n + 1)]
        return [list(singular_profiles(n, m)) for n, m in orders]
    sweep = jordan_structures if cls is MatrixClass.JORDAN else multiplicity_profiles
    return [list(sweep(n)) for n in range(1, max_n + 1)]


ALL_CLASSES = (*DIAGONAL_CLASSES, MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES)


class TestChunkWitnesses:
    """The witnesses of a chunk, built as whole-chunk arrays, against the
    per-profile builders they replaced, and checked by one product."""

    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_chunk_witnesses_equal_the_per_profile_builders(self, cls):
        # every profile with n <= 8 (singular n, m <= 8) as one chunk per
        # shape: the same columns in the same order, the same counts, and
        # only zeros in the padding
        for profiles in sweeps_of_one_shape(cls, 8):
            witness, count = commutant._witnesses(cls, profiles)
            rows = reference_witness(cls, profiles[0]).shape[0]
            assert witness.shape[:2] == (len(profiles), rows)
            assert witness.shape[2] == max(count)
            for stack, own, data in zip(witness, count, profiles):
                expected = reference_witness(cls, data)
                assert own == expected.shape[1], data
                assert np.array_equal(stack[:, :own], expected), data
                assert not stack[:, own:].any(), data

    def test_corrupted_witness_flips_its_profile_only(self, monkeypatch):
        # Profile k's first column moved onto X's pair (0, 1) alone: X Sigma
        # is nonzero at rank >= 1, so k's witness leaves the kernel, while
        # the one product over the chunk leaves every other profile's
        # residuals as they were.
        profiles = list(singular_profiles(4, 4))
        chunk = max(tangent_oracle._chunks(SINGULAR, profiles), key=lambda c: c.stop - c.start)
        profiles = profiles[chunk]
        seeds = [derive_seed(37, idx) for idx in range(len(profiles))]
        clean, _ = verify_stabilizers(SINGULAR, profiles, seeds)
        assert all(stab.verdict == "PASS" for stab in clean)
        witnesses = commutant._witnesses
        targets = [k for k, sp in enumerate(profiles) if sp.rank and commutant_term(SINGULAR, sp)]
        assert len(targets) > 3
        for target in targets:

            def corrupted(matrix_class, chunk_profiles, k=target):
                witness, count = witnesses(matrix_class, chunk_profiles)
                witness[k, :, 0] = 0.0
                witness[k, 0, 0] = 1.0
                return witness, count

            monkeypatch.setattr(commutant, "_witnesses", corrupted)
            found, _ = verify_stabilizers(SINGULAR, profiles, seeds)
            flipped = [k for k, (a, b) in enumerate(zip(clean, found)) if a != b]
            assert flipped == [target], (profiles[target], flipped)
            assert found[target].verdict == "FAIL", found[target]
            assert found[target].detail.startswith("witness residual"), found[target]
            assert found[target].observed == clean[target].observed


    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_exact_chunks_take_no_residuals(self, monkeypatch, cls):
        # an exact product's residuals are 0 by definition: every chunk of
        # a sweep with n <= 5 (singular n, m <= 5) is exact, certified, and
        # never reaches _residuals
        def refused(images, witness):
            raise AssertionError("residuals of an exact product")

        monkeypatch.setattr(commutant, "_residuals", refused)
        for profiles in sweeps_of_one_shape(cls, 5):
            seeds = [derive_seed(19, idx) for idx in range(len(profiles))]
            for data, (oracle, stab) in zip(profiles, verify_profiles(cls, profiles, seeds)):
                assert stab.verdict == "PASS" and stab.certified and oracle.certified, data

    def test_residuals_only_of_inexact_profiles(self, monkeypatch):
        # one profile's operator moved off its witness: only its product
        # reaches _residuals, and the others stay exact
        profiles = list(singular_profiles(3, 3))
        slots = factory._value_slots(profiles)
        seeds = [derive_seed(23, idx) for idx in range(len(profiles))]
        base = tangent_oracle._base_points(SINGULAR, profiles, seeds, slots)
        operators, values = tangent_oracle._operator(SINGULAR, profiles, base, slots)
        fixed = operators[..., : operators.shape[-1] - max(values)].copy()
        witness, _ = commutant._witnesses(SINGULAR, profiles)
        target = next(k for k, sp in enumerate(profiles) if witness[k].any())
        entry = np.flatnonzero(witness[target].any(axis=1))[0]
        fixed[target, 0, entry] += 1.0
        taken, residuals = [], commutant._residuals

        def recorded(images, witness):
            taken.append(images.shape[0])
            return residuals(images, witness)

        monkeypatch.setattr(commutant, "_residuals", recorded)
        counts, exact, worst = check_witnesses(SINGULAR, profiles, fixed)
        assert taken == [1]
        assert [k for k, ok in enumerate(exact) if not ok] == [target]
        assert worst[target] > 0 and not any(worst[:target] + worst[target + 1 :])
        # the moved profile's stabiliser, read at its point, is flagged
        kernel, _ = read_at(SINGULAR, profiles[target], base[target])
        assert counts[target] == kernel.nullity
        found = stabilizer(SINGULAR, profiles[target], kernel._replace(operator=fixed[target]))
        assert not found.exact and not found.structure_ok


class TestWitness:
    """The paper's stabilisers, as check_witnesses builds them: the Toeplitz
    and coupled-block witnesses against the references they replaced (the
    label masks, ToeplitzPattern and the coupled-block check), the diagonal
    classes' witnesses against an SVD null basis, and mutants of the base
    point or the witness that only the witness check catches."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_toeplitz_witness_meets_the_references(self, n):
        for js in jordan_structures(n):
            witness, width = witness_of(MatrixClass.JORDAN, js), band_widths(js)
            assert witness.shape == (n * n, commutant_term(MatrixClass.JORDAN, js)), js
            assert width.sum() == witness.shape[1], js
            assert set(np.unique(witness)) <= {0.0, 1.0}, js
            # disjoint supports, none empty
            assert witness.sum(axis=1).max() <= 1 and witness.sum(axis=0).min(initial=1) >= 1
            columns = witness.T.reshape(-1, n, n)
            assert check_null_basis(js, columns, tol=0.0).max_violation == 0.0, js
            sizes, owner, starts = block_starts(js)
            for p, q in np.ndindex(width.shape):
                block = columns[:, starts[p] : starts[p + 1], starts[q] : starts[q + 1]]
                hit = block.any(axis=(1, 2))
                if owner[p] != owner[q]:
                    assert not hit.any(), (js, p, q)
                    continue
                pattern = ToeplitzPattern.for_sizes(sizes[p], sizes[q])
                assert hit.sum() == width[p, q] == pattern.free_count, (js, p, q)
                # the pair's bands tile the entries the pattern leaves free,
                # each band on one diagonal, in order of offset
                np.testing.assert_array_equal(block[hit].sum(axis=0), ~pattern.zero_mask)
                for d, band in enumerate(block[hit]):
                    s, t = np.nonzero(band)
                    assert np.all(t - s == max(sizes[q] - sizes[p], 0) + d), (js, p, q, d)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_qp_witness_meets_the_coupled_blocks(self, n):
        for m in range(1, 7):
            for sp in singular_profiles(n, m):
                witness = witness_of(MatrixClass.SINGULAR_VALUES, sp)
                rows = n * (n - 1) // 2 + m * (m - 1) // 2
                assert witness.shape == (rows, commutant_term(MatrixClass.SINGULAR_VALUES, sp)), sp
                assert set(np.unique(witness)) <= {0.0, 1.0}, sp
                if witness.size:
                    assert witness.sum(axis=1).max() <= 1, sp
                    assert witness.sum(axis=0).min() >= 1, sp
                assert qp_violations(witness.T, sp) == (0.0, 0.0), sp

    def test_witnesses_annihilated_at_the_base_points(self):
        # exactly: each image entry is at most two copies of one entry of
        # the base point that cancel (see check_witnesses)
        cases = [(cls, multiplicity_profiles) for cls in DIAGONAL_CLASSES]
        cases.append((MatrixClass.JORDAN, jordan_structures))
        cases += [
            (MatrixClass.SINGULAR_VALUES, lambda n, m=m: singular_profiles(n, m))
            for m in range(1, 7)
        ]
        for n in range(1, 7):
            for cls, sweep in cases:
                for idx, data in enumerate(sweep(n)):
                    kernel, _ = read_at(cls, data, idx)
                    images = kernel.operator @ witness_of(cls, data)
                    assert not images.any(), (cls, data)
                    assert stabilizer(cls, data, kernel).exact, (cls, data)

    @pytest.mark.parametrize("cls", DIAGONAL_CLASSES, ids=lambda c: c.value)
    def test_diagonal_witness_spans_the_stabilizer(self, cls):
        for n in range(1, 9):
            for idx, profile in enumerate(multiplicity_profiles(n)):
                witness = witness_of(cls, profile)
                terms = dict(dimension_report(cls, profile).terms)
                assert witness.shape[1] == -terms["commutant"], profile
                assert set(np.unique(witness)) <= {0.0, 1.0}, profile
                # disjoint supports, none empty
                assert witness.sum(axis=1).max(initial=0.0) <= 1, profile
                assert witness.sum(axis=0).min(initial=1.0) >= 1, profile
                # every column lies in the span of an SVD null basis
                kernel, _ = read_at(cls, profile, derive_seed(19, n, idx))
                assert witness.shape[0] == kernel.operator.shape[1], profile
                null = null_basis(kernel)
                projected = null.T @ (null.conj() @ witness)
                assert np.abs(projected - witness).max(initial=0.0) <= 1e-10, profile

    def test_unshifted_witness_flips_structure_ok(self, monkeypatch):
        monkeypatch.setattr(
            commutant,
            "_toeplitz_witnesses",
            lambda structures: padded([unshifted_witness(js) for js in structures]),
        )
        numbered = [
            (n, idx, js) for n in range(1, 7) for idx, js in enumerate(jordan_structures(n))
        ]
        structures = [js for _, _, js in numbered]
        seeds = [derive_seed(17, n, idx) for n, idx, _ in numbered]
        found, _ = verify_stabilizers(MatrixClass.JORDAN, structures, seeds)
        flipped = 0
        for js, stab in zip(structures, found):
            # the shift is nonzero exactly where an eigenvalue's blocks differ
            mixed = any(len(set(part)) > 1 for part in js.blocks)
            assert stab.verdict == ("FAIL" if mixed else "PASS"), (js, stab.detail)
            flipped += mixed
        assert (len(structures), flipped) == (109, 38)

    @pytest.mark.parametrize("cls", DIAGONAL_CLASSES, ids=lambda c: c.value)
    def test_reversed_diagonal_flips_structure_ok(self, cls, monkeypatch):
        # a base point with its values laid out in reversed multiplicity
        # order keeps every count and every oracle verdict; only where the
        # parts differ do its groups leave the witness's blocks
        base_points = factory.base_points

        def reversed_parts(profiles, values, slots):
            flipped = [MultiplicityProfile(p.n, p.parts[::-1]) for p in profiles]
            return base_points(flipped, values, factory._value_slots(flipped))

        monkeypatch.setattr(factory, "base_points", reversed_parts)
        profiles = [p for n in range(1, 7) for p in multiplicity_profiles(n)]
        seeds = [derive_seed(23, idx) for idx in range(len(profiles))]
        found, verdicts = verify_stabilizers(cls, profiles, seeds)
        flipped = 0
        for profile, stab, verdict in zip(profiles, found, verdicts):
            assert verdict.verdict == "PASS", (profile, verdict.detail)
            assert stab.observed == stab.predicted == commutant_term(cls, profile), profile
            mixed = len(set(profile.parts)) > 1
            assert stab.verdict == ("FAIL" if mixed else "PASS"), (profile, stab.detail)
            flipped += mixed
        assert (len(profiles), flipped) == (29, 15)

    @pytest.mark.parametrize("cls", UNITARY_BLOCK_CLASSES, ids=lambda c: c.value)
    def test_dropped_diagonal_unit_flips_structure_ok(self, cls, monkeypatch):
        # the U(k) witness without its i E_00 column is one short of the
        # nullity at every profile
        witnesses, exact = commutant._witnesses, []

        def dropped(matrix_class, profiles):
            witness, count = witnesses(matrix_class, profiles)
            return witness[..., 1:], [c - 1 for c in count]

        def recorded(matrix_class, profiles, operators):
            checked = check_witnesses(matrix_class, profiles, operators)
            exact.extend(checked[1])
            return checked

        monkeypatch.setattr(commutant, "_witnesses", dropped)
        monkeypatch.setattr(tangent_oracle, "check_witnesses", recorded)
        profiles = [p for n in range(1, 7) for p in multiplicity_profiles(n)]
        seeds = [derive_seed(29, idx) for idx in range(len(profiles))]
        found, verdicts = verify_stabilizers(cls, profiles, seeds)
        assert len(exact) == len(profiles) and all(exact)
        for profile, stab, verdict in zip(profiles, found, verdicts):
            nullity = sum(k * k for k in profile.parts)
            assert stab.observed == nullity, profile
            assert stab.verdict == "FAIL" and not stab.certified, profile
            assert stab.detail == f"{nullity - 1} witnesses for a kernel of dimension {nullity}"
            # one witness short, the upper bound no longer meets the ranks
            assert verdict.verdict == "PASS" and not verdict.certified, profile

    @pytest.mark.parametrize(
        "cls", (MatrixClass.REAL_SYMMETRIC, *UNITARY_BLOCK_CLASSES), ids=lambda c: c.value
    )
    def test_shifted_group_pairs_flip_structure_ok(self, cls, monkeypatch):
        # the first group's pairs moved one slot along the row-major list:
        # its pairs (i, k - 1) become (i, k), which join it to the next group
        profiles = [
            p for n in range(2, 7) for p in multiplicity_profiles(n) if len(p.parts) > 1
        ]
        group_pairs = commutant._group_pairs

        def shifted(label):
            pairs = group_pairs(label)
            i, _ = _triangle(label.shape[1], 1)
            first = pairs & (label[:, i] == label[:, :1])
            moved = pairs & ~first
            moved[:, 1:] |= first[:, :-1]
            return moved

        monkeypatch.setattr(commutant, "_group_pairs", shifted)
        seeds = [derive_seed(31, idx) for idx in range(len(profiles))]
        found, _ = verify_stabilizers(cls, profiles, seeds)
        flipped = 0
        for profile, stab in zip(profiles, found):
            moved = profile.parts[0] > 1
            assert stab.verdict == ("FAIL" if moved else "PASS"), (profile, stab.detail)
            flipped += moved
        assert (len(profiles), flipped) == (23, 18)

    def test_qp_witness_of_the_wrong_coupling_is_rejected(self):
        # (X, -X) fixes antidiag(1, 1); the witness couples (X, X)
        sp = SingularProfile(2, 2, (2,))
        kernel, _ = read_at(MatrixClass.SINGULAR_VALUES, sp, np.fliplr(np.eye(2)))
        residuals = residuals_of(kernel, witness_of(MatrixClass.SINGULAR_VALUES, sp))
        assert residuals == pytest.approx([2.0])
        assert not stabilizer(MatrixClass.SINGULAR_VALUES, sp, kernel).structure_ok
