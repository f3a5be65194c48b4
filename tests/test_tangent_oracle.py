import numpy as np
import pytest
from conftest import operator_at, read_at

from matstrata import factory, tangent_oracle
from matstrata.commutant import read_stabilizer
from matstrata.factory import derive_seed
from matstrata.formulas import COMPLEX_FIELD_CLASSES, MatrixClass, dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from matstrata.ranktools import InconclusiveRankError, decide_ranks
from matstrata.tangent_oracle import STRUCTURED_CLASSES, verify_class

EIGENVALUE_CLASSES = (
    MatrixClass.DIAGONALIZABLE_COMPLEX,
    MatrixClass.NORMAL,
    MatrixClass.HERMITIAN,
    MatrixClass.UNITARY,
    MatrixClass.REAL_SYMMETRIC,
)


def decide_one(s, size, tol=1e-8, require_gap=None):
    """One spectrum decided as a stack of one."""
    return decide_ranks(np.asarray(s)[None], size, tol).decision(0, require_gap)


class TestRankDecision:
    def test_band_raises(self):
        s = np.array([1.0, 5e-8, 1e-15])
        with pytest.raises(InconclusiveRankError):
            decide_one(s, 3)

    def test_clean_decision(self):
        s = np.array([1.0, 0.5, 1e-14])
        d = decide_one(s, 3)
        assert d.rank == 2 and d.nullity == 1
        assert d.gap_ratio > 1e4

    def test_zero_operator(self):
        d = decide_one(np.zeros(4), 4)
        assert d.rank == 0 and d.nullity == 4
        assert d.gap_ratio == np.inf

    def test_gap_requirement(self):
        s = np.array([1.0, 1e-12])
        decide_one(s, 2, require_gap=1e4)
        with pytest.raises(InconclusiveRankError):
            decide_one(s, 2, require_gap=1e13)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            decide_one(np.array([1.0]), 1, tol=0.5)


def _reference_decision(singular_values, size, require_gap=None, tol=1e-8, band=10.0):
    """One spectrum decided value by value: the rule :func:`decide_ranks`
    applies to each row of a stack.  Returns the decision's fields, or the
    message of the inconclusive read."""
    s = np.sort(np.abs(singular_values))[::-1]
    if not s.size or s[0] == 0.0:
        return 0, size, np.inf
    threshold = tol * s[0]
    in_band = (s >= threshold / band) & (s <= threshold * band)
    if in_band.any():
        return (
            f"singular value {s[in_band][0]:.3e} inside the indecision band "
            f"[{threshold / band:.3e}, {threshold * band:.3e}]"
        )
    rank = int(np.sum(s > threshold))
    if rank == s.size or s[rank] == 0.0:
        gap = np.inf
    else:
        gap = float(s[rank - 1] / s[rank]) if rank else 0.0
    if require_gap is not None and gap < require_gap:
        return f"kept/dropped gap ratio {gap:.3e} below required {require_gap:.3e}"
    return rank, size - rank, gap


class TestStackedDecisions:
    """decide_ranks decides a stack of spectra in one call; each row must
    decide as that spectrum alone does."""

    @staticmethod
    def _stack(rng, count, k):
        s = rng.random((count, k)) * 10.0 ** rng.integers(-20, 3, size=(count, k))
        s *= rng.choice((-1.0, 1.0), size=(count, k))  # unsorted, signed
        for row in range(count):
            kind = rng.integers(4)
            if kind == 0:
                s[row] = 0.0
            elif kind == 1:
                s[row, rng.random(k) < 0.5] = 0.0
            elif kind >= 2 and k > 1:
                # a value planted beside the largest: inside or outside the
                # band, or on either edge of it, or one step outside an edge
                top = np.abs(s[row]).max()
                at = (np.abs(s[row]).argmax() + 1 + rng.integers(k - 1)) % k
                if kind == 2:
                    s[row, at] = top * 1e-8 * rng.choice((0.05, 0.2, 1.0, 5.0, 20.0))
                else:
                    edge = rng.choice((top * 1e-8 * 10.0, top * 1e-8 / 10.0))
                    s[row, at] = rng.choice((edge, np.nextafter(edge, 0), np.nextafter(edge, 1)))
        return s

    def test_rows_decide_as_single_spectra(self):
        rng = np.random.default_rng(31)
        band_hits = set()
        for _ in range(400):
            count, k = int(rng.integers(1, 6)), int(rng.integers(0, 7))
            s = self._stack(rng, count, k)
            size = k + int(rng.integers(0, 3))
            stack = decide_ranks(s, size)
            assert len(stack.rank) == len(stack.gap_ratio) == len(stack.in_band) == count
            for row in range(count):
                for require_gap in (None, 1e4, 1e13):
                    expected = _reference_decision(s[row], size, require_gap)
                    got, single = [], []
                    for read, out in (
                        (lambda: stack.decision(row, require_gap), got),
                        (lambda: decide_one(s[row], size, require_gap=require_gap), single),
                    ):
                        try:
                            d = read()
                        except InconclusiveRankError as err:
                            out.append(str(err))
                        else:
                            out.append((d.rank, d.nullity, d.gap_ratio))
                    assert repr(got[0]) == repr(single[0]) == repr(expected), (s, row)
                    if isinstance(expected, str) and "band" in expected:
                        band_hits.add(row)
                        assert stack.in_band[row] == stack.in_band[row]
        # band hits were met in rows past the first
        assert band_hits - {0}

    def test_rows_are_sorted_absolute_values(self):
        s = np.array([[0.5, -2.0, 1e-12], [0.0, 0.0, 0.0]])
        stack = decide_ranks(s, 4)
        assert np.array_equal(stack.singular_values, [[2.0, 0.5, 1e-12], [0.0, 0.0, 0.0]])
        assert stack.rank == [2, 0]
        assert stack.decision(0).nullity == 2 and stack.decision(1).nullity == 4
        assert stack.gap_ratio == [0.5 / 1e-12, np.inf]
        assert np.isnan(stack.in_band).all()

    def test_empty_spectra(self):
        stack = decide_ranks(np.zeros((3, 0)), 2)
        assert stack.rank == [0, 0, 0] and stack.gap_ratio == [np.inf] * 3
        assert stack.decision(2, 1e4).nullity == 2

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            decide_ranks(np.ones((2, 1)), 1, tol=0.5)


def probe(matrix_class, data, seed, free_values=True):
    """Conclusive read of the class's operator at the base point of ``seed``,
    at the oracle's default tolerance and gap requirement: the read and its
    real rank."""
    return read_at(matrix_class, data, seed, free_values, gap_requirement=1e4)


class TestSpotProbes:
    def test_hermitian_scalar_stratum(self):
        # near lambda*I the Hermitian stratum is just the scalar line
        profile = MultiplicityProfile.of(2)
        _, rank = probe(MatrixClass.HERMITIAN, profile, 0)
        assert rank == 1
        op = operator_at(MatrixClass.HERMITIAN, profile, 0, True)
        assert op.shape == (4, 4 + 1)  # (ambient, parameters), real

    def test_real_symmetric_double_eigenvalue(self):
        _, rank = probe(MatrixClass.REAL_SYMMETRIC, MultiplicityProfile.of(2), 1)
        assert rank == 1  # codim 2 inside the 3-dimensional symmetric space

    def test_jordan_single_block_free(self):
        for n in range(2, 7):
            _, rank = probe(MatrixClass.JORDAN, JordanStructure.of((n,)), 2)
            assert rank == 2 * (n * n - n + 1)

    def test_scaled_rotations_rank(self):
        _, rank = probe(MatrixClass.SINGULAR_VALUES, SingularProfile(2, 2, (2,)), 3)
        assert rank == 2

    def test_rank_zero_profile(self):
        read, rank = probe(MatrixClass.SINGULAR_VALUES, SingularProfile(3, 4, ()), 4)
        assert rank == 0
        assert read.decision.gap_ratio == np.inf

    def test_normal_all_simple_fills_ambient(self):
        n = 4
        profile = MultiplicityProfile.of(*[1] * n)
        _, rank = probe(MatrixClass.NORMAL, profile, 5)
        rep = dimension_report(MatrixClass.NORMAL, profile)
        assert rank == rep.stratum_dim == rep.ambient_dim == n * n + n

    def test_skew_hermitian_alias(self):
        p = MultiplicityProfile.of(2, 1)
        _, a = probe(MatrixClass.SKEW_HERMITIAN, p, 6)
        _, b = probe(MatrixClass.HERMITIAN, p, 6)
        assert a == b

    def test_frozen_variant(self):
        p = MultiplicityProfile.of(2, 1)
        _, free = probe(MatrixClass.DIAGONALIZABLE_COMPLEX, p, 7, True)
        _, fixed = probe(MatrixClass.DIAGONALIZABLE_COMPLEX, p, 7, False)
        assert free - fixed == 2 * p.num_distinct

    def test_rank_bounded(self):
        profile = MultiplicityProfile.of(3, 2)
        _, rank = probe(MatrixClass.UNITARY, profile, 8)
        assert rank <= min(operator_at(MatrixClass.UNITARY, profile, 8, True).shape)


class TestPredictedRank:
    def test_doubling_for_complex_classes(self):
        p = MultiplicityProfile.of(2, 1)
        diag = verify_class(MatrixClass.DIAGONALIZABLE_COMPLEX, p, trials=1)
        assert diag.predicted_free == 2 * (9 - 5 + 2)
        assert diag.predicted_free == 2 * diag.report.stratum_dim
        assert verify_class(MatrixClass.HERMITIAN, p, trials=1).predicted_free == 9 - 5 + 2

    def test_free_fixed_difference(self):
        js = JordanStructure.of((2, 1), (1,))
        verdict = verify_class(MatrixClass.JORDAN, js, trials=1)
        assert verdict.predicted_free - verdict.predicted_fixed == 2 * js.num_eigenvalues
        assert verdict.predicted_fixed == 2 * verdict.report.fixed().stratum_dim


class TestVerifyClassSweeps:
    @pytest.mark.parametrize("cls", EIGENVALUE_CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_eigenvalue_classes(self, cls, n):
        for idx, profile in enumerate(multiplicity_profiles(n)):
            verdict = verify_class(cls, profile, trials=3, seed=derive_seed(n, idx))
            assert verdict.verdict == "PASS", (cls, profile, verdict.detail)
            assert all(
                min(t.gap_free, t.gap_fixed) >= 1e4 for t in verdict.trials
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_jordan_structures(self, n):
        for idx, js in enumerate(jordan_structures(n)):
            verdict = verify_class(MatrixClass.JORDAN, js, trials=3, seed=derive_seed(2, n, idx))
            assert verdict.verdict == "PASS", (js, verdict.detail)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_singular_profiles(self, n):
        for m in range(1, 6):
            for idx, sp in enumerate(singular_profiles(n, m)):
                verdict = verify_class(
                    MatrixClass.SINGULAR_VALUES, sp, trials=3, seed=derive_seed(3, n, m, idx)
                )
                assert verdict.verdict == "PASS", (sp, verdict.detail)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_class(MatrixClass.HERMITIAN, MultiplicityProfile.of(2), trials=0)


class TestImageMembership:
    """The differentials must land in the right tangent spaces by construction;
    assembly itself checks Hermitian/symmetric/unitary membership and raises."""

    def test_hermitian_probe_image_is_hermitian(self):
        # would raise inside assembly if any column left the Hermitian space
        probe(MatrixClass.HERMITIAN, MultiplicityProfile.of(3, 1), 11)

    def test_real_symmetric_image_is_symmetric(self):
        probe(MatrixClass.REAL_SYMMETRIC, MultiplicityProfile.of(2, 2), 12)

    def test_unitary_tangency(self):
        probe(MatrixClass.UNITARY, MultiplicityProfile.of(2, 1, 1), 13)


class TestRankMonotonicity:
    @pytest.mark.parametrize("cls", EIGENVALUE_CLASSES, ids=lambda c: c.value)
    def test_refining_profile_never_decreases_rank(self, cls):
        for n in range(2, 6):
            for profile in multiplicity_profiles(n):
                base = verify_class(cls, profile, trials=1, seed=41)
                for i, k in enumerate(profile.parts):
                    if k < 2:
                        continue
                    refined = MultiplicityProfile(
                        n, profile.parts[:i] + (k - 1, 1) + profile.parts[i + 1 :]
                    )
                    finer = verify_class(cls, refined, trials=1, seed=42)
                    assert finer.trials[0].rank_free >= base.trials[0].rank_free


class TestRankNullityBalance:
    """Transform-group dimension splits into commutant nullity plus the
    fixed-value tangent rank, in every complex-similarity case: the rank of
    the conclusive values-only read and the nullity of the band-only read
    with vectors, both at the same base point."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_plus_nullity_diagonalizable(self, n):
        cls = MatrixClass.DIAGONALIZABLE_COMPLEX
        for idx, profile in enumerate(multiplicity_profiles(n)):
            seed = derive_seed(5, n, idx)
            _, rank = probe(cls, profile, seed, free_values=False)
            kernel, _ = read_at(cls, profile, seed, vectors=True)
            assert rank + 2 * kernel.decision.nullity == 2 * n * n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_plus_nullity_jordan(self, n):
        for idx, js in enumerate(jordan_structures(n)):
            seed = derive_seed(6, n, idx)
            _, rank = probe(MatrixClass.JORDAN, js, seed, free_values=False)
            kernel, _ = read_at(MatrixClass.JORDAN, js, seed, vectors=True)
            assert rank + 2 * kernel.decision.nullity == 2 * n * n


# Relative entry tolerance of the batched operator against the reference,
# fixed in advance: both sides do the same few float operations per entry.
REFERENCE_RTOL = 1e-12


def _reference_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n))
            x[i, j] = 1.0
            out.append(x)
    return out


def _reference_skew_symmetric(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n))
            x[i, j], x[j, i] = 1.0, -1.0
            out.append(x)
    return out


def _reference_skew_hermitian(n):
    out = []
    for j in range(n):
        x = np.zeros((n, n), dtype=complex)
        x[j, j] = 1j
        out.append(x)
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j], x[j, i] = 1.0, -1.0
            out.append(x)
            x = np.zeros((n, n), dtype=complex)
            x[i, j], x[j, i] = 1j, 1j
            out.append(x)
    return out


def _reference_indicators(parts, shape):
    out = []
    pos = 0
    for k in parts:
        d = np.zeros(shape)
        for s in range(pos, pos + k):
            d[s, s] = 1.0
        out.append(d)
        pos += k
    return out


def _realify(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _hermitian_coords(m):
    iu = np.triu_indices(m.shape[0], 1)
    return np.concatenate([np.diag(m).real, m[iu].real, m[iu].imag])


def _symmetric_coords(m):
    return m[np.triu_indices(m.shape[0])]


def reference_operator(cls, data, base, free_values):
    """Per-direction construction: x @ B - B @ x for each basis element (x B
    and -B y for singular values), value directions one by one, then each
    image's coordinates as one column."""
    n = base.shape[0]
    if cls is MatrixClass.SINGULAR_VALUES:
        cols = [x @ base for x in _reference_skew_symmetric(n)]
        cols += [-base @ y for y in _reference_skew_symmetric(base.shape[1])]
        values = _reference_indicators(data.parts, base.shape)
        coord = np.ravel
    elif cls in (MatrixClass.DIAGONALIZABLE_COMPLEX, MatrixClass.JORDAN):
        cols = [x @ base - base @ x for x in _reference_units(n)]
        parts = data.multiplicities if cls is MatrixClass.JORDAN else data.parts
        values = _reference_indicators(parts, base.shape)
        coord = np.ravel
    elif cls is MatrixClass.REAL_SYMMETRIC:
        cols = [x @ base - base @ x for x in _reference_skew_symmetric(n)]
        values = _reference_indicators(data.parts, base.shape)
        coord = _symmetric_coords
    else:
        cols = [x @ base - base @ x for x in _reference_skew_hermitian(n)]
        values = _reference_indicators(data.parts, base.shape)
        if cls is MatrixClass.NORMAL:
            values = [v for d in values for v in (d, 1j * d)]
        elif cls is MatrixClass.UNITARY:
            firsts = np.cumsum((0,) + data.parts[:-1])
            values = [1j * base[s, s] * d for s, d in zip(firsts, values)]
        coord = _hermitian_coords if cls is MatrixClass.HERMITIAN else _realify
    if free_values:
        cols += values
    if not cols:
        return np.zeros((coord(np.zeros_like(base)).size, 0))
    return np.column_stack([coord(c) for c in cols])


def _sweep_data(cls, max_n=4):
    sizes = range(1, max_n + 1)
    if cls is MatrixClass.JORDAN:
        return [js for n in sizes for js in jordan_structures(n)]
    if cls is MatrixClass.SINGULAR_VALUES:
        return [sp for n in sizes for m in sizes for sp in singular_profiles(n, m)]
    return [p for n in sizes for p in multiplicity_profiles(n)]


class TestBatchedOperator:
    """The batched operator assembly against the per-direction reference."""

    @pytest.mark.parametrize("free_values", (True, False), ids=("free", "fixed"))
    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_matches_per_direction_reference(self, cls, free_values):
        for idx, data in enumerate(_sweep_data(cls)):
            base = tangent_oracle._base_point(cls, data, (derive_seed(9, idx),))[0]
            images, coords, values = tangent_oracle._operator(cls, data, base, free_values)
            expected = reference_operator(cls, data, base, free_values)
            got = coords(images)
            assert got.shape == expected.shape, data
            transforms = reference_operator(cls, data, base, False).shape[1]
            assert values == got.shape[1] - transforms, data
            atol = REFERENCE_RTOL * max(np.abs(expected).max(initial=0.0), 1.0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=atol, err_msg=str(data))

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_verify_class_reads_assembled_probes(self, cls):
        """verify_class reads the free operator and its transform columns
        once per trial; both must decide as the conclusive reads of the
        operators assembled at each trial's base point do.

        Trial 0's fixed read of the structured classes is the SVD with
        vectors, which also gives the stabiliser's null basis.  LAPACK finds
        those singular values by another algorithm than the values-only SVD,
        so the dropped ones may differ in the last bits: that gap is checked
        against the SVD with vectors of the same assembled operator, in the
        block order verify_class takes from trial 0's free operator.  The
        verdict's kernel is the band-only decision of trial 0's fixed read:
        its singular values are those of trial 0's fixed operator, and for
        the structured classes its kernel rows of ``vh`` annihilate it."""
        real = 2 if cls in COMPLEX_FIELD_CLASSES else 1
        tol = 1e-8
        for idx, data in enumerate(_sweep_data(cls)):
            seed = derive_seed(5, idx)
            verdict = verify_class(cls, data, trials=2, seed=seed)
            assert verdict.passed and len(verdict.trials) == 2, data
            for trial, result in enumerate(verdict.trials):
                probe_seed = derive_seed(seed, trial)
                free, free_rank = probe(cls, data, probe_seed, True)
                fixed, fixed_rank = probe(cls, data, probe_seed, False)
                fixed_gap = fixed.decision.gap_ratio
                if trial == 0 and cls in STRUCTURED_CLASSES:
                    op = operator_at(cls, data, probe_seed, False)
                    free_op = operator_at(cls, data, probe_seed, True)
                    rows, cols = tangent_oracle._block_order(free_op)
                    ordered = op[rows][:, cols[cols < op.shape[1]]]
                    s = np.linalg.svd(ordered)[1] if min(op.shape) else np.zeros(0)
                    fixed_gap = decide_one(s, op.shape[1], require_gap=1e4).gap_ratio
                assert result == tangent_oracle.TrialResult(
                    free_rank, free.decision.gap_ratio, fixed_rank, fixed_gap
                ), (data, trial)
            kernel = verdict.kernel
            op = operator_at(cls, data, derive_seed(seed, 0), False)
            expected = np.linalg.svd(op, compute_uv=False) if min(op.shape) else np.zeros(0)
            s_max = expected.max(initial=0.0)
            np.testing.assert_allclose(
                kernel.decision.singular_values, expected, rtol=0, atol=1e-12 * s_max,
                err_msg=str(data),
            )
            if cls in STRUCTURED_CLASSES:
                null = op @ kernel.vh[kernel.decision.rank :].conj().T
                assert np.abs(null).max(initial=0.0) <= tol * s_max, data
            assert real * kernel.decision.rank == verdict.trials[0].rank_fixed, data
            assert kernel.decision.gap_ratio == verdict.trials[0].gap_fixed, data
            assert (kernel.vh is not None) == (cls in STRUCTURED_CLASSES), data

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_kernel_is_the_stabilizer_of_the_first_trial(self, cls):
        for idx, data in enumerate(_sweep_data(cls)):
            seed = derive_seed(12, idx)
            verdict = verify_class(cls, data, trials=1, seed=seed)
            found = read_stabilizer(cls, data, verdict.kernel)
            kernel, _ = read_at(
                cls, data, derive_seed(seed, 0), vectors=cls in STRUCTURED_CLASSES
            )
            assert found == read_stabilizer(cls, data, kernel), data
            assert found.structure_ok, data

    def test_kernel_read_when_first_free_read_is_inconclusive(self, gap_reads_fail):
        js = JordanStructure.of((3,))
        verdict = verify_class(MatrixClass.JORDAN, js, trials=3)
        assert verdict.verdict == "INCONCLUSIVE" and verdict.detail.startswith("trial 0")
        assert not verdict.trials
        found = read_stabilizer(MatrixClass.JORDAN, js, verdict.kernel)
        assert found.dimension == 3 and found.structure_ok


class TestStackedTrials:
    """verify_class assembles and reads all trials of a profile as one stack;
    the stack's size must not change what any trial reads."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_trials_are_a_prefix_of_longer_stacks(self, cls):
        for idx, data in enumerate(_sweep_data(cls)):
            seed = derive_seed(13, idx)
            one, three, five = (
                verify_class(cls, data, trials=trials, seed=seed) for trials in (1, 3, 5)
            )
            assert three.passed and len(three.trials) == 3, data
            assert five.passed and five.trials[:3] == three.trials, data
            assert one.passed and one.trials == three.trials[:1], data
            for verdict in (one, five):
                assert np.array_equal(
                    verdict.kernel.decision.singular_values,
                    three.kernel.decision.singular_values,
                ), data

    @pytest.mark.parametrize(
        "cls", (MatrixClass.DIAGONALIZABLE_COMPLEX, MatrixClass.JORDAN), ids=lambda c: c.value
    )
    def test_unit_images_equal_the_basis_matmul(self, cls):
        """The matrix units' images, written entry by entry, equal
        ``E_ij B - B E_ij`` by matmul exactly: each entry is one value of
        ``B`` or the difference of two, on either side."""
        rng = np.random.default_rng(14)
        for idx, data in enumerate(_sweep_data(cls, 6)):
            n = data.n
            seeds = [derive_seed(14, idx, trial) for trial in range(3)]
            base = tangent_oracle._base_point(cls, data, seeds)
            dense = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            units = np.eye(n * n).reshape(n * n, n, n)
            for stack in (base, dense):
                point = stack[:, None]
                images, _, _ = tangent_oracle._operator(cls, data, stack, False)
                assert np.array_equal(images, units @ point - point @ units), data


class TestOneArrayPass:
    """verify_class builds a profile's base points by one factory call and
    decides each of its two stacks by one decide_ranks call."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_stacked_base_points_equal_per_spec_construction(self, cls):
        kind = tangent_oracle._SPECTRUM_KIND[cls]
        for idx, data in enumerate(_sweep_data(cls, 6)):
            if isinstance(data, JordanStructure):
                make, count, gap = factory.make_jordan, data.num_eigenvalues, 0.5
            elif isinstance(data, SingularProfile):
                make, count, gap = factory.make_sigma, data.num_distinct, 0.1
            else:
                make, count, gap = factory.make_block_diagonal_lambda, data.num_distinct, 0.1
            for trials in (1, 3, 5):
                seeds = [derive_seed(15, idx, t) for t in range(trials)]
                specs = [
                    factory.sample_spectrum(count, kind, s, gap) if count else None
                    for s in seeds
                ]
                each = np.stack([make(data, spec) for spec in specs])
                for stacked in (make(data, specs), tangent_oracle._base_point(cls, data, seeds)):
                    assert stacked.dtype == each.dtype, data
                    assert np.array_equal(stacked, each), (data, trials)

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_two_decision_calls_per_profile(self, monkeypatch, cls):
        calls = []

        def recorded(singular_values, size, tol):
            calls.append((singular_values.shape, size, decide_ranks(singular_values, size, tol)))
            return calls[-1][2]

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        for idx, data in enumerate(_sweep_data(cls, 3)):
            calls.clear()
            verdict = verify_class(cls, data, trials=3, seed=derive_seed(16, idx))
            assert verdict.passed and len(calls) == 2, data
            (free_shape, columns, _), (fixed_shape, fixed_columns, fixed) = calls
            assert free_shape[0] == fixed_shape[0] == 3, data
            assert columns >= fixed_columns, data
            kernel, first = verdict.kernel.decision, fixed.decision(0)
            assert (kernel.rank, kernel.nullity) == (first.rank, first.nullity), data
            assert (kernel.threshold, kernel.gap_ratio) == (first.threshold, first.gap_ratio)
            assert np.array_equal(kernel.singular_values, first.singular_values), data


def _assembled_operators(cls, max_n):
    """Free and fixed operators of every profile of the class up to ``max_n``."""
    for idx, data in enumerate(_sweep_data(cls, max_n)):
        base = tangent_oracle._base_point(cls, data, (derive_seed(21, idx),))[0]
        for free_values in (True, False):
            images, coords, _ = tangent_oracle._operator(cls, data, base, free_values)
            yield (data, free_values), coords(images)


class TestBlockOrder:
    """The block-ordered SVD against the plain one: a permutation of rows and
    columns must leave the singular values and the kernel unchanged."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_matches_plain_svd(self, cls):
        tol = 1e-8
        for label, op in _assembled_operators(cls, 5):
            expected = np.linalg.svd(op, compute_uv=False) if min(op.shape) else np.zeros(0)
            s_max = expected.max(initial=0.0)
            rows, cols = tangent_oracle._block_order(op)
            values, _ = tangent_oracle._svd(op[rows][:, cols], cols)
            s, vh = tangent_oracle._svd(op[rows][:, cols], cols, vectors=True)
            for got in (values, s):
                assert np.all(np.diff(got) <= 0), label
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=1e-12 * s_max, err_msg=str(label)
                )
            rank = decide_one(expected, op.shape[1], tol).rank
            assert decide_one(values, op.shape[1], tol).rank == rank, label
            assert decide_one(s, op.shape[1], tol).rank == rank, label
            eye = np.eye(op.shape[1])
            np.testing.assert_allclose(vh @ vh.conj().T, eye, rtol=0, atol=1e-12)
            kernel = op @ vh[rank:].conj().T
            assert np.abs(kernel).max(initial=0.0) <= tol * s_max, label

    @pytest.mark.parametrize("order", ("reversed", "random"))
    def test_any_order_gives_the_same_singular_values(self, order):
        rng = np.random.default_rng(3)
        for cls in (MatrixClass.NORMAL, MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES):
            for label, op in _assembled_operators(cls, 4):
                if not min(op.shape):
                    continue
                rows, cols = np.arange(op.shape[0]), np.arange(op.shape[1])
                if order == "reversed":
                    rows, cols = rows[::-1], cols[::-1]
                else:
                    rows, cols = rng.permutation(rows), rng.permutation(cols)
                expected = np.linalg.svd(op, compute_uv=False)
                s, vh = tangent_oracle._svd(op[rows][:, cols], cols, vectors=True)
                np.testing.assert_allclose(
                    s, expected, rtol=0, atol=1e-12 * expected[0], err_msg=str(label)
                )
                rank = decide_one(s, op.shape[1]).rank
                kernel = op @ vh[rank:].conj().T
                assert np.abs(kernel).max(initial=0.0) <= 1e-8 * expected[0], label

    def test_shuffled_blocks_come_out_contiguous(self):
        rng = np.random.default_rng(5)
        # block sizes (rows, columns); the last block is a bidiagonal chain,
        # connected only through a path that crosses every row and column
        sizes = ((2, 3), (1, 1), (3, 2), (6, 6))
        shape = (sum(r for r, _ in sizes) + 2, sum(c for _, c in sizes) + 1)
        op = np.zeros(shape)
        row_block = np.full(shape[0], -1)
        col_block = np.full(shape[1], -1)
        r0 = c0 = 0
        for b, (r, c) in enumerate(sizes):
            if b == len(sizes) - 1:
                block = np.eye(r) + np.eye(r, k=1)
            else:
                block = rng.uniform(1.0, 2.0, (r, c))
            op[r0 : r0 + r, c0 : c0 + c] = block
            row_block[r0 : r0 + r] = b
            col_block[c0 : c0 + c] = b
            r0, c0 = r0 + r, c0 + c
        # shuffled, with the all-zero rows and column moved to the front
        row_perm = np.concatenate([[r0, r0 + 1], rng.permutation(r0)])
        col_perm = np.concatenate([[c0], rng.permutation(c0)])
        shuffled = op[row_perm][:, col_perm]
        row_block, col_block = row_block[row_perm], col_block[col_perm]

        rows, cols = tangent_oracle._block_order(shuffled)
        assert sorted(rows) == list(range(shape[0]))
        assert sorted(cols) == list(range(shape[1]))
        # all-zero rows and columns last
        assert list(row_block[rows[-2:]]) == [-1, -1]
        assert col_block[cols[-1]] == -1
        rows, cols = rows[:-2], cols[:-1]

        def runs(labels):
            starts = np.flatnonzero(np.diff(labels, prepend=-2))
            return list(labels[starts])

        # each block's rows and columns sit together, in the same block
        # order on both sides: the order of the blocks' first columns
        row_runs, col_runs = runs(row_block[rows]), runs(col_block[cols])
        assert row_runs == col_runs
        assert sorted(row_runs) == list(range(len(sizes)))
        firsts = [np.flatnonzero(col_block == b).min() for b in col_runs]
        assert firsts == sorted(firsts)
        # the sort is stable: original order within each block
        for b in range(len(sizes)):
            assert np.all(np.diff(rows[row_block[rows] == b]) > 0)
            assert np.all(np.diff(cols[col_block[cols] == b]) > 0)

    def test_one_order_per_profile(self, monkeypatch):
        calls = []
        block_order = tangent_oracle._block_order

        def counted(op):
            calls.append(op.shape)
            return block_order(op)

        monkeypatch.setattr(tangent_oracle, "_block_order", counted)
        for cls, data in (
            (MatrixClass.JORDAN, JordanStructure.of((2, 1), (1,))),
            (MatrixClass.SINGULAR_VALUES, SingularProfile(3, 4, (2, 1))),
            (MatrixClass.HERMITIAN, MultiplicityProfile.of(2, 1)),
        ):
            calls.clear()
            verdict = verify_class(cls, data, trials=3)
            assert verdict.passed and len(verdict.trials) == 3, data
            assert len(calls) == 1, data

