import dataclasses
from typing import NamedTuple

import numpy as np
import pytest
from conftest import (
    base_point,
    commutant_term,
    operator_at,
    point_of,
    read_at,
    spectrum_of,
    stabilizer,
    svd_parts,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from matstrata import factory, tangent_oracle
from matstrata.cli import SWEEP_SCOPES, RunConfig, build_verify_report
from matstrata.commutant import check_witnesses
from matstrata.factory import _value_slots, derive_seed
from matstrata.formulas import COMPLEX_FIELD_CLASSES, MatrixClass, dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from matstrata.ranktools import BAND, DEFAULT_TOLERANCE, decide_ranks
from matstrata.tangent_oracle import Check, verify_profiles

EIGENVALUE_CLASSES = (
    MatrixClass.DIAGONALIZABLE_COMPLEX,
    MatrixClass.NORMAL,
    MatrixClass.HERMITIAN,
    MatrixClass.UNITARY,
    MatrixClass.REAL_SYMMETRIC,
)


class Row(NamedTuple):
    rank: int
    nullity: int
    gap_ratio: float
    reason: str | None


def decide_one(s, size, tol=1e-8):
    """One spectrum decided as a stack of one, as a :class:`Row`."""
    d = decide_ranks(np.asarray(s)[None], [size], tol)
    return Row(d.rank[0], d.nullity[0], d.gap_ratio[0], d.reason[0])


class TestRankDecision:
    def test_band_is_inconclusive(self):
        s = np.array([1.0, 5e-8, 1e-15])
        reason = decide_one(s, 3).reason
        assert reason == "singular value 5.000e-08 inside the indecision band [1.000e-09, 1.000e-07]"

    def test_clean_decision(self):
        s = np.array([1.0, 0.5, 1e-14])
        rank, nullity, gap, reason = decide_one(s, 3)
        assert (rank, nullity, reason) == (2, 1, None)
        assert gap > 1e4

    def test_zero_operator(self):
        assert decide_one(np.zeros(4), 4) == (0, 4, np.inf, None)

    def test_gap_requirement(self):
        # the oracle's reads need their gap ratio to meet the requirement,
        # the stabiliser's band-only read does not: a verdict from a free
        # row with gap 1e12 and an exact zero fixed row (Jordan n = 1)
        js = JordanStructure.of((1,))
        decisions = decide_ranks(np.array([[1.0, 1e-12], [0.0, 0.0]]), [2, 1])
        gap = decisions.gap_ratio[0]
        assert decisions.reason == [None, None] and 1e12 * 0.99 < gap < 1e13

        def verdict(requirement):
            return tangent_oracle._verdict(
                MatrixClass.JORDAN, js, decisions, 0, (1, True, 0.0), requirement
            )

        (met, found), (short, also_found) = verdict(1e4), verdict(1e13)
        assert met.verdict == "PASS" and met.certified and (met.observed, met.gap_ratio) == (2, gap)
        assert short.verdict == "INCONCLUSIVE" and not short.certified
        assert short.detail == f"kept/dropped gap ratio {gap:.3e} below required 1.000e+13"
        assert short.observed == short.observed_fixed == -1 and short.gap_ratio == 0.0
        assert also_found == found == Check(1, 1, np.inf, "PASS", True)

    def test_certified_needs_the_free_nullity(self):
        # the exact witnesses bound the free rank by the free columns less
        # their count, so a PASS whose free nullity is not that count is
        # uncertified: here the free row has a column more (Jordan n = 1)
        js = JordanStructure.of((1,))
        for size, certified in ((2, True), (3, False)):
            decisions = decide_ranks(np.array([[1.0, 0.0], [0.0, 0.0]]), [size, 1])
            verdict, _ = tangent_oracle._verdict(
                MatrixClass.JORDAN, js, decisions, 0, (1, True, 0.0), 1e4
            )
            assert verdict.verdict == "PASS" and verdict.certified is certified, size

    @pytest.mark.parametrize(
        "fixed, witnesses, verdict, observed, detail",
        [
            (
                [1.0, 5e-9], (1, True, 0.0), "INCONCLUSIVE", -1,
                "singular value 5.000e-09 inside the indecision band [1.000e-09, 1.000e-07]",
            ),
            ([0.0, 0.0], (2, True, 0.0), "FAIL", 2, "nullity 2, predicted 1"),
            ([1.0, 0.0], (0, True, 0.0), "FAIL", 1, "0 witnesses for a kernel of dimension 1"),
            ([1.0, 0.0], (2, True, 0.0), "FAIL", 1, "2 witnesses for a kernel of dimension 1"),
            (
                [1.0, 0.0], (1, False, 1e-6), "FAIL", 1,
                "witness residual 1.000e-06 against threshold 1.000e-08",
            ),
            (
                [1.0, 0.0], (1, False, 1e-9), "INCONCLUSIVE", 1,
                "witness residual 1.000e-09 against threshold 1.000e-08",
            ),
            ([1.0, 0.0], (1, True, 0.0), "PASS", 1, ""),
        ],
        ids=["undecided", "nullity", "too-few", "too-many", "residual", "inexact", "exact"],
    )
    def test_stabilizer_rule(self, fixed, witnesses, verdict, observed, detail):
        # the stabiliser case of Jordan n = 1, whose commutant term is 1,
        # from a free row that decides and a synthetic two-column fixed row
        # with witnesses of the given count, exactness and largest residual
        js = JordanStructure.of((1,))
        decisions = decide_ranks(np.array([[1.0, 0.0], fixed]), [2, 2])
        checks = tangent_oracle._verdict(MatrixClass.JORDAN, js, decisions, 0, witnesses, 1e4)
        gap = 0.0 if observed == -1 else decisions.gap_ratio[1]
        assert checks[1] == Check(1, observed, gap, verdict, verdict == "PASS", detail=detail)
        for check in checks:
            assert (check.verdict == "PASS") is not bool(check.detail), check

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            decide_one(np.array([1.0]), 1, tol=0.5)

    def test_zero_is_never_in_the_band(self):
        # the threshold of a subnormal largest value underflows to 0, and a
        # padding zero after it must still decide as no value at all
        for s in ([5e-324], [5e-324, 0.0]):
            assert decide_one(np.array(s), 2) == (1, 1, np.inf, None)


def _reference_decision(singular_values, size, tol=1e-8, band=10.0):
    """One spectrum decided value by value: the rule :func:`decide_ranks`
    applies to each row of a stack.  Returns the decision's rank, nullity
    and gap ratio, or the reason of the inconclusive read."""
    s = np.sort(np.abs(singular_values))[::-1]
    if not s.size or s[0] == 0.0:
        return 0, size, np.inf
    threshold = tol * s[0]
    in_band = (s > 0) & (s >= threshold / band) & (s <= threshold * band)
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
    return rank, size - rank, gap


def _outcome(decisions, row):
    """One row of a stack's decisions: its reason where it is inconclusive,
    else its rank, nullity and gap ratio."""
    if decisions.reason[row] is not None:
        return decisions.reason[row]
    return decisions.rank[row], decisions.nullity[row], decisions.gap_ratio[row]


def noise(kept):
    """The reason of a row whose smallest kept value ``kept`` is noise."""
    return f"kept singular value {kept:.3e} at or below the rounding noise floor"


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
            stack = decide_ranks(s, [size] * count)
            assert len(stack.rank) == len(stack.gap_ratio) == len(stack.reason) == count
            for row in range(count):
                expected = _reference_decision(s[row], size)
                alone = decide_ranks(s[row : row + 1], [size])
                got = _outcome(stack, row)
                assert repr(got) == repr(_outcome(alone, 0)) == repr(expected), (s, row)
                if isinstance(expected, str) and "band" in expected:
                    band_hits.add(row)
        # band hits were met in rows past the first
        assert band_hits - {0}

    def test_rows_are_sorted_absolute_values(self):
        s = np.array([[0.5, -2.0, 1e-12], [0.0, 0.0, 0.0]])
        stack = decide_ranks(s, [4, 4])
        assert stack == decide_ranks([[2.0, 0.5, 1e-12], [0.0, 0.0, 0.0]], [4, 4])
        assert stack.rank == [2, 0] and stack.nullity == [2, 4]
        assert stack.gap_ratio == [0.5 / 1e-12, np.inf]
        assert stack.reason == [None, None]

    def test_empty_spectra(self):
        stack = decide_ranks(np.zeros((3, 0)), [2] * 3)
        assert stack.rank == [0, 0, 0] and stack.gap_ratio == [np.inf] * 3
        assert stack.nullity == [2] * 3 and stack.reason == [None] * 3

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            decide_ranks(np.ones((2, 1)), [1, 1], tol=0.5)

    def test_noise_floor(self):
        # A kept value at or below eps * (rows * size * s_max + |s|) is
        # rounding noise: its row is inconclusive, as in the band.  Here |s|
        # is 2 to the last bit, so at 4 rows of 3 columns the floor is
        # 26 eps.  Above the floor, with no rows, or dropped by the
        # threshold, it decides as before.
        eps = np.finfo(float).eps
        s = np.array([[2.0, 26 * eps, 0.0], [2.0, 26 * eps * 1.01, 0.0]])
        stack = decide_ranks(s, [3, 3], tol=1e-20, rows=4)
        assert stack.reason == [noise(26 * eps), None]
        assert stack.rank[1] == 2
        alone = decide_ranks(s, [3, 3], tol=1e-20)
        assert (alone.rank[0], alone.reason[0]) == (2, None)
        dropped = decide_ranks(s, [3, 3], rows=4)
        assert (dropped.rank[0], dropped.reason[0]) == (1, None)
        # without rows, the row's norm alone (2, the operator's Frobenius
        # norm) sets the floor at 2 eps
        s = np.array([[np.sqrt(2.0), np.sqrt(2.0), 2 * eps], [np.sqrt(2.0), np.sqrt(2.0), 3 * eps]])
        stack = decide_ranks(s, [3, 3], tol=1e-20)
        assert stack.reason == [noise(2 * eps), None]
        assert stack.rank[1] == 3

    def test_noise_floor_per_row(self):
        # each row's floor takes its own entry count, rows times its own
        # size: the same spectrum is noise in a row of 3 columns and decided
        # in a row of 2, and neither moves with the zeros padding it or the
        # rows beside it
        eps = np.finfo(float).eps
        kept = 20 * eps  # floor 26 eps at size 3, 18 eps at size 2
        s = np.array([[2.0, kept, 0.0, 0.0], [2.0, kept, 0.0, 0.0]])
        stack = decide_ranks(s, [3, 2], tol=1e-20, rows=4)
        assert stack.floor == [26 * eps, 18 * eps]
        assert stack.reason == [noise(kept), None]
        for row, size in enumerate((3, 2)):
            alone = decide_ranks(s[row : row + 1, :2], [size], tol=1e-20, rows=4)
            assert alone.floor == [stack.floor[row]]
            assert alone.reason == [stack.reason[row]]
            assert alone.rank == [stack.rank[row]]

    #: Zeros, values near the largest (where the band and the gap fall),
    #: and values over the whole float range, subnormal ones included.
    _value = st.one_of(
        st.just(0.0),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-12, 0)),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-323, 300)),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 3), st.lists(st.integers(0, 5), min_size=2, max_size=3))
    def test_zero_padding_keeps_every_decision(self, data, height, widths):
        """Stacks of spectra of several widths, each row zero-padded to the
        widest and all decided in one call with one size per row, decide
        every row as its own stack does: rank, nullity, threshold, gap
        ratio and reason."""
        stacks, sizes = [], []
        for k in widths:
            rows = st.lists(self._value, min_size=k, max_size=k)
            stack = data.draw(st.lists(rows, min_size=height, max_size=height))
            stacks.append(np.array(stack, dtype=float).reshape(height, k))
            sizes.append(k + data.draw(st.integers(0, 2)))
        width = max(widths)
        padded = [np.pad(stack, ((0, 0), (0, width - stack.shape[1]))) for stack in stacks]
        merged = decide_ranks(np.concatenate(padded), np.repeat(sizes, height).tolist())

        def outcome(d, row):
            return d.rank[row], d.nullity[row], d.threshold[row], d.gap_ratio[row], d.reason[row]

        for index, (stack, size) in enumerate(zip(stacks, sizes)):
            alone = decide_ranks(stack, [size] * height)
            for row in range(height):
                got = outcome(merged, index * height + row)
                assert repr(got) == repr(outcome(alone, row)), (stack, row)


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
        assert read.gap_ratio == np.inf

    def test_normal_all_simple_fills_ambient(self):
        n = 4
        profile = MultiplicityProfile.of(*[1] * n)
        _, rank = probe(MatrixClass.NORMAL, profile, 5)
        rep = dimension_report(MatrixClass.NORMAL, profile)
        assert rank == rep.stratum_dim == rep.ambient_dim == n * n + n

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
        ((diag, _),) = verify_profiles(MatrixClass.DIAGONALIZABLE_COMPLEX, [p], [0])
        assert diag.predicted == 2 * (9 - 5 + 2)
        report = dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, p)
        assert diag.predicted == 2 * report.stratum_dim
        ((hermitian, _),) = verify_profiles(MatrixClass.HERMITIAN, [p], [0])
        assert hermitian.predicted == 9 - 5 + 2

    def test_free_fixed_difference(self):
        js = JordanStructure.of((2, 1), (1,))
        ((verdict, _),) = verify_profiles(MatrixClass.JORDAN, [js], [0])
        assert verdict.predicted - verdict.predicted_fixed == 2 * js.num_eigenvalues
        report = dimension_report(MatrixClass.JORDAN, js)
        assert verdict.predicted_fixed == 2 * report.fixed().stratum_dim


def assert_certified(checks, profiles):
    """Every check of a run is a certified PASS, and every oracle check's
    reads meet the default gap requirement."""
    assert len(checks) == len(profiles)
    for data, (oracle, stabilizer) in zip(profiles, checks):
        for check in (oracle, stabilizer):
            assert check.verdict == "PASS" and check.certified, (data, check.detail)
        assert oracle.gap_ratio >= 1e4, data


class TestVerifyClassSweeps:
    """Whole runs of one order, each profile at one certified point."""

    @pytest.mark.parametrize("cls", EIGENVALUE_CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_eigenvalue_classes(self, cls, n):
        profiles = list(multiplicity_profiles(n))
        seeds = [derive_seed(n, idx) for idx in range(len(profiles))]
        assert_certified(verify_profiles(cls, profiles, seeds), profiles)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_jordan_structures(self, n):
        structures = list(jordan_structures(n))
        seeds = [derive_seed(2, n, idx) for idx in range(len(structures))]
        assert_certified(verify_profiles(MatrixClass.JORDAN, structures, seeds), structures)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_singular_profiles(self, n):
        for m in range(1, 6):
            profiles = list(singular_profiles(n, m))
            seeds = [derive_seed(3, n, m, idx) for idx in range(len(profiles))]
            verdicts = verify_profiles(MatrixClass.SINGULAR_VALUES, profiles, seeds)
            assert_certified(verdicts, profiles)


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

    def test_unitary_drift_rejected_off_the_group(self):
        # The image Y = S C - C S of a skew-Hermitian S has drift
        # Y C^H + C Y^H = [S, C C^H].  At C = 2B that is [S, 4I] = 0: a
        # multiple of a unitary passes.  Doubling one diagonal entry alone
        # makes C C^H = diag(4, 1, 1, 1), which S = E_01 - E_10 does not
        # commute with.
        profile = MultiplicityProfile.of(2, 1, 1)
        base = base_point(MatrixClass.UNITARY, profile, 13)[None]
        slots = _value_slots([profile])
        tangent_oracle._operator(MatrixClass.UNITARY, [profile], 2 * base, slots)
        base[..., 0, 0] *= 2
        with pytest.raises(ValueError, match="leaves the unitary tangent space"):
            tangent_oracle._operator(MatrixClass.UNITARY, [profile], base, slots)

    def test_hermitian_coordinates_reject_a_non_hermitian_base(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="not Hermitian"):
            operator_at(MatrixClass.HERMITIAN, MultiplicityProfile.of(3, 1), base, True)

    def test_symmetric_coordinates_reject_a_non_symmetric_base(self):
        base = np.random.default_rng(12).standard_normal((4, 4))
        with pytest.raises(ValueError, match="not symmetric"):
            operator_at(MatrixClass.REAL_SYMMETRIC, MultiplicityProfile.of(2, 2), base, True)


    def test_require_never_accepts_what_the_modulus_check_rejects(self):
        """The float-view check against the complex-modulus formula it
        replaced, on random complex stacks whose residuals sit near the
        threshold: every stack the modulus formula rejects must raise."""
        tol = tangent_oracle._MEMBERSHIP_TOL

        def modulus_rejects(images, residual):
            worst = np.abs(residual).max(axis=(-2, -1), initial=0.0)
            scale = 1.0 + np.abs(images).max(axis=(-2, -1), initial=0.0)
            return bool(np.any(worst > tol * scale))

        rng = np.random.default_rng(17)
        outcomes = {True: 0, False: 0}
        for _ in range(2000):
            shape = (int(rng.integers(1, 4)), 3, 3)
            images = rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
            images *= 10.0 ** rng.uniform(-3, 3)
            residual = rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
            # scale each residual so its largest modulus is near the threshold
            scale = 1.0 + np.abs(images).max(axis=(-2, -1), keepdims=True)
            peak = np.abs(residual).max(axis=(-2, -1), keepdims=True)
            residual *= tol * scale / peak * rng.uniform(0.5, 1.5, (shape[0], 1, 1))
            old = modulus_rejects(images, residual)
            try:
                tangent_oracle._require(images, residual, "rejected")
                new = False
            except ValueError:
                new = True
            assert new or not old
            outcomes[old] += 1
        # both sides of the old threshold were drawn
        assert min(outcomes.values()) > 100


class TestRankMonotonicity:
    @pytest.mark.parametrize("cls", EIGENVALUE_CLASSES, ids=lambda c: c.value)
    def test_refining_profile_never_decreases_rank(self, cls):
        for n in range(2, 6):
            for profile in multiplicity_profiles(n):
                ((base, _),) = verify_profiles(cls, [profile], [41])
                for i, k in enumerate(profile.parts):
                    if k < 2:
                        continue
                    refined = MultiplicityProfile(
                        n, profile.parts[:i] + (k - 1, 1) + profile.parts[i + 1 :]
                    )
                    ((finer, _),) = verify_profiles(cls, [refined], [42])
                    assert finer.observed >= base.observed


class TestRankNullityBalance:
    """Transform-group dimension splits into commutant nullity plus the
    fixed-value tangent rank, in every complex-similarity case: the rank of
    the conclusive read and the nullity of the band-only read, both at the
    same base point."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_plus_nullity_diagonalizable(self, n):
        cls = MatrixClass.DIAGONALIZABLE_COMPLEX
        for idx, profile in enumerate(multiplicity_profiles(n)):
            seed = derive_seed(5, n, idx)
            _, rank = probe(cls, profile, seed, free_values=False)
            kernel, _ = read_at(cls, profile, seed)
            assert rank + 2 * kernel.nullity == 2 * n * n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_plus_nullity_jordan(self, n):
        for idx, js in enumerate(jordan_structures(n)):
            seed = derive_seed(6, n, idx)
            _, rank = probe(MatrixClass.JORDAN, js, seed, free_values=False)
            kernel, _ = read_at(MatrixClass.JORDAN, js, seed)
            assert rank + 2 * kernel.nullity == 2 * n * n


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
        """The fixed case is the leading ``columns - values`` columns of the
        one stack that the assembly builds."""
        for idx, data in enumerate(_sweep_data(cls)):
            base = base_point(cls, data, derive_seed(9, idx))
            got, (values,) = tangent_oracle._operator(
                cls, [data], base[None], _value_slots([data])
            )
            got = got[0]
            expected = reference_operator(cls, data, base, free_values)
            transforms = reference_operator(cls, data, base, False).shape[1]
            assert values == got.shape[1] - transforms, data
            if not free_values:
                got = got[:, : got.shape[1] - values]
            assert got.shape == expected.shape, data
            atol = REFERENCE_RTOL * max(np.abs(expected).max(initial=0.0), 1.0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=atol, err_msg=str(data))

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_verify_class_reads_assembled_probes(self, monkeypatch, cls):
        """verify_profiles reads each profile's free operator and its
        transform columns at one base point, over a whole run; both must
        decide as the conclusive reads of the operators assembled at that
        point do.  The verdict's stabiliser is read from the band-only
        decision of the fixed read: its dimension is the nullity that a
        dense SVD of the fixed operator gives, and its gap is the fixed
        gap."""
        real = 2 if cls in COMPLEX_FIELD_CLASSES else 1
        profiles = _sweep_data(cls)
        seeds = [derive_seed(5, idx) for idx in range(len(profiles))]
        gaps = []

        def recorded(singular_values, sizes, tol, rows):
            decisions = decide_ranks(singular_values, sizes, tol, rows)
            gaps.extend(decisions.gap_ratio)
            return decisions

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        checks = verify_profiles(cls, profiles, seeds)
        assert len(gaps) == 2 * len(profiles)
        for index, (data, seed, (verdict, found)) in enumerate(zip(profiles, seeds, checks)):
            assert verdict.verdict == "PASS" and verdict.certified, data
            base = base_point(cls, data, seed)
            free, free_rank = probe(cls, data, base, True)
            fixed, fixed_rank = probe(cls, data, base, False)
            reads = (verdict.observed, *gaps[2 * index : 2 * index + 2], verdict.observed_fixed)
            assert reads == (free_rank, free.gap_ratio, fixed.gap_ratio, fixed_rank), data
            assert verdict.gap_ratio == min(free.gap_ratio, fixed.gap_ratio), data
            op = operator_at(cls, data, base, False)
            dense = decide_one(np.linalg.svd(op, compute_uv=False), op.shape[1])
            assert dense.reason is None and found.observed == dense.nullity, data
            assert real * (op.shape[1] - found.observed) == verdict.observed_fixed
            assert found.gap_ratio == fixed.gap_ratio, data

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_kernel_is_the_stabilizer_of_the_first_trial(self, cls):
        """The stabiliser check reads the band-only read of the fixed
        operator at the profile's one point, rebuilt there and checked
        against its witnesses: its nullity is the commutant term, and the
        witnesses span the kernel and are annihilated exactly, so the check
        is a certified PASS."""
        profiles = _sweep_data(cls)
        seeds = [derive_seed(12, idx) for idx in range(len(profiles))]
        checks = verify_profiles(cls, profiles, seeds)
        for data, seed, (_, found) in zip(profiles, seeds, checks):
            kernel, _ = read_at(cls, data, base_point(cls, data, seed))
            reference = stabilizer(cls, data, kernel)
            assert reference.structure_ok and reference.exact, data
            expected = (commutant_term(cls, data), reference.dimension, reference.gap_ratio)
            assert found == Check(*expected, "PASS", True), data

    def test_kernel_read_when_first_free_read_is_inconclusive(self, gap_reads_fail):
        js = JordanStructure.of((3,))
        ((verdict, found),) = verify_profiles(MatrixClass.JORDAN, [js], [0])
        assert verdict.verdict == "INCONCLUSIVE" and verdict.detail.endswith("below required inf")
        assert verdict.observed == verdict.observed_fixed == -1 and not verdict.certified
        assert found.observed == 3 and found.verdict == "PASS" and found.certified

    def test_no_stabilizer_when_the_first_band_only_read_is_inconclusive(self):
        """The stabiliser is the fixed row's band-only read; where a kept
        value of that row is noise (a tolerance below rounding keeps the
        zero values of a double singular value's block), both checks are
        INCONCLUSIVE for the noise floor and not certified, the stabiliser
        check with no observed dimension, and so is the report's qp-pair
        case."""
        sp = SingularProfile(2, 2, (2,))
        ((verdict, found),) = verify_profiles(MatrixClass.SINGULAR_VALUES, [sp], [0], tol=1e-20)
        assert verdict.verdict == "INCONCLUSIVE" and "noise floor" in verdict.detail
        assert not verdict.certified
        assert found.verdict == "INCONCLUSIVE" and "noise floor" in found.detail
        assert found.observed == -1 and found.gap_ratio == 0.0 and not found.certified
        report = build_verify_report("singular", RunConfig(max_n=2, max_m=2, tolerance=1e-20))
        for case in report["cases"]:
            double = case["case"].startswith("singular 2x2 k=2 ")
            expected = "INCONCLUSIVE" if double else "PASS"
            assert case["verdict"] == expected and case["certified"] is not double, case
            assert (case["observed"] == -1) is double, case

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_verdict_keeps_no_operator(self, cls):
        """No field of a profile's checks, nested dataclasses and tuples
        walked, is an array: the operator is read inside verify_profiles
        and dropped there."""

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield from arrays(getattr(value, field.name))
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)

        profiles = _sweep_data(cls)
        seeds = [derive_seed(33, idx) for idx in range(len(profiles))]
        for data, checks in zip(profiles, verify_profiles(cls, profiles, seeds)):
            assert all(check.verdict == "PASS" for check in checks), data
            assert not list(arrays(checks)), data


class TestStackedTrials:
    """Each profile of a run is one trial of its class, at one point; the
    stacks assembled around it must not change what it reads."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_trials_are_a_prefix_of_longer_stacks(self, monkeypatch, cls):
        """The first k profiles of a run, verified alone, give the first k
        verdicts of the whole run, and each profile's two rows reach
        decide_ranks bit for bit the same, up to the padding of the chunks
        that the longer run builds."""
        reads = []

        def recorded(singular_values, sizes, tol, rows):
            reads.append((singular_values, sizes))
            return decide_ranks(singular_values, sizes, tol, rows)

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        profiles = _sweep_data(cls)
        seeds = [derive_seed(13, idx) for idx in range(len(profiles))]

        def rows(k):
            reads.clear()
            verdicts = verify_profiles(cls, profiles[:k], seeds[:k])
            return verdicts, [(r, n) for s, sizes in reads for r, n in zip(s, sizes)]

        whole, whole_rows = rows(len(profiles))
        assert all(check.verdict == "PASS" and check.certified for pair in whole for check in pair)
        for k in (1, 3, 5):
            verdicts, prefix = rows(k)
            assert verdicts == whole[:k], k
            for (row, size), (longer, longer_size) in zip(prefix, whole_rows):
                assert size == longer_size
                width = max(row.size, longer.size)
                assert np.array_equal(np.pad(row, (0, width - row.size)),
                                      np.pad(longer, (0, width - longer.size))), k

    @pytest.mark.parametrize(
        "cls",
        (
            MatrixClass.DIAGONALIZABLE_COMPLEX,
            MatrixClass.JORDAN,
            MatrixClass.HERMITIAN,
            MatrixClass.NORMAL,
            MatrixClass.UNITARY,
        ),
        ids=lambda c: c.value,
    )
    def test_unit_images_equal_the_basis_matmul(self, cls):
        """The transform images, written entry by entry (the matrix units')
        or combined from those (the skew-Hermitian basis': ``i U_jj``,
        ``U_ij - U_ji``, ``i (U_ij + U_ji)``), equal ``X B - B X`` by matmul
        over the class's basis exactly: each entry is one value of ``B`` or
        the sum or difference of two, times 1 or i."""
        rng = np.random.default_rng(14)
        for idx, data in enumerate(_sweep_data(cls, 6)):
            n = data.n
            base = base_point(cls, data, derive_seed(14, idx))[None]
            dense = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            if cls in COMPLEX_FIELD_CLASSES:
                basis, images_of = np.eye(n * n).reshape(n * n, n, n), tangent_oracle._unit_images
            else:
                basis = np.array(_reference_skew_hermitian(n))

                def images_of(stack):
                    out = np.empty((*stack.shape[:-2], n * n, n, n), dtype=complex)
                    return tangent_oracle._skew_hermitian_images(stack, out)

            for stack in (base, dense):
                point = stack[:, None]
                images = images_of(stack)
                assert np.array_equal(images, basis @ point - point @ basis), data


def _draw(data):
    """The spectrum count and gap that a profile's base point is drawn with."""
    if isinstance(data, JordanStructure):
        return data.num_eigenvalues, factory.JORDAN_SPECTRUM_GAP
    return data.num_distinct, factory.DEFAULT_MIN_GAP


class TestOneArrayPass:
    """verify_profiles builds a chunk's base points by one factory call and
    decides its free and fixed rows by one decide_ranks call."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_stacked_base_points_equal_per_spec_construction(self, cls):
        """A profile's spectrum row builds its base point on its own, for
        every profile, rank 0's empty spectra included; the base points are
        float64 for the real-spectrum classes, Jordan and diagonalizable
        among them, and complex128 for normal and unitary."""
        kind = tangent_oracle._SPECTRUM_KIND[cls]
        dtype = np.complex128 if cls in (MatrixClass.NORMAL, MatrixClass.UNITARY) else np.float64
        for idx, data in enumerate(_sweep_data(cls, 6)):
            count, gap = _draw(data)
            seed = derive_seed(15, idx)
            each = point_of(data, spectrum_of(count, kind, seed, gap))
            base = base_point(cls, data, seed)
            assert each.dtype == base.dtype == dtype, data
            assert np.array_equal(base, each), data

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_two_decision_calls_per_profile(self, monkeypatch, cls):
        """One decide_ranks call, on the free row 0 and the fixed row 1
        with one size per row, at the operator's entry count, and one
        check_witnesses call on the fixed operator of the chunk of one; the
        stabiliser reads fixed row 1, band-only, and that check."""
        calls, reads = [], []

        def recorded(singular_values, sizes, tol, rows):
            decisions = decide_ranks(singular_values, sizes, tol, rows)
            calls.append((singular_values.shape, sizes, rows, decisions))
            return decisions

        def check(matrix_class, profiles, operators):
            reads.append((profiles, operators, check_witnesses(matrix_class, profiles, operators)))
            return reads[-1][-1]

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        monkeypatch.setattr(tangent_oracle, "check_witnesses", check)
        for idx, data in enumerate(_sweep_data(cls, 3)):
            calls.clear()
            reads.clear()
            seed = derive_seed(16, idx)
            ((verdict, found),) = verify_profiles(cls, [data], [seed])
            assert verdict.verdict == "PASS" and len(calls) == 1 and len(reads) == 1, data
            ((shape, sizes, rows, decisions),) = calls
            columns, fixed_columns = sizes
            assert shape[0] == 2 and columns >= fixed_columns, data
            ((profiles, operators, ((count,), (exact,), _)),) = reads
            assert profiles == [data] and decisions.reason[1] is None, data
            nullity, gap = decisions.nullity[1], decisions.gap_ratio[1]
            assert count == nullity and exact, data
            assert found == Check(commutant_term(cls, data), nullity, gap, "PASS", True), data
            at = base_point(cls, data, seed)
            assert rows == operator_at(cls, data, at, True).shape[0], data
            assert np.array_equal(operators[0], operator_at(cls, data, at)), data
            assert operators.shape == (1, *operator_at(cls, data, at).shape), data
            assert operators.shape[-1] == fixed_columns, data

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_two_values_only_svds_per_profile(self, monkeypatch, cls):
        """One values-only call per multi-column part with rows and
        columns (:func:`conftest.svd_parts`); one-column blocks are read by
        their norms.  At n <= 3 that is none for diagonalizable,
        hermitian and real-symmetric, at most one for normal, unitary and
        singular values, and for Jordan three, or none for a semisimple
        structure."""
        svd = np.linalg.svd
        calls = []

        def spy(a, *args, **kwargs):
            calls.append((a.shape, args, kwargs))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        most = {MatrixClass.JORDAN: 3, MatrixClass.SINGULAR_VALUES: 1}
        most.update({c: 1 for c in (MatrixClass.NORMAL, MatrixClass.UNITARY)})
        for idx, data in enumerate(_sweep_data(cls, 3)):
            seed = derive_seed(18, idx)
            base = base_point(cls, data, seed)
            slots = _value_slots([data])
            parts = svd_parts(*tangent_oracle._operator(cls, [data], base[None], slots))
            calls.clear()
            ((verdict, _),) = verify_profiles(cls, [data], [seed])
            assert verdict.verdict == "PASS", data
            assert [shape for shape, _, _ in calls] == parts, data
            for _, args, kwargs in calls:
                assert not args and kwargs == {"compute_uv": False}, data
            if cls is MatrixClass.JORDAN:
                semisimple = all(k == 1 for part in data.blocks for k in part)
                assert len(calls) == (0 if semisimple else 3), data
            else:
                assert len(calls) <= most.get(cls, 0), data


COMPLEX_FIELD = sorted(COMPLEX_FIELD_CLASSES, key=lambda c: c.value)


class TestRealSpectra:
    """Jordan and diagonalizable base points come from real spectra.  Their
    ranks are over the complex field, but the rank is constant on a stratum,
    distinct real values give a point of the complex stratum, and a real
    matrix's complex rank is its real rank."""

    @pytest.mark.parametrize("cls", COMPLEX_FIELD, ids=lambda c: c.value)
    def test_complex_point_reads_the_real_trial_ranks(self, cls):
        """A complex base point, read by the complex assembly, gives the
        ranks that the oracle reads at its real point, for every profile
        with n <= 6."""
        profiles = _sweep_data(cls, 6)
        seeds = [derive_seed(19, idx) for idx in range(len(profiles))]
        checks = verify_profiles(cls, profiles, seeds)
        for data, seed, (verdict, _) in zip(profiles, seeds, checks):
            count, gap = _draw(data)
            base = point_of(data, spectrum_of(count, "complex", seed, gap))
            assert base.dtype == np.complex128, data
            assert base_point(cls, data, seed).dtype == np.float64, data
            assert verdict.verdict == "PASS", data
            free, rank_free = read_at(cls, data, base, free_values=True)
            fixed, rank_fixed = read_at(cls, data, base)
            assert free.operator.dtype == fixed.operator.dtype == np.complex128, data
            assert (rank_free, rank_fixed) == (verdict.observed, verdict.observed_fixed), data

    @pytest.mark.parametrize("cls", COMPLEX_FIELD, ids=lambda c: c.value)
    def test_kept_singular_values_clear_the_band(self, monkeypatch, cls):
        """Over the sweep of ``verify --max-n 8`` at seed 0, the smallest
        predicted-kept singular value of every read, relative to its
        largest, stays at or above 1e-5: 100 times the top of the
        indecision band, ``DEFAULT_TOLERANCE * BAND`` = 1e-7.  At seed 0 it
        is 2.21e-3 for Jordan (``0:5,1;1:2``) and 4.33e-2 for
        diagonalizable."""
        reads = []

        def recorded(singular_values, sizes, tol, rows):
            reads.append(np.sort(np.abs(singular_values))[:, ::-1])
            return decide_ranks(singular_values, sizes, tol, rows)

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        scope_idx = SWEEP_SCOPES.index("jordan" if cls is MatrixClass.JORDAN else "diagonalizable")
        profiles = _sweep_data(cls, 8)
        seeds = [derive_seed(0, scope_idx, index) for index in range(len(profiles))]
        checks = verify_profiles(cls, profiles, seeds)
        rows = [row for read in reads for row in read]
        worst = np.inf
        for index, (data, (verdict, _)) in enumerate(zip(profiles, checks)):
            assert verdict.verdict == "PASS", data
            for s, predicted in zip(
                rows[2 * index : 2 * index + 2], (verdict.predicted, verdict.predicted_fixed)
            ):
                kept = predicted // 2
                if kept:
                    worst = min(worst, s[kept - 1] / s[0])
        assert worst >= 100 * DEFAULT_TOLERANCE * BAND, worst


def _assembled_operators(cls, max_n):
    """Free and fixed operators of every profile of the class up to ``max_n``."""
    for idx, data in enumerate(_sweep_data(cls, max_n)):
        base = base_point(cls, data, derive_seed(21, idx))
        for free_values in (True, False):
            yield (data, free_values), operator_at(cls, data, base, free_values)


def _assembled_stacks(cls, max_n):
    """Free operators (R, C) of every profile of the class up to
    ``max_n``, with their numbers of value columns."""
    for idx, data in enumerate(_sweep_data(cls, max_n)):
        base = base_point(cls, data, derive_seed(21, idx))
        slots = _value_slots([data])
        stack, (values,) = tangent_oracle._operator(cls, [data], base[None], slots)
        yield data, stack[0], values


def _assert_split_matches_dense(chunk, values, label, tol=1e-8):
    """Both sides of the split read of a chunk (P, R, C) of operators,
    operator p with ``values[p]`` value columns and zero columns after
    them, against the dense SVD of each operator, with and without its own
    value columns: each operator's free row, then its fixed row, each
    padded with zeros to the chunk's width, the same values to 1e-12 s_max
    once sorted, the same rank."""
    stacks, size, columns = chunk.shape
    fixed_columns = columns - max(values)
    spectra = tangent_oracle._split_read(chunk, fixed_columns)
    assert spectra.shape == (2 * stacks, min(size, columns)), label
    for p, matrix in enumerate(chunk):
        assert not matrix[:, fixed_columns + values[p] :].any(), label
        for side, width in enumerate((fixed_columns + values[p], fixed_columns)):
            values_read = spectra[2 * p + side]
            expected = np.linalg.svd(matrix[:, :width], compute_uv=False)
            padded = np.pad(expected, (0, values_read.size - expected.size))
            np.testing.assert_allclose(
                np.sort(values_read)[::-1], padded, rtol=0,
                atol=1e-12 * padded.max(initial=0.0),
                err_msg=str((label, p, width)),
            )
            dense, read = decide_one(expected, width, tol), decide_one(values_read, width, tol)
            assert dense.reason is read.reason is None, (label, p, width)
            assert read.rank == dense.rank, (label, p, width)


def _reference_split_read(differential, fixed_columns):
    """:func:`tangent_oracle._split_read` one operator at a time, on the
    dense :func:`_reference_block_order`: each row the concatenation of the
    value-free multi-column blocks' singular values, the value blocks'
    singular values with all their columns (free) or their transform
    columns alone (fixed), and the one-column blocks' norms (free) or the
    value-free ones' (fixed), zero-padded and sorted descending."""
    stacks, size, columns = differential.shape

    def svd(block):
        return np.linalg.svd(block, compute_uv=False) if min(block.shape) else np.zeros(0)

    spectra = np.zeros((stacks, 2, min(size, columns)))
    for matrix, sides in zip(differential, spectra):
        rows, cols, row_at, col_at, one_column = _reference_block_order(matrix != 0, fixed_columns)
        head = matrix[rows[row_at[0] : row_at[1]]][:, cols[col_at[0] : col_at[1]]]
        tail_cols = cols[col_at[1] : col_at[2]]
        tail = matrix[rows[row_at[1] : row_at[2]]][:, tail_cols]
        norm = np.linalg.norm(matrix, axis=0)
        free = [svd(head), svd(tail), norm[one_column]]
        fixed = [svd(head), svd(tail[:, tail_cols < fixed_columns])]
        fixed.append(norm[one_column & (np.arange(columns) < fixed_columns)])
        for side, parts in zip(sides, (free, fixed)):
            read = np.sort(np.concatenate(parts))[::-1]
            side[: read.size] = read
    return spectra.reshape(2 * stacks, -1)


def _chunk_of(cls, profiles, seeds):
    """The operator chunk of ``profiles``, each at its seed's point."""
    slots = _value_slots(profiles)
    base = tangent_oracle._base_points(cls, profiles, seeds, slots)
    return tangent_oracle._operator(cls, profiles, base, slots)


def _reference_block_order(pattern, fixed_columns):
    """:func:`tangent_oracle._block_order` by dense label propagation, two
    (R, C) ``np.where`` arrays a round, and a sort of Python tuples
    (segment, label, index); the one-column mask counts each label's
    columns."""
    count = pattern.shape[1]
    label = np.arange(count)
    while True:
        row_label = np.where(pattern, label, count).min(axis=1, initial=count)
        spread = np.where(pattern, row_label[:, None], count).min(axis=0, initial=count)
        merged = np.minimum(label, spread)
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    label[spread == count] = count

    def width(block):
        return 0 if block == count else int(np.sum(label == block))

    def segment(block):
        if width(block) < 2:
            return 2
        return int(np.flatnonzero(label == block)[-1] >= fixed_columns)

    result = ([], [])
    for labels in (row_label, label):
        keys = sorted((segment(b), b, i) for i, b in enumerate(labels.tolist()))
        bounds = [0] + [sum(key[0] <= k for key in keys) for k in range(3)]
        result[0].append(np.array([i for _, _, i in keys], dtype=int))
        result[1].append(bounds)
    one_column = np.array([width(b) == 1 for b in label.tolist()], dtype=bool)
    return (*result[0], *result[1], one_column)


def _block_order_as_reference(pattern, fixed_columns, label):
    """:func:`tangent_oracle._block_order` of ``pattern``, checked equal to
    :func:`_reference_block_order`."""
    *order, one_column = tangent_oracle._block_order(pattern, fixed_columns)
    *expected, reference_mask = _reference_block_order(pattern, fixed_columns)
    for part, reference in zip(order, expected, strict=True):
        assert np.array_equal(part, reference), label
    assert np.array_equal(one_column, reference_mask[None]), label
    return (*order, one_column[0])


def _shuffled_blocks():
    """A block-diagonal matrix, shuffled, with two all-zero rows and one
    all-zero column moved to the front, and each row's and column's block
    (-1 for the zero ones)."""
    rng = np.random.default_rng(5)
    # block sizes (rows, columns); blocks 1 and 3 have one column, block 3
    # several rows; the last block is a bidiagonal chain, connected only
    # through a path that crosses every row and column
    sizes = ((2, 3), (1, 1), (3, 2), (3, 1), (6, 6))
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
    row_perm = np.concatenate([[r0, r0 + 1], rng.permutation(r0)])
    col_perm = np.concatenate([[c0], rng.permutation(c0)])
    return op[row_perm][:, col_perm], row_block[row_perm], col_block[col_perm]


def _valued_blocks():
    """The shuffled blocks with three value columns: one joins block 1 and
    one the chain (block 4), and one is alone with two new rows (block 5),
    a one-column value block.  Returns the matrix, its row and column
    blocks, and its number of transform columns."""
    shuffled, row_block, col_block = _shuffled_blocks()
    (rows, fixed_columns), rng = shuffled.shape, np.random.default_rng(6)
    valued = np.zeros((rows + 2, fixed_columns + 3))
    valued[:rows, :fixed_columns] = shuffled
    row_block = np.concatenate([row_block, [5, 5]])
    col_block = np.concatenate([col_block, [1, 4, 5]])
    for column, block in zip(range(fixed_columns, fixed_columns + 3), (1, 4, 5)):
        valued[row_block == block, column] = rng.uniform(1.0, 2.0, sum(row_block == block))
    return valued, row_block, col_block, fixed_columns


def _runs(labels):
    """The labels of the runs of equal labels, in order."""
    starts = np.flatnonzero(np.diff(labels, prepend=-2))
    return list(labels[starts])


def _assert_contiguous(rows, cols, row_block, col_block, blocks):
    """Each of ``blocks`` sits together in rows and columns, in the same
    order on both sides, the order of the blocks' first columns, each in
    its original order."""
    row_runs, col_runs = _runs(row_block[rows]), _runs(col_block[cols])
    assert row_runs == col_runs
    assert sorted(row_runs) == sorted(blocks)
    firsts = [np.flatnonzero(col_block == b).min() for b in col_runs]
    assert firsts == sorted(firsts)
    for b in blocks:
        assert np.all(np.diff(rows[row_block[rows] == b]) > 0)
        assert np.all(np.diff(cols[col_block[cols] == b]) > 0)


def _assert_segments(order, row_block, col_block, segments):
    """The three segments of ``order`` (as :func:`tangent_oracle._block_order`
    returns it, with the mask of one matrix) hold ``segments``, their
    blocks contiguous; segment 2 holds its one-column blocks, then the
    all-zero rows and columns (block -1), and the mask marks the columns of
    its one-column blocks alone."""
    rows, cols, row_at, col_at, one_column = order
    assert sorted(rows) == list(range(row_block.size))
    assert sorted(cols) == list(range(col_block.size))
    for k, blocks in enumerate(segments):
        r, c = rows[row_at[k] : row_at[k + 1]], cols[col_at[k] : col_at[k + 1]]
        if k == 2:
            r, zero_rows = np.split(r, [r.size - np.sum(row_block == -1)])
            c, zero_cols = np.split(c, [c.size - np.sum(col_block == -1)])
            assert set(row_block[zero_rows]) | set(col_block[zero_cols]) <= {-1}
        _assert_contiguous(r, c, row_block, col_block, blocks)
    assert np.array_equal(one_column, np.isin(col_block, segments[2]))


class TestBlockOrder:
    """The split read against the dense SVD: a permutation of rows and
    columns, and a split into parts that no entry couples, must leave every
    operator's singular values unchanged."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_matches_plain_svd(self, cls):
        for data, stack, values in _assembled_stacks(cls, 5):
            _assert_split_matches_dense(stack[None], [values], data)

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_matches_dense_propagation(self, cls):
        """The labels spread over the nonzero list give the rows, columns
        and segment bounds of the dense reference, for every profile with
        n <= 6 (singular n, m <= 6); the shuffled blocks are checked too."""
        for data, stack, values in _assembled_stacks(cls, 6):
            _block_order_as_reference(stack != 0, stack.shape[-1] - values, data)

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
                s = np.linalg.svd(op[rows][:, cols], compute_uv=False)
                np.testing.assert_allclose(
                    s, expected, rtol=0, atol=1e-12 * expected[0], err_msg=str(label)
                )

    def test_shuffled_blocks_come_out_contiguous(self):
        """Without value columns: the multi-column blocks 0, 2 and the
        chain, then the one-column blocks 1 and 3 and the all-zero rows
        and column; the value segment is empty."""
        shuffled, row_block, col_block = _shuffled_blocks()
        order = _block_order_as_reference(shuffled != 0, shuffled.shape[1], "shuffled")
        _, _, row_at, col_at, _ = order
        assert row_at[1] == row_at[2] and row_at[3] == shuffled.shape[0]
        assert col_at[1] == col_at[2] and col_at[3] == shuffled.shape[1]
        _assert_segments(order, row_block, col_block, ((0, 2, 4), (), (1, 3)))
        _assert_split_matches_dense(shuffled[None], [0], "shuffled")

    def test_value_blocks_come_last(self):
        """Two value columns join blocks 1 and 4, a third stands alone with
        its rows: blocks 1 and 4 are the multi-column value segment, after
        the value-free blocks, and the lone value column is a one-column
        block, beside block 3 and before the all-zero rows and column."""
        valued, row_block, col_block, fixed_columns = _valued_blocks()
        order = _block_order_as_reference(valued != 0, fixed_columns, "valued")
        _assert_segments(order, row_block, col_block, ((0, 2), (1, 4), (3, 5)))
        _, cols, _, col_at, one_column = order
        assert list(one_column[fixed_columns:]) == [False, False, True]
        assert set(cols[col_at[1] :]) >= set(range(fixed_columns, fixed_columns + 3))
        _assert_split_matches_dense(valued[None], [3], "valued")

    def test_one_order_per_profile(self, monkeypatch):
        calls = []
        block_order = tangent_oracle._block_order

        def counted(pattern, fixed_columns):
            calls.append((pattern.shape, fixed_columns))
            return block_order(pattern, fixed_columns)

        monkeypatch.setattr(tangent_oracle, "_block_order", counted)
        for cls, data in (
            (MatrixClass.JORDAN, JordanStructure.of((2, 1), (1,))),
            (MatrixClass.SINGULAR_VALUES, SingularProfile(3, 4, (2, 1))),
            (MatrixClass.HERMITIAN, MultiplicityProfile.of(2, 1)),
        ):
            calls.clear()
            ((verdict, _),) = verify_profiles(cls, [data], [0])
            assert verdict.verdict == "PASS" and verdict.certified, data
            op = operator_at(cls, data, 0, True)
            fixed_columns = operator_at(cls, data, 0, False).shape[1]
            assert calls == [((1, *op.shape), fixed_columns)], data


class TestChunks:
    """verify_profiles verifies consecutive profiles of one base-point shape
    together; a chunk's padding is never read, so no verdict, spectrum or
    report depends on the chunking."""

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_chunks_match_chunks_of_one(self, monkeypatch, cls):
        """For every profile with n <= 6 (singular n, m <= 6), the chunked
        checks equal those of chunks of one field by field (both cases'
        counts, gaps, verdicts, certificates and details), and each row given to
        decide_ranks equals the chunk of one's bit for bit, with only zeros
        after its own width."""
        calls = []

        def recorded(singular_values, sizes, tol, rows):
            calls.append((singular_values, sizes))
            return decide_ranks(singular_values, sizes, tol, rows)

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        profiles = _sweep_data(cls, 6)
        seeds = [derive_seed(24, idx) for idx in range(len(profiles))]
        chunks = list(tangent_oracle._chunks(cls, profiles))
        assert max(c.stop - c.start for c in chunks) > 1
        chunked = verify_profiles(cls, profiles, seeds)
        assert len(calls) == len(chunks)

        def rows():
            return [r for spectra, sizes in calls for r in zip(spectra, sizes)]

        read = rows()
        calls.clear()
        alone = [verify_profiles(cls, [d], [seed])[0] for d, seed in zip(profiles, seeds)]
        assert len(calls) == len(profiles)
        own = rows()
        assert chunked == alone
        assert all(check.verdict == "PASS" and check.certified for pair in chunked for check in pair)
        assert len(read) == len(own) == 2 * len(profiles)
        for (row, size), (expected, own_size) in zip(read, own):
            assert size == own_size
            assert np.array_equal(row[: expected.size], expected)
            assert not row[expected.size :].any()

    @pytest.mark.parametrize("tol", (1e-8, 1e-14, 1e-17, 1e-20))
    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_padded_rows_decide_as_chunks_of_one(self, monkeypatch, cls, tol):
        """For every profile with n <= 5 (singular n, m <= 5), each row
        decided inside a chunk padded to its widest profile decides as in
        the profile's chunk of one (rank, threshold, gap, noise floor, and
        band and floor hits), and so do the verdicts, at tolerances down to 1e-20,
        where kept values meet the noise floor: a row's floor counts its
        own entries, not the chunk's padded ones."""
        calls = []

        def recorded(singular_values, sizes, tol, rows):
            decisions = decide_ranks(singular_values, sizes, tol, rows)
            fields = zip(
                sizes,
                decisions.rank,
                decisions.threshold,
                decisions.gap_ratio,
                decisions.floor,
                decisions.reason,
            )
            calls.append([repr(row) for row in fields])
            return decisions

        monkeypatch.setattr(tangent_oracle, "decide_ranks", recorded)
        profiles = _sweep_data(cls, 5)
        seeds = [derive_seed(29, idx) for idx in range(len(profiles))]
        chunked = verify_profiles(cls, profiles, seeds, tol=tol)
        padded = [rows for rows in calls if len({row.split(",")[0] for row in rows[::2]}) > 1]
        assert padded, "no chunk mixes value counts"
        read = [row for rows in calls for row in rows]
        calls.clear()
        alone = [verify_profiles(cls, [d], [s], tol=tol)[0] for d, s in zip(profiles, seeds)]
        assert [row for rows in calls for row in rows] == read
        assert chunked == alone

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_stabilizers_do_not_depend_on_the_chunking(self, monkeypatch, cls):
        """For every profile with n <= 6 (singular n, m <= 6), the
        stabilisers of a whole run, checked by one witness product per
        chunk, equal those of chunks of one; one check_witnesses call per
        chunk."""
        calls = []

        def counted(matrix_class, profiles, operators):
            calls.append(len(profiles))
            return check_witnesses(matrix_class, profiles, operators)

        monkeypatch.setattr(tangent_oracle, "check_witnesses", counted)
        profiles = _sweep_data(cls, 6)
        seeds = [derive_seed(25, idx) for idx in range(len(profiles))]
        chunks = [c.stop - c.start for c in tangent_oracle._chunks(cls, profiles)]
        whole = verify_profiles(cls, profiles, seeds)
        assert calls == chunks and max(chunks) > 1
        alone = [verify_profiles(cls, [d], [seed])[0] for d, seed in zip(profiles, seeds)]
        found = [stabilizer for _, stabilizer in whole]
        assert found == [stabilizer for _, stabilizer in alone]
        assert all(stab.verdict == "PASS" and stab.certified for stab in found)

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_chunk_assembly_equals_each_stack_alone(self, cls):
        """Every profile of order 4 (singular 4x4) in one chunk: each
        operator is its profile's own bit for bit, then zero columns, and
        the chunk's split read matches the dense SVD of each."""
        profiles = [d for d in _sweep_data(cls, 4) if d.n == 4 and getattr(d, "m", 4) == 4]
        seeds = [derive_seed(25, idx) for idx in range(len(profiles))]
        chunk, values = _chunk_of(cls, profiles, seeds)
        for p, (data, seed) in enumerate(zip(profiles, seeds)):
            alone, (own,) = _chunk_of(cls, [data], [seed])
            assert own == values[p], data
            columns = alone.shape[-1]
            assert np.array_equal(chunk[p, :, :columns], alone[0]), data
            assert not chunk[p, :, columns:].any(), data
        _assert_split_matches_dense(chunk, values, cls)

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_split_read_is_the_per_operator_read(self, cls):
        """Every chunk of the profiles with n <= 5 (singular n, m <= 5):
        the split read equals the per-operator reference bit for bit, each
        row in descending order, padding included."""
        profiles = _sweep_data(cls, 5)
        seeds = [derive_seed(30, idx) for idx in range(len(profiles))]
        for chunk in tangent_oracle._chunks(cls, profiles):
            stack, values = _chunk_of(cls, profiles[chunk], seeds[chunk])
            fixed_columns = stack.shape[-1] - max(values)
            read = tangent_oracle._split_read(stack, fixed_columns)
            expected = _reference_split_read(stack, fixed_columns)
            assert np.array_equal(read, expected), profiles[chunk]

    def test_split_read_of_shuffled_blocks_is_the_per_operator_read(self):
        """The shuffled and valued blocks, alone and as one chunk, padded."""
        shuffled, _, _ = _shuffled_blocks()
        valued, _, _, fixed_columns = _valued_blocks()
        chunk = np.zeros((2, *valued.shape))
        chunk[0, : shuffled.shape[0], :fixed_columns] = shuffled
        chunk[1] = valued
        for stack in (shuffled[None], valued[None], chunk):
            expected = _reference_split_read(stack, fixed_columns)
            assert np.array_equal(tangent_oracle._split_read(stack, fixed_columns), expected)

    def test_chunk_mixes_value_counts(self):
        """Singular 4x4 ``k=4`` next to ``k=1,1,1,1``, ``k=2,1`` and rank 0:
        one, four, two and no value columns in one chunk."""
        cls = MatrixClass.SINGULAR_VALUES
        profiles = [SingularProfile(4, 4, parts) for parts in ((4,), (1, 1, 1, 1), (2, 1), ())]
        chunk, values = _chunk_of(cls, profiles, range(26, 30))
        assert values == [1, 4, 2, 0]
        _assert_split_matches_dense(chunk, values, "mixed")

    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_columns_are_the_assembled_columns(self, cls):
        for idx, data in enumerate(_sweep_data(cls, 5)):
            stack, (values,) = _chunk_of(cls, [data], [derive_seed(27, idx)])
            transforms, value_columns = tangent_oracle._columns(cls, data)
            assert stack.shape[-1] == transforms + values, data
            assert value_columns == values, data
            assert transforms == operator_at(cls, data, derive_seed(27, idx)).shape[-1], data

    @pytest.mark.parametrize("shrink", (1, 3, 5))
    @pytest.mark.parametrize(
        "cls",
        EIGENVALUE_CLASSES + (MatrixClass.JORDAN, MatrixClass.SINGULAR_VALUES),
        ids=lambda c: c.value,
    )
    def test_chunks_are_bounded_runs_of_one_shape(self, monkeypatch, cls, shrink):
        """At the chunk budget and at a third and a fifth of it, the chunks
        cover the profiles in order, each of one base-point shape and at
        most the budget of images (columns, n, m) a profile, columns padded
        to the chunk's most and complex for the unitary-group classes,
        unless a chunk of one; no two neighbours of one shape would fit in
        one chunk together."""
        budget = tangent_oracle._CHUNK_BYTES // shrink
        monkeypatch.setattr(tangent_oracle, "_CHUNK_BYTES", budget)
        profiles = _sweep_data(cls, 8 if cls is not MatrixClass.SINGULAR_VALUES else 6)
        chunks = list(tangent_oracle._chunks(cls, profiles))
        assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(len(profiles)))
        complex_images = cls in (MatrixClass.HERMITIAN, MatrixClass.NORMAL, MatrixClass.UNITARY)

        def size(run):
            n, m = base_shape(run[0])
            widest = max(sum(tangent_oracle._columns(cls, data)) for data in run)
            return len(run) * widest * n * m * (16 if complex_images else 8)

        def base_shape(data):
            return data.n, getattr(data, "m", data.n)

        for c, after in zip(chunks, chunks[1:] + [None]):
            run = profiles[c]
            assert len({base_shape(data) for data in run}) == 1, run
            assert len(run) == 1 or size(run) <= budget, run
            if after is not None and base_shape(profiles[after][0]) == base_shape(run[0]):
                assert size(run + [profiles[after][0]]) > budget, run

    def test_one_call_per_sweep_equals_one_call_per_shape(self):
        """One call over the whole singular sweep at n, m <= 4 cuts its
        chunks at every shape change, so it returns the verdicts of one call
        per n x m shape, each profile keyed by its index in the sweep."""
        cls = MatrixClass.SINGULAR_VALUES
        profiles = _sweep_data(cls, 4)
        keys = derive_seed(0, SWEEP_SCOPES.index(cls.value), np.arange(len(profiles)))
        whole = verify_profiles(cls, profiles, keys)
        per_shape = []
        for n in range(1, 5):
            for m in range(1, 5):
                run = list(singular_profiles(n, m))
                start = len(per_shape)
                per_shape += verify_profiles(cls, run, keys[start : start + len(run)])
        assert len(per_shape) == len(profiles)
        assert whole == per_shape
        assert all(check.verdict == "PASS" and check.certified for pair in whole for check in pair)

    def test_verify_profiles_needs_one_seed_per_profile(self):
        profiles = [MultiplicityProfile.of(2), MultiplicityProfile.of(1, 1)]
        with pytest.raises(ValueError, match="seeds"):
            verify_profiles(MatrixClass.HERMITIAN, profiles, [0])
        assert verify_profiles(MatrixClass.HERMITIAN, [], []) == []
