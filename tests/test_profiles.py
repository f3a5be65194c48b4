import pytest
from hypothesis import given
from hypothesis import strategies as st

from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    invariant_degrees,
    jordan_structures,
    multiplicity_profiles,
    partitions,
    singular_profiles,
)


def pairwise_min_sum(partition) -> int:
    """Sum of min(k_i, k_j) over all ordered pairs of entries of the partition."""
    parts = tuple(partition)
    return sum(min(a, b) for a in parts for b in parts)


def weighted_degree_sum(partition) -> int:
    """Sum of (2j - 1) * k_j over a weakly decreasing partition.

    Equals :func:`pairwise_min_sum` on the same partition; rejects unsorted
    input because the weights are tied to the descending order.
    """
    parts = tuple(partition)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition must be weakly decreasing, got {parts}")
    return sum((2 * j - 1) * k for j, k in enumerate(parts, start=1))


def brute_min_sum(parts):
    # independent double loop, kept deliberately dumb
    total = 0
    for a in parts:
        for b in parts:
            total += a if a < b else b
    return total


class TestMultiplicityProfile:
    def test_valid(self):
        p = MultiplicityProfile.of(2, 1, 1)
        assert p.n == 4
        assert p.num_distinct == 3
        assert p.parts == (2, 1, 1)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MultiplicityProfile(5, (2, 1, 1))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MultiplicityProfile(3, (4, -1))
        with pytest.raises(ValueError, match="positive"):
            MultiplicityProfile(2, (2, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiplicityProfile(0, ())

    def test_immutable_and_hashable(self):
        p = MultiplicityProfile.of(2, 1)
        with pytest.raises(AttributeError):
            p.n = 5
        assert p == MultiplicityProfile(3, [2, 1])
        assert hash(p) == hash(MultiplicityProfile(3, (2, 1)))


class TestJordanStructure:
    def test_valid(self):
        js = JordanStructure.of((3, 1), (2,))
        assert js.n == 6
        assert js.num_eigenvalues == 2
        assert js.multiplicities == (4, 2)
        assert js.block_counts == (2, 1)
        assert js.max_block_count == 2

    def test_increasing_blocks_rejected(self):
        with pytest.raises(ValueError, match="decreasing"):
            JordanStructure.of((1, 3))

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            JordanStructure(7, ((3, 1), (2,)))


class TestSingularProfile:
    def test_valid(self):
        sp = SingularProfile(4, 3, (2, 1))
        assert sp.rank == 3
        assert sp.num_distinct == 2

    def test_rank_zero(self):
        assert SingularProfile(4, 3, ()).rank == 0

    def test_rank_overflow_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            SingularProfile(4, 3, (2, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SingularProfile(4, 3, (2, 0))


class TestInvariantDegrees:
    def test_single_eigenvalue(self):
        assert invariant_degrees(JordanStructure.of((3, 1))) == (3, 1)

    def test_two_eigenvalues(self):
        assert invariant_degrees(JordanStructure.of((2, 1), (2,))) == (4, 1)

    def test_all_simple(self):
        js = JordanStructure.of(*[(1,)] * 5)
        assert invariant_degrees(js) == (5,)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_construction(self, n):
        for js in jordan_structures(n):
            degrees = invariant_degrees(js)
            assert sum(degrees) == n
            assert all(degrees[i] >= degrees[i + 1] for i in range(len(degrees) - 1))
            assert degrees[-1] >= 1


class TestMinSumIdentity:
    def test_spec_values(self):
        assert pairwise_min_sum((3, 1)) == 6
        assert brute_min_sum((3, 1)) == 6
        assert pairwise_min_sum((1,) * 7) == 49
        assert pairwise_min_sum((9,)) == 9

    def test_weighted_values(self):
        assert weighted_degree_sum((3, 1)) == 6
        assert weighted_degree_sum((2, 2)) == 8
        assert brute_min_sum((2, 2)) == 8
        assert weighted_degree_sum((4,)) == 4

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="decreasing"):
            weighted_degree_sum((1, 3))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity_exhaustive(self, n):
        for parts in partitions(n):
            assert pairwise_min_sum(parts) == weighted_degree_sum(parts) == brute_min_sum(parts)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=10))
    def test_identity_property(self, values):
        parts = tuple(sorted(values, reverse=True))
        assert weighted_degree_sum(parts) == pairwise_min_sum(parts)


class TestEnumeration:
    def test_partition_counts(self):
        # p(n) for n = 0..12
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for n, count in enumerate(expected):
            assert sum(1 for _ in partitions(n)) == count

    def test_partition_order_is_decreasing_lex(self):
        got = list(partitions(5))
        assert got[0] == (5,)
        assert got[-1] == (1, 1, 1, 1, 1)
        assert got == sorted(got, reverse=True)

    def test_partitions_are_weakly_decreasing(self):
        for parts in partitions(9):
            assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))

    def test_multiplicity_profiles(self):
        profiles = list(multiplicity_profiles(4))
        assert len(profiles) == 5
        assert all(p.n == 4 for p in profiles)

    def test_jordan_structures_n2(self):
        got = [js.blocks for js in jordan_structures(2)]
        assert got == [((2,),), ((1, 1),), ((1,), (1,))]

    def test_jordan_structures_unique_and_complete(self):
        for n in range(1, 7):
            seen = set()
            for js in jordan_structures(n):
                key = tuple(sorted(js.blocks, reverse=True))
                assert key not in seen
                seen.add(key)
                assert sum(sum(p) for p in js.blocks) == n

    def test_singular_profiles(self):
        got = list(singular_profiles(2, 3))
        ranks = sorted({sp.rank for sp in got})
        assert ranks == [0, 1, 2]
        assert SingularProfile(2, 3, ()) in got
