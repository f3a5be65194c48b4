import pytest

from matstrata.formulas import (
    MatrixClass,
    dim_diagonalizable,
    dim_hermitian,
    dim_jordan,
    dim_normal,
    dim_real_symmetric,
    dim_singular,
    dim_unitary,
    dimension_report,
    jordan_commutant_dim,
    qp_pair_dim,
    resolve_alias,
    table1,
    table2,
)
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)


def mp(*parts):
    return MultiplicityProfile.of(*parts)


def commutant(report):
    """Dimension of the stabiliser a report subtracts, as a positive count."""
    return -dict(report.terms)["commutant"]


class TestCommutantDimDiagonal:
    def test_invertible_complex(self):
        assert commutant(dim_diagonalizable(mp(2, 1))) == 5

    def test_orthogonal(self):
        assert commutant(dim_real_symmetric(mp(2, 1))) == 1

    def test_all_simple(self):
        p = mp(*[1] * 6)
        assert commutant(dim_diagonalizable(p)) == 6
        assert commutant(dim_unitary(p)) == 6
        assert commutant(dim_real_symmetric(p)) == 0


class TestDiagonalizable:
    def test_free_n3(self):
        rep = dim_diagonalizable(mp(2, 1))
        assert rep.field_kind == "complex"
        assert rep.stratum_dim == 6
        assert rep.codim == 3  # k^2 - 1 with k = 2

    def test_all_simple_codim_zero(self):
        assert dim_diagonalizable(mp(*[1] * 7)).codim == 0

    def test_32_codim(self):
        assert dim_diagonalizable(mp(3, 2)).codim == 11

    def test_fixed(self):
        rep = dim_diagonalizable(mp(2, 1)).fixed()
        assert rep.stratum_dim == 9 - 5

    def test_realified_doubles(self):
        rep = dim_diagonalizable(mp(2, 1))
        real = rep.realified()
        assert real.field_kind == "real"
        assert real.stratum_dim == 2 * rep.stratum_dim
        assert real.ambient_dim == 2 * rep.ambient_dim
        with pytest.raises(ValueError):
            real.realified()


class TestNormal:
    def test_one_heavy_eigenvalue(self):
        for n, k in [(4, 2), (5, 3), (6, 4)]:
            profile = mp(k, *[1] * (n - k))
            assert dim_normal(profile).codim == (k - 1) * (k + 2)

    def test_all_simple_is_ambient(self):
        n = 5
        rep = dim_normal(mp(*[1] * n))
        assert rep.stratum_dim == n * n + n == rep.ambient_dim
        assert rep.codim == 0

    def test_n3_21(self):
        assert dim_normal(mp(2, 1)).codim == 4


class TestHermitian:
    def test_one_heavy(self):
        for n, k in [(4, 2), (5, 3), (6, 4)]:
            assert dim_hermitian(mp(k, *[1] * (n - k))).codim == k * k - 1

    def test_all_simple(self):
        assert dim_hermitian(mp(*[1] * 4)).codim == 0

    def test_22(self):
        assert dim_hermitian(mp(2, 2)).codim == 6

    def test_skew_hermitian_alias(self):
        p = mp(3, 1)
        herm = dim_hermitian(p)
        skew = dimension_report(MatrixClass.SKEW_HERMITIAN, p)
        assert skew.matrix_class is MatrixClass.SKEW_HERMITIAN
        assert (skew.stratum_dim, skew.codim, skew.ambient_dim) == (
            herm.stratum_dim,
            herm.codim,
            herm.ambient_dim,
        )
        assert resolve_alias(MatrixClass.SKEW_HERMITIAN) is MatrixClass.HERMITIAN


class TestUnitary:
    def test_one_heavy(self):
        assert dim_unitary(mp(3, 1)).codim == 8

    def test_all_simple_full_group(self):
        rep = dim_unitary(mp(*[1] * 4))
        assert rep.stratum_dim == 16 == rep.ambient_dim

    def test_single_block(self):
        assert dim_unitary(mp(3)).codim == 8


class TestRealSymmetric:
    def test_von_neumann_wigner(self):
        # a double eigenvalue of a real symmetric matrix costs two conditions
        for extra in range(4):
            assert dim_real_symmetric(mp(2, *[1] * extra)).codim == 2

    def test_one_heavy(self):
        for n, k in [(4, 3), (6, 4), (5, 5)]:
            profile = mp(k, *[1] * (n - k))
            assert dim_real_symmetric(profile).codim == (k + 2) * (k - 1) // 2

    def test_all_simple(self):
        assert dim_real_symmetric(mp(*[1] * 5)).codim == 0

    def test_fixed_vs_free(self):
        p = mp(2, 2, 1)
        free = dim_real_symmetric(p)
        fixed = dim_real_symmetric(p).fixed()
        assert free.stratum_dim - fixed.stratum_dim == p.num_distinct


class TestJordan:
    def test_single_full_block(self):
        for n in range(2, 7):
            rep = dim_jordan(JordanStructure.of((n,)))
            assert rep.stratum_dim == n * n - n + 1

    def test_scalar_matrix_stratum(self):
        for n in range(2, 7):
            rep = dim_jordan(JordanStructure.of((1,) * n))
            assert rep.stratum_dim == 1

    def test_all_simple_is_everything(self):
        n = 5
        rep = dim_jordan(JordanStructure.of(*[(1,)] * n))
        assert rep.stratum_dim == n * n

    def test_commutant_term_exposed(self):
        js = JordanStructure.of((3, 1), (2,))
        rep = dim_jordan(js)
        assert dict(rep.terms)["commutant"] == -8
        assert rep.stratum_dim == 36 - 8 + 2

    def test_matches_diagonalizable_on_semisimple_structures(self):
        # all blocks size 1: the structure is a multiplicity profile in disguise
        from matstrata.profiles import invariant_degrees

        for n in range(1, 7):
            for js in jordan_structures(n):
                if not all(k == 1 for part in js.blocks for k in part):
                    continue
                profile = MultiplicityProfile(n, js.multiplicities)
                assert (
                    dim_jordan(js).stratum_dim
                    == dim_diagonalizable(profile).stratum_dim
                )
                assert jordan_commutant_dim(js) == sum(
                    k * k for k in profile.parts
                )
                # the degree sequence counts eigenvalues with at least j blocks
                degrees = invariant_degrees(js)
                counts = tuple(
                    sum(1 for nb in js.block_counts if nb >= j)
                    for j in range(1, js.max_block_count + 1)
                )
                assert degrees == counts


class TestSingular:
    def test_all_simple_rank_stratum(self):
        for n, m, r in [(4, 3, 2), (5, 5, 3), (3, 3, 3)]:
            sp = SingularProfile(n, m, (1,) * r)
            rep = dim_singular(sp)
            assert rep.stratum_dim == (n + m - r) * r
            assert rep.rank_stratum_codim == 0

    def test_scaled_rotations(self):
        # n = m = r = 2, one double value: the stratum {s Q} has dimension 2
        rep = dim_singular(SingularProfile(2, 2, (2,)))
        assert rep.stratum_dim == 2

    def test_relative_codim(self):
        for n, m, parts in [(4, 3, (2,)), (5, 5, (2, 2)), (6, 4, (3, 1))]:
            sp = SingularProfile(n, m, parts)
            r, j = sp.rank, sp.num_distinct
            assert dim_singular(sp).rank_stratum_codim == (
                sum(k * (k - 1) for k in parts) // 2 + r - j
            )

    def test_rank_zero(self):
        rep = dim_singular(SingularProfile(3, 4, ()))
        assert rep.stratum_dim == 0
        assert rep.codim == 12

    def test_qp_pair_values(self):
        assert qp_pair_dim(SingularProfile(2, 2, (2,))) == 1
        assert qp_pair_dim(SingularProfile(3, 2, (1, 1))) == 0
        assert qp_pair_dim(SingularProfile(4, 3, (2,))) == 2


class TestCrossClassInvariants:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hermitian_unitary_diagonalizable_codims_agree(self, n):
        for profile in multiplicity_profiles(n):
            target = sum(k * k - 1 for k in profile.parts)
            assert dim_hermitian(profile).codim == target
            assert dim_unitary(profile).codim == target
            assert dim_diagonalizable(profile).codim == target

    @pytest.mark.parametrize("n", range(1, 9))
    def test_codim_nonnegative_zero_iff_simple(self, n):
        for profile in multiplicity_profiles(n):
            simple = all(k == 1 for k in profile.parts)
            for rep in (
                dim_diagonalizable(profile),
                dim_normal(profile),
                dim_hermitian(profile),
                dim_unitary(profile),
                dim_real_symmetric(profile),
            ):
                assert rep.codim >= 0
                assert (rep.codim == 0) == simple

    @pytest.mark.parametrize("n", range(1, 9))
    def test_free_minus_fixed_is_parameter_count(self, n):
        for profile in multiplicity_profiles(n):
            pairs = [
                (dim_diagonalizable(profile), profile.num_distinct),
                (dim_normal(profile), 2 * profile.num_distinct),
                (dim_real_symmetric(profile), profile.num_distinct),
            ]
            for rep, count in pairs:
                assert dict(rep.terms)["value-parameters"] == count

    def test_terms_recombine(self):
        for rep in (
            dim_diagonalizable(mp(3, 2, 1)),
            dim_normal(mp(2, 2)),
            dim_singular(SingularProfile(4, 3, (2, 1))),
            dim_jordan(JordanStructure.of((2, 2), (1,))),
        ):
            assert sum(v for _, v in rep.terms) == rep.stratum_dim

    def test_refining_profile_never_shrinks_dimension(self):
        # splitting one multiplicity enlarges (or keeps) every stratum
        for n in range(2, 9):
            for profile in multiplicity_profiles(n):
                for i, k in enumerate(profile.parts):
                    if k < 2:
                        continue
                    refined = MultiplicityProfile(
                        n, profile.parts[:i] + (k - 1, 1) + profile.parts[i + 1 :]
                    )
                    for fn in (
                        dim_diagonalizable,
                        dim_normal,
                        dim_hermitian,
                        dim_unitary,
                        dim_real_symmetric,
                    ):
                        assert fn(refined).stratum_dim >= fn(profile).stratum_dim

    def test_jordan_dimension_ordered_by_block_refinement(self):
        # more blocks per eigenvalue = smaller commutant = larger stratum? No:
        # more blocks means a *larger* commutant and a smaller stratum.
        single = dim_jordan(JordanStructure.of((4,))).stratum_dim
        split = dim_jordan(JordanStructure.of((2, 2))).stratum_dim
        dust = dim_jordan(JordanStructure.of((1, 1, 1, 1))).stratum_dim
        assert single > split > dust


class TestSweepConsistency:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_singular_profiles_fixed_free_gap(self, n):
        for m in range(1, 7):
            for sp in singular_profiles(n, m):
                free = dim_singular(sp)
                fixed = dim_singular(sp).fixed()
                assert free.stratum_dim - fixed.stratum_dim == sp.num_distinct


class TestTable1:
    def test_symbolic_rows(self):
        rows = table1()
        assert len(rows) == 13
        by_name = {r.name: r for r in rows}
        assert by_name["Singular"].complex_formula == "n^2-1"
        assert by_name["Singular"].real_formula == "2(n^2-1)"
        assert by_name["Orthogonal"].complex_formula is None
        assert by_name["Orthogonal"].real_formula == "n(n-1)/2"
        assert by_name["Normal"].complex_formula == "n(n+1)/2"
        assert all(r.complex_value is None and r.real_value is None for r in rows)

    def test_numeric_n2(self):
        rows = {r.name: r for r in table1(2)}
        assert rows["All"].complex_value == 4
        assert rows["All"].real_value == 8
        assert rows["Singular"].complex_value == 3
        assert rows["Normal"].real_value == 6

    def test_rank_row_needs_shape(self):
        rows = table1(3)
        assert rows[-1].real_value is None  # stays symbolic without m, r
        rows = table1(3, m=4, r=2)
        assert rows[-1].complex_value == 10
        assert rows[-1].real_value == 20

    @pytest.mark.parametrize(
        "n,m,r",
        [(0, None, None), (-1, None, None), (2, 0, None), (2, 3, -1), (2, 3, 3), (3, None, 4)],
    )
    def test_out_of_range_rejected(self, n, m, r):
        with pytest.raises(ValueError):
            table1(n, m, r)

    def test_rank_bounds_accepted(self):
        assert table1(2, 3, 0)[-1].real_value == 0
        assert table1(2, 3, 2)[-1].complex_value == 6


class TestTable2:
    def test_symbolic(self):
        rows = table2()
        assert len(rows) == 8
        assert rows[0].real_formula == "2[n^2 - sum(k_i^2 - 1)]"
        assert rows[4].real_formula == "n(n-1)/2 + I - (1/2) sum(k_i(k_i-1))"
        assert all(r.real_value is None for r in rows)

    def test_profile_rows(self):
        rows = table2(profile=mp(2, 1))
        assert rows[0].complex_value == 6
        assert rows[0].real_value == 12
        assert rows[1].real_value == 8  # normal: n^2 - sum k^2 + 2I = 9 - 5 + 4
        assert rows[2].real_value == 6
        assert rows[3].real_value == 6
        assert rows[4].real_value == 4

    def test_normal_all_simple(self):
        rows = table2(profile=mp(1, 1, 1))
        assert rows[1].real_value == 12  # n^2 + n

    def test_singular_and_jordan_rows(self):
        rows = table2(
            singular=SingularProfile(3, 4, (2,)),
            jordan=JordanStructure.of((2,), (1,)),
        )
        assert rows[5].real_value == 8
        assert rows[7].real_value == 8
        assert rows[6].real_value == 8  # 9 - 3 + 2, emitted as published
