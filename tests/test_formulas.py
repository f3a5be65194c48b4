import re
from dataclasses import replace

import pytest
import sympy
from conftest import commutant_term
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)

from matstrata import formulas
from matstrata.formulas import (
    MatrixClass,
    dimension_report,
    table1,
    table2,
)
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    invariant_degrees,
    multiplicity_profiles,
    singular_profiles,
)


def mp(*parts):
    return MultiplicityProfile.of(*parts)


#: The classes whose data is a multiplicity profile.
EIGEN_CLASSES = (
    MatrixClass.DIAGONALIZABLE_COMPLEX,
    MatrixClass.NORMAL,
    MatrixClass.HERMITIAN,
    MatrixClass.UNITARY,
    MatrixClass.REAL_SYMMETRIC,
)


class TestCommutantDimDiagonal:
    def test_invertible_complex(self):
        assert commutant_term(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(2, 1)) == 5

    def test_orthogonal(self):
        assert commutant_term(MatrixClass.REAL_SYMMETRIC, mp(2, 1)) == 1

    def test_all_simple(self):
        p = mp(*[1] * 6)
        assert commutant_term(MatrixClass.DIAGONALIZABLE_COMPLEX, p) == 6
        assert commutant_term(MatrixClass.UNITARY, p) == 6
        assert commutant_term(MatrixClass.REAL_SYMMETRIC, p) == 0


class TestDiagonalizable:
    def test_free_n3(self):
        rep = dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(2, 1))
        assert rep.field_kind == "complex"
        assert rep.stratum_dim == 6
        assert rep.codim == 3  # k^2 - 1 with k = 2

    def test_all_simple_codim_zero(self):
        assert dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(*[1] * 7)).codim == 0

    def test_32_codim(self):
        assert dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(3, 2)).codim == 11

    def test_fixed(self):
        rep = dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(2, 1)).fixed()
        assert rep.stratum_dim == 9 - 5

    def test_realified_doubles(self):
        rep = dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(2, 1))
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
            assert dimension_report(MatrixClass.NORMAL, profile).codim == (k - 1) * (k + 2)

    def test_all_simple_is_ambient(self):
        n = 5
        rep = dimension_report(MatrixClass.NORMAL, mp(*[1] * n))
        assert rep.stratum_dim == n * n + n == rep.ambient_dim
        assert rep.codim == 0

    def test_n3_21(self):
        assert dimension_report(MatrixClass.NORMAL, mp(2, 1)).codim == 4


class TestHermitian:
    def test_one_heavy(self):
        for n, k in [(4, 2), (5, 3), (6, 4)]:
            profile = mp(k, *[1] * (n - k))
            assert dimension_report(MatrixClass.HERMITIAN, profile).codim == k * k - 1

    def test_all_simple(self):
        assert dimension_report(MatrixClass.HERMITIAN, mp(*[1] * 4)).codim == 0

    def test_22(self):
        assert dimension_report(MatrixClass.HERMITIAN, mp(2, 2)).codim == 6


class TestUnitary:
    def test_one_heavy(self):
        assert dimension_report(MatrixClass.UNITARY, mp(3, 1)).codim == 8

    def test_all_simple_full_group(self):
        rep = dimension_report(MatrixClass.UNITARY, mp(*[1] * 4))
        assert rep.stratum_dim == 16 == rep.ambient_dim

    def test_single_block(self):
        assert dimension_report(MatrixClass.UNITARY, mp(3)).codim == 8


class TestRealSymmetric:
    def test_von_neumann_wigner(self):
        # a double eigenvalue of a real symmetric matrix costs two conditions
        for extra in range(4):
            assert dimension_report(MatrixClass.REAL_SYMMETRIC, mp(2, *[1] * extra)).codim == 2

    def test_one_heavy(self):
        for n, k in [(4, 3), (6, 4), (5, 5)]:
            profile = mp(k, *[1] * (n - k))
            codim = dimension_report(MatrixClass.REAL_SYMMETRIC, profile).codim
            assert codim == (k + 2) * (k - 1) // 2

    def test_all_simple(self):
        assert dimension_report(MatrixClass.REAL_SYMMETRIC, mp(*[1] * 5)).codim == 0

    def test_fixed_vs_free(self):
        p = mp(2, 2, 1)
        free = dimension_report(MatrixClass.REAL_SYMMETRIC, p)
        fixed = dimension_report(MatrixClass.REAL_SYMMETRIC, p).fixed()
        assert free.stratum_dim - fixed.stratum_dim == p.num_distinct


class TestJordan:
    def test_single_full_block(self):
        for n in range(2, 7):
            rep = dimension_report(MatrixClass.JORDAN, JordanStructure.of((n,)))
            assert rep.stratum_dim == n * n - n + 1

    def test_scalar_matrix_stratum(self):
        for n in range(2, 7):
            rep = dimension_report(MatrixClass.JORDAN, JordanStructure.of((1,) * n))
            assert rep.stratum_dim == 1

    def test_all_simple_is_everything(self):
        n = 5
        rep = dimension_report(MatrixClass.JORDAN, JordanStructure.of(*[(1,)] * n))
        assert rep.stratum_dim == n * n

    def test_commutant_term_exposed(self):
        js = JordanStructure.of((3, 1), (2,))
        rep = dimension_report(MatrixClass.JORDAN, js)
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
                    dimension_report(MatrixClass.JORDAN, js).stratum_dim
                    == dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, profile).stratum_dim
                )
                assert commutant_term(MatrixClass.JORDAN, js) == sum(
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
            rep = dimension_report(MatrixClass.SINGULAR_VALUES, sp)
            assert rep.stratum_dim == (n + m - r) * r
            assert rep.rank_stratum_codim == 0

    def test_scaled_rotations(self):
        # n = m = r = 2, one double value: the stratum {s Q} has dimension 2
        rep = dimension_report(MatrixClass.SINGULAR_VALUES, SingularProfile(2, 2, (2,)))
        assert rep.stratum_dim == 2

    def test_relative_codim(self):
        for n, m, parts in [(4, 3, (2,)), (5, 5, (2, 2)), (6, 4, (3, 1))]:
            sp = SingularProfile(n, m, parts)
            r, j = sp.rank, sp.num_distinct
            assert dimension_report(MatrixClass.SINGULAR_VALUES, sp).rank_stratum_codim == (
                sum(k * (k - 1) for k in parts) // 2 + r - j
            )

    def test_rank_zero(self):
        rep = dimension_report(MatrixClass.SINGULAR_VALUES, SingularProfile(3, 4, ()))
        assert rep.stratum_dim == 0
        assert rep.codim == 12

    def test_qp_pair_values(self):
        assert commutant_term(MatrixClass.SINGULAR_VALUES, SingularProfile(2, 2, (2,))) == 1
        assert commutant_term(MatrixClass.SINGULAR_VALUES, SingularProfile(3, 2, (1, 1))) == 0
        assert commutant_term(MatrixClass.SINGULAR_VALUES, SingularProfile(4, 3, (2,))) == 2


class TestCrossClassInvariants:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hermitian_unitary_diagonalizable_codims_agree(self, n):
        for profile in multiplicity_profiles(n):
            target = sum(k * k - 1 for k in profile.parts)
            assert dimension_report(MatrixClass.HERMITIAN, profile).codim == target
            assert dimension_report(MatrixClass.UNITARY, profile).codim == target
            assert dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, profile).codim == target

    @pytest.mark.parametrize("n", range(1, 9))
    def test_codim_nonnegative_zero_iff_simple(self, n):
        for profile in multiplicity_profiles(n):
            simple = all(k == 1 for k in profile.parts)
            for cls in EIGEN_CLASSES:
                rep = dimension_report(cls, profile)
                assert rep.codim >= 0
                assert (rep.codim == 0) == simple

    @pytest.mark.parametrize("n", range(1, 9))
    def test_free_minus_fixed_is_parameter_count(self, n):
        for profile in multiplicity_profiles(n):
            pairs = [
                (MatrixClass.DIAGONALIZABLE_COMPLEX, profile.num_distinct),
                (MatrixClass.NORMAL, 2 * profile.num_distinct),
                (MatrixClass.REAL_SYMMETRIC, profile.num_distinct),
            ]
            for cls, count in pairs:
                rep = dimension_report(cls, profile)
                assert dict(rep.terms)["value-parameters"] == count

    def test_terms_recombine(self):
        for rep in (
            dimension_report(MatrixClass.DIAGONALIZABLE_COMPLEX, mp(3, 2, 1)),
            dimension_report(MatrixClass.NORMAL, mp(2, 2)),
            dimension_report(MatrixClass.SINGULAR_VALUES, SingularProfile(4, 3, (2, 1))),
            dimension_report(MatrixClass.JORDAN, JordanStructure.of((2, 2), (1,))),
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
                    for cls in EIGEN_CLASSES:
                        assert (
                            dimension_report(cls, refined).stratum_dim
                            >= dimension_report(cls, profile).stratum_dim
                        )

    def test_jordan_dimension_ordered_by_block_refinement(self):
        # more blocks per eigenvalue = smaller commutant = larger stratum? No:
        # more blocks means a *larger* commutant and a smaller stratum.
        single = dimension_report(MatrixClass.JORDAN, JordanStructure.of((4,))).stratum_dim
        split = dimension_report(MatrixClass.JORDAN, JordanStructure.of((2, 2))).stratum_dim
        dust = dimension_report(MatrixClass.JORDAN, JordanStructure.of((1, 1, 1, 1))).stratum_dim
        assert single > split > dust


class TestSweepConsistency:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_singular_profiles_fixed_free_gap(self, n):
        for m in range(1, 7):
            for sp in singular_profiles(n, m):
                free = dimension_report(MatrixClass.SINGULAR_VALUES, sp)
                fixed = dimension_report(MatrixClass.SINGULAR_VALUES, sp).fixed()
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_top_strata_are_class_maxima(self, n):
        # a row that is a class's top stratum holds the class's largest count
        rows = {row.name: row for row in table1(n)}
        tops = [
            ("Diagonalizable", MatrixClass.DIAGONALIZABLE_COMPLEX, "complex_value"),
            ("Normal", MatrixClass.NORMAL, "real_value"),
            ("Hermitian", MatrixClass.HERMITIAN, "real_value"),
            ("Unitary", MatrixClass.UNITARY, "real_value"),
            ("Real Symmetric", MatrixClass.REAL_SYMMETRIC, "real_value"),
        ]
        for name, cls, column in tops:
            top = max(dimension_report(cls, p).stratum_dim for p in multiplicity_profiles(n))
            assert getattr(rows[name], column) == top, name
        # the rank-r row's (m+n-r)r is the real n-by-m singular class's top
        for m in range(1, 9):
            for r in range(min(n, m) + 1):
                top = max(
                    dimension_report(MatrixClass.SINGULAR_VALUES, sp).stratum_dim
                    for sp in singular_profiles(n, m)
                    if sp.rank == r
                )
                assert table1(n, m, r)[-1].complex_value == top, (n, m, r)


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


_NAMES = ("n", "m", "r", "I", "J", "p", "k_i", "k_j", "m_j", "j", "s0", "s1")
_SYMBOLS = {name: sympy.Symbol(name) for name in _NAMES}
_TRANSFORMS = standard_transformations + (implicit_multiplication_application, convert_xor)


def _parse(text):
    # "2j" would read as an imaginary literal: multiply a digit and a letter
    text = re.sub(r"(\d)(?=[a-z])", r"\1*", text)
    return parse_expr(text, local_dict=_SYMBOLS, transformations=_TRANSFORMS)


def compile_formula(formula):
    """A printed Table 2 string as a sympy expression whose ``sum(...)``
    calls are placeholders s0, s1, ..., and the parsed body of each sum.
    Brackets group like parentheses, ``^`` is a power, and juxtaposition
    multiplies."""
    text, bodies = formula.replace("[", "(").replace("]", ")"), []
    while (start := text.find("sum(")) >= 0:
        depth = 0
        for end in range(start + 3, len(text)):
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            if depth == 0:
                break
        bodies.append(_parse(text[start + 4 : end]))
        text = f"{text[:start]}s{len(bodies) - 1}{text[end + 1 :]}"
    return _parse(text), bodies


def evaluate(compiled, scalars, terms):
    """A compiled string at the integers ``scalars``, each sum running over
    ``terms``, one dict of its summation variables per summand."""
    outer, bodies = compiled
    values = {_SYMBOLS[name]: value for name, value in scalars.items()}
    for index, body in enumerate(bodies):
        values[_SYMBOLS[f"s{index}"]] = sum(
            body.subs({_SYMBOLS[name]: value for name, value in term.items()})
            for term in terms
        )
    result = outer.subs(values)
    assert result.is_Integer, (compiled, scalars, result)
    return int(result)


def table2_cases(max_n=8):
    """Every profile of Table 2's rows to order ``max_n`` (singular values
    up to ``max_n`` by ``max_n``): row indices, the class whose count they
    print, the data, the string's scalars and its summands.  The sums run
    over the parts, with I and J the number of distinct values and r the
    rank; row 7's over the invariant degrees m_j, with p the eigenvalue
    count."""
    eigen = [
        MatrixClass.DIAGONALIZABLE_COMPLEX,
        MatrixClass.NORMAL,
        MatrixClass.HERMITIAN,
        MatrixClass.UNITARY,
        MatrixClass.REAL_SYMMETRIC,
    ]
    for n in range(1, max_n + 1):
        for profile in multiplicity_profiles(n):
            terms = [{"k_i": k} for k in profile.parts]
            for row, cls in enumerate(eigen):
                yield row, cls, profile, {"n": n, "I": profile.num_distinct}, terms
        for js in jordan_structures(n):
            degrees = enumerate(invariant_degrees(js), start=1)
            terms = [{"j": j, "m_j": m} for j, m in degrees]
            yield 6, MatrixClass.JORDAN, js, {"n": n, "p": js.num_eigenvalues}, terms
        for m in range(1, max_n + 1):
            for sp in singular_profiles(n, m):
                distinct = sp.num_distinct
                scalars = {"n": n, "m": m, "r": sp.rank, "I": distinct, "J": distinct}
                terms = [{"k_i": k, "k_j": k} for k in sp.parts]
                for row in (5, 7):
                    yield row, MatrixClass.SINGULAR_VALUES, sp, scalars, terms


def table2_disagreements(max_n=8):
    """Every printed Table 2 string evaluated on every profile to order
    ``max_n``, against the row's printed value and :func:`dimension_report`:
    the complex column is the class's count and the real column its real
    count, except where the row has no complex column (row 7 prints the
    complex Jordan count as its real column, as published).  The
    disagreeing (row number, data), and the number of evaluations."""
    compiled = [
        [compile_formula(text) for text in (row.complex_formula, row.real_formula) if text]
        for row in table2()
    ]
    keyword = {MatrixClass.JORDAN: "jordan", MatrixClass.SINGULAR_VALUES: "singular"}
    wrong, evaluations = [], 0
    for row, cls, data, scalars, terms in table2_cases(max_n):
        report = dimension_report(cls, data)
        printed = table2(**{keyword.get(cls, "profile"): data})[row]
        counts = [report.stratum_dim]
        if printed.complex_formula is not None:
            counts.append(report.realified().stratum_dim)
        values = [v for v in (printed.complex_value, printed.real_value) if v is not None]
        assert len(compiled[row]) == len(values) == len(counts)
        for form, value, count in zip(compiled[row], values, counts):
            evaluations += 1
            if not evaluate(form, scalars, terms) == value == count:
                wrong.append((row + 1, data))
    return wrong, evaluations


class TestTable2Strings:
    def test_printed_strings_match_the_records(self):
        wrong, evaluations = table2_disagreements()
        assert not wrong, wrong[:5]
        assert evaluations > 2000

    def test_a_mistranscribed_string_fails(self, monkeypatch):
        # row 3, the Hermitian count, with k_i^2 - 1 printed as k_i^2
        record = formulas._COUNTS[MatrixClass.HERMITIAN]
        ((row, name, _, real),) = record.table2
        mutant = (row, name, None, real.replace("k_i^2 - 1", "k_i^2"))
        assert mutant[3] != real
        monkeypatch.setitem(
            formulas._COUNTS, MatrixClass.HERMITIAN, replace(record, table2=(mutant,))
        )
        wrong, _ = table2_disagreements(max_n=3)
        assert wrong and {row for row, _ in wrong} == {3}
