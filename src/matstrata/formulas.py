"""Closed-form dimension and codimension formulas for matrix strata.

Every formula is exact integer arithmetic over a profile; no floating point
enters this module.  Each ``dim_*`` function packages its result as a
:class:`DimensionReport` whose term breakdown recombines to the stratum
dimension, and which names the ambient space the codimension refers to
(the ambient switches between classes: all complex matrices, the normal
variety, the Hermitian space, the unitary group, the symmetric space, or
the full rectangular space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    invariant_degrees,
)


class MatrixClass(Enum):
    DIAGONALIZABLE_COMPLEX = "diagonalizable"
    NORMAL = "normal"
    HERMITIAN = "hermitian"
    SKEW_HERMITIAN = "skew-hermitian"
    UNITARY = "unitary"
    REAL_SYMMETRIC = "real-symmetric"
    JORDAN = "jordan"
    SINGULAR_VALUES = "singular"


#: Classes whose counts are over the complex field (real counts are doubled).
COMPLEX_FIELD_CLASSES = frozenset(
    {MatrixClass.DIAGONALIZABLE_COMPLEX, MatrixClass.JORDAN}
)


def resolve_alias(matrix_class: MatrixClass) -> MatrixClass:
    """Multiplication by i turns skew-Hermitian matrices Hermitian, so the
    skew-Hermitian class shares every count with the Hermitian one."""
    if matrix_class is MatrixClass.SKEW_HERMITIAN:
        return MatrixClass.HERMITIAN
    return matrix_class


@dataclass(frozen=True)
class DimensionReport:
    """Dimension of one stratum, its codimension, and the term breakdown.

    ``terms`` is an ordered (label, value) breakdown that sums exactly to
    ``stratum_dim``.  ``field_kind`` says which field the counts are over;
    :meth:`realified` doubles a complex-field report into real counts, and
    :meth:`fixed` counts the same stratum with its values held fixed.
    ``rank_stratum_codim`` is only set for the singular-value class: the
    codimension relative to the rank-r matrices rather than the full space.
    """

    matrix_class: MatrixClass
    field_kind: str  # "real" | "complex"
    ambient_dim: int
    ambient_label: str
    stratum_dim: int
    terms: tuple[tuple[str, int], ...]
    rank_stratum_codim: int | None = None

    def __post_init__(self):
        if self.field_kind not in ("real", "complex"):
            raise ValueError(f"unknown field kind {self.field_kind!r}")
        if sum(v for _, v in self.terms) != self.stratum_dim:
            raise ValueError("terms do not recombine to the stratum dimension")
        if self.codim < 0:
            raise ValueError("stratum dimension exceeds ambient dimension")

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.stratum_dim

    def realified(self) -> "DimensionReport":
        """Real-count view of a complex-field report (everything doubled)."""
        if self.field_kind != "complex":
            raise ValueError("report is already over the real field")
        return replace(
            self,
            field_kind="real",
            ambient_dim=2 * self.ambient_dim,
            stratum_dim=2 * self.stratum_dim,
            terms=tuple((label, 2 * v) for label, v in self.terms),
        )

    def fixed(self) -> "DimensionReport":
        """The stratum with its eigenvalues or singular values held fixed:
        the ``value-parameters`` term is dropped."""
        kept = tuple(term for term in self.terms if term[0] != "value-parameters")
        return replace(self, stratum_dim=sum(v for _, v in kept), terms=kept)


def _eigenclass_report(
    matrix_class,
    field_kind,
    ambient_dim,
    ambient_label,
    group_label,
    group_dim,
    commutant,
    param_count,
    rank_stratum_codim=None,
):
    terms = [(group_label, group_dim), ("commutant", -commutant)]
    if param_count:
        terms.append(("value-parameters", param_count))
    return DimensionReport(
        matrix_class=matrix_class,
        field_kind=field_kind,
        ambient_dim=ambient_dim,
        ambient_label=ambient_label,
        stratum_dim=group_dim - commutant + param_count,
        terms=tuple(terms),
        rank_stratum_codim=rank_stratum_codim,
    )


def dim_diagonalizable(profile: MultiplicityProfile) -> DimensionReport:
    """Complex dimension of the diagonalizable matrices with the given
    eigenvalue multiplicities, eigenvalues free."""
    n = profile.n
    return _eigenclass_report(
        MatrixClass.DIAGONALIZABLE_COMPLEX,
        "complex",
        n * n,
        "complex n-by-n matrices",
        "transform-group",
        n * n,
        sum(k * k for k in profile.parts),
        profile.num_distinct,
    )


def dim_normal(profile: MultiplicityProfile) -> DimensionReport:
    """Real dimension of the normal matrices with the given multiplicities.

    The ambient is the set of all normal matrices, real dimension n^2 + n;
    each free complex eigenvalue contributes two real parameters.
    """
    n = profile.n
    return _eigenclass_report(
        MatrixClass.NORMAL,
        "real",
        n * n + n,
        "normal matrices",
        "transform-group",
        n * n,
        sum(k * k for k in profile.parts),
        2 * profile.num_distinct,
    )


def dim_hermitian(
    profile: MultiplicityProfile, matrix_class: MatrixClass = MatrixClass.HERMITIAN
) -> DimensionReport:
    """Real dimension of the Hermitian matrices with the given multiplicities.

    Eigenvalues are real, one parameter each.  Skew-Hermitian counts are
    identical (pass the class tag through)."""
    if resolve_alias(matrix_class) is not MatrixClass.HERMITIAN:
        raise ValueError(f"not a Hermitian-family class: {matrix_class}")
    n = profile.n
    return _eigenclass_report(
        matrix_class,
        "real",
        n * n,
        "Hermitian matrices",
        "transform-group",
        n * n,
        sum(k * k for k in profile.parts),
        profile.num_distinct,
    )


def dim_unitary(profile: MultiplicityProfile) -> DimensionReport:
    """Real dimension of the unitary matrices with the given multiplicities.

    Eigenvalues move on the unit circle, one real parameter each; the
    ambient is the unitary group itself (real dimension n^2)."""
    n = profile.n
    return _eigenclass_report(
        MatrixClass.UNITARY,
        "real",
        n * n,
        "unitary group",
        "transform-group",
        n * n,
        sum(k * k for k in profile.parts),
        profile.num_distinct,
    )


def dim_real_symmetric(profile: MultiplicityProfile) -> DimensionReport:
    """Real dimension of the real symmetric matrices with the given
    multiplicities, inside the n(n+1)/2-dimensional symmetric space."""
    n = profile.n
    return _eigenclass_report(
        MatrixClass.REAL_SYMMETRIC,
        "real",
        n * (n + 1) // 2,
        "real symmetric matrices",
        "transform-group",
        n * (n - 1) // 2,
        sum(k * (k - 1) // 2 for k in profile.parts),
        profile.num_distinct,
    )


def jordan_commutant_dim(js: JordanStructure) -> int:
    """Complex dimension of the matrices commuting with a Jordan matrix of
    this structure: sum of (2j - 1) * m_j over the invariant factor degrees."""
    return sum((2 * j - 1) * m for j, m in enumerate(invariant_degrees(js), start=1))


def dim_jordan(js: JordanStructure) -> DimensionReport:
    """Complex dimension of the matrices with the given Jordan structure,
    eigenvalues free."""
    n = js.n
    return _eigenclass_report(
        MatrixClass.JORDAN,
        "complex",
        n * n,
        "complex n-by-n matrices",
        "transform-group",
        n * n,
        jordan_commutant_dim(js),
        js.num_eigenvalues,
    )


def qp_pair_dim(profile: SingularProfile) -> int:
    """Real dimension of the orthogonal pairs (Q, P) with Q Sigma = Sigma P:
    one orthogonal block per distinct singular value (shared by Q and P)
    plus the two free trailing blocks."""
    n, m, r = profile.n, profile.m, profile.rank
    coupled = sum(k * (k - 1) // 2 for k in profile.parts)
    return coupled + (n - r) * (n - r - 1) // 2 + (m - r) * (m - r - 1) // 2


def dim_singular(profile: SingularProfile) -> DimensionReport:
    """Real dimension of the n-by-m real matrices with the given singular
    value multiplicities, singular values free.

    ``rank_stratum_codim`` gives the codimension inside the rank-r matrices,
    whose dimension is (n + m - r) r."""
    n, m, r, j_count = profile.n, profile.m, profile.rank, profile.num_distinct
    group_dim = n * (n - 1) // 2 + m * (m - 1) // 2
    pair_dim = qp_pair_dim(profile)
    rank_stratum_dim = (n + m - r) * r
    free_dim = group_dim - pair_dim + j_count
    return _eigenclass_report(
        MatrixClass.SINGULAR_VALUES,
        "real",
        n * m,
        "real n-by-m matrices",
        "orthogonal-pair-group",
        group_dim,
        pair_dim,
        j_count,
        rank_stratum_codim=rank_stratum_dim - free_dim,
    )


def dimension_report(matrix_class: MatrixClass, data) -> DimensionReport:
    """Dispatch to the class's ``dim_*`` function, values free (see
    :meth:`DimensionReport.fixed`); the skew-Hermitian alias is resolved
    here but the requested tag is kept on the report."""
    resolved = resolve_alias(matrix_class)
    if resolved is MatrixClass.DIAGONALIZABLE_COMPLEX:
        return dim_diagonalizable(data)
    if resolved is MatrixClass.NORMAL:
        return dim_normal(data)
    if resolved is MatrixClass.HERMITIAN:
        return dim_hermitian(data, matrix_class)
    if resolved is MatrixClass.UNITARY:
        return dim_unitary(data)
    if resolved is MatrixClass.REAL_SYMMETRIC:
        return dim_real_symmetric(data)
    if resolved is MatrixClass.JORDAN:
        return dim_jordan(data)
    if resolved is MatrixClass.SINGULAR_VALUES:
        return dim_singular(data)
    raise ValueError(f"unknown matrix class {matrix_class}")


@dataclass(frozen=True)
class TableRow:
    """One table row: display name, formula strings per field column (None
    where the column does not apply), and numeric values when evaluated."""

    name: str
    complex_formula: str | None
    real_formula: str
    complex_value: int | None = None
    real_value: int | None = None


def table1(n: int | None = None, m: int | None = None, r: int | None = None):
    """The thirteen common matrix sets and their dimensions.

    With ``n`` omitted the rows carry only formula strings; with ``n`` given
    they are evaluated.  The final rank-r row needs ``m`` and ``r`` as well
    and stays symbolic without them.  The normal row's complex column is
    emitted as stated even though normal matrices are not a complex variety;
    only the real column is verified numerically.  Raises ``ValueError``
    for n < 1, m < 1, r < 0 or r > min(n, m).
    """
    if n is not None and n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m is not None and m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if r is not None and not 0 <= r <= min((x for x in (n, m) if x is not None), default=r):
        raise ValueError(f"r must lie in [0, min(n, m)], got {r}")
    rows_spec = [
        ("All", "n^2", "2n^2", lambda: n * n, lambda: 2 * n * n),
        ("Invertible", "n^2", "2n^2", lambda: n * n, lambda: 2 * n * n),
        ("Singular", "n^2-1", "2(n^2-1)", lambda: n * n - 1, lambda: 2 * (n * n - 1)),
        ("Diagonalizable", "n^2", "2n^2", lambda: n * n, lambda: 2 * n * n),
        ("Normal", "n(n+1)/2", "n(n+1)", lambda: n * (n + 1) // 2, lambda: n * (n + 1)),
        ("Hermitian", None, "n^2", None, lambda: n * n),
        ("Unitary", None, "n^2", None, lambda: n * n),
        ("Symmetric", "n(n+1)/2", "n(n+1)", lambda: n * (n + 1) // 2, lambda: n * (n + 1)),
        ("Real Symmetric", None, "n(n+1)/2", None, lambda: n * (n + 1) // 2),
        ("Antisymmetric", "n(n-1)/2", "n(n-1)", lambda: n * (n - 1) // 2, lambda: n * (n - 1)),
        ("Real Antisymmetric", None, "n(n-1)/2", None, lambda: n * (n - 1) // 2),
        ("Orthogonal", None, "n(n-1)/2", None, lambda: n * (n - 1) // 2),
        (
            "Matrices in C^nn, rank r <= min(n,m)",
            "(m+n-r)r",
            "2(m+n-r)r",
            lambda: (m + n - r) * r,
            lambda: 2 * (m + n - r) * r,
        ),
    ]
    rows = []
    for name, cf, rf, cval, rval in rows_spec:
        numeric = n is not None and ("rank" not in name or (m is not None and r is not None))
        rows.append(
            TableRow(
                name,
                cf,
                rf,
                cval() if numeric and cval is not None else None,
                rval() if numeric else None,
            )
        )
    return rows


def table2(
    profile: MultiplicityProfile | None = None,
    singular: SingularProfile | None = None,
    jordan: JordanStructure | None = None,
):
    """The per-multiplicity dimension formulas, one row per matrix class.

    Rows 1-5 evaluate on ``profile``, rows 6 and 8 (the same formula family,
    both via :func:`dim_singular`) on ``singular``, and row 7 on ``jordan``.
    Rows without their input stay symbolic.  Row 7 transcribes the table as
    published: the complex count for a fixed Jordan structure appears in the
    real column.
    """

    def mult_rows():
        if profile is None:
            return [None] * 5
        diag = dim_diagonalizable(profile)
        return [
            (diag.stratum_dim, diag.realified().stratum_dim),
            (None, dim_normal(profile).stratum_dim),
            (None, dim_hermitian(profile).stratum_dim),
            (None, dim_unitary(profile).stratum_dim),
            (None, dim_real_symmetric(profile).stratum_dim),
        ]

    sing_value = dim_singular(singular).stratum_dim if singular is not None else None
    jordan_value = dim_jordan(jordan).stratum_dim if jordan is not None else None

    rows_spec = [
        ("Diagonalizable", "n^2 - sum(k_i^2 - 1)", "2[n^2 - sum(k_i^2 - 1)]"),
        ("Normal", None, "n^2 + I - sum(k_i^2 - 1)"),
        ("Hermitian", None, "n^2 - sum(k_i^2 - 1)"),
        ("Unitary", None, "n^2 - sum(k_i^2 - 1)"),
        ("Real Symmetric", None, "n(n-1)/2 + I - (1/2) sum(k_i(k_i-1))"),
        (
            "Matrices in R^nm, mult k_1,...,k_I, sum k_i = r",
            None,
            "(n+m-r)r - r + I - (1/2) sum(k_i(k_i-1))",
        ),
        ("with normal form J", None, "n^2 - sum((2j-1) m_j) + p"),
        (
            "A in R^nm with singular value multiplicities k_1,...,k_J",
            None,
            "(n+m-r)r - r - (1/2) sum(k_j(k_j-1)) + J",
        ),
    ]
    values = mult_rows() + [
        (None, sing_value),
        (None, jordan_value),
        (None, sing_value),
    ]
    rows = []
    for (name, cf, rf), vals in zip(rows_spec, values):
        cval, rval = vals if vals is not None else (None, None)
        rows.append(TableRow(name, cf, rf, cval, rval))
    return rows
