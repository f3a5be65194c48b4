"""Closed-form dimensions of matrix strata, one record per class.

Each class's count is stated once, as a record in :data:`_COUNTS`: group
term, minus commutant term, plus value parameters, with the ambient space
its codimension refers to.  :func:`dimension_report` evaluates a record
on a profile and :func:`table2` prints the records' Table 2 strings.  All
of it is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable
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
    UNITARY = "unitary"
    REAL_SYMMETRIC = "real-symmetric"
    JORDAN = "jordan"
    SINGULAR_VALUES = "singular"


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
        terms = tuple(term for term in self.terms if term[0] != "value-parameters")
        return replace(self, stratum_dim=sum(v for _, v in terms), terms=terms)


def _square(data):
    return data.n * data.n


def _pairs(k):
    """Dimension of O(k), and of the k-by-k skew-symmetric matrices."""
    return k * (k - 1) // 2


def _diagonal_commutant(profile):
    """Sum of k_i^2: the complex dimension of GL(k_1) x ... x GL(k_I), and
    the real dimension of U(k_1) x ... x U(k_I)."""
    return sum(k * k for k in profile.parts)


def _distinct(profile):
    return profile.num_distinct


def _jordan_commutant(js):
    """Sum of (2j - 1) m_j over the invariant factor degrees m_j."""
    return sum((2 * j - 1) * m for j, m in enumerate(invariant_degrees(js), start=1))


def _qp_pairs(profile):
    """Orthogonal pairs (Q, P) with Q Sigma = Sigma P: one orthogonal block
    per distinct singular value, shared by Q and P, and the two free
    trailing blocks."""
    r = profile.rank
    return sum(map(_pairs, profile.parts)) + _pairs(profile.n - r) + _pairs(profile.m - r)


@dataclass(frozen=True)
class _Count:
    """One class's closed form, over ``field_kind``: the stratum is the
    orbit of the group term's transforms, less the commutant term (the
    stabiliser of a point), plus the value-parameter term's free values.
    Each count is a function of the class's profile.  ``table2`` holds the
    class's rows of the paper's Table 2 as (row number, name, complex
    string, real string); ``rank_stratum``, where set, is the dimension of
    the rank-r matrices the stratum lies in."""

    field_kind: str
    ambient_label: str
    ambient: Callable
    group_label: str
    group: Callable
    commutant: Callable
    values: Callable
    table2: tuple
    rank_stratum: Callable | None = None


_COUNTS = {
    MatrixClass.DIAGONALIZABLE_COMPLEX: _Count(
        "complex", "complex n-by-n matrices", _square,
        "transform-group", _square, _diagonal_commutant, _distinct,
        ((1, "Diagonalizable", "n^2 - sum(k_i^2 - 1)", "2[n^2 - sum(k_i^2 - 1)]"),),
    ),
    MatrixClass.NORMAL: _Count(
        "real", "normal matrices", lambda p: p.n * p.n + p.n,
        "transform-group", _square, _diagonal_commutant, lambda p: 2 * p.num_distinct,
        ((2, "Normal", None, "n^2 + I - sum(k_i^2 - 1)"),),
    ),
    MatrixClass.HERMITIAN: _Count(
        "real", "Hermitian matrices", _square,
        "transform-group", _square, _diagonal_commutant, _distinct,
        ((3, "Hermitian", None, "n^2 - sum(k_i^2 - 1)"),),
    ),
    MatrixClass.UNITARY: _Count(
        "real", "unitary group", _square,
        "transform-group", _square, _diagonal_commutant, _distinct,
        ((4, "Unitary", None, "n^2 - sum(k_i^2 - 1)"),),
    ),
    MatrixClass.REAL_SYMMETRIC: _Count(
        "real", "real symmetric matrices", lambda p: p.n * (p.n + 1) // 2,
        "transform-group", lambda p: _pairs(p.n), lambda p: sum(map(_pairs, p.parts)), _distinct,
        ((5, "Real Symmetric", None, "n(n-1)/2 + I - (1/2) sum(k_i(k_i-1))"),),
    ),
    MatrixClass.JORDAN: _Count(
        "complex", "complex n-by-n matrices", _square,
        "transform-group", _square, _jordan_commutant, lambda js: js.num_eigenvalues,
        ((7, "with normal form J", None, "n^2 - sum((2j-1) m_j) + p"),),
    ),
    MatrixClass.SINGULAR_VALUES: _Count(
        "real", "real n-by-m matrices", lambda p: p.n * p.m,
        "orthogonal-pair-group", lambda p: _pairs(p.n) + _pairs(p.m), _qp_pairs, _distinct,
        (
            (6, "Matrices in R^nm, mult k_1,...,k_I, sum k_i = r", None,
             "(n+m-r)r - r + I - (1/2) sum(k_i(k_i-1))"),
            (8, "A in R^nm with singular value multiplicities k_1,...,k_J", None,
             "(n+m-r)r - r - (1/2) sum(k_j(k_j-1)) + J"),
        ),
        rank_stratum=lambda p: (p.n + p.m - p.rank) * p.rank,
    ),
}

#: Classes whose counts are over the complex field (real counts are doubled).
COMPLEX_FIELD_CLASSES = frozenset(
    cls for cls, count in _COUNTS.items() if count.field_kind == "complex"
)


def dimension_report(matrix_class: MatrixClass, data) -> DimensionReport:
    """The class's record evaluated on ``data``, values free (see
    :meth:`DimensionReport.fixed`)."""
    count = _COUNTS[matrix_class]
    group, commutant, values = count.group(data), count.commutant(data), count.values(data)
    stratum = group - commutant + values
    terms = ((count.group_label, group), ("commutant", -commutant))
    if values:
        terms += (("value-parameters", values),)
    rank_codim = None if count.rank_stratum is None else count.rank_stratum(data) - stratum
    return DimensionReport(
        field_kind=count.field_kind,
        ambient_dim=count.ambient(data),
        ambient_label=count.ambient_label,
        stratum_dim=stratum,
        terms=terms,
        rank_stratum_codim=rank_codim,
    )


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
    """The class records' Table 2 rows, in the paper's order.  Rows 1-5 are
    evaluated on ``profile``, rows 6 and 8 on ``singular`` and row 7 on
    ``jordan``; a row without its input stays symbolic.  A row with no
    complex string carries its record's count in the real column, as
    published, so row 7 shows the complex Jordan count there."""
    inputs = {MatrixClass.SINGULAR_VALUES: singular, MatrixClass.JORDAN: jordan}
    entries = [(entry, cls) for cls, count in _COUNTS.items() for entry in count.table2]
    rows = []
    for (_, name, cf, rf), cls in sorted(entries, key=lambda e: e[0][0]):
        data, cval, rval = inputs.get(cls, profile), None, None
        if data is not None:
            report = dimension_report(cls, data)
            if cf is None:
                rval = report.stratum_dim
            else:
                cval, rval = report.stratum_dim, report.realified().stratum_dim
        rows.append(TableRow(name, cf, rf, cval, rval))
    return rows
