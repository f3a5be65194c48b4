import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import pytest

from matstrata import tangent_oracle
from matstrata.commutant import check_witnesses
from matstrata.factory import DEFAULT_MIN_GAP, _value_slots, base_points, spectra
from matstrata.formulas import COMPLEX_FIELD_CLASSES, dimension_report
from matstrata.ranktools import DEFAULT_TOLERANCE, decide_ranks

# A failing hypothesis test makes the plugin import its patch writer, whose
# libcst import raises a DeprecationWarning; under ``filterwarnings =
# ["error"]`` that stops the session with INTERNALERROR inside the plugin's
# report hook.  Imported here once, the warning is spent before any test.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


class Read(NamedTuple):
    """One decided row: its rank, nullity, threshold and gap ratio, its
    singular values in descending order, and the operator it read."""

    rank: int
    nullity: int
    threshold: float
    gap_ratio: float
    singular_values: np.ndarray
    operator: np.ndarray


class Stabilizer(NamedTuple):
    """The stabiliser of one profile, rebuilt from a :class:`Read` of its
    fixed operator: the read nullity and gap ratio, whether the paper's
    witnesses span that kernel, and whether the operator annihilates them
    exactly."""

    dimension: int
    gap_ratio: float
    structure_ok: bool
    exact: bool


@dataclass(frozen=True)
class Check:
    """One case of a profile at its base point, its values in the report's
    order: entry p of a :class:`~matstrata.tangent_oracle.Columns`, as
    :func:`checks_of` reads it, or a case of :func:`_reference_verdict` in
    ``test_decision.py``.  ``detail`` says why a check that does not pass
    did not."""

    predicted: int
    observed: int
    gap_ratio: float
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    certified: bool
    predicted_fixed: int | None = None
    observed_fixed: int | None = None
    detail: str = ""


def checks_of(verdicts):
    """Each profile's ``(oracle, stabilizer)`` pair of :class:`Check`, in
    order, read off the columns that
    :func:`~matstrata.tangent_oracle.verify_profiles` returns."""

    def checks(columns):
        lists = [getattr(columns, f.name) for f in fields(Check)]
        none = [None] * len(columns.verdict)
        return [Check(*row) for row in zip(*(none if v is None else v for v in lists))]

    oracle, stabilizer = verdicts
    return list(zip(checks(oracle), checks(stabilizer)))


def decide_profile(matrix_class, data, decisions, witnesses, gap_requirement):
    """The ``(oracle, stabilizer)`` pair of one profile that
    :func:`tangent_oracle._decide` decides from its free and fixed rows
    ``decisions`` and its witness count, exactness and largest residual."""
    singletons = [[value] for value in witnesses]
    verdicts = tangent_oracle._decide(matrix_class, [data], decisions, singletons, gap_requirement)
    return checks_of(verdicts)[0]


class Inconclusive(Exception):
    """A read whose row has no usable gap: :func:`read_at` raises it with
    the row's reason."""


def commutant_term(matrix_class, data):
    """The stabiliser dimension a class's dimension report subtracts, as a
    positive count."""
    return -dict(dimension_report(matrix_class, data).terms)["commutant"]


def spectrum_of(count, kind, seed, min_gap=DEFAULT_MIN_GAP):
    """:func:`~matstrata.factory.spectra` of a chunk of one: a row of
    ``count`` values of the kind, from ``seed``."""
    return spectra(kind, [count], [seed], min_gap)[0]


def point_of(data, values):
    """:func:`~matstrata.factory.base_points` of a chunk of one: the matrix
    of one profile at a row of values, of their dtype."""
    return base_points([data], np.asarray(values)[None], _value_slots([data]))[0]


def base_point(matrix_class, data, seed):
    """The base point (n, m) of one profile from ``seed``: its matrix of
    :func:`tangent_oracle._base_points` on a chunk of one."""
    slots = _value_slots([data])
    return tangent_oracle._base_points(matrix_class, [data], [seed], slots)[0]


def stabilizer(matrix_class, data, read):
    """The :class:`Stabilizer` of one profile's band-only :class:`Read` of
    its fixed operator, rebuilt apart from :func:`tangent_oracle._decide`:
    the operator checked by :func:`~matstrata.commutant.check_witnesses` as
    a chunk of one, the witnesses spanning the kernel when they are as many
    as the read nullity and every residual is within the read's
    threshold."""
    (count,), (exact,), (worst,) = check_witnesses(matrix_class, [data], read.operator[None])
    structure_ok = count == read.nullity and (exact or worst <= read.threshold)
    return Stabilizer(read.nullity, read.gap_ratio, structure_ok, exact)


def _operator_and_values(matrix_class, data, at):
    """The class's operator at ``at`` with its value columns, and their
    count.  Without ``data`` it is the operator of a complex-linear class
    at an arbitrary matrix, with no value columns: the images of the
    matrix units."""
    if not isinstance(at, np.ndarray):
        at = base_point(matrix_class, data, at)
    if data is None:
        return tangent_oracle._flat(tangent_oracle._unit_images(at)), 0
    slots = _value_slots([data])
    op, (values,) = tangent_oracle._operator(matrix_class, [data], at[None], slots)
    return op[0], values


def operator_at(matrix_class, data, at, free_values=False):
    """Coordinate matrix of the class's operator at ``at``, a base matrix,
    or a seed whose base point :func:`base_point` builds: the point of
    :func:`~matstrata.tangent_oracle.verify_profiles` at that seed.  Without
    ``free_values`` the trailing value columns are dropped."""
    op, values = _operator_and_values(matrix_class, data, at)
    return op if free_values else op[:, : op.shape[1] - values]


def read_at(
    matrix_class,
    data,
    at,
    free_values=False,
    tol=DEFAULT_TOLERANCE,
    gap_requirement=None,
):
    """One read of the class's operator at an explicit base point or seed
    (see :func:`operator_at`), as
    :func:`~matstrata.tangent_oracle.verify_profiles` reads its point.

    The operator with its value columns is read as a chunk of one by
    :func:`tangent_oracle._split_read`, and its free or fixed row decided
    at its own noise floor, with the band alone unless
    ``gap_requirement`` is given.  Without
    ``data`` there are no value directions: the operator of the matrix
    units is read one-sided, with 0 value columns.  Returns the decided
    row with the operator it read, as a :class:`Read`, and its real rank;
    raises :class:`Inconclusive` with the row's reason where it is not
    decided, or where its gap ratio falls short of ``gap_requirement``."""
    op, values = _operator_and_values(matrix_class, data, at)
    spectra = tangent_oracle._split_read(op[None], op.shape[1] - values)
    side = int(not free_values)
    if not free_values:
        op = op[:, : op.shape[1] - values]
    s = spectra[side]
    d = decide_ranks(s[None], [op.shape[1]], tol, op.shape[0])
    (reason,), (gap,) = d.reason, d.gap_ratio
    if reason is None and gap_requirement is not None and gap < gap_requirement:
        reason = f"kept/dropped gap ratio {gap:.3e} below required {gap_requirement:.3e}"
    if reason is not None:
        raise Inconclusive(reason)
    read = Read(d.rank[0], d.nullity[0], d.threshold[0], gap, s, op)
    real = 2 if matrix_class in COMPLEX_FIELD_CLASSES else 1
    return read, real * read.rank


def svd_parts(differential, values):
    """Shapes (rows, columns) of the parts of a chunk (P, R, C) of
    operators, operator p with ``values[p]`` value columns, that
    :func:`tangent_oracle._split_read` decomposes by SVD, in call order,
    those with rows and columns: for each operator, the value-free segment of
    multi-column blocks, then the value segment of multi-column blocks with
    all its columns and with its transform columns alone.  One-column
    blocks are read by their norms."""
    columns = differential.shape[-1]
    fixed_columns = columns - max(values)
    _, cols, row_at, col_at, _ = tangent_oracle._block_order(differential != 0, fixed_columns)
    shapes = []
    for p in range(len(values)):
        r_at, c_at = row_at[3 * p : 3 * p + 4], col_at[3 * p : 3 * p + 4]
        tail = cols[c_at[1] : c_at[2]]
        head_rows, tail_rows = r_at[1] - r_at[0], r_at[2] - r_at[1]
        parts = (
            (head_rows, c_at[1] - c_at[0]),
            (tail_rows, tail.size),
            (tail_rows, sum(tail < fixed_columns)),
        )
        shapes += [(r, c) for r, c in parts if r and c]
    return shapes


class _Unmeetable(float):
    """A gap requirement above every gap ratio, an infinite one included:
    numpy defers ``gaps < requirement`` to this reflected comparison."""

    __array_ufunc__ = None

    def __gt__(self, other):
        return np.ones(np.shape(other), dtype=bool)


@pytest.fixture
def gap_reads_fail(monkeypatch):
    """Make the gap requirement of every oracle read unmeetable, while the
    band-only read of the stabiliser decides as usual.

    :func:`tangent_oracle._decide` applies the requirement, so that is
    where it is replaced.  An extreme ``--gap`` no longer does this
    reliably: in block order the dropped singular values of decoupled
    blocks are exact zeros, so their gap is infinite and meets any
    requirement."""
    decide = tangent_oracle._decide

    def failing(matrix_class, profiles, decisions, witnesses, gap_requirement):
        return decide(matrix_class, profiles, decisions, witnesses, _Unmeetable(math.inf))

    monkeypatch.setattr(tangent_oracle, "_decide", failing)
