import numpy as np
import pytest

from matstrata import tangent_oracle
from matstrata.formulas import COMPLEX_FIELD_CLASSES, resolve_alias
from matstrata.ranktools import (
    DEFAULT_TOLERANCE,
    InconclusiveRankError,
    RankDecisions,
    decide_ranks,
)
from matstrata.tangent_oracle import KernelRead


def operator_at(matrix_class, data, at, free_values=False):
    """Coordinate matrix of the class's operator at ``at``, a base matrix,
    or a seed whose base point :func:`tangent_oracle._base_point` builds."""
    if not isinstance(at, np.ndarray):
        at = tangent_oracle._base_point(matrix_class, data, (at,))[0]
    images, coords, _ = tangent_oracle._operator(matrix_class, data, at, free_values)
    return coords(images)


def read_at(
    matrix_class,
    data,
    at,
    free_values=False,
    tol=DEFAULT_TOLERANCE,
    gap_requirement=None,
    vectors=False,
):
    """One read of the class's operator at an explicit base point or seed
    (see :func:`operator_at`).

    The operator is permuted into its own block order and its SVD taken by
    :func:`tangent_oracle._svd`, then decided as a stack of one, with the
    band alone unless ``gap_requirement`` is given.  Returns the read,
    packed as a :class:`KernelRead` (``vh`` only with ``vectors``), and its
    real rank."""
    op = operator_at(matrix_class, data, at, free_values)
    rows, cols = tangent_oracle._block_order(op)
    s, vh = tangent_oracle._svd(op[rows][:, cols], cols, vectors)
    decision = decide_ranks(s[None], op.shape[1], tol).decision(0, gap_requirement)
    real = 2 if resolve_alias(matrix_class) in COMPLEX_FIELD_CLASSES else 1
    return KernelRead(decision, vh), real * decision.rank


@pytest.fixture
def gap_reads_fail(monkeypatch):
    """Make every rank read that requires a gap inconclusive, while
    band-only reads decide as usual.

    Every read, of a stack or of one spectrum, is decided by
    :meth:`RankDecisions.decision`, so that is where the requirement is
    made unmeetable.  An extreme ``--gap`` no longer does this reliably: in
    block order the dropped singular values of decoupled blocks are exact
    zeros, so their gap is infinite and meets any requirement."""
    decide = RankDecisions.decision

    def failing(self, row, require_gap=None):
        decision = decide(self, row)
        if require_gap is not None:
            raise InconclusiveRankError(
                f"gap ratio {decision.gap_ratio:.3e}, requirement made unmeetable",
                decision.singular_values,
                decision.threshold,
            )
        return decision

    monkeypatch.setattr(RankDecisions, "decision", failing)
