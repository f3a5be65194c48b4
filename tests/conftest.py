import numpy as np
import pytest

from matstrata import tangent_oracle
from matstrata.ranktools import (
    DEFAULT_TOLERANCE,
    InconclusiveRankError,
    RankDecisions,
    decide_rank,
)
from matstrata.tangent_oracle import KernelRead


def read_at(
    matrix_class,
    data,
    at,
    free_values=False,
    tol=DEFAULT_TOLERANCE,
    gap_requirement=None,
    vectors=False,
):
    """One read of the class's operator at an explicit base point or seed.

    ``at`` is a base matrix, or a seed whose base point
    :func:`tangent_oracle._probe` builds.  The operator's SVD is taken by
    :func:`tangent_oracle._svd` in its own block order and decided with the
    band alone unless ``gap_requirement`` is given.  Returns the read,
    packed as a :class:`KernelRead` (``vh`` only with ``vectors``), and its
    real rank."""
    if isinstance(at, np.ndarray):
        images, coords, _ = tangent_oracle._operator(matrix_class, data, at, free_values)
        base, op = at, coords(images)
    else:
        bases, ops, _ = tangent_oracle._probe(matrix_class, data, (at,), free_values)
        base, op = bases[0], ops[0]
    s, vh = tangent_oracle._svd(op, vectors)
    decision = decide_rank(s, op.shape[1], tol, require_gap=gap_requirement)
    real_rank = tangent_oracle._real_factor(matrix_class) * decision.rank
    return KernelRead(base, op, decision, vh), real_rank


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
