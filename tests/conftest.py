import pytest

from matstrata import tangent_oracle
from matstrata.ranktools import InconclusiveRankError


@pytest.fixture
def gap_reads_fail(monkeypatch):
    """Make every oracle rank read that requires a gap inconclusive, while
    band-only reads decide as usual.

    An extreme ``--gap`` no longer does this reliably: in block order the
    dropped singular values of decoupled blocks are exact zeros, so their
    gap is infinite and meets any requirement."""
    decide_rank = tangent_oracle.decide_rank

    def failing(*args, require_gap=None, **kwargs):
        decision = decide_rank(*args, **kwargs)
        if require_gap is not None:
            raise InconclusiveRankError(
                f"gap ratio {decision.gap_ratio:.3e}, requirement made unmeetable",
                decision.singular_values,
                decision.threshold,
            )
        return decision

    monkeypatch.setattr(tangent_oracle, "decide_rank", failing)
