"""Numerical rank and nullity decisions with an explicit indecision band.

A rank decision keeps the singular values above ``tol * s_max`` and drops
the rest.  Any singular value landing within a factor of ``band`` on either
side of that threshold makes the decision unreliable, so it raises instead
of silently resolving; callers that need a stronger certificate can also
require a minimum kept/dropped gap ratio.

:func:`decide_ranks` decides a stack of spectra, one per row, in one call;
:meth:`RankDecisions.decision` reads one row of it, raising where the
row is inconclusive.  A single spectrum is decided as a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCE = 1e-8
DEFAULT_BAND = 10.0
DEFAULT_GAP_REQUIREMENT = 1e4


class InconclusiveRankError(Exception):
    """A rank decision whose singular value spectrum has no usable gap."""

    def __init__(self, message: str, singular_values: np.ndarray, threshold: float):
        super().__init__(message)
        self.singular_values = singular_values
        self.threshold = threshold


@dataclass(frozen=True)
class RankDecision:
    rank: int
    nullity: int
    singular_values: np.ndarray
    threshold: float
    gap_ratio: float


@dataclass(frozen=True)
class RankDecisions:
    """Band-only rank decisions of a stack of T spectra, one per row.

    ``singular_values`` (T, k) holds each row's absolute values in
    descending order.  ``rank``, ``threshold``, ``gap_ratio`` and
    ``in_band`` list one value per row; ``in_band`` is the row's first
    (largest) value inside the indecision band, NaN where there is none."""

    size: int
    band: float
    singular_values: np.ndarray
    rank: list[int]
    threshold: list[float]
    gap_ratio: list[float]
    in_band: list[float]

    def decision(self, row: int, require_gap: float | None = None) -> RankDecision:
        """The decision of one row.  Raises :class:`InconclusiveRankError`
        when a value of the row falls inside the indecision band, or when
        ``require_gap`` is set and the row's gap ratio falls short of it."""
        s = self.singular_values[row]
        threshold = self.threshold[row]
        hit = self.in_band[row]
        if hit == hit:  # not NaN
            raise InconclusiveRankError(
                f"singular value {hit:.3e} inside the indecision band "
                f"[{threshold / self.band:.3e}, {threshold * self.band:.3e}]",
                s,
                threshold,
            )
        gap_ratio = self.gap_ratio[row]
        if require_gap is not None and gap_ratio < require_gap:
            raise InconclusiveRankError(
                f"kept/dropped gap ratio {gap_ratio:.3e} below required {require_gap:.3e}",
                s,
                threshold,
            )
        rank = self.rank[row]
        return RankDecision(rank, self.size - rank, s, threshold, gap_ratio)


def decide_ranks(
    singular_values: np.ndarray,
    size: int,
    tol: float = DEFAULT_TOLERANCE,
    band: float = DEFAULT_BAND,
) -> RankDecisions:
    """Resolve each row of a (T, k) stack of singular value spectra into an
    integer rank, in one call.

    ``size`` is the domain dimension (column count), so a row's nullity is
    ``size - rank`` even when the spectrum is shorter than the domain.  A
    row keeps its values above ``tol`` times its largest.  A zero (or
    empty) row is exact rank 0 with an infinite gap and nothing in the band.
    A row's gap ratio is its smallest kept value over its largest dropped
    one: infinite when nothing nonzero is dropped, 0 when nothing is kept.

    The sort and the counts of kept values and of values above the band run
    over the whole stack at once; each row's gap and first in-band value are
    then read off its sorted values at those counts."""
    if not 0 < tol < 1e-2:
        raise ValueError(f"tolerance must be in (0, 1e-2), got {tol}")
    s = np.sort(np.abs(np.asarray(singular_values, dtype=float)), axis=-1)[:, ::-1]
    k = s.shape[-1]
    threshold = tol * s[:, 0] if k else np.zeros(len(s))
    limits = threshold[:, None]
    rank = (s > limits).sum(axis=-1).tolist()
    above = (s > limits * band).sum(axis=-1).tolist()
    gap_ratio, in_band = [], []
    for row, kept, high, cut in zip(s.tolist(), rank, above, threshold.tolist()):
        dropped = row[kept] if kept < k else 0.0
        gap_ratio.append(math.inf if dropped == 0 else row[kept - 1] / dropped if kept else 0.0)
        # Values above the band are a prefix of the sorted row, so the next
        # one is the first that may be inside it.
        hit = row[high] if high < k and row[0] != 0 else math.nan
        in_band.append(hit if hit >= cut / band else math.nan)
    return RankDecisions(size, band, s, rank, threshold.tolist(), gap_ratio, in_band)

