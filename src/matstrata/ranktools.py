"""Numerical rank and nullity decisions with an explicit indecision band.

A rank decision keeps the singular values above ``tol * s_max`` and drops
the rest.  Any singular value landing within a factor of :data:`BAND` on
either side of that threshold makes the decision unreliable, and so does a
kept value at or below the rounding noise of the decomposition that
produced it: such a row is decided with a ``reason`` that names the hit,
and callers read no rank from it.  :func:`decide_ranks` decides a stack of
spectra, one per row, in one call; a single spectrum is a stack of one.
Each row also lists its kept/dropped gap ratio, for callers that require a
stronger certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCE = 1e-8
#: A tolerance must lie in the open interval (0, MAX_TOLERANCE).
MAX_TOLERANCE = 1e-2
#: The indecision band reaches this factor on either side of a threshold.
BAND = 10.0
DEFAULT_GAP_REQUIREMENT = 1e4


@dataclass(frozen=True)
class RankDecisions:
    """Band-only rank decisions of a stack of T spectra, one value per row
    in each list.  ``floor`` is the row's noise floor; ``reason`` names the
    row's first (largest) value inside the indecision band, or else its
    smallest kept value when that is at or below the floor, and is None
    where the row is decided."""

    rank: list[int]
    nullity: list[int]
    threshold: list[float]
    gap_ratio: list[float]
    floor: list[float]
    reason: list[str | None]


def decide_ranks(
    singular_values: np.ndarray,
    sizes: list[int],
    tol: float = DEFAULT_TOLERANCE,
    rows: int = 0,
) -> RankDecisions:
    """Resolve each row of a (T, k) stack of singular value spectra into an
    integer rank, in one call.

    ``sizes`` lists each row's domain dimension (column count), so a row's
    nullity is its size less its rank even when the spectrum is shorter
    than the domain.  A row keeps its values above ``tol`` times its
    largest.  A zero (or empty) row is exact rank 0 with an infinite gap
    and nothing in the band.  A zero is never in the band, so zeros padding
    a row change none of its rank, threshold and gap.  A row's gap ratio is
    its smallest kept value over its largest dropped one: infinite when
    nothing nonzero is dropped, 0 when nothing is kept.

    A row whose smallest kept value is at or below its noise floor

        delta = rows * size * eps * s_max + eps * |s|

    is inconclusive, as in the band.  Its own entry count, ``rows`` (the
    R of its R-by-size operator) times its ``size``, bounds the p of
    LAPACK's documented SVD error bound ``p eps s_max`` (LAPACK Users'
    Guide, "Error Bounds for the Singular Value Decomposition"), so a row's
    floor does not depend on the rows stacked beside it or on the zeros
    that pad it.  The row's Euclidean norm ``|s|`` is its
    operator's Frobenius norm (to first order in eps), so ``eps |s|``
    bounds the rounding of the assembled entries.  Every exact singular
    value then lies within delta of its computed one (Weyl's inequality),
    so a decided row's rank is at least its read rank: the lower half of
    the oracle's rank certificate.

    The sort and the counts of kept values and of values above the band run
    over the whole stack at once; each row's gap and first in-band value are
    then read off its sorted values at those counts."""
    if not 0 < tol < MAX_TOLERANCE:
        raise ValueError(f"tolerance must be in (0, {MAX_TOLERANCE:g}), got {tol}")
    s = np.sort(np.abs(np.asarray(singular_values, dtype=float)), axis=-1)[:, ::-1]
    k = s.shape[-1]
    threshold = tol * s[:, 0] if k else np.zeros(len(s))
    limits = threshold[:, None]
    rank = (s > limits).sum(axis=-1).tolist()
    above = (s > limits * BAND).sum(axis=-1).tolist()
    eps = np.finfo(float).eps
    if k:  # hypot neither overflows nor moves with trailing zeros
        entries = rows * np.array(sizes, dtype=float)
        floor = (entries * eps * s[:, 0] + eps * np.hypot.reduce(s, axis=-1)).tolist()
    else:
        floor = [0.0] * len(s)
    gap_ratio, reason = [], []
    for row, kept, high, cut, low in zip(s.tolist(), rank, above, threshold.tolist(), floor):
        dropped = row[kept] if kept < k else 0.0
        gap_ratio.append(math.inf if dropped == 0 else row[kept - 1] / dropped if kept else 0.0)
        # Values above the band are a prefix of the sorted row, so the next
        # one is the first that may be inside it.
        hit = row[high] if high < k else 0.0
        if hit != 0 and hit >= cut / BAND:
            reason.append(
                f"singular value {hit:.3e} inside the indecision band "
                f"[{cut / BAND:.3e}, {cut * BAND:.3e}]"
            )
        elif kept and row[kept - 1] <= low:
            reason.append(
                f"kept singular value {row[kept - 1]:.3e} at or below the rounding noise floor"
            )
        else:
            reason.append(None)
    nullity = [size - kept for size, kept in zip(sizes, rank)]
    return RankDecisions(rank, nullity, threshold.tolist(), gap_ratio, floor, reason)
