"""Construction of matrices realizing a profile, from keyed spectra.

A chunk is P profiles of one base-point shape, one matrix each.  Its
spectra are one ``(P, count)`` array, padded after each profile's own
values to the chunk's largest count, and its matrices one ``(P, n, m)``
stack.  Values are constructed a minimum separation apart so that
downstream rank decisions never sit near their thresholds.

A profile's values come from its key, an integer in [0, 2**64), alone,
by a counter-based draw (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"): uniform j of row r for key s is the top 53 bits of
``derive_seed(s, r, j)``, times 2**-53, where :func:`derive_seed` folds
its components through the SplitMix64 mix (Steele, Lea and Flood 2014).
No generator state is kept, so a whole chunk is drawn as one uint64
expression, and a profile's values are the same alone and in any chunk.
Everything is deterministic given the keys.
"""

from __future__ import annotations

import operator

import numpy as np

from .profiles import JordanStructure

SPECTRUM_KINDS = ("complex", "real", "unimodular", "positive-decreasing")

#: Default separation between distinct spectrum values, on unit scale.
DEFAULT_MIN_GAP = 0.1
#: Wider separation for Jordan spectra.  A cross-eigenvalue block pair of
#: sizes (k_i, k_j) shrinks the commutation operator's smallest singular
#: value like gap**(k_i + k_j - 1); 0.5 keeps desk-scale orders (n <= 8,
#: chains up to 7) far above the rank-decision band.
JORDAN_SPECTRUM_GAP = 0.5
#: Width of the jitter that spreads a spectrum beyond its staircase.
_JITTER = 2.5
#: Keys and the components :func:`derive_seed` folds lie in [0, KEY_LIMIT).
KEY_LIMIT = 1 << 64
#: SplitMix64's increment and its two multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
#: The row indices r of a profile's draw.
_DRAW_ROWS = np.arange(2, dtype=np.uint64)[:, None]


def _keys(keys) -> np.ndarray:
    """``keys`` as a uint64 array of its shape.  Raises ``ValueError``
    unless every key is an integer in [0, :data:`KEY_LIMIT`)."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "ui":
        if keys.dtype.kind == "i" and keys.size and keys.min() < 0:
            raise ValueError(f"keys must lie in [0, 2**64), got {keys.min()}")
        return keys.astype(np.uint64, copy=False)
    array = np.array(keys, dtype=object)
    ints = [operator.index(key) for key in array.flat]
    bad = [key for key in ints if not 0 <= key < KEY_LIMIT]
    if bad:
        raise ValueError(f"keys must lie in [0, 2**64), got {bad[0]}")
    return np.array(ints, dtype=np.uint64).reshape(array.shape)


def _fold(state, component):
    """SplitMix64's mix of ``state ^ component``, uint64 arrays broadcast
    together, ``state`` of at least one dimension: so the xor is a new
    array, and its wrapping products run in place on it, never as scalars
    (which warn on overflow)."""
    z = state ^ component
    z += _GAMMA
    z ^= z >> 30
    z *= _MULTIPLIERS[0]
    z ^= z >> 27
    z *= _MULTIPLIERS[1]
    z ^= z >> 31
    return z


def _folded(keys):
    """Each of the uint64 arrays ``keys`` in turn xored into the state,
    from 0, and mixed (:func:`_fold`), broadcast together; at least one
    dimension."""
    state = np.zeros(1, dtype=np.uint64)
    for key in keys:
        state = _fold(state, key)
    return state


def _value_parts(data):
    """How many diagonal slots each value of ``data`` fills: for Jordan, one
    shared value per eigenvalue, on all of its blocks."""
    return data.multiplicities if isinstance(data, JordanStructure) else data.parts


def _value_slots(profiles):
    """Stack, value and diagonal slot of each valued slot of a chunk of
    ``profiles``, stack p repeating its values ``_value_parts`` times, in
    profile order."""
    parts = [_value_parts(data) for data in profiles]
    cells = [
        (p, v) for p, counts in enumerate(parts) for v, k in enumerate(counts) for _ in range(k)
    ]
    slots = [s for counts in parts for s in range(sum(counts))]
    stack, value = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return stack, value, np.array(slots, dtype=np.intp)


def _uniforms(keys, width) -> np.ndarray:
    """The keyed draw (P, 2, width) of a chunk with ``keys`` (P,), as the
    module docstring states it: uniforms in [0, 1), each a multiple of
    2**-53."""
    columns = np.arange(width, dtype=np.uint64)
    bits = _folded((_keys(keys).reshape(-1, 1, 1), _DRAW_ROWS, columns))
    return (bits >> 11) * 2.0**-53


def spectra(kind, counts, keys, min_gap=DEFAULT_MIN_GAP) -> np.ndarray:
    """Distinct values of the given kind for a chunk, (P, max(counts)): row
    p holds ``counts[p]`` values, pairwise at least ``min_gap`` apart, from
    ``keys[p]``, then padding that no reader takes; float64 for ``real``
    and ``positive-decreasing``, complex128 for ``complex`` and
    ``unimodular``.  Raises ``ValueError`` for a key outside [0, 2**64).

    The chunk's uniforms are one keyed draw (P, 2, width), by
    :func:`_uniforms`, row 0 the jitter and row 1 the imaginary parts; the
    rest runs once for the chunk too, each profile's count broadcast.  A
    row is sorted jitter, its padding set outside [0, 1) to sort last, plus
    the staircase ``min_gap * arange(count)``, distributed as uniform values
    conditioned on that separation: ``real`` centred on 0,
    ``positive-decreasing`` from ``min_gap`` (clear of a zero singular
    value) and reversed, ``complex`` with the staircase as its real part,
    ``unimodular`` in angle, by the step whose chord is ``min_gap``, capped
    at ``2 pi / count`` so the values stay distinct."""
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    width, decreasing = max(counts, default=0), kind == "positive-decreasing"
    count = np.array(counts, dtype=np.intp).reshape(-1, 1)
    column = np.arange(width)
    draw = np.where(column < count[:, None], _uniforms(keys, width), -2.0 if decreasing else 2.0)
    if decreasing:  # the ascending row reversed, its padding still last
        jitter, stair = -np.sort(-draw[:, 0], axis=-1), count - 1 - column
        return min_gap + (jitter * _JITTER + min_gap * stair)
    jitter, stair = np.sort(draw[:, 0], axis=-1), column
    if kind == "unimodular":
        step = np.minimum(2 * np.arcsin(min_gap / 2), 2 * np.pi / np.maximum(count, 1))
        return np.exp(1j * (jitter * (2 * np.pi - count * step) + step * stair))
    line = jitter * _JITTER + min_gap * stair
    line -= (_JITTER + min_gap * (count - 1)) / 2
    if kind == "real":
        return line
    return line + 1j * (draw[:, 1] - 0.5) * _JITTER


def base_points(profiles, values, slots) -> np.ndarray:
    """Matrices (P, n, m) of a chunk of profiles of one shape, of the
    values' dtype, at ``values`` (P, count) padded as :func:`spectra` makes
    them: value i of each row repeated ``_value_parts`` times down the
    leading diagonal slots, in profile order, by one scatter through
    ``slots``, the chunk's :func:`_value_slots`; a Jordan structure's
    blocks also get ones on their first superdiagonal.  Zeros elsewhere."""
    count = max(len(_value_parts(data)) for data in profiles)
    if values.shape[-1] != count:
        raise ValueError(f"spectrum has {values.shape[-1]} values, profile needs {count}")
    first = profiles[0]
    n, m = first.n, getattr(first, "m", first.n)
    out = np.zeros((len(profiles), n, m), dtype=values.dtype)
    stack, value, slot = slots
    out[stack, slot, slot] = values[stack, value]
    if isinstance(first, JordanStructure):
        sizes = [k for js in profiles for part in js.blocks for k in part]
        block = np.repeat(np.arange(len(sizes)), sizes).reshape(len(profiles), n)
        p, i = np.nonzero(block[:, :-1] == block[:, 1:])
        out[p, i, i + 1] = 1.0
    return out


def derive_seed(*components):
    """Fold integers in [0, 2**64) into a child key, stable across
    platforms and runs: from state 0, each component in turn is xored into
    the state, which the SplitMix64 mix then takes.  Components may be
    arrays, broadcast together, such as the indices of a whole sweep as the
    last one; then the keys are a uint64 array, each entry the key of the
    scalar call.  With scalars alone the key is an int.  Raises
    ``ValueError`` for a component outside [0, 2**64)."""
    keys = [_keys(component) for component in components]
    state = _folded(keys)
    return state if any(key.ndim for key in keys) else state.item()
