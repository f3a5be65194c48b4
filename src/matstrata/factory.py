"""Construction of matrices realizing a profile, from seeded spectra.

A spectrum is an array of distinct values: one row ``(count,)`` for one
matrix, or a ``(T, count)`` stack for T matrices.  Values are constructed
a minimum separation apart so that downstream rank decisions never sit
near their thresholds.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .profiles import JordanStructure, MultiplicityProfile, SingularProfile

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


def _diagonal(values, parts, shape):
    """Matrices of ``shape`` with value i of each row of ``values`` repeated
    parts[i] times down the leading diagonal slots, zeros elsewhere: one
    matrix for a row ``(count,)``, a stack (T, *shape) for ``(T, count)``."""
    if values.shape[-1] != len(parts):
        raise ValueError(f"spectrum has {values.shape[-1]} values, profile needs {len(parts)}")
    diag = np.repeat(values, parts, axis=-1)
    out = np.zeros((*values.shape[:-1], *shape), dtype=values.dtype)
    slots = np.arange(diag.shape[-1])
    out[..., slots, slots] = diag
    return out


def make_block_diagonal_lambda(profile: MultiplicityProfile, values) -> np.ndarray:
    """Diagonal matrix with value i repeated k_i times, in profile order, of
    the values' dtype; for a ``(T, count)`` stack, the stack (T, n, n)."""
    return _diagonal(np.asarray(values), profile.parts, (profile.n, profile.n))


def make_jordan(js: JordanStructure, values) -> np.ndarray:
    """Jordan matrix of the given structure, of the values' dtype:
    per-eigenvalue runs of blocks in weakly decreasing size order, ones on
    each block's first superdiagonal; for a ``(T, count)`` stack, the stack
    (T, n, n)."""
    sizes = [k for part in js.blocks for k in part]
    block = np.repeat(np.arange(len(sizes)), sizes)
    out = _diagonal(np.asarray(values), js.multiplicities, (js.n, js.n))
    out[..., np.arange(js.n - 1), np.arange(1, js.n)] = block[:-1] == block[1:]
    return out


def make_sigma(profile: SingularProfile, values) -> np.ndarray:
    """Real rectangular diagonal matrix: sigma_j repeated k_j times on the
    leading diagonal slots, zeros elsewhere (all zeros for rank 0, whose
    spectrum is empty); for a ``(T, count)`` stack, the stack (T, n, m)."""
    values = np.asarray(values, dtype=float)
    return _diagonal(values, profile.parts, (profile.n, profile.m))


def sample_spectrum(
    shape: int | tuple[int, int],
    kind: str,
    seed: int,
    min_gap: float = DEFAULT_MIN_GAP,
) -> np.ndarray:
    """Construct ``count`` distinct values of the given kind, pairwise at
    least ``min_gap`` apart: a row for ``shape`` a count, a stack for
    ``shape`` ``(T, count)``; float64 for ``real`` and
    ``positive-decreasing``, complex128 for ``complex`` and ``unimodular``.

    One generator makes one uniform draw, so row t does not depend on T.
    Each row is sorted jitter plus the staircase ``min_gap * arange(count)``,
    distributed as uniform values conditioned on that separation: ``real``
    centred on 0, ``positive-decreasing`` from ``min_gap`` (clear of a zero
    singular value) and reversed, ``complex`` with the staircase as its
    real part, ``unimodular`` in angle, by the step whose chord is
    ``min_gap``, capped at ``2 pi / count`` so the values stay distinct.
    """
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    *lead, count = np.atleast_1d(shape)
    draw = np.random.default_rng(seed).random((*lead, 2, count))
    jitter, stair = np.sort(draw[..., 0, :], axis=-1), np.arange(count)
    if kind == "unimodular":
        step = min(2 * np.arcsin(min_gap / 2), 2 * np.pi / max(count, 1))
        return np.exp(1j * (jitter * (2 * np.pi - count * step) + step * stair))
    line = jitter * _JITTER + min_gap * stair
    if kind == "positive-decreasing":
        return (min_gap + line)[..., ::-1]
    line -= (_JITTER + min_gap * (count - 1)) / 2
    if kind == "real":
        return line
    return line + 1j * (draw[..., 1, :] - 0.5) * _JITTER


def derive_seed(*components: int) -> int:
    """Mix integers into a child seed, stable across platforms and runs."""
    return int(np.random.SeedSequence(tuple(components)).generate_state(1)[0])
