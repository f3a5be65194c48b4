"""Construction of matrices realizing a profile, from seeded spectra.

A spectrum is an array of distinct values: one row ``(count,)`` for one
matrix, or a ``(T, count)`` stack for T matrices.  Sampled values keep an
enforced minimum separation so that downstream rank decisions never sit
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
_SPECTRUM_ATTEMPTS = 1000


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
    """Complex Jordan matrix of the given structure: per-eigenvalue runs of
    blocks in weakly decreasing size order, ones on each block's first
    superdiagonal; for a ``(T, count)`` stack, the stack (T, n, n)."""
    sizes = [k for part in js.blocks for k in part]
    block = np.repeat(np.arange(len(sizes)), sizes)
    values = np.asarray(values, dtype=complex)
    out = _diagonal(values, js.multiplicities, (js.n, js.n))
    out[..., np.arange(js.n - 1), np.arange(1, js.n)] = block[:-1] == block[1:]
    return out


def make_sigma(profile: SingularProfile, values) -> np.ndarray:
    """Real rectangular diagonal matrix: sigma_j repeated k_j times on the
    leading diagonal slots, zeros elsewhere (all zeros for rank 0, whose
    spectrum is empty); for a ``(T, count)`` stack, the stack (T, n, m)."""
    values = np.asarray(values, dtype=float)
    return _diagonal(values, profile.parts, (profile.n, profile.m))


def sample_spectrum(
    count: int,
    kind: str,
    seed: int,
    min_gap: float = DEFAULT_MIN_GAP,
) -> np.ndarray:
    """Sample ``count`` distinct values of the given kind with pairwise
    separation at least ``min_gap``, deterministically per seed: float64
    for ``real`` and ``positive-decreasing``, complex128 for ``complex``
    and ``unimodular``.  ``count`` 0 gives an empty array.

    Positive-decreasing values are also kept at least ``min_gap`` away from
    zero so a zero singular value never crowds the spectrum.
    """
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(_SPECTRUM_ATTEMPTS):
        if kind == "complex":
            values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        elif kind == "real":
            values = rng.standard_normal(count)
        elif kind == "unimodular":
            values = np.exp(2j * np.pi * rng.random(count))
        else:
            values = np.sort(min_gap + 2.5 * rng.random(count))[::-1]
        # Python scalars: the same values and gaps, without numpy's
        # per-element scalar overhead.
        listed = values.tolist()
        separated = all(
            abs(listed[i] - listed[j]) >= min_gap
            for i in range(count)
            for j in range(i + 1, count)
        )
        if separated:
            return values
    raise RuntimeError(
        f"no {kind} spectrum of {count} values with gap {min_gap} in "
        f"{_SPECTRUM_ATTEMPTS} attempts"
    )


def derive_seed(*components: int) -> int:
    """Mix integers into a child seed, stable across platforms and runs."""
    return int(np.random.SeedSequence(tuple(components)).generate_state(1)[0])
