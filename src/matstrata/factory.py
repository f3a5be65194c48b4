"""Construction of matrices realizing a profile, from seeded spectra.

Spectra are sampled with an enforced minimum separation so that downstream
rank decisions never sit near their thresholds.  Everything is
deterministic given a seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SpectrumSpec:
    """Distinct eigenvalue or singular-value samples with a guaranteed gap.

    ``kind`` fixes the admissible values: ``real`` and ``complex`` scalars,
    ``unimodular`` points on the unit circle, or ``positive-decreasing``
    singular values.  Multiplicities are attached later, by pairing the spec
    with a profile at matrix construction.
    """

    kind: str
    values: tuple[complex, ...]
    min_gap: float = DEFAULT_MIN_GAP

    def __post_init__(self):
        if self.kind not in SPECTRUM_KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.min_gap <= 0:
            raise ValueError("min_gap must be positive")
        values = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("at least one value is required")
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if abs(values[i] - values[j]) < self.min_gap:
                    raise ValueError(
                        f"values {values[i]} and {values[j]} closer than min_gap={self.min_gap}"
                    )
        if self.kind in ("real", "positive-decreasing"):
            if any(v.imag != 0 for v in values):
                raise ValueError(f"{self.kind} spectrum must be real")
        if self.kind == "unimodular":
            if any(abs(abs(v) - 1.0) > 1e-12 for v in values):
                raise ValueError("unimodular values must have absolute value 1")
        if self.kind == "positive-decreasing":
            reals = [v.real for v in values]
            if any(v <= 0 for v in reals):
                raise ValueError("singular values must be positive")
            if any(reals[i] <= reals[i + 1] for i in range(len(reals) - 1)):
                raise ValueError("singular values must be strictly decreasing")

    @property
    def real_values(self) -> tuple[float, ...]:
        if self.kind not in ("real", "positive-decreasing"):
            raise ValueError(f"{self.kind} spectrum has no real view")
        return tuple(v.real for v in self.values)


def _specs(spec):
    """The specs of a stack, and whether ``spec`` was a single spec (or
    None), which is a stack of one."""
    if spec is None or isinstance(spec, SpectrumSpec):
        return (spec,), True
    return tuple(spec), False


def _diagonal(values, parts, shape):
    """Stack (T, *shape) of matrices with value i of row t of ``values``
    repeated parts[i] times down matrix t's leading diagonal slots, zeros
    elsewhere."""
    diag = np.repeat(values, parts, axis=-1)
    out = np.zeros((len(values), *shape), dtype=diag.dtype)
    slots = np.arange(diag.shape[-1])
    out[:, slots, slots] = diag
    return out


def make_block_diagonal_lambda(
    profile: MultiplicityProfile, spec: SpectrumSpec | Sequence[SpectrumSpec]
) -> np.ndarray:
    """Diagonal matrix with spec value i repeated k_i times, in profile order;
    for a sequence of T specs, the stack (T, n, n) of their matrices."""
    specs, single = _specs(spec)
    for one in specs:
        if len(one.values) != profile.num_distinct:
            raise ValueError(
                f"spectrum has {len(one.values)} values, profile needs {profile.num_distinct}"
            )
    values = np.array([one.values for one in specs])
    if all(one.kind in ("real", "positive-decreasing") for one in specs):
        values = values.real
    out = _diagonal(values, profile.parts, (profile.n, profile.n))
    return out[0] if single else out


def make_jordan(
    js: JordanStructure, spec: SpectrumSpec | Sequence[SpectrumSpec]
) -> np.ndarray:
    """Jordan matrix of the given structure: per-eigenvalue runs of blocks in
    weakly decreasing size order, ones on each block's first superdiagonal;
    for a sequence of T specs, the stack (T, n, n) of their matrices."""
    specs, single = _specs(spec)
    for one in specs:
        if len(one.values) != js.num_eigenvalues:
            raise ValueError(
                f"spectrum has {len(one.values)} values, structure needs {js.num_eigenvalues}"
            )
    sizes = [k for part in js.blocks for k in part]
    block = np.repeat(np.arange(len(sizes)), sizes)
    values = np.array([one.values for one in specs], dtype=complex)
    out = _diagonal(values, js.multiplicities, (js.n, js.n))
    out[:, np.arange(js.n - 1), np.arange(1, js.n)] = block[:-1] == block[1:]
    return out[0] if single else out


def make_sigma(
    profile: SingularProfile, spec: SpectrumSpec | Sequence[SpectrumSpec | None] | None
) -> np.ndarray:
    """Rectangular diagonal matrix: sigma_j repeated k_j times on the leading
    diagonal slots, zeros elsewhere; for a sequence of T specs, the stack
    (T, n, m) of their matrices.  A spec may be None only for rank 0."""
    specs, single = _specs(spec)
    if profile.rank == 0:
        values = np.zeros((len(specs), 0))
    else:
        for one in specs:
            if one is None:
                raise ValueError("a spectrum is required for positive rank")
            if one.kind != "positive-decreasing":
                raise ValueError("singular values must come from a positive-decreasing spectrum")
            if len(one.values) != profile.num_distinct:
                raise ValueError(
                    f"spectrum has {len(one.values)} values, profile needs {profile.num_distinct}"
                )
        values = np.array([one.real_values for one in specs])
    out = _diagonal(values, profile.parts, (profile.n, profile.m))
    return out[0] if single else out


def sample_spectrum(
    count: int,
    kind: str,
    seed: int,
    min_gap: float = DEFAULT_MIN_GAP,
) -> SpectrumSpec:
    """Sample ``count`` distinct values of the given kind with pairwise
    separation at least ``min_gap``, deterministically per seed.

    Positive-decreasing values are also kept at least ``min_gap`` away from
    zero so a zero singular value never crowds the spectrum.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(_SPECTRUM_ATTEMPTS):
        if kind == "complex":
            values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        elif kind == "real":
            values = rng.standard_normal(count) + 0j
        elif kind == "unimodular":
            values = np.exp(2j * np.pi * rng.random(count))
        else:
            values = np.sort(min_gap + 2.5 * rng.random(count))[::-1] + 0j
        # Python complexes: the same values and gaps, without numpy's
        # per-element scalar overhead.
        values = values.tolist()
        separated = all(
            abs(values[i] - values[j]) >= min_gap
            for i in range(count)
            for j in range(i + 1, count)
        )
        if separated:
            return SpectrumSpec(kind, tuple(values), min_gap)
    raise RuntimeError(
        f"no {kind} spectrum of {count} values with gap {min_gap} in "
        f"{_SPECTRUM_ATTEMPTS} attempts"
    )


def derive_seed(*components: int) -> int:
    """Mix integers into a child seed, stable across platforms and runs."""
    return int(np.random.SeedSequence(tuple(components)).generate_state(1)[0])
