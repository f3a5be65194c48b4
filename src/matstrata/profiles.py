"""Multiplicity data for matrix strata and the combinatorics derived from it.

Three immutable record types describe how eigenvalues or singular values
repeat: ``MultiplicityProfile`` for diagonalizable-type classes,
``JordanStructure`` for a full Jordan block layout, and ``SingularProfile``
for rectangular matrices.  The module also hosts the purely combinatorial
quantities derived from them (conjugate-partition degrees, the double-min
sum) and the deterministic enumerators that the sweeps walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class MultiplicityProfile:
    """Eigenvalue multiplicities (k_1, ..., k_I) of an order-n matrix.

    Parts are kept in user order; all dimension formulas are symmetric in
    the parts.
    """

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(k) for k in self.parts))
        if not self.parts:
            raise ValueError("at least one multiplicity is required")
        if any(k < 1 for k in self.parts):
            raise ValueError(f"multiplicities must be positive, got {self.parts}")
        if sum(self.parts) != self.n:
            raise ValueError(
                f"multiplicities {self.parts} sum to {sum(self.parts)}, expected n={self.n}"
            )

    @classmethod
    def of(cls, *parts: int) -> "MultiplicityProfile":
        return cls(sum(parts), tuple(parts))

    @property
    def num_distinct(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.parts)


@dataclass(frozen=True)
class JordanStructure:
    """Jordan block layout: one weakly decreasing size partition per eigenvalue.

    ``blocks[a]`` lists the block sizes of the a-th distinct eigenvalue,
    largest first.  The eigenvalue values themselves are not part of the
    structure; they are supplied separately when a matrix is built.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(tuple(int(k) for k in part) for part in self.blocks)
        object.__setattr__(self, "blocks", normalized)
        if not self.blocks:
            raise ValueError("at least one eigenvalue is required")
        for part in self.blocks:
            if not part:
                raise ValueError("every eigenvalue needs at least one block")
            if any(k < 1 for k in part):
                raise ValueError(f"block sizes must be positive, got {part}")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"block sizes must be weakly decreasing, got {part}")
        total = sum(sum(part) for part in self.blocks)
        if total != self.n:
            raise ValueError(f"block sizes sum to {total}, expected n={self.n}")

    @classmethod
    def of(cls, *blocks) -> "JordanStructure":
        blocks = tuple(tuple(part) for part in blocks)
        return cls(sum(sum(part) for part in blocks), blocks)

    @property
    def num_eigenvalues(self) -> int:
        return len(self.blocks)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """Algebraic multiplicity of each eigenvalue (sum of its block sizes)."""
        return tuple(sum(part) for part in self.blocks)

    @property
    def block_counts(self) -> tuple[int, ...]:
        """Geometric multiplicity of each eigenvalue (number of its blocks)."""
        return tuple(len(part) for part in self.blocks)

    @property
    def max_block_count(self) -> int:
        return max(self.block_counts)


@dataclass(frozen=True)
class SingularProfile:
    """Singular value multiplicities (k_1, ..., k_J) of an n-by-m real matrix.

    The parts count the repeats of the J distinct nonzero singular values in
    decreasing order; the rank r is their sum.  An empty parts tuple is the
    rank-zero profile.
    """

    n: int
    m: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(k) for k in self.parts))
        if self.n < 1 or self.m < 1:
            raise ValueError(f"matrix shape must be positive, got {self.n}x{self.m}")
        if any(k < 1 for k in self.parts):
            raise ValueError(f"multiplicities must be positive, got {self.parts}")
        if sum(self.parts) > min(self.n, self.m):
            raise ValueError(
                f"rank {sum(self.parts)} exceeds min(n, m) = {min(self.n, self.m)}"
            )

    @property
    def rank(self) -> int:
        return sum(self.parts)

    @property
    def num_distinct(self) -> int:
        return len(self.parts)


def invariant_degrees(js: JordanStructure) -> tuple[int, ...]:
    """Degrees (m_1, ..., m_{N*}) of the invariant factors of the structure.

    m_j sums the j-th largest block size over all eigenvalues (missing blocks
    count as zero), i.e. the column sums of the block-size table.  The result
    is weakly decreasing and sums to n.
    """
    width = js.max_block_count
    return tuple(
        sum(part[j] for part in js.blocks if j < len(part)) for j in range(width)
    )


def partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing partitions of ``total``, in decreasing lexicographic order.

    Starts at (total,) and ends at (1, ..., 1).  ``partitions(0)`` yields the
    empty partition once.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        yield ()
        return
    first_max = total if max_part is None else min(max_part, total)
    for first in range(first_max, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def multiplicity_profiles(n: int) -> Iterator[MultiplicityProfile]:
    """All multiplicity profiles of order n, one per partition of n."""
    for parts in partitions(n):
        yield MultiplicityProfile(n, parts)


def jordan_structures(n: int) -> Iterator[JordanStructure]:
    """All Jordan structures of order n.

    Structures are multisets of per-eigenvalue partitions; each multiset is
    produced exactly once, with the member partitions ordered by decreasing
    (size, partition) key so the enumeration is deterministic.
    """

    def descend(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for size in range(remaining, 0, -1):
            for part in partitions(size):
                key = (size, part)
                if bound is not None and key > bound:
                    continue
                for rest in descend(remaining - size, key):
                    yield (part,) + rest

    for blocks in descend(n, None):
        yield JordanStructure(n, blocks)


def singular_profiles(n: int, m: int) -> Iterator[SingularProfile]:
    """All singular profiles for an n-by-m matrix, ranks 0 through min(n, m)."""
    for r in range(min(n, m) + 1):
        for parts in partitions(r):
            yield SingularProfile(n, m, parts)
