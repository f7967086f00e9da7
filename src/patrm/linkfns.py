"""Link functions of the five patterned matrix ensembles.

A link function maps an index pair (i, j) to the storage key of a matrix
entry; entries with equal link values within one ensemble are the same
random variable.  Vertices are 0-based, in {0, ..., n-1}.  Link values of
different kinds never compare equal, even when numerically identical; all
public helpers therefore take the kind explicitly and only ever compare
values within one kind.  Each distinct link value carries one independent
draw from an InputDistribution.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

# no module-level numpy import: the grid helpers import it in their bodies,
# so the exact commands, which use only the kinds, never load it
if TYPE_CHECKING:
    import numpy as np


class LinkKind(enum.Enum):
    """One of the five ensembles; serializes as a single character."""

    WIGNER = "W"
    TOEPLITZ = "T"
    HANKEL = "H"
    REVERSE_CIRCULANT = "R"
    SYMMETRIC_CIRCULANT = "S"

    @property
    def char(self) -> str:
        return self.value

    @classmethod
    def from_char(cls, c: str) -> "LinkKind":
        try:
            return cls(c)
        except ValueError:
            raise ValueError(f"unknown ensemble character {c!r}; expected one of W,T,H,R,S") from None


ALL_KINDS = tuple(LinkKind)

# Maximum number of solutions x of L(p, x) = t, uniform in n, p, t; also
# the number of branches solve_branch_grid splits the solutions into.
DELTA = {
    LinkKind.WIGNER: 1,
    LinkKind.TOEPLITZ: 2,
    LinkKind.HANKEL: 1,
    LinkKind.REVERSE_CIRCULANT: 1,
    LinkKind.SYMMETRIC_CIRCULANT: 2,
}

_SQRT3 = math.sqrt(3.0)


class InputDistribution(enum.Enum):
    """Mean-zero, variance-one input laws."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_SYM = "uniform"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self is InputDistribution.GAUSSIAN:
            return rng.standard_normal(size)
        if self is InputDistribution.RADEMACHER:
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        return rng.uniform(-_SQRT3, _SQRT3, size=size)


def lvalue_key_grid(kind: LinkKind, n: int) -> tuple[int, np.ndarray]:
    """(number of distinct storage slots, n x n int64 slot-index matrix).

    Two cells hold the same slot exactly when their link values are equal,
    so a patterned matrix is a flat vector of independent draws indexed by
    this grid.  Wigner pairs are ranked row by row over the upper triangle.
    Slots are only comparable within a single kind.  Every slot in
    0..size-1 occurs, so the size is the largest key plus one.
    """
    import numpy as np

    i = np.arange(n, dtype=np.int64)
    a, b = i[:, None], i[None, :]
    if kind is LinkKind.TOEPLITZ:
        keys = np.abs(a - b)
    elif kind is LinkKind.HANKEL:
        keys = a + b
    elif kind is LinkKind.REVERSE_CIRCULANT:
        keys = (a + b) % n
    elif kind is LinkKind.SYMMETRIC_CIRCULANT:
        d = np.abs(a - b)
        keys = np.minimum(d, n - d)
    else:
        # the cell (r, c), r <= c, has rank start[r] + c; the transposed
        # form start[c] + r is never smaller, so the minimum picks the rank
        start = i * n - i * (i + 1) // 2
        keys = np.minimum(start[:, None] + b, start[None, :] + a)
    return int(keys.max()) + 1, keys


def solve_branch_grid(
    kind: LinkKind,
    n: int,
    prev: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    branch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Solutions x of L(prev, x) = L(fa, fb), one branch at a time, on a grid.

    Returns (x, valid): candidate next vertices and a mask of grid cells
    where the branch yields a genuine, not-yet-seen solution.  The union
    over branches 0..DELTA[kind]-1 is the full solution set, disjointly.
    """
    import numpy as np

    if kind is LinkKind.TOEPLITZ:
        t = np.abs(fa - fb)
        if branch == 0:
            x = prev + t
            return x, x < n
        x = prev - t
        return x, (x >= 0) & (t != 0)
    if kind is LinkKind.SYMMETRIC_CIRCULANT:
        d = np.abs(fa - fb) % n
        t = np.minimum(d, n - d)
        if branch == 0:
            return (prev + t) % n, np.ones(np.broadcast(prev, t).shape, dtype=bool)
        return (prev - t) % n, (2 * t) % n != 0
    if kind is LinkKind.HANKEL:
        x = fa + fb - prev
        return x, (x >= 0) & (x < n)
    if kind is LinkKind.REVERSE_CIRCULANT:
        t = (fa + fb) % n
        return (t - prev) % n, np.ones(np.broadcast(prev, t).shape, dtype=bool)
    # Wigner: x is the other endpoint of the stored pair, if prev is one of them
    a = np.minimum(fa, fb)
    b = np.maximum(fa, fb)
    x = np.where(prev == a, b, a)
    return x, (prev == a) | (prev == b)
