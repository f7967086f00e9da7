"""Random realizations of the five ensembles and Monte Carlo trace moments.

Matrices are stored unscaled (the 1/sqrt(n) normalization is applied at
use sites, and traces divide by n^(1+k/2) exactly once).  Each matrix
draws one input value per distinct link value, from an RNG substream
derived from (master seed, replicate, kind, copy index), so results are
reproducible independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import Monomial
from .linkfns import ALL_KINDS, InputDistribution, LinkKind

DEFAULT_SIZE_CAP = 1200
_KIND_CODE = {kind: i for i, kind in enumerate(ALL_KINDS)}


def _check_size(n: int) -> None:
    if n > DEFAULT_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds cap {DEFAULT_SIZE_CAP}")


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate of a normalized trace moment over independent replicates."""

    mean: float
    stddev: float


def seed_mod64(master_seed: int) -> int:
    """The master seed taken mod 2^64: -1 and 2^64 - 1 give the same streams."""
    return master_seed & ((1 << 64) - 1)


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence of the master seed taken mod 2^64, followed by key."""
    return np.random.SeedSequence([seed_mod64(master_seed), *key])


def substream(master_seed: int, replicate: int, kind: LinkKind, index: int) -> np.random.Generator:
    """Deterministic RNG for one (replicate, kind, copy) triple."""
    return np.random.default_rng(seed_sequence(master_seed, replicate, _KIND_CODE[kind], index))


def sample_matrix(
    kind: LinkKind,
    n: int,
    dist: InputDistribution,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unscaled n x n member: one input value per distinct link value.

    The draws and their cells are those of the key grid gather
    ``dist.draw(rng, size)[keys]`` of ``linkfns.lvalue_key_grid``, but no
    fill builds the grid.  W lays its n(n+1)/2 draws row by row over the
    upper triangle, the grid's slot order, and mirrors each row into its
    column.  T, H, R and S are constant along (anti-)diagonals, so each is
    the window view ``u[i + j]`` of one short vector u, copied.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind is LinkKind.WIGNER:
        draws = dist.draw(rng, n * (n + 1) // 2)
        out = np.empty((n, n))
        start = 0
        for r in range(n):
            row = draws[start : start + n - r]
            out[r, r:] = row
            out[r:, r] = row
            start += n - r
        return out
    if kind is LinkKind.HANKEL:
        return sliding_window_view(dist.draw(rng, 2 * n - 1), n).copy()
    if kind is LinkKind.REVERSE_CIRCULANT:
        v = dist.draw(rng, n)
        return sliding_window_view(np.concatenate((v, v[:-1])), n).copy()
    if kind is LinkKind.TOEPLITZ:
        v = dist.draw(rng, n)
    else:
        # the circulant distance min(d, n - d) of d = 0..n-1, as a first row
        d = np.arange(n)
        v = dist.draw(rng, n // 2 + 1)[np.minimum(d, n - d)]
    # row i of the reversed view is v[|j - i|] (T) or v[min(|j - i|, n - |j - i|)] (S)
    return sliding_window_view(np.concatenate((v[:0:-1], v)), n)[::-1].copy()


def trace_moment_samples(
    q: Monomial,
    n: int,
    dist: InputDistribution,
    reps: int,
    seed: int,
) -> np.ndarray:
    """Per-replicate values of the normalized trace of the monomial.

    Within a replicate, letters with equal (kind, index) share one matrix.
    The word is split at k // 2 into halves with products L and R, and
    tr = sum(L * R.T).  Every ensemble is symmetric, so when the halves of
    some cyclic rotation are equal letter sequences R = L, and when they
    are mirror images R = L.T; the first such rotation needs the product L
    only.  n above DEFAULT_SIZE_CAP is rejected before any matrix is drawn.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_size(n)
    k = len(q)
    h = k // 2
    scale = float(n) ** (1 + k / 2)
    letters = list(q.letters)
    rotations = (letters[r:] + letters[:r] for r in range(k))
    word = next((w for w in rotations if h and w[h:] in (w[:h], w[h - 1 :: -1])), letters)
    out = np.empty(reps)
    for rep in range(reps):
        mats: dict[tuple[LinkKind, int], np.ndarray] = {}
        for kind, index in letters:
            if (kind, index) not in mats:
                mats[(kind, index)] = sample_matrix(kind, n, dist, substream(seed, rep, kind, index))
        if k == 1:
            tr = float(np.trace(mats[letters[0]]))
        else:
            left = reduce(np.matmul, [mats[x] for x in word[:h]])
            if word[h:] == word[:h]:
                right = left
            elif word[h:] == word[h - 1 :: -1]:
                right = left.T
            else:
                right = reduce(np.matmul, [mats[x] for x in word[h:]])
            tr = float((left * right.T).sum())
        out[rep] = tr / scale
    return out


def empirical_trace_moment(
    q: Monomial,
    n: int,
    dist: InputDistribution,
    reps: int,
    seed: int,
) -> MomentEstimate:
    """Mean and sample standard deviation of the normalized trace moment."""
    vals = trace_moment_samples(q, n, dist, reps, seed)
    sd = float(vals.std(ddof=1)) if reps > 1 else 0.0
    return MomentEstimate(float(vals.mean()), sd)
