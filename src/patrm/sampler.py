"""Random realizations of the five ensembles and Monte Carlo trace moments.

Matrices are stored unscaled (the 1/sqrt(n) normalization is applied at
use sites, and traces divide by n^(1+k/2) exactly once).  Each matrix
draws one input value per distinct link value, from an RNG substream
derived from (master seed, replicate, kind, copy index), so results are
reproducible independently of evaluation order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Monomial
from .linkfns import ALL_KINDS, LinkKind, lvalue_key_grid

_SQRT3 = math.sqrt(3.0)
_KIND_CODE = {kind: i for i, kind in enumerate(ALL_KINDS)}


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


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate of a normalized trace moment over independent replicates."""

    mean: float
    stddev: float
    reps: int


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
    """Unscaled n x n member: one input value per distinct link value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size, keys = lvalue_key_grid(kind, n)
    return dist.draw(rng, size)[keys]


def trace_moment_samples(
    q: Monomial,
    n: int,
    dist: InputDistribution,
    reps: int,
    seed: int,
) -> np.ndarray:
    """Per-replicate values of the normalized trace of the monomial.

    Within a replicate, letters with equal (kind, index) share one matrix;
    the trace is evaluated by dense products, with the final factor folded
    into an elementwise contraction.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    k = len(q)
    scale = float(n) ** (1 + k / 2)
    out = np.empty(reps)
    for rep in range(reps):
        mats: dict[tuple[LinkKind, int], np.ndarray] = {}
        for kind, index in q.letters:
            if (kind, index) not in mats:
                mats[(kind, index)] = sample_matrix(kind, n, dist, substream(seed, rep, kind, index))
        seq = [mats[(kind, index)] for kind, index in q.letters]
        if k == 1:
            tr = float(np.trace(seq[0]))
        else:
            prod = seq[0]
            for m in seq[1:-1]:
                prod = prod @ m
            tr = float((prod * seq[-1].T).sum())
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
    return MomentEstimate(float(vals.mean()), sd, reps)
