"""Symmetric eigensolving, empirical spectral distributions, and sum-ensemble reports.

Eigenvalues come from the LAPACK backend (numpy's eigvalsh).  The test
suite checks them against an exact determinant oracle and a cyclic
Jacobi reference implementation kept beside the other oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linkfns import LinkKind
from .sampler import InputDistribution, sample_matrix, substream

DEFAULT_SIZE_CAP = 1200
DEFAULT_BINS = 50
ESD_PADDING = 0.01
# relative asymmetry, against the largest entry, that an input may carry
_SYMMETRY_TOL = 1e-10


def _check_size(n: int) -> None:
    if n > DEFAULT_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds cap {DEFAULT_SIZE_CAP}")


def eigenvalues_symmetric(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix of size <= DEFAULT_SIZE_CAP.

    The eigenvalue sum matches the trace, and the sum of squares the
    squared Frobenius norm, to 1e-8 * |M|_F (checked by the test suite).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(A).max() or 1.0
    if np.abs(A - A.T).max() > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    _check_size(A.shape[0])
    return np.sort(np.linalg.eigvalsh(A))


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram; sum(density * width) == 1."""

    edges: np.ndarray
    counts: np.ndarray
    total: int
    density: np.ndarray

    def to_csv_rows(self) -> list[tuple[float, float, int, float]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), int(self.counts[i]), float(self.density[i]))
            for i in range(len(self.counts))
        ]


def esd(
    values: Union[np.ndarray, Sequence[float]],
    bins: int = DEFAULT_BINS,
) -> Histogram:
    """Empirical spectral distribution of eigenvalues as a density histogram.

    Bins span [min, max], widened on each side by ESD_PADDING times the span.
    """
    arr = np.asarray(values, dtype=float)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    if span == 0.0:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = lo - ESD_PADDING * span, hi + ESD_PADDING * span
    counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    total = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (total * widths)
    return Histogram(edges, counts, total, density)


@dataclass(frozen=True)
class SumReport:
    """Averaged spectral report for the scaled sum of two ensemble members."""

    kind_a: LinkKind
    kind_b: LinkKind
    n: int
    reps: int
    seed: int
    histogram: Histogram
    beta: tuple[float, ...]  # beta[k-1] is the k-th averaged ESD moment
    skewness: float
    symmetric: bool  # |skewness| within 0.1
    odd_moment_max: float
    growth: tuple[float, ...]  # beta_{2k}^{1/2k} for k = 1..kmax//2
    growth_nondecreasing: bool

    def to_json_dict(self) -> dict:
        return {
            "a": self.kind_a.char,
            "b": self.kind_b.char,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "beta": list(self.beta),
            "skewness": self.skewness,
            "symmetric": self.symmetric,
            "odd_moment_max": self.odd_moment_max,
            "growth": list(self.growth),
            "growth_nondecreasing": self.growth_nondecreasing,
        }


def sum_lsd_report(
    kind_a: LinkKind,
    kind_b: LinkKind,
    n: int,
    dist: InputDistribution,
    reps: int,
    kmax: int = 6,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
) -> SumReport:
    """Averaged ESD of (A + B)/sqrt(n) over independent replicate pairs.

    Reports the empirical moments beta_k for k <= kmax, the vanishing
    check on odd moments, the even-moment growth diagnostic, and the
    pooled-eigenvalue histogram.  Equal kinds use two independent copies.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    _check_size(n)
    idx_b = 2 if kind_a == kind_b else 1
    pooled = []
    moments = np.zeros((reps, kmax))
    for rep in range(reps):
        a = sample_matrix(kind_a, n, dist, substream(seed, rep, kind_a, 1))
        b = sample_matrix(kind_b, n, dist, substream(seed, rep, kind_b, idx_b))
        m = (a + b) / np.sqrt(n)
        eigs = eigenvalues_symmetric(m)
        pooled.append(eigs)
        moments[rep] = [float((eigs**k).mean()) for k in range(1, kmax + 1)]
    beta = tuple(float(x) for x in moments.mean(axis=0))
    all_eigs = np.concatenate(pooled)
    centered = all_eigs - all_eigs.mean()
    m2 = float((centered**2).mean())
    skew = float((centered**3).mean() / m2**1.5) if m2 > 0 else 0.0
    odd = max(abs(beta[k - 1]) for k in range(1, kmax + 1, 2))
    growth = tuple(beta[2 * k - 1] ** (1.0 / (2 * k)) for k in range(1, kmax // 2 + 1))
    nondec = all(growth[i] <= growth[i + 1] + 1e-12 for i in range(len(growth) - 1))
    return SumReport(
        kind_a, kind_b, n, reps, seed, esd(all_eigs, bins=bins),
        beta, skew, abs(skew) <= 0.1, odd, growth, nondec,
    )
