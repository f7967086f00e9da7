"""Symmetric eigensolving, empirical spectral distributions, and sum-ensemble reports.

Eigenvalues come from the LAPACK backend (numpy's eigvalsh).  The test
suite checks them against an exact determinant oracle and a cyclic
Jacobi reference implementation kept beside the other oracles.

A sum of two R or S members needs no solve: with d the summed S spectra
and a the summed R spectra (the DFTs of their first rows), each pair of
modes m != -m gives the eigenvalues d_m +- |a_m|, and each m = -m (m = 0,
and m = n/2 for even n) gives d_m + Re a_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linkfns import InputDistribution, LinkKind
from .sampler import _FOURIER_KINDS, _check_size, _circulant_spectrum, sample_matrix, substream

ESD_PADDING = 0.01
# the shape of every sum report: histogram bins, and moments beta_1..beta_REPORT_MOMENTS
DEFAULT_BINS = 50
REPORT_MOMENTS = 6
# relative asymmetry, against the largest entry, that an input may carry
_SYMMETRY_TOL = 1e-10


def eigenvalues_symmetric(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix of size <= sampler.DEFAULT_SIZE_CAP.

    The eigenvalue sum matches the trace, and the sum of squares the
    squared Frobenius norm, to 1e-8 * |M|_F (checked by the test suite).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    _check_size(A.shape[0])
    # max|A|, which must be finite, and max|A - A.T| through one scratch buffer, freed before the solve
    buf = np.abs(A)
    scale = buf.max() or 1.0
    if not np.isfinite(scale):
        raise FloatingPointError("matrix has a non-finite entry")
    np.abs(np.subtract(A, A.T, out=buf), out=buf)
    if buf.max() > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    del buf
    # LAPACK's symmetric solvers return the eigenvalues in ascending order
    return np.linalg.eigvalsh(A)


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram; sum(density * width) == 1."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray


def esd(values: Union[np.ndarray, Sequence[float]]) -> Histogram:
    """Empirical spectral distribution of eigenvalues as a density histogram.

    DEFAULT_BINS equal bins span [min, max], widened on each side by
    ESD_PADDING times the span.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    if span == 0.0:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = lo - ESD_PADDING * span, hi + ESD_PADDING * span
    counts, edges = np.histogram(arr, bins=DEFAULT_BINS, range=(lo, hi))
    total = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (total * widths)
    return Histogram(edges, counts, density)


@dataclass(frozen=True)
class SumReport:
    """Averaged spectral report for the scaled sum of two ensemble members."""

    histogram: Histogram
    beta: tuple[float, ...]  # beta[k-1] is the k-th averaged ESD moment
    skewness: float
    symmetric: bool  # |skewness| within 0.1
    odd_moment_max: float
    growth: tuple[float, ...]  # beta_{2k}^{1/2k} for k = 1..REPORT_MOMENTS//2
    growth_nondecreasing: bool


def _fourier_sum_eigenvalues(summands, n: int, dist: InputDistribution) -> np.ndarray:
    """Ascending eigenvalues of the scaled sum of R and S members, (kind, rng) pairs.

    With d the summed S spectra and a the summed R spectra of
    sampler._circulant_spectrum, the sum maps the pair f_m, f_(-m) by
    [[d_m, a_m], [conj(a_m), d_m]], so m != -m gives d_m +- |a_m|, and
    m = -m (m = 0 and, for even n, m = n/2) gives d_m + Re a_m.
    """
    d = np.zeros(n)
    a = np.zeros(n, dtype=complex)
    for kind, rng in summands:
        spectrum = _circulant_spectrum(kind, n, dist, rng)
        if kind is LinkKind.SYMMETRIC_CIRCULANT:
            d += spectrum
        else:
            a += spectrum
    pairs = np.arange(1, (n + 1) // 2)  # one m of each pair m != -m
    fixed = [0, n // 2] if n % 2 == 0 else [0]
    modulus = np.abs(a[pairs])
    eigs = np.concatenate((d[pairs] - modulus, d[pairs] + modulus, d[fixed] + a[fixed].real))
    eigs /= np.sqrt(n)
    eigs.sort()
    return eigs


def sum_lsd_report(
    kind_a: LinkKind,
    kind_b: LinkKind,
    n: int,
    dist: InputDistribution,
    reps: int,
    seed: int = 0,
) -> SumReport:
    """Averaged ESD of (A + B)/sqrt(n) over independent replicate pairs.

    Reports the empirical moments beta_k for k <= REPORT_MOMENTS, the
    vanishing check on odd moments, the even-moment growth diagnostic, and
    the pooled-eigenvalue histogram in DEFAULT_BINS bins.  Equal kinds use
    two independent copies.  Two kinds of R and S take their eigenvalues
    in closed form from _fourier_sum_eigenvalues; any other sum is solved
    densely, and a replicate's sum is overwritten by the next replicate's
    A, so at most the sum and one B are held at once.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_size(n)
    idx_b = 2 if kind_a == kind_b else 1
    fourier = {kind_a, kind_b} <= _FOURIER_KINDS
    pooled = []
    moments = np.zeros((reps, REPORT_MOMENTS))
    m = None
    for rep in range(reps):
        rng_a, rng_b = substream(seed, rep, kind_a, 1), substream(seed, rep, kind_b, idx_b)
        if fourier:
            eigs = _fourier_sum_eigenvalues(((kind_a, rng_a), (kind_b, rng_b)), n, dist)
        else:
            # (A + B)/sqrt(n) in A's buffer, which every replicate reuses; B is freed as soon as it is added
            m = sample_matrix(kind_a, n, dist, rng_a, out=m)
            m += sample_matrix(kind_b, n, dist, rng_b)
            m /= np.sqrt(n)
            eigs = eigenvalues_symmetric(m)
        pooled.append(eigs)
        moments[rep] = [float((eigs**k).mean()) for k in range(1, REPORT_MOMENTS + 1)]
    beta = tuple(float(x) for x in moments.mean(axis=0))
    all_eigs = np.concatenate(pooled)
    centered = all_eigs - all_eigs.mean()
    m2 = float((centered**2).mean())
    skew = float((centered**3).mean() / m2**1.5) if m2 > 0 else 0.0
    odd = max(abs(beta[k - 1]) for k in range(1, REPORT_MOMENTS + 1, 2))
    growth = tuple(beta[k - 1] ** (1.0 / k) for k in range(2, REPORT_MOMENTS + 1, 2))
    nondec = all(growth[i] <= growth[i + 1] + 1e-12 for i in range(len(growth) - 1))
    return SumReport(esd(all_eigs), beta, skew, abs(skew) <= 0.1, odd, growth, nondec)
