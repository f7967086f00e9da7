"""Symmetric eigensolving, empirical spectral distributions, and sum-ensemble reports.

The eigensolver ships two routes: a cyclic Jacobi reference implementation
(parallel ordering, exact rotation formulas, residual-carrying failure)
and a LAPACK backend used by default, since the Jacobi route is orders of
magnitude slower at the sizes the reports need.  Both are cross-checked in
the test suite against each other and an exact determinant oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linkfns import LinkKind
from .sampler import InputDistribution, sample_matrix, substream

DEFAULT_SIZE_CAP = 1200
DEFAULT_BINS = 50


class JacobiConvergenceError(RuntimeError):
    """Sweep budget exhausted; carries the relative off-diagonal residual."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(f"no convergence after {sweeps} sweeps; relative residual {residual:.3e}")


def _check_symmetric(M: np.ndarray, tol: float) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(A).max() or 1.0
    if np.abs(A - A.T).max() > max(tol, 1e-10) * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return A


def _rotation_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # circle-method schedule: n-1 rounds of disjoint index pairs covering
    # every off-diagonal pair exactly once per sweep
    players = list(range(n)) if n % 2 == 0 else list(range(n)) + [-1]
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps), np.asarray(qs)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_eigenvalues(
    M: np.ndarray, tol: float = 1e-10, max_sweeps: int = 50
) -> np.ndarray:
    """Cyclic Jacobi rotations until the off-diagonal Frobenius mass is gone.

    One sweep visits every off-diagonal pair once, in rounds of disjoint
    rotations applied simultaneously.  Stops when off(A)_F <= tol * |A|_F;
    raises JacobiConvergenceError with the residual otherwise.
    """
    A = _check_symmetric(M, tol)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    A = A.copy()
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return np.zeros(n)
    rounds = _rotation_rounds(n)
    diag_mask = np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # direct off-diagonal sum; a trace-subtraction formula would hit
        # cancellation noise around sqrt(eps)*|A|_F and stall convergence
        off = float(np.sqrt((np.where(diag_mask, 0.0, A) ** 2).sum()))
        if off <= tol * fro:
            return np.sort(np.diagonal(A).copy())
        for P, Q in rounds:
            apq = A[P, Q]
            hit = apq != 0.0
            if not hit.any():
                continue
            p, q, apq = P[hit], Q[hit], apq[hit]
            tau = (A[q, q] - A[p, p]) / (2.0 * apq)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[tau == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            cp, cq = A[:, p].copy(), A[:, q].copy()
            A[:, p] = c * cp - s * cq
            A[:, q] = s * cp + c * cq
            rp, rq = A[p, :].copy(), A[q, :].copy()
            A[p, :] = c[:, None] * rp - s[:, None] * rq
            A[q, :] = s[:, None] * rp + c[:, None] * rq
            A[p, q] = 0.0
            A[q, p] = 0.0
    off = float(np.sqrt((np.where(diag_mask, 0.0, A) ** 2).sum()))
    raise JacobiConvergenceError(off / fro, max_sweeps)


def eigenvalues_symmetric(
    M: np.ndarray,
    tol: float = 1e-10,
    method: str = "auto",
    max_sweeps: int = 50,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    method "auto" uses the LAPACK backend; "jacobi" runs the in-package
    reference rotation scheme honoring tol and max_sweeps.  The eigenvalue
    sum matches the trace, and the sum of squares the squared Frobenius
    norm, to 1e-8 * |M|_F (checked by the test suite).
    """
    A = _check_symmetric(M, tol)
    if A.shape[0] > size_cap:
        raise ValueError(f"matrix size {A.shape[0]} exceeds cap {size_cap}")
    if method == "jacobi":
        return jacobi_eigenvalues(A, tol=tol, max_sweeps=max_sweeps)
    if method in ("auto", "lapack"):
        return np.sort(np.linalg.eigvalsh(A))
    raise ValueError(f"unknown eigensolver method {method!r}")


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
    values_or_matrix: Union[np.ndarray, Sequence[float]],
    bins: int = DEFAULT_BINS,
    padding: float = 0.01,
) -> Histogram:
    """Empirical spectral distribution as a density histogram.

    Accepts either a symmetric matrix (eigendecomposed first) or a flat
    array of eigenvalues; bins span [min, max] padded by 1% on each side.
    """
    arr = np.asarray(values_or_matrix, dtype=float)
    if arr.ndim == 2:
        arr = eigenvalues_symmetric(arr)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    if span == 0.0:
        lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = lo - padding * span, hi + padding * span
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
    idx_b = 2 if kind_a == kind_b else 1
    pooled = []
    moments = np.zeros((reps, kmax))
    for rep in range(reps):
        a = sample_matrix(kind_a, 1, n, dist, substream(seed, rep, kind_a, 1)).entries
        b = sample_matrix(kind_b, idx_b, n, dist, substream(seed, rep, kind_b, idx_b)).entries
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
