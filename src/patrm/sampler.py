"""Random realizations of the five ensembles and Monte Carlo trace moments.

Matrices are stored unscaled (the 1/sqrt(n) normalization is applied at
use sites, and traces divide by n^(1+k/2) exactly once).  Each matrix
draws one input value per distinct link value, from an RNG substream
derived from (master seed, replicate, kind, copy index), so results are
reproducible independently of evaluation order.

A word whose letters are all R or S is traced in the Fourier basis
f_m = (w^(jm))_j, w = exp(2 pi i / n), with no n x n array: each letter
draws the first row that sample_matrix would fill, and h = np.fft.fft of
it gives its action, S f_m = h_m f_m and R f_m = conj(h_m) f_(-m).  The
trace sums, over the modes that the word returns to themselves, the
product of the letters' weights, in O(k n + n log n) a replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import Monomial
from .linkfns import ALL_KINDS, InputDistribution, LinkKind

DEFAULT_SIZE_CAP = 1200
_KIND_CODE = {kind: i for i, kind in enumerate(ALL_KINDS)}
# the kinds that the discrete Fourier transform diagonalises up to the mode reversal m -> -m
_FOURIER_KINDS = frozenset({LinkKind.REVERSE_CIRCULANT, LinkKind.SYMMETRIC_CIRCULANT})


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds cap {DEFAULT_SIZE_CAP}")


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate of a normalized trace moment over independent replicates."""

    mean: float
    stddev: float


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence of the master seed taken mod 2^64, followed by key.

    The package's one seed derivation: simulations key it by (replicate,
    kind, copy), Monte Carlo volumes by their case polytope, written as
    non-negative ints (see limits._polytope_volume_mc).  The key goes in as
    one uint32 array, the same entropy words as the plain list
    [seed, *key] at a quarter of the cost, since numpy coerces a list
    entry by entry.
    """
    return np.random.SeedSequence([master_seed & ((1 << 64) - 1), np.array(key, dtype=np.uint32)])


def substream(master_seed: int, replicate: int, kind: LinkKind, index: int) -> np.random.Generator:
    """Deterministic RNG for one (replicate, kind, copy) triple."""
    return np.random.default_rng(seed_sequence(master_seed, replicate, _KIND_CODE[kind], index))


def _circulant_row(kind: LinkKind, n: int, dist: InputDistribution, rng: np.random.Generator) -> np.ndarray:
    """First row of an unscaled R member, x[(i + j) mod n], or S member, c[(j - i) mod n].

    R draws its n values in row order.  S draws n // 2 + 1 values, one per
    circulant distance min(d, n - d) of d = 0..n-1, so c[d] = c[n - d].
    """
    if kind is LinkKind.REVERSE_CIRCULANT:
        return dist.draw(rng, n)
    d = np.arange(n)
    return dist.draw(rng, n // 2 + 1)[np.minimum(d, n - d)]


def _circulant_spectrum(kind: LinkKind, n: int, dist: InputDistribution, rng: np.random.Generator) -> np.ndarray:
    """The DFT of the first row that sample_matrix(kind, ...) would fill from rng.

    With f_m = (w^(jm))_j, w = exp(2 pi i / n), and h = np.fft.fft(row):
    S maps f_m to h_m f_m, and h is real (c is symmetric), so its real
    part is returned; R maps f_m to conj(h_m) f_(-m) and f_(-m) to h_m f_m.
    """
    spectrum = np.fft.fft(_circulant_row(kind, n, dist, rng))
    return spectrum.real if kind is LinkKind.SYMMETRIC_CIRCULANT else spectrum


def sample_matrix(
    kind: LinkKind,
    n: int,
    dist: InputDistribution,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unscaled n x n member: one input value per distinct link value.

    The draws and their cells are those of the key grid gather
    ``dist.draw(rng, size)[keys]`` of ``linkfns.lvalue_key_grid``, but no
    fill builds the grid.  W lays its n(n+1)/2 draws row by row over the
    upper triangle, the grid's slot order, and mirrors each row into its
    column.  T, H, R and S are constant along (anti-)diagonals, so each is
    the window view ``u[i + j]`` of one short vector u, copied.  Given an
    n x n float64 ``out``, the same draws overwrite every cell of it and
    it is returned; otherwise a new array is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if out is None:
        out = np.empty((n, n))
    elif out.shape != (n, n) or out.dtype != np.float64:
        raise ValueError(f"out must be an {n} x {n} float64 array")
    if kind is LinkKind.WIGNER:
        draws = dist.draw(rng, n * (n + 1) // 2)
        start = 0
        for r in range(n):
            row = draws[start : start + n - r]
            out[r, r:] = row
            out[r:, r] = row
            start += n - r
        return out
    if kind is LinkKind.HANKEL:
        window = sliding_window_view(dist.draw(rng, 2 * n - 1), n)
    elif kind is LinkKind.REVERSE_CIRCULANT:
        v = _circulant_row(kind, n, dist, rng)
        window = sliding_window_view(np.concatenate((v, v[:-1])), n)
    else:
        v = dist.draw(rng, n) if kind is LinkKind.TOEPLITZ else _circulant_row(kind, n, dist, rng)
        # row i of the reversed view is v[|j - i|] (T) or v[min(|j - i|, n - |j - i|)] (S)
        window = sliding_window_view(np.concatenate((v[:0:-1], v)), n)[::-1]
    np.copyto(out, window)
    return out


def _fourier_trace(letters: list, n: int, dist: InputDistribution, seed: int, rep: int) -> float:
    """Unscaled trace of one replicate of a word whose letters are all R or S.

    Walks the letters right to left on every mode f_m at once, multiplying
    the per-mode weights of _circulant_spectrum: S keeps the mode, and R
    sends it to its negative.  The trace sums the modes that return to
    themselves: all of them after an even number of R letters, else m = 0
    and, for even n, m = n/2.
    """
    spectra = {x: _circulant_spectrum(x[0], n, dist, substream(seed, rep, *x)) for x in dict.fromkeys(letters)}
    weight = np.ones(n, dtype=complex)
    negated = False  # whether the walk now sits at f_(-m)
    for x in reversed(letters):
        h = spectra[x]
        if x[0] is LinkKind.REVERSE_CIRCULANT:
            weight *= h if negated else h.conj()
            negated = not negated
        else:
            weight *= h
    if negated:
        weight = weight[[0, n // 2]] if n % 2 == 0 else weight[:1]
    return float(weight.sum().real)


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
    only.  A word of R and S letters alone takes the Fourier route of
    _fourier_trace instead.  n above DEFAULT_SIZE_CAP is rejected before
    any matrix or first row is drawn.

    Each replicate walks the factors left to right and holds only the
    matrices it still needs: a letter is drawn at its first factor and
    freed after its last, and a partial product once the next replaces
    it.  Freed n x n buffers go to a list that every replicate of the call
    draws and multiplies into, so no replicate allocates anew.  Allocating
    each buffer afresh gives the same values but runs the dense moments
    measurably slower, so the list stays.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_size(n)
    k = len(q)
    h = k // 2
    scale = float(n) ** (1 + k / 2)
    letters = list(q.letters)
    if {kind for kind, _ in letters} <= _FOURIER_KINDS:
        return np.array([_fourier_trace(letters, n, dist, seed, rep) for rep in range(reps)]) / scale
    rotations = (letters[r:] + letters[:r] for r in range(k))
    word = next((w for w in rotations if h and w[h:] in (w[:h], w[h - 1 :: -1])), letters)
    one_half = h and word[h:] in (word[:h], word[h - 1 :: -1])
    walk = word[:h] if one_half else word
    starts = (0,) if one_half else (0, h)
    last = {x: i for i, x in enumerate(walk)}
    free: list[np.ndarray] = []  # n x n buffers that no value holds

    def take() -> np.ndarray:
        return free.pop() if free else np.empty((n, n))

    out = np.empty(reps)
    for rep in range(reps):
        mats: dict[tuple[LinkKind, int], np.ndarray] = {}  # drawn letters still to be read
        halves: list[np.ndarray] = []
        for i, x in enumerate(walk):
            if x not in mats:
                mats[x] = sample_matrix(x[0], n, dist, substream(seed, rep, *x), out=take())
            m = mats.pop(x) if i == last[x] else mats[x]
            if i in starts:
                if i:
                    halves.append(acc)
                acc = m
                continue
            prev, acc = acc, np.matmul(acc, m, out=take())
            for a in (prev, m):  # to the list once, when nothing reads it any more
                if not any(a is b for b in (*mats.values(), *halves, *free)):
                    free.append(a)
        halves.append(acc)
        if k == 1:
            tr = float(np.trace(acc))
        else:
            left, right = halves if len(halves) == 2 else (acc, acc if word[h:] == word[:h] else acc.T)
            halves.append(np.multiply(left, right.T, out=take()))
            tr = float(halves[-1].sum())
        free += halves
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
