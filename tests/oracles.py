"""Independent brute-force oracles for the test suite.

Everything here is written from the raw definitions, separately from the
package's solving/enumeration machinery: link values are inlined per
formula, circuit counts come from full O(n^word_length) grids, matchings
from itertools, determinants from exact fraction elimination, eigenvalues
from cyclic Jacobi rotations, affine case systems from one position walk
per case over the package's relation table, exact word volumes from
finite differences of the package's exact circuit counts (which the
brute-force counts check), Monte Carlo case volumes from the earlier
single-threaded kernel, patterned matrices from a key grid gather,
trace moments from a left-to-right product chain, the spectra of
sums from dense eigensolves, and word volumes from two identities that
the exact route does not use: the Wigner cut, and the volumes of words
with H or R letters from their reflections.  It also holds the test
helpers that enumerate monomials and rotate monomials and words, the
trace-factorization and trace-moment concentration checks of acceptance
criteria C9 and C8, and the traced allocation peak of one call.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from patrm.algebra import ColoredWord, Monomial, canonical_letters
from patrm.limits import (
    _CASE_RELATIONS,
    DEFAULT_BUDGET,
    ConstraintSystem,
    VolumeEstimate,
    count_circuits_exact,
    p_limit_cached,
)
from patrm.linkfns import LinkKind, lvalue_key_grid
from patrm.sampler import InputDistribution, substream, trace_moment_samples


def lvalue_grid(kind_char: str, n: int, a, b):
    """Link value of edge (a, b), encoded injectively; independent formulas."""
    if kind_char == "T":
        return np.abs(a - b)
    if kind_char == "H":
        return a + b
    if kind_char == "R":
        return (a + b) % n
    if kind_char == "S":
        d = np.abs(a - b) % n
        return np.minimum(d, n - d)
    if kind_char == "W":
        return np.minimum(a, b) * n + np.maximum(a, b)
    raise ValueError(kind_char)


def all_monomials(kinds, length: int, indices=(1,)) -> list[Monomial]:
    """Every monomial of the given length over the kind/index alphabet."""
    alphabet = [(k, i) for k in kinds for i in indices]
    return [Monomial(tuple(c)) for c in itertools.product(alphabet, repeat=length)]


def rotate_monomial(q: Monomial, shift: int) -> Monomial:
    """The monomial with its letters shifted left by `shift`, modulo its length."""
    shift %= len(q)
    return Monomial(q.letters[shift:] + q.letters[:shift])


def cyclic_rotate(w: ColoredWord, shift: int) -> ColoredWord:
    """Word with positions shifted left by `shift`, re-canonicalized.

    Its monomial is the same rotation of the original monomial.
    """
    n = len(w)
    if not 0 <= shift < n:
        raise ValueError(f"shift must be in [0, {n})")
    letters = tuple(w.letters[(i + shift) % n] for i in range(n))
    colors = tuple(w.colors[(i + shift) % n] for i in range(n))
    indices = tuple(w.indices[(i + shift) % n] for i in range(n))
    return ColoredWord(canonical_letters(letters), colors, indices)


@dataclass(frozen=True)
class DecayRow:
    n: int
    value: float


def trace_factorization_check(
    kind: LinkKind,
    powers: Sequence[int],
    n_list: Sequence[int],
    dist: InputDistribution,
    reps: int,
    seed: int = 0,
) -> list[DecayRow]:
    """Covariance-style gap E[prod tr X^k_i] - prod E[tr X^k_i] per size.

    All traces are of powers of one scaled matrix: every power draws the
    same matrix per replicate, from substream(seed, rep, kind, 1).  The gap
    vanishes as n grows when the ensemble's spectral moments concentrate.
    """
    if len(powers) < 2:
        raise ValueError("need at least two powers")
    rows = []
    for n in n_list:
        per_power = np.column_stack(
            [trace_moment_samples(Monomial(((kind, 1),) * p), n, dist, reps, seed) for p in powers]
        )
        gap = float(per_power.prod(axis=1).mean() - per_power.mean(axis=0).prod())
        rows.append(DecayRow(int(n), gap))
    return rows


def concentration_check(
    q: Monomial,
    n_list: Sequence[int],
    dist: InputDistribution,
    reps: int,
    seed: int = 0,
) -> tuple[list[DecayRow], float]:
    """Fourth central moment of the normalized trace moment per size.

    Returns the per-size values and the fitted log-log slope against n
    (concentration at rate n^-2 shows up as a slope near -2).
    """
    if reps < 50:
        raise ValueError("need reps >= 50 for a usable fourth-moment estimate")
    rows = []
    for n in n_list:
        vals = trace_moment_samples(q, n, dist, reps, seed)
        m4 = float(((vals - vals.mean()) ** 4).mean())
        rows.append(DecayRow(int(n), m4))
    xs = np.log([r.n for r in rows])
    ys = np.log([max(r.value, 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


def traced_peak_bytes(call) -> int:
    """Peak bytes traced by tracemalloc during call(), after one untraced warm-up call.

    numpy reports its array data to tracemalloc, so the peak counts every
    array the call allocates, exactly, whatever the machine's load.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def word_pairs(word_text: str) -> list[tuple[int, int]]:
    first: dict[str, int] = {}
    pairs = []
    for pos, ch in enumerate(word_text, start=1):
        if ch in first:
            pairs.append((first.pop(ch), pos))
        else:
            first[ch] = pos
    if first:
        raise ValueError("word is not pair-matched")
    return sorted(pairs)


def circuit_count_bruteforce(word_text: str, colors_text: str, n: int) -> int:
    """|{circuits pi: matched positions carry equal link values}| by full enumeration."""
    length = len(word_text)
    pairs = word_pairs(word_text)
    for i, j in pairs:
        if colors_text[i - 1] != colors_text[j - 1]:
            return 0
    grids = np.meshgrid(*[np.arange(n)] * length, indexing="ij", sparse=True)
    verts = list(grids) + [grids[0]]  # closure pi(2k) = pi(0) by construction
    mask = np.ones((), dtype=bool)
    for i, j in pairs:
        kc = colors_text[i - 1]
        li = lvalue_grid(kc, n, verts[i - 1], verts[i])
        lj = lvalue_grid(kc, n, verts[j - 1], verts[j])
        mask = mask & (li == lj)
    return int(np.broadcast_to(mask, (n,) * length).sum())


def matchings_bruteforce(keys: list) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of positions with equal keys (0-based positions)."""
    m = len(keys)
    if m % 2:
        return []
    out = []

    def rec(avail: tuple[int, ...], acc):
        if not avail:
            out.append(tuple(sorted(acc)))
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            if keys[a] == keys[b]:
                rec(avail[1:idx] + avail[idx + 1 :], acc + ((a, b),))

    rec(tuple(range(m)), ())
    return out


def noncrossing_matchings_bruteforce(m: int) -> list[tuple[tuple[int, int], ...]]:
    """All matchings of {1..m} without a < c < b < d crossings, by filtering."""
    res = []
    for match in matchings_bruteforce([0] * m):
        shifted = tuple((a + 1, b + 1) for a, b in match)
        crossing = any(
            a < c < b < d or c < a < d < b
            for (a, b), (c, d) in itertools.combinations(shifted, 2)
        )
        if not crossing:
            res.append(shifted)
    return res


def resolve_case_reference(word_text: str, colors_text: str, case: tuple):
    """One case's affine system by a fresh walk over every position.

    Returns (gen_positions, dep_forms, equalities) with each form a plain
    (coeffs, const) tuple.  The only package input is the relation table
    _CASE_RELATIONS, whose rows test_limits checks against the link
    functions themselves: at a second occurrence s of the match (f, s),
    label c names the row (prev, va, vb, shift) of index c, which gives
    v_s = prev v_{s-1} + va v_{f-1} + vb v_f + shift, and a Wigner match
    also identifies v_{s-1} with v_{f-1} + v_f - v_s.
    """
    pairs = word_pairs(word_text)
    gen_positions = tuple([0] + [f for f, _ in pairs])
    dim = len(gen_positions)
    forms = {pos: (tuple(int(i == slot) for i in range(dim)), 0) for slot, pos in enumerate(gen_positions)}
    label_of = {s: case[idx] for idx, (_, s) in enumerate(pairs)}
    first_of = {s: f for f, s in pairs}

    def linear(terms, shift):
        coeffs, const = [0] * dim, shift
        for weight, (form_coeffs, form_const) in terms:
            for i, c in enumerate(form_coeffs):
                coeffs[i] += weight * c
            const += weight * form_const
        return tuple(coeffs), const

    dep, equalities = [], []
    for pos in range(1, len(word_text) + 1):
        if pos not in first_of:
            continue
        f = first_of[pos]
        kind = LinkKind(colors_text[pos - 1])
        prev, va, vb, shift = _CASE_RELATIONS[kind][label_of[pos]]
        form = linear([(prev, forms[pos - 1]), (va, forms[f - 1]), (vb, forms[f])], shift)
        if kind is LinkKind.WIGNER:
            equalities.append((forms[pos - 1], linear([(1, forms[f - 1]), (1, forms[f]), (-1, form)], 0)))
        forms[pos] = form
        dep.append((pos, form))
    return gen_positions, tuple(dep), tuple(equalities)


def volume_from_odd_counts(w: ColoredWord, budget: int = DEFAULT_BUDGET) -> Fraction:
    """A word's volume read off its exact circuit counts at odd n.

    Over odd n the count of a word with a surviving constraint system is a
    polynomial of degree <= k+1 whose leading coefficient is the volume:
    the (k+1)-th finite difference at step 2 is (k+1)! 2^(k+1) times it.
    The counts are taken at n = 2k+5, 2k+3, ..., 1, largest first, so an
    over-budget request fails at once; the spare point checks the fit
    (ArithmeticError if not).  Only odd n: even-n counts of words that mix
    T and S have period 4 in n.  The word must have a surviving system:
    without one the counts need not be a polynomial, and 48 of the 1470
    length-8 {W,T} words, abcabcdd/WTTWTTSS among them, fail the fit.
    """
    k = len(w) // 2
    diffs = [count_circuits_exact(w, n, budget=budget) for n in range(2 * k + 5, 0, -2)]
    for _ in range(k + 1):
        diffs = [a - b for a, b in zip(diffs, diffs[1:])]
    if diffs[0] != diffs[1]:
        raise ArithmeticError(f"circuit counts of {w.text} are not a degree-{k + 1} polynomial in odd n")
    return Fraction(diffs[0], math.factorial(k + 1) * 2 ** (k + 1))


def _position_pairs(w: ColoredWord) -> list[tuple[int, int]]:
    """The (first, second) 0-based positions of each letter of a pair-matched word."""
    return [(f - 1, s - 1) for f, s in word_pairs(w.text)]


def _subword(w: ColoredWord, positions) -> ColoredWord:
    letters = canonical_letters(tuple(w.letters[p] for p in positions))
    return ColoredWord(letters, tuple(w.colors[p] for p in positions), tuple(w.indices[p] for p in positions))


def wigner_cut_volume(w: ColoredWord) -> Fraction:
    """A word's exact volume by cutting it at its Wigner pairs.

    Asymptotic freeness word by word: p(w) = 0 if a W pair crosses any
    other pair; otherwise a W pair (f, s) splits w into its inside
    w[f+1..s-1] and its outside, the rest of w without the pair, both
    closed words, and p(w) = p(inside) p(outside), the empty word counting
    1.  The pieces with no W pair are integrated by p_limit_cached.  A
    letter pairing two kinds indexes no circuit: 0.
    """
    if not w.letters:
        return Fraction(1)
    if not w.is_color_consistent():
        return Fraction(0)
    pairs = _position_pairs(w)
    cuts = [(f, s) for f, s in pairs if w.colors[f] is LinkKind.WIGNER]
    if not cuts:
        return p_limit_cached(w, "exact").value
    if any(f < a < s < b or a < f < b < s for f, s in cuts for a, b in pairs):
        return Fraction(0)
    f, s = cuts[0]
    inside = _subword(w, range(f + 1, s))
    outside = _subword(w, [*range(f), *range(s + 1, len(w))])
    return wigner_cut_volume(inside) * wigner_cut_volume(outside)


# the reversal kinds, each read as the difference kind it becomes under reflection
_REFLECTED = {LinkKind.HANKEL: LinkKind.TOEPLITZ, LinkKind.REVERSE_CIRCULANT: LinkKind.SYMMETRIC_CIRCULANT}


def reflection_volume(w: ColoredWord) -> Fraction:
    """A word's exact volume from the volume of its reflection, which has no H or R letter.

    H and R are the reversal kinds; each position has the parity of the
    number of H or R letters before it.  p(w) = 0 when an H or R pair
    joins two positions of equal parity; otherwise p(w) = p(w'), where w'
    reads every H as T and every R as S and keeps the letters, copies and
    W letters, and p(w') comes from p_limit_cached.  For an all-H word
    this is p_H(w) = p_T(w) when each pair joins an odd and an even
    position.  A letter pairing two kinds indexes no circuit: 0.
    """
    if not w.is_color_consistent():
        return Fraction(0)
    parity, odd = [], False
    for kind in w.colors:
        parity.append(odd)
        odd ^= kind in _REFLECTED
    if any(w.colors[f] in _REFLECTED and parity[f] == parity[s] for f, s in _position_pairs(w)):
        return Fraction(0)
    colors = tuple(_REFLECTED.get(kind, kind) for kind in w.colors)
    return p_limit_cached(ColoredWord(w.letters, colors, w.indices), "exact").value


def catalan_number(k: int) -> int:
    out = 1
    for i in range(k):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def determinant_exact(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact fraction Gaussian elimination with pivoting."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


class JacobiConvergenceError(RuntimeError):
    """Sweep budget exhausted; carries the relative off-diagonal residual."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(f"no convergence after {sweeps} sweeps; relative residual {residual:.3e}")


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


def jacobi_eigenvalues(M, tol: float = 1e-10, max_sweeps: int = 50) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    One sweep visits every off-diagonal pair once, in rounds of disjoint
    rotations applied simultaneously (parallel ordering, exact rotation
    formulas).  Stops when off(A)_F <= tol * |A|_F; raises
    JacobiConvergenceError with the residual otherwise.
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
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


# block size of the reference kernel; 10^6 samples are one block
_REFERENCE_CHUNK = 1 << 21


def case_volume_mc_reference(cs: ConstraintSystem, samples: int, seed) -> VolumeEstimate:
    """Single-threaded Monte Carlo case volume: one draw block, one temporary per form.

    The points cover only the coordinates that some form reads; the others
    are free in [0, 1) and integrate to 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not cs.identity_ok():
        return VolumeEstimate(0.0, 0.0)
    forms = cs.inequality_forms()
    if not forms:
        return VolumeEstimate(1.0, 0.0)
    for *coeffs, const in forms:
        # the form's range over the half-open unit cube
        lo = const + sum(c for c in coeffs if c < 0)
        hi = const + sum(c for c in coeffs if c > 0)
        if hi <= 0 or lo >= 1:
            return VolumeEstimate(0.0, 0.0)
    read = [i for i in range(cs.dim) if any(coeffs[i] for *coeffs, _ in forms)]
    vectors = [(np.array([coeffs[i] for i in read], dtype=float), float(const)) for *coeffs, const in forms]
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        block = min(remaining, _REFERENCE_CHUNK)
        pts = rng.random((block, len(read)))
        mask = np.ones(block, dtype=bool)
        for coeffs, const in vectors:
            y = pts @ coeffs + const
            mask &= (y >= 0.0) & (y < 1.0)
        hits += int(mask.sum())
        remaining -= block
    p = hits / samples
    stderr = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(p, stderr)


def sample_matrix_reference(kind: LinkKind, n: int, dist: InputDistribution, rng: np.random.Generator) -> np.ndarray:
    """Patterned matrix by gathering one flat vector of draws through the n x n key grid."""
    size, keys = lvalue_key_grid(kind, n)
    return dist.draw(rng, size)[keys]


def trace_moment_reference(q: Monomial, n: int, dist: InputDistribution, reps: int, seed: int) -> np.ndarray:
    """Normalized traces per replicate by one left-to-right product chain over the word.

    The last factor is folded into an elementwise contraction, as the
    sampler did before it contracted half products.
    """
    k = len(q)
    out = np.empty(reps)
    for rep in range(reps):
        mats = {
            (kind, index): sample_matrix_reference(kind, n, dist, substream(seed, rep, kind, index))
            for kind, index in set(q.letters)
        }
        seq = [mats[letter] for letter in q.letters]
        if k == 1:
            tr = float(np.trace(seq[0]))
        else:
            prod = seq[0]
            for m in seq[1:-1]:
                prod = prod @ m
            tr = float((prod * seq[-1].T).sum())
        out[rep] = tr / float(n) ** (1 + k / 2)
    return out


def sum_eigenvalues_reference(
    kind_a: LinkKind, kind_b: LinkKind, n: int, dist: InputDistribution, reps: int, seed: int
) -> list[np.ndarray]:
    """Per-replicate eigenvalues of (A + B)/sqrt(n) by a dense solve of the key grid gathers.

    A and B are drawn from the substreams that spectra.sum_lsd_report uses.
    """
    idx_b = 2 if kind_a == kind_b else 1
    out = []
    for rep in range(reps):
        m = sample_matrix_reference(kind_a, n, dist, substream(seed, rep, kind_a, 1))
        m = m + sample_matrix_reference(kind_b, n, dist, substream(seed, rep, kind_b, idx_b))
        out.append(np.linalg.eigvalsh(m / np.sqrt(n)))
    return out
