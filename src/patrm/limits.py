"""Limit volumes of pair-matched words and monomial trace-moment limits.

The count of index circuits compatible with a word's match structure is,
per match, a finite union of affine-linear cases (sign choices for
Toeplitz, wrap offsets for the circulants, endpoint identifications for
Wigner).  Within one case every dependent vertex is an affine form with
integer coefficients over the generating vertices; the normalized count
then converges to the volume of a box slice.  All cases of a word are
resolved by one walk over its positions: each match branches over its
labels at its second occurrence, so cases sharing a prefix of matches
share that prefix's forms.  A prefix is dropped at a Wigner match whose
endpoint identification fails, since every case below it has volume
zero; the walk returns the other cases in build_cases order, each then
checked for closure alone.  A word's volume is the sum over its
surviving cases, evaluated by Monte Carlo, or exactly: each case is a
rational polytope in the unit box, whose volume is integrated one
coordinate at a time (Fourier-Motzkin) in integer and Fraction
arithmetic.  Words equal up to rotation and reversal have equal
volumes, so p_limit_cached integrates each such class through its
least member (dihedral_key), once per process for every monomial limit
of the run.  The Monte Carlo route returns 0 for a word in which a
Wigner pair crosses another pair before it walks the cases: by
asymptotic freeness such a word has volume 0 (the Wigner cut), and the
walk keeps no closing case of any such word the tests check; the exact
route still walks them.  Many systems, of one word or of many, are
one case polytope: with the coordinates no form reads dropped (each
is free in [0, 1) and integrates to 1) and each form f taken as the
lesser of f and 1 - f, their sorted distinct rows agree.  The Monte
Carlo route samples each such polytope once per sample count and seed
per process, from a stream keyed by the polytope, and a word's volume
and a monomial's limit are sums of those estimates weighted by
multiplicity; on the freeness sweep over {W, R} and {W, T} up to
length 8, 196 sampled systems are 12 polytopes.  The kernel draws the
points in fixed-size chunks into reused buffers, split over threads
that each jump to their own offset of the case's one PCG64 stream, so
its memory does not grow with the sample count and its estimate is the
same for any number of threads or any chunk size.  A chunk is 2^13
rows: a worker's buffers (points, form values, two masks) take 8 u + 10
bytes a row for a polytope over u coordinates, 400 KiB at u = 5, within
a core's L2 cache.  Larger chunks run no faster and raise an MC
process's peak RSS (2^15 rows: by about 3 MB at two threads); at 2^12
rows numpy's per-call overhead starts to show in wall time.

Every case relation has small integer coefficients, so all affine
arithmetic is exact integer arithmetic; the identity-or-measure-zero
dichotomy, for Wigner identifications in the walk and for closure per
case, is decided symbolically, never by tolerance.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

# no module-level numpy or sampler import: the Monte Carlo kernel, its seeds and the
# circuit counter import them in their bodies, so the exact route needs the
# standard library alone
from .algebra import (
    ColoredWord,
    Monomial,
    count_pairings,
    dihedral_key,
    drop_indices,
    enumerate_pair_matched_words,
    match_pairs,
    pairing_count_estimate,
)
from .linkfns import DELTA, LinkKind, solve_branch_grid

DEFAULT_MC_SAMPLES = 1_000_000
DEFAULT_BUDGET = 5_000_000_000
METHODS = ("mc", "exact")
# rows per Monte Carlo chunk, sized in the module docstring; the estimate does not depend on it
_MC_CHUNK = 1 << 13
# threads per sampled system, one per usable CPU; the estimate does not depend on it
_MC_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Per-kind link relations: one integer row (prev, va, vb, shift) per case,
# the case label being the row's index.  At a second occurrence s matched
# to the first occurrence f, a row is one branch of the link equation,
# v_s = prev v_{s-1} + va v_{f-1} + vb v_f + shift (a wrap by n is a shift
# of 1).  Toeplitz: v_{s-1} - v_s = +-(v_{f-1} - v_f).  Hankel: equal sums.
# Reverse Circulant: equal sums up to the wraps 0, 1, -1.  Symmetric
# Circulant: six sign/wrap combinations.  Wigner: straight or reversed
# endpoint identification, which also pins v_{s-1} (see resolve_affine).
# The row order fixes the case order, hence the order of a word's systems.
_CASE_RELATIONS: dict[LinkKind, tuple[tuple[int, int, int, int], ...]] = {
    LinkKind.TOEPLITZ: ((1, -1, 1, 0), (1, 1, -1, 0)),
    LinkKind.HANKEL: ((-1, 1, 1, 0),),
    LinkKind.REVERSE_CIRCULANT: tuple((-1, 1, 1, c) for c in (0, 1, -1)),
    LinkKind.SYMMETRIC_CIRCULANT: (
        (1, -1, 1, 0),
        (1, 1, -1, 0),
        (1, 1, -1, -1),
        (1, -1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, 1),
    ),
    LinkKind.WIGNER: ((0, 0, 1, 0), (0, 1, 0, 0)),
}


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or an exact integration would exceed the work budget."""


# An affine form over the d generating coordinates is one integer row
# (c_0, ..., c_{d-1}, b), standing for c . v + b; the exact integrator reads
# the same row as the half-space c . x + b >= 0.


def _coordinate(slot: int, dim: int) -> tuple[int, ...]:
    return tuple(int(i == slot) for i in range(dim + 1))


def _combine(weights, forms, shift: int) -> tuple[int, ...]:
    """The row sum(w * f for w, f in zip(weights, forms)) + shift."""
    (a, b, c), (x, y, z) = weights, forms
    row = [a * p + b * q + c * r for p, q, r in zip(x, y, z)]
    row[-1] += shift
    return tuple(row)


def _bare_coordinate(row: tuple[int, ...]) -> Optional[int]:
    """Slot index when the row is exactly one coordinate, else None."""
    if row[-1] != 0:
        return None
    nz = [(i, c) for i, c in enumerate(row[:-1]) if c != 0]
    if len(nz) == 1 and nz[0][1] == 1:
        return nz[0][0]
    return None


@dataclass(frozen=True)
class ConstraintSystem:
    """One case's affine description of all circuit vertices.

    dim counts the generating vertices: position 0 and the first
    occurrences.  rows holds, for every other position in order, the row
    (c_0, ..., c_{dim-1}, b) of ints standing for that vertex's affine
    form c . v + b over the generating coordinates.  The last row is the
    final vertex, which closes the circuit on vertex 0.  The Wigner
    identifications hold by construction: resolve_affine keeps no case
    whose identification fails.
    """

    dim: int
    rows: tuple[tuple[int, ...], ...]

    def identity_ok(self) -> bool:
        """True when the final vertex's form is exactly v0, i.e. the circuit closes identically."""
        return _bare_coordinate(self.rows[-1]) == 0

    def inequality_forms(self) -> list[tuple[int, ...]]:
        """Dependent forms that need a unit-interval check under sampling.

        Bare generating coordinates are already uniform on [0,1) and are
        skipped; the final vertex is pinned to v0 by the closure identity.
        Each distinct form is listed once, in first-occurrence order.
        """
        return list(dict.fromkeys(f for f in self.rows[:-1] if _bare_coordinate(f) is None))

    def canonical_key(self):
        return (self.dim, self.rows)


class VolumeEstimate(NamedTuple):
    """A word-volume value with its uncertainty: a float, or an exact Fraction with stderr 0."""

    value: float | Fraction
    stderr: float


def _match_relations(w: ColoredWord) -> list[tuple]:
    """Relation table of every match, in match_pairs order."""
    return [_CASE_RELATIONS[w.colors[f - 1]] for f, _ in match_pairs(w)]


def case_count(w: ColoredWord) -> int:
    """Number of cases of the word: the product of per-match relation counts."""
    return math.prod(len(rel) for rel in _match_relations(w))


def build_cases(w: ColoredWord) -> list[tuple[int, ...]]:
    """Cartesian product of per-match case labels (relation row indices), in match_pairs order."""
    return list(itertools.product(*(range(len(rel)) for rel in _match_relations(w))))


def resolve_affine(w: ColoredWord) -> list[ConstraintSystem]:
    """Systems of the cases that pass their Wigner identifications, in build_cases order.

    The second occurrences are taken in position order, and each extends
    every label prefix built so far by each label of its match, so a
    prefix's forms are computed once for all the cases that share it.  A
    first occurrence is a generating coordinate.  At a second occurrence
    s matched to first occurrence f, v_s is determined from v_{s-1},
    v_{f-1}, v_f by the label's relation row.  A Wigner label also pins
    v_{s-1}: the unordered edges {v_{s-1}, v_s} and {v_{f-1}, v_f}
    coincide, so v_{s-1} = v_{f-1} + v_f - v_s.  Both sides of that
    equality are final once formed, so a prefix whose two sides differ
    is dropped there, with every case below it.  Closure is left to
    identity_ok, and no prefix is dropped for a form whose range misses
    [0, 1).
    """
    pairs = match_pairs(w)
    relations = _match_relations(w)
    dim = len(pairs) + 1
    coords = {pos: _coordinate(slot, dim) for slot, pos in enumerate([0] + [f for f, _ in pairs])}
    # (second occurrence, first occurrence, match index) in position order
    steps = sorted((s, f, idx) for idx, (f, s) in enumerate(pairs))
    # (labels in step order, forms by position)
    prefixes = [((), (coords[0],))]
    resolved = 1  # positions with a form in every prefix
    for s, f, idx in steps:
        # the first occurrences since the last step, the same for every prefix
        gap = tuple(coords[pos] for pos in range(resolved, s))
        resolved = s + 1
        wigner = w.colors[s - 1] is LinkKind.WIGNER
        grown = []
        for labels, forms in prefixes:
            forms += gap
            prev, va, vb = forms[s - 1], forms[f - 1], forms[f]
            for label, (*weights, shift) in enumerate(relations[idx]):
                form = _combine(weights, (prev, va, vb), shift)
                if wigner and _combine((1, 1, -1), (va, vb, form), 0) != prev:
                    continue
                grown.append((labels + (label,), forms + (form,)))
        prefixes = grown
    # step slot of each match, to key the survivors by their labels in match order
    slot_of = sorted(range(len(steps)), key=lambda slot: steps[slot][2])
    systems = {
        tuple([labels[slot] for slot in slot_of]): ConstraintSystem(dim, tuple([forms[s] for s, _, _ in steps]))
        for labels, forms in prefixes
    }
    return [systems[case] for case in build_cases(w) if case in systems]


def _count_hits(state: dict, first: int, last: int, samples: int, vectors, dim: int) -> int:
    """Samples of chunks [first, last) that satisfy every inequality form.

    The points have dim coordinates, those the forms read.  Draws from a
    copy of the system's PCG64 stream jumped past the earlier chunks'
    draws (one 64-bit output per float64), so the points are those of one
    rng.random((samples, dim)) call, and reuses one buffer set.
    A form's test 0 <= y < 1 is floor(y) == 0, which holds for exactly the
    same y (-0.0 included, NaN excluded); the first form writes the mask.
    """
    import numpy as np

    bitgen = np.random.PCG64()
    bitgen.state = state
    gen = np.random.Generator(bitgen.advance(first * _MC_CHUNK * dim))
    pts = np.empty((_MC_CHUNK, dim))
    y = np.empty(_MC_CHUNK)
    mask = np.empty(_MC_CHUNK, dtype=bool)
    ok = np.empty(_MC_CHUNK, dtype=bool)
    hits = 0
    for chunk in range(first, last):
        block = samples - chunk * _MC_CHUNK
        if block < _MC_CHUNK:
            # the system's last chunk, the only one that can be short
            pts, y, mask, ok = pts[:block], y[:block], mask[:block], ok[:block]
        gen.random(out=pts)
        for i, (coeffs, const) in enumerate(vectors):
            np.matmul(pts, coeffs, out=y)
            if const:
                y += const
            np.floor(y, out=y)
            if i:
                np.equal(y, 0.0, out=ok)
                mask &= ok
            else:
                np.equal(y, 0.0, out=mask)
        hits += int(np.count_nonzero(mask))
    return hits


def case_volume_mc(cs: ConstraintSystem, samples: int, seed) -> VolumeEstimate:
    """Volume of one case by uniform sampling of the generating cube.

    A failed closure means the case sits on a proper affine subspace:
    exact zero, no sampling.  A provably empty box check (form's range
    disjoint from [0,1)) also short-circuits to exact zero.
    Otherwise a sample is a point of the unit cube over the coordinates
    that some form reads, the forms projected onto them: any other
    coordinate is free in [0, 1) and integrates to 1.  A system whose
    forms read every coordinate draws the points of the whole cube.  The
    samples are drawn in chunks of _MC_CHUNK, split into contiguous ranges
    over up to _MC_WORKERS threads; each range starts at its own offset of
    the one stream, so the estimate does not depend on the chunk size or
    the thread count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not cs.identity_ok():
        return VolumeEstimate(0.0, 0.0)
    forms = cs.inequality_forms()
    if not forms:
        return VolumeEstimate(1.0, 0.0)
    for row in forms:
        # the form's range over the half-open unit cube misses [0, 1)
        lo = row[-1] + sum(c for c in row[:-1] if c < 0)
        hi = row[-1] + sum(c for c in row[:-1] if c > 0)
        if hi <= 0 or lo >= 1:
            return VolumeEstimate(0.0, 0.0)
    import numpy as np

    read = [i for i in range(cs.dim) if any(row[i] for row in forms)]
    vectors = [(np.array([row[i] for i in read], dtype=float), float(row[-1])) for row in forms]
    state = np.random.default_rng(seed).bit_generator.state
    chunks = -(-samples // _MC_CHUNK)
    workers = min(_MC_WORKERS, chunks)
    # worker i takes chunks [bounds[i], bounds[i + 1])
    bounds = [chunks * i // workers for i in range(workers + 1)]
    counts = [None] * workers

    def work(slot: int) -> None:
        counts[slot] = _count_hits(state, bounds[slot], bounds[slot + 1], samples, vectors, len(read))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(1, workers)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    if None in counts:
        raise RuntimeError("a Monte Carlo worker thread failed")
    p = sum(counts) / samples
    stderr = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(p, stderr)


class BranchBudget:
    """Integration branches one p_limit call may take; charge() raises past the limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"exact integration needs more than {self.limit} branches, budget is {self.limit:.2e}"
            )


# A polynomial is a dict from exponent tuples over all d coordinates to coefficients.


def _reduced(row: tuple[int, ...]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries, so equal half-spaces get equal rows."""
    g = math.gcd(*row)
    return row if g <= 1 else tuple(c // g for c in row)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _bound(row: tuple[int, ...], j: int) -> dict:
    """The bound -(a . x + b - a_j x_j) / a_j that the row puts on x_j, as a polynomial."""
    d, a_j = len(row) - 1, row[j]
    poly = {
        tuple(int(t == i) for t in range(d)): Fraction(-c, a_j) for i, c in enumerate(row[:d]) if c and i != j
    }
    if row[d]:
        poly[(0,) * d] = Fraction(-row[d], a_j)
    return poly


def _integral_between(poly: dict, j: int, lower: dict, upper: dict) -> dict:
    """The integral of poly over x_j from lower to upper, both polynomials free of x_j."""
    top = max(e[j] for e in poly) + 1
    lower_pows, upper_pows = [None, lower], [None, upper]
    for _ in range(top - 1):
        lower_pows.append(_poly_mul(lower_pows[-1], lower))
        upper_pows.append(_poly_mul(upper_pows[-1], upper))
    out: dict = {}
    for exps, c in poly.items():
        e = exps[j] + 1
        rest = exps[:j] + (0,) + exps[j + 1:]
        coef = Fraction(c, e)
        for sign, pows in ((coef, upper_pows), (-coef, lower_pows)):
            for te, tc in pows[e].items():
                key = tuple(a + b for a, b in zip(te, rest))
                out[key] = out.get(key, 0) + sign * tc
    return {e: c for e, c in out.items() if c}


def case_volume_exact(cs: ConstraintSystem, budget: BranchBudget) -> Fraction:
    """Exact volume of one case, by integrating out one coordinate at a time.

    The case is the polytope of x in [0,1]^d with 0 <= f(x) <= 1 for each
    inequality form f, written as integer rows f >= 0 and 1 - f >= 0
    reduced by their gcd.  Each step drops the rows the unit box makes
    redundant, returns 0 where the box leaves a row empty or of measure
    zero, and integrates out the live coordinate with the fewest
    (lower x upper) bound pairs, counting the box's own bounds: for each
    pair, as the greatest lower and least upper bound, it adds the rows
    that order the bounds (Fourier-Motzkin), integrates the polynomial
    integrand between them and recurses.  Rows are kept as a set, so a
    bound is never paired twice; the tie sets of distinct bounds have
    measure zero.  Each step is memoized on its rows, live coordinates
    and integrand, and every pair taken is charged to the budget.
    A failed closure is exact zero, as under sampling.
    """
    if not cs.identity_ok():
        return Fraction(0)
    d = cs.dim
    rows = set()
    for f in cs.inequality_forms():
        rows.add(_reduced(f))
        rows.add(_reduced((*(-c for c in f[:d]), 1 - f[d])))
    memo: dict = {}

    def integrate(rows, live: tuple[int, ...], poly: dict) -> Fraction:
        kept = []
        for row in rows:
            # the row's least and greatest value over the unit box of the live coordinates
            least = row[d] + sum(row[i] for i in live if row[i] < 0)
            most = row[d] + sum(row[i] for i in live if row[i] > 0)
            if least >= 0:
                continue
            if most <= 0:
                return Fraction(0)
            kept.append(row)
        if not kept:
            return sum((Fraction(c, math.prod(e + 1 for e in exps)) for exps, c in poly.items()), Fraction(0))
        key = (frozenset(kept), live, frozenset(poly.items()))
        if key in memo:
            return memo[key]
        j = min(live, key=lambda i: (1 + sum(r[i] > 0 for r in kept)) * (1 + sum(r[i] < 0 for r in kept)))
        box = tuple(int(i == j) for i in range(d))
        lowers = [r for r in kept if r[j] > 0] + [(*box, 0)]
        uppers = [r for r in kept if r[j] < 0] + [(*(-c for c in box), 1)]
        rest = [r for r in kept if r[j] == 0]
        sub = tuple(i for i in live if i != j)
        total = Fraction(0)
        for low in lowers:
            # low's bound on x_j is at least each other lower row's: a row free of x_j
            low_rows = [
                tuple(low[j] * b - other[j] * a for a, b in zip(low, other)) for other in lowers if other is not low
            ]
            for high in uppers:
                budget.charge()
                new = rest + low_rows
                # high's bound is at most each other upper row's, and at least low's
                new += [
                    tuple(other[j] * a - high[j] * b for a, b in zip(high, other))
                    for other in uppers
                    if other is not high
                ]
                new.append(tuple(low[j] * b - high[j] * a for a, b in zip(low, high)))
                reduced = set()
                for r in new:
                    if any(r[:d]):
                        reduced.add(_reduced(r))
                    elif r[d] < 0:
                        break
                else:
                    inner = _integral_between(poly, j, _bound(low, j), _bound(high, j))
                    if inner:
                        total += integrate(reduced, sub, inner)
        memo[key] = total
        return total

    return integrate(rows, tuple(range(d)), {(0,) * d: 1})


def exact_count_work(w: ColoredWord, n: int) -> int:
    """Elementary-step estimate of the dynamic-construction enumeration."""
    pairs = match_pairs(w)
    patterns = 1
    for _, s in pairs:
        patterns *= DELTA[w.colors[s - 1]]
    return n ** (len(pairs) + 1) * patterns


def count_circuits_exact(w: ColoredWord, n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of circuits whose matched edges carry equal link values.

    One depth-first walk over the positions per start vertex; the other
    generating vertices are open grid axes.  A first occurrence adds its
    axis.  A second occurrence extends its prefix once per branch of its
    link equation (at most DELTA[kind]) whose mask of live cells is not
    empty, so each branch prefix is solved once.  The walk closes on the
    starting vertex.  Duplicate-free by construction.
    """
    if not w.is_pair_matched():
        raise ValueError("exact counting requires a pair-matched word")
    if not w.is_color_consistent():
        return 0
    if exact_count_work(w, n) > budget:
        raise BudgetExceededError(
            f"enumeration needs ~{exact_count_work(w, n):.2e} steps, budget is {budget:.2e}"
        )
    import numpy as np

    first_of = {s: f for f, s in match_pairs(w)}
    length, k = len(w), len(first_of)

    # one open grid axis per generating vertex other than vertex 0
    axes = dict(zip(sorted(first_of.values()), np.ix_(*[np.arange(n, dtype=np.int64)] * k)))

    total = 0
    for v0 in range(n):
        # (next position, vertex grids of positions 0..position-1, live mask)
        stack = [(1, (np.int64(v0),), True)]
        while stack:
            pos, vals, mask = stack.pop()
            if pos > length:
                total += int(np.broadcast_to(mask & (vals[length] == v0), (n,) * k).sum())
            elif pos not in first_of:
                stack.append((pos + 1, vals + (axes[pos],), mask))
            else:
                f = first_of[pos]
                kind = w.colors[pos - 1]
                for br in range(DELTA[kind]):
                    x, valid = solve_branch_grid(kind, n, vals[pos - 1], vals[f - 1], vals[f], br)
                    valid = mask & valid
                    if valid.any():
                        stack.append((pos + 1, vals + (x,), valid))
    return total


def _wigner_pair_crosses(w: ColoredWord) -> bool:
    """True when a Wigner pair (f, s) crosses another pair (a, b): f < a < s < b or a < f < b < s."""
    pairs = match_pairs(w)
    return any(
        f < a < s < b or a < f < b < s
        for f, s in pairs
        if w.colors[f - 1] is LinkKind.WIGNER
        for a, b in pairs
    )


def _closing_systems(w: ColoredWord) -> list[ConstraintSystem]:
    """The word's distinct systems that close identically, in build_cases order."""
    return list({cs.canonical_key(): cs for cs in resolve_affine(w) if cs.identity_ok()}.values())


def _polytope(cs: ConstraintSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(u, rows): a closing system's case polytope, as a key of equal-volume systems.

    The inequality forms restricted to the u coordinates they read, in
    order (a free coordinate integrates to 1), each replaced by the lesser
    of f and 1 - f (0 <= f < 1 and 0 < f <= 1 differ on a null set), the
    distinct rows sorted.
    """
    forms = cs.inequality_forms()
    read = [i for i in range(cs.dim) if any(f[i] for f in forms)]
    rows = {(*(f[i] for i in read), f[-1]) for f in forms}
    return len(read), tuple(sorted({min(r, (*(-c for c in r[:-1]), 1 - r[-1])) for r in rows}))


# (polytope, samples, seed) -> VolumeEstimate: each case polytope is sampled once per process
_MC_VOLUMES: dict = {}
# word -> its last _polytope_counts, which alpha_estimate reads back after p_limit_cached
_POLYTOPE_COUNTS: dict = {}


def _polytope_counts(w: ColoredWord) -> Counter:
    """Multiplicity of each _polytope among the word's closing systems; none past a crossing Wigner pair."""
    walk = w.is_color_consistent() and not _wigner_pair_crosses(w)
    counts = _POLYTOPE_COUNTS[w] = Counter(_polytope(cs) for cs in (_closing_systems(w) if walk else ()))
    return counts


def _polytope_volume_mc(key, samples: int, seed: int) -> VolumeEstimate:
    """case_volume_mc of one polytope, drawn from the stream of (seed, key), memoized per process."""
    est = _MC_VOLUMES.get((key, samples, seed))
    if est is None:
        u, rows = key
        est = VolumeEstimate(1.0, 0.0)
        if rows:
            from .sampler import seed_sequence

            # the key as non-negative ints: u, the row count, then each entry c as 2c or -2c - 1
            code = (u, len(rows), *(2 * c if c >= 0 else -2 * c - 1 for row in rows for c in row))
            est = case_volume_mc(ConstraintSystem(u, (*rows, _coordinate(0, u))), samples, seed_sequence(seed, *code))
        _MC_VOLUMES[key, samples, seed] = est
    return est


def _mc_sum(counts: dict, samples: int, seed: int) -> VolumeEstimate:
    """Sum of m * v over the counted polytopes, stderr sqrt(sum (m * sigma)^2): a repeat shares its error."""
    ests = [(m, *_polytope_volume_mc(key, samples, seed)) for key, m in counts.items()]
    return VolumeEstimate(sum((m * v for m, v, _ in ests), 0.0), math.sqrt(sum((m * s) ** 2 for m, _, s in ests)))


def _check_request(method: str, samples: int) -> float | Fraction:
    """Check a request; return its method's zero, Fraction(0) for "exact", 0.0 for "mc"."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return Fraction(0) if method == "exact" else 0.0


def p_limit(
    w: ColoredWord,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VolumeEstimate:
    """Limiting normalized circuit count of a pair-matched word.

    Zero when no deduplicated constraint system survives.  "mc": the
    sum of m * v over the distinct case polytopes (_polytope) of the
    surviving systems, m systems having the polytope of Monte Carlo
    volume v, with stderr sqrt(sum (m * sigma)^2), since the m systems
    share one estimate.  A polytope is sampled once per (samples, seed)
    per process, from sampler.seed_sequence(seed, *polytope), so its
    estimate does not depend on which word, monomial or command reached
    it.  A word in which a Wigner pair crosses another pair is 0 there
    before its cases are walked (the Wigner cut: the walk would keep no
    closing case).
    "exact": sum of the systems' exact volumes (case_volume_exact), with
    the integration branches of all of them charged against one budget,
    returned as that Fraction, stderr 0; a zero is Fraction(0) too.
    samples < 1 is a ValueError on either route, whatever the word.
    """
    zero = _check_request(method, samples)
    if not w.is_pair_matched():
        raise ValueError("p_limit requires a pair-matched word")
    if not w.is_color_consistent():
        # a letter pairs positions of different kinds: no circuit qualifies
        return VolumeEstimate(zero, 0.0)

    n_cases = case_count(w)
    if n_cases > budget:
        raise BudgetExceededError(f"word has {n_cases} affine cases, budget is {budget:.2e}")
    if method == "mc":
        return _mc_sum(_polytope_counts(w), samples, seed)
    systems = _closing_systems(w)
    if not systems:
        return VolumeEstimate(zero, 0.0)
    branches = BranchBudget(budget)
    return VolumeEstimate(sum((case_volume_exact(cs, branches) for cs in systems), zero), 0.0)


def alpha_bound(q: Monomial) -> float:
    """Universal bound on the monomial limit from the pairing count.

    Zero for odd length or when some copy index appears an odd number of
    times; otherwise the pairing count (k-1)!! = k! / ((k/2)! 2^{k/2})
    times Delta^{k/2}, with Delta the largest solution bound among the
    kinds present.
    """
    k = len(q)
    if k % 2:
        return 0.0
    counts: dict[int, int] = {}
    for _, idx in q.letters:
        counts[idx] = counts.get(idx, 0) + 1
    if any(c % 2 for c in counts.values()):
        return 0.0
    dmax = max(DELTA[kind] for kind, _ in q.letters)
    return float(count_pairings(k) * dmax ** (k // 2))


_P_CACHE: dict = {}


def p_limit_cached(
    w: ColoredWord,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VolumeEstimate:
    """p_limit memoized per process by the word and every argument.

    "exact" replaces the word with its dihedral_key, the least member of
    its class, so each class is integrated once per budget, through one
    member whatever the call order; its value, branches charged and
    BudgetExceededError depend only on the class and the request.
    """
    if method == "exact":
        w = dihedral_key(w)
    key = (w, method, samples, seed, budget)
    if key not in _P_CACHE:
        _P_CACHE[key] = p_limit(w, method, samples=samples, seed=seed, budget=budget)
    return _P_CACHE[key]


def pair_matched_words(q: Monomial, budget: int) -> list[ColoredWord]:
    """The monomial's pair-matched words, once their count fits the budget.

    The count is known in closed form, so an oversized monomial raises
    BudgetExceededError before any word is enumerated.
    """
    est_words = pairing_count_estimate(q)
    if est_words == 0:
        return []
    if est_words * len(q) > budget:
        raise BudgetExceededError(
            f"monomial has ~{est_words:.2e} pair-matched words, budget is {budget:.2e}"
        )
    return enumerate_pair_matched_words(q)


def alpha_estimate(
    q: Monomial,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VolumeEstimate:
    """(value, stderr) of the limiting expected normalized trace moment.

    The sum of its pair-matched words' volumes through p_limit_cached.
    "mc" sums the words' polytope estimates, and its stderr is
    sqrt(sum (M * sigma)^2) with M a polytope's multiplicity over all the
    words: words that share a polytope share its error, so their
    variances do not add as if independent.  "exact" integrates each
    dihedral class's least member once per process, under its own
    budget, and returns a Fraction, stderr 0.
    """
    zero = _check_request(method, samples)
    words = [drop_indices(w) for w in pair_matched_words(q, budget)]
    value = sum((p_limit_cached(w, method, samples=samples, seed=seed, budget=budget).value for w in words), zero)
    if method == "exact" or not words:
        return VolumeEstimate(value, 0.0)
    merged = Counter()
    for w in words:
        counts = _POLYTOPE_COUNTS.get(w)
        merged.update(_polytope_counts(w) if counts is None else counts)
    return VolumeEstimate(value, _mc_sum(merged, samples, seed).stderr)


def alpha(
    q: Monomial,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> float | Fraction:
    """Limiting expected normalized trace moment of the monomial.

    The sum of word volumes over all index-respecting pair matchings;
    exactly zero when no such matching exists.
    """
    return alpha_estimate(q, method, samples=samples, seed=seed, budget=budget).value
