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
zero; the walk returns the other cases in build_cases order.  A word's
volume is the sum over its surviving cases, evaluated by Monte Carlo,
or exactly: each case is a rational polytope in the unit box, whose
volume is integrated one coordinate at a time (Fourier-Motzkin) in
integer and Fraction arithmetic.  Words equal up to rotation and
reversal have equal volumes, so p_limit_cached integrates one word per
such class per process, shared by every monomial limit of the run.  The
Monte Carlo kernel draws each case's points in fixed-size chunks into
reused buffers, split over threads that each jump to their own offset
of the case's one PCG64 stream, so its memory does not grow with the
sample count and its estimate is the same for any number of threads.

Every case relation has small integer coefficients, so all affine
arithmetic is exact integer arithmetic; the identity-or-measure-zero
dichotomy for closure and Wigner equalities is decided symbolically,
never by tolerance.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

# no module-level numpy or sampler import: the Monte Carlo kernel and the circuit
# counter import them in their bodies, so the exact route needs the standard library alone
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
_MC_CHUNK = 1 << 15
# threads per sampled system, one per usable CPU; the estimate does not depend on it
_MC_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Per-kind link relations.  At a second occurrence s matched to the first
# occurrence f, each case label gives the integer coefficients
# (prev, va, vb, shift) of v_s = prev v_{s-1} + va v_{f-1} + vb v_f + shift.
# Toeplitz c: v_{s-1} - v_s = c (v_{f-1} - v_f).  Hankel: equal sums.
# Reverse Circulant c: equal sums up to the wrap c.  Symmetric Circulant:
# six sign/wrap combinations.  Wigner: straight (C1) or reversed (C2)
# endpoint identification, which also pins v_{s-1} (see resolve_affine).
# The labels and their order fix the case order, hence the dedup order
# and the per-system MC seeds.
_CASE_RELATIONS: dict[LinkKind, dict] = {
    LinkKind.TOEPLITZ: {1: (1, -1, 1, 0), -1: (1, 1, -1, 0)},
    LinkKind.HANKEL: {0: (-1, 1, 1, 0)},
    LinkKind.REVERSE_CIRCULANT: {c: (-1, 1, 1, c) for c in (0, 1, -1)},
    LinkKind.SYMMETRIC_CIRCULANT: {
        1: (1, -1, 1, 0),
        2: (1, 1, -1, 0),
        3: (1, 1, -1, -1),
        4: (1, -1, 1, 1),
        5: (1, -1, 1, -1),
        6: (1, 1, -1, 1),
    },
    LinkKind.WIGNER: {"C1": (0, 0, 1, 0), "C2": (0, 1, 0, 0)},
}

CaseLabel = tuple


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or an exact integration would exceed the work budget."""


class AffineForm(NamedTuple):
    """Integer affine form over the generating coordinates: coeffs . v + const."""

    coeffs: tuple[int, ...]
    const: int

    def bare_coordinate(self) -> Optional[int]:
        """Slot index when the form is exactly one coordinate, else None."""
        if self.const != 0:
            return None
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c != 0]
        if len(nz) == 1 and nz[0][1] == 1:
            return nz[0][0]
        return None

    def value_interval(self) -> tuple[int, int]:
        """Enclosing interval of the form over the half-open unit cube."""
        lo = self.const + sum(c for c in self.coeffs if c < 0)
        hi = self.const + sum(c for c in self.coeffs if c > 0)
        return lo, hi


def _coordinate(slot: int, dim: int) -> AffineForm:
    return AffineForm(tuple(int(i == slot) for i in range(dim)), 0)


def _combine(weights, forms, shift: int) -> AffineForm:
    """The form sum(w * f for w, f in zip(weights, forms)) + shift."""
    (a, b, c), (x, y, z) = weights, forms
    return AffineForm(
        tuple([a * p + b * q + c * r for p, q, r in zip(x.coeffs, y.coeffs, z.coeffs)]),
        a * x.const + b * y.const + c * z.const + shift,
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """One case's affine description of all circuit vertices.

    gen_positions lists the generating vertices (position 0 plus first
    occurrences).  dep_forms gives, for every other position, its affine
    form over the generating coordinates; the last one is the final
    vertex, which closes the circuit on vertex 0.  equalities are the
    extra Wigner identifications.
    """

    gen_positions: tuple[int, ...]
    dep_forms: tuple[tuple[int, AffineForm], ...]
    equalities: tuple[tuple[AffineForm, AffineForm], ...]

    @property
    def dim(self) -> int:
        return len(self.gen_positions)

    def identity_ok(self) -> bool:
        """True when closure and all equalities hold as exact form identities."""
        if self.dep_forms[-1][1].bare_coordinate() != 0:
            return False
        return all(a == b for a, b in self.equalities)

    def inequality_forms(self) -> list[AffineForm]:
        """Dependent forms that need a unit-interval check under sampling.

        Bare generating coordinates are already uniform on [0,1) and are
        skipped; the final vertex is pinned to v0 by the closure identity.
        Each distinct form is listed once, in first-occurrence order.
        """
        return list(dict.fromkeys(f for _, f in self.dep_forms[:-1] if f.bare_coordinate() is None))

    def canonical_key(self):
        eq_key = sorted(
            ((a.coeffs, a.const, b.coeffs, b.const) for a, b in self.equalities)
        )
        return (self.gen_positions, self.dep_forms, tuple(eq_key))


class VolumeEstimate(NamedTuple):
    """A word-volume value with its uncertainty: a float, or an exact Fraction with stderr 0."""

    value: float | Fraction
    stderr: float


def _sum_estimates(estimates, total: float | Fraction = 0.0) -> VolumeEstimate:
    """Sum of independent estimates, from total: values add, variances add."""
    var = 0.0
    for est in estimates:
        total += est.value
        var += est.stderr ** 2
    return VolumeEstimate(total, math.sqrt(var))


def _match_relations(w: ColoredWord) -> list[dict]:
    """Relation table of every match, in match_pairs order."""
    return [_CASE_RELATIONS[w.colors[f - 1]] for f, _ in match_pairs(w)]


def case_count(w: ColoredWord) -> int:
    """Number of case labels of the word: the product of per-match relation counts."""
    return math.prod(len(rel) for rel in _match_relations(w))


def build_cases(w: ColoredWord) -> list[CaseLabel]:
    """Cartesian product of per-match case labels, in match_pairs order."""
    return list(itertools.product(*_match_relations(w)))


def resolve_affine(w: ColoredWord) -> list[ConstraintSystem]:
    """Systems of the cases that pass their Wigner identifications, in build_cases order.

    The second occurrences are taken in position order, and each extends
    every label prefix built so far by each label of its match, so a
    prefix's forms are computed once for all the cases that share it.  A
    first occurrence is a generating coordinate.  At a second occurrence
    s matched to first occurrence f, v_s is determined from v_{s-1},
    v_{f-1}, v_f by the label's relation.  A Wigner label also pins
    v_{s-1}: the unordered edges {v_{s-1}, v_s} and {v_{f-1}, v_f}
    coincide, so v_{s-1} = v_{f-1} + v_f - v_s.  Both sides of that
    equality are final once formed, so a prefix whose two sides differ
    is dropped there, with every case below it.  Closure is left to
    identity_ok, and no prefix is dropped by value_interval, so the
    zero-volume systems keep their place in p_limit's seed numbering.
    """
    pairs = match_pairs(w)
    relations = _match_relations(w)
    gen_positions = tuple([0] + [f for f, _ in pairs])
    coords = {pos: _coordinate(slot, len(gen_positions)) for slot, pos in enumerate(gen_positions)}
    # (second occurrence, first occurrence, match index) in position order
    steps = sorted((s, f, idx) for idx, (f, s) in enumerate(pairs))
    # (labels in step order, forms by position, dependent forms, equalities)
    prefixes = [((), (coords[0],), (), ())]
    resolved = 1  # positions with a form in every prefix
    for s, f, idx in steps:
        # the first occurrences since the last step, the same for every prefix
        gap = tuple(coords[pos] for pos in range(resolved, s))
        resolved = s + 1
        wigner = w.colors[s - 1] is LinkKind.WIGNER
        grown = []
        for labels, forms, dep, equalities in prefixes:
            forms += gap
            prev, va, vb = forms[s - 1], forms[f - 1], forms[f]
            for label, (*weights, shift) in relations[idx].items():
                form = _combine(weights, (prev, va, vb), shift)
                eqs = equalities
                if wigner:
                    pinned = _combine((1, 1, -1), (va, vb, form), 0)
                    if pinned != prev:
                        continue
                    eqs += ((prev, pinned),)
                grown.append((labels + (label,), forms + (form,), dep + ((s, form),), eqs))
        prefixes = grown
    # step slot of each match, to key the survivors by their labels in match order
    slot_of = sorted(range(len(steps)), key=lambda slot: steps[slot][2])
    systems = {
        tuple([labels[slot] for slot in slot_of]): ConstraintSystem(gen_positions, dep, eqs)
        for labels, _, dep, eqs in prefixes
    }
    return [systems[case] for case in build_cases(w) if case in systems]


def _count_hits(state: dict, first: int, last: int, samples: int, vectors, dim: int) -> int:
    """Samples of chunks [first, last) that satisfy every inequality form.

    Draws from a copy of the system's PCG64 stream jumped past the earlier
    chunks' draws (one 64-bit output per float64), so the points are those
    of one rng.random((samples, dim)) call, and reuses one buffer set.
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
        mask.fill(True)
        for coeffs, const in vectors:
            np.matmul(pts, coeffs, out=y)
            y += const
            np.greater_equal(y, 0.0, out=ok)
            mask &= ok
            np.less(y, 1.0, out=ok)
            mask &= ok
        hits += int(np.count_nonzero(mask))
    return hits


def case_volume_mc(cs: ConstraintSystem, samples: int, seed) -> VolumeEstimate:
    """Volume of one case by uniform sampling of the generating cube.

    A failed closure or Wigner identity means the case sits on a proper
    affine subspace: exact zero, no sampling.  A provably empty box check
    (form's range disjoint from [0,1)) also short-circuits to exact zero.
    Otherwise the samples are drawn in chunks of _MC_CHUNK, split into
    contiguous ranges over up to _MC_WORKERS threads; each range starts at
    its own offset of the one stream, so the estimate does not depend on
    the chunk size or the thread count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not cs.identity_ok():
        return VolumeEstimate(0.0, 0.0)
    forms = cs.inequality_forms()
    if not forms:
        return VolumeEstimate(1.0, 0.0)
    for form in forms:
        lo, hi = form.value_interval()
        if hi <= 0 or lo >= 1:
            return VolumeEstimate(0.0, 0.0)
    import numpy as np

    vectors = [(np.array(f.coeffs, dtype=float), float(f.const)) for f in forms]
    state = np.random.default_rng(seed).bit_generator.state
    chunks = -(-samples // _MC_CHUNK)
    workers = min(_MC_WORKERS, chunks)
    # worker i takes chunks [bounds[i], bounds[i + 1])
    bounds = [chunks * i // workers for i in range(workers + 1)]
    counts = [None] * workers

    def work(slot: int) -> None:
        counts[slot] = _count_hits(state, bounds[slot], bounds[slot + 1], samples, vectors, cs.dim)

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


# A row (a_0, ..., a_{d-1}, b) of an integrated system stands for a . x + b >= 0;
# a polynomial is a dict from exponent tuples over all d coordinates to coefficients.


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
    A failed closure or Wigner identity is exact zero, as under sampling.
    """
    if not cs.identity_ok():
        return Fraction(0)
    d = cs.dim
    rows = set()
    for f in cs.inequality_forms():
        rows.add(_reduced((*f.coeffs, f.const)))
        rows.add(_reduced((*(-c for c in f.coeffs), 1 - f.const)))
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


def _check_request(method: str, samples: int) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _word_seed(master: int, w: ColoredWord) -> int:
    # the tag names the word, so its volume does not depend on which
    # monomial or enumeration order reached it
    tag = f"{master}|{w.letters}|{w.color_text}|{w.indices}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def p_limit(
    w: ColoredWord,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VolumeEstimate:
    """Limiting normalized circuit count of a pair-matched word.

    Zero when no deduplicated constraint system survives.  "mc": sum of
    Monte-Carlo volumes of the surviving systems, drawn from a stream
    derived from the seed (mod 2^64) and the word without copy indices.
    "exact": sum of the systems' exact volumes (case_volume_exact), with
    the integration branches of all of them charged against one budget,
    returned as that Fraction, stderr 0; a zero is Fraction(0) too.
    samples < 1 is a ValueError on either route, whatever the word.
    """
    _check_request(method, samples)
    if not w.is_pair_matched():
        raise ValueError("p_limit requires a pair-matched word")
    zero = VolumeEstimate(Fraction(0) if method == "exact" else 0.0, 0.0)
    if not w.is_color_consistent():
        # a letter pairs positions of different kinds: no circuit qualifies
        return zero

    n_cases = case_count(w)
    if n_cases > budget:
        raise BudgetExceededError(f"word has {n_cases} affine cases, budget is {budget:.2e}")
    systems = []
    seen = set()
    for cs in resolve_affine(w):
        if not cs.identity_ok():
            continue
        key = cs.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        systems.append(cs)
    if not systems:
        return zero
    if method == "exact":
        branches = BranchBudget(budget)
        return VolumeEstimate(sum((case_volume_exact(cs, branches) for cs in systems), Fraction(0)), 0.0)

    from .sampler import seed_mod64, seed_sequence

    word_seed = _word_seed(seed_mod64(seed), drop_indices(w))
    return _sum_estimates(
        case_volume_mc(cs, samples, seed_sequence(word_seed, idx))
        for idx, cs in enumerate(systems)
    )


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
    """p_limit memoized per process; an exact volume once per dihedral class.

    The exact key adds color consistency and the budget; a Monte Carlo key
    is the word and every argument, since its seed names the word.  An
    exact class integrates the first member the process meets: its volume
    does not depend on that order, but the branches charged to the budget
    do, so whether a sequence of exact calls raises BudgetExceededError
    can depend on its order.
    """
    _check_request(method, samples)
    if method == "exact":
        key = (dihedral_key(w), w.is_color_consistent(), method, budget)
    else:
        key = (w.letters, w.colors, w.indices, method, samples, seed, budget)
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

    The sum of its pair-matched words' volumes through p_limit_cached: "mc"
    estimates every word; "exact" integrates one word per dihedral class per
    process, each under its own budget, and returns a Fraction, stderr 0.
    """
    _check_request(method, samples)
    words = pair_matched_words(q, budget)
    return _sum_estimates(
        (p_limit_cached(drop_indices(w), method, samples=samples, seed=seed, budget=budget) for w in words),
        Fraction(0) if method == "exact" else 0.0,
    )


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
