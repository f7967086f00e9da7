"""Limit volumes of pair-matched words and monomial trace-moment limits.

The count of index circuits compatible with a word's match structure is,
per match, a finite union of affine-linear cases (sign choices for
Toeplitz, wrap offsets for the circulants, endpoint identifications for
Wigner).  Within one case every dependent vertex is an affine form with
integer coefficients over the generating vertices; the normalized count
then converges to the volume of a box slice.  A word's volume is the
sum over its surviving cases, evaluated by Monte Carlo, or exactly as
the leading coefficient of the circuit count, a polynomial in odd n.

Every case relation has small integer coefficients, so all affine
arithmetic is exact integer arithmetic; the identity-or-measure-zero
dichotomy for closure and Wigner equalities is decided symbolically,
never by tolerance.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .algebra import (
    ColoredWord,
    Monomial,
    count_pairings,
    drop_indices,
    enumerate_pair_matched_words,
    match_pairs,
    pairing_count_estimate,
)
from .linkfns import DELTA, LinkKind, solve_branch_grid
from .sampler import seed_mod64, seed_sequence

DEFAULT_MC_SAMPLES = 1_000_000
DEFAULT_BUDGET = 5_000_000_000
METHODS = ("mc", "exact")
_MC_CHUNK = 1 << 21

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
    """Raised when an exact enumeration would exceed the work budget."""


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
        tuple(a * p + b * q + c * r for p, q, r in zip(x.coeffs, y.coeffs, z.coeffs)),
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
        """
        return [f for _, f in self.dep_forms[:-1] if f.bare_coordinate() is None]

    def canonical_key(self):
        eq_key = sorted(
            ((a.coeffs, a.const, b.coeffs, b.const) for a, b in self.equalities)
        )
        return (self.gen_positions, self.dep_forms, tuple(eq_key))


class VolumeEstimate(NamedTuple):
    """A word-volume value with its uncertainty."""

    value: float
    stderr: float


def _sum_estimates(estimates) -> VolumeEstimate:
    """Sum of independent estimates: values add, variances add."""
    total, var = 0.0, 0.0
    for est in estimates:
        total += est.value
        var += est.stderr ** 2
    return VolumeEstimate(total, float(np.sqrt(var)))


def _match_relations(w: ColoredWord) -> list[dict]:
    """Relation table of every match, in match_pairs order."""
    return [_CASE_RELATIONS[w.colors[f - 1]] for f, _ in match_pairs(w)]


def case_count(w: ColoredWord) -> int:
    """Number of case labels of the word: the product of per-match relation counts."""
    return math.prod(len(rel) for rel in _match_relations(w))


def build_cases(w: ColoredWord) -> list[CaseLabel]:
    """Cartesian product of per-match case labels, in match_pairs order."""
    return list(itertools.product(*_match_relations(w)))


def resolve_affine(w: ColoredWord, case: CaseLabel) -> ConstraintSystem:
    """Affine system of one case: walk positions, emitting dependent forms.

    At a second occurrence s matched to first occurrence f the new vertex
    v_s is determined from v_{s-1}, v_{f-1}, v_f by the case's relation.
    A Wigner case also pins v_{s-1}: the unordered edges {v_{s-1}, v_s}
    and {v_{f-1}, v_f} coincide, so v_{s-1} = v_{f-1} + v_f - v_s.
    """
    pairs = match_pairs(w)
    length = len(w)
    first_of = {s: f for f, s in pairs}
    case_of = {s: case[idx] for idx, (f, s) in enumerate(pairs)}
    gen_positions = tuple([0] + [f for f, _ in pairs])
    dim = len(gen_positions)
    slot = {pos: i for i, pos in enumerate(gen_positions)}

    forms: dict[int, AffineForm] = {0: _coordinate(0, dim)}
    equalities: list[tuple[AffineForm, AffineForm]] = []
    dep: list[tuple[int, AffineForm]] = []

    for pos in range(1, length + 1):
        if pos not in first_of:
            forms[pos] = _coordinate(slot[pos], dim)
            continue
        f = first_of[pos]
        kind = w.colors[pos - 1]
        *weights, shift = _CASE_RELATIONS[kind][case_of[pos]]
        prev, va, vb = forms[pos - 1], forms[f - 1], forms[f]
        form = _combine(weights, (prev, va, vb), shift)
        if kind is LinkKind.WIGNER:
            equalities.append((prev, _combine((1, 1, -1), (va, vb, form), 0)))
        forms[pos] = form
        dep.append((pos, form))

    return ConstraintSystem(gen_positions, tuple(dep), tuple(equalities))


def case_volume_mc(cs: ConstraintSystem, samples: int, seed) -> VolumeEstimate:
    """Volume of one case by uniform sampling of the generating cube.

    A failed closure or Wigner identity means the case sits on a proper
    affine subspace: exact zero, no sampling.  A provably empty box check
    (form's range disjoint from [0,1)) also short-circuits to exact zero.
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
    vectors = [(np.array(f.coeffs, dtype=float), float(f.const)) for f in forms]
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        block = min(remaining, _MC_CHUNK)
        pts = rng.random((block, cs.dim))
        mask = np.ones(block, dtype=bool)
        for coeffs, const in vectors:
            y = pts @ coeffs + const
            mask &= (y >= 0.0) & (y < 1.0)
        hits += int(mask.sum())
        remaining -= block
    p = hits / samples
    stderr = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(p, stderr)


def exact_count_work(w: ColoredWord, n: int) -> int:
    """Elementary-step estimate of the dynamic-construction enumeration."""
    pairs = match_pairs(w)
    patterns = 1
    for _, s in pairs:
        patterns *= DELTA[w.colors[s - 1]]
    return n ** (len(pairs) + 1) * patterns


def count_circuits_exact(w: ColoredWord, n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of circuits whose matched edges carry equal link values.

    Enumerates all assignments of generating vertices; each dependent
    vertex branches over the solutions of its link equation (at most
    DELTA[kind] per step), and the walk closes on the starting vertex.
    Duplicate-free by construction.
    """
    if not w.is_pair_matched():
        raise ValueError("exact counting requires a pair-matched word")
    if not w.is_color_consistent():
        return 0
    if exact_count_work(w, n) > budget:
        raise BudgetExceededError(
            f"enumeration needs ~{exact_count_work(w, n):.2e} steps, budget is {budget:.2e}"
        )
    pairs = match_pairs(w)
    first_of = {s: f for f, s in pairs}
    length = len(w)
    k = len(pairs)
    gen_tail = sorted(f for f, _ in pairs)

    # one grid axis per generating vertex other than vertex 0
    axes: dict[int, np.ndarray] = {}
    for ax, pos in enumerate(gen_tail):
        shape = [1] * k
        shape[ax] = n
        axes[pos] = np.arange(n, dtype=np.int64).reshape(shape)

    seconds = [s for s in range(1, length + 1) if s in first_of]
    domains = [range(DELTA[w.colors[s - 1]]) for s in seconds]

    total = 0
    for v0 in range(n):
        base = {0: np.int64(v0), **axes}
        for branches in itertools.product(*domains):
            vals = dict(base)
            mask: np.ndarray | bool = True
            dead = False
            for s, br in zip(seconds, branches):
                f = first_of[s]
                kind = w.colors[s - 1]
                vals[s], valid = solve_branch_grid(kind, n, vals[s - 1], vals[f - 1], vals[f], br)
                mask = mask & valid
                if mask is not True and not mask.any():
                    dead = True
                    break
            if dead:
                continue
            mask = mask & (vals[length] == v0)
            total += int(np.broadcast_to(mask, (n,) * k).sum())
    return total


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")


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
    "exact": over odd n the circuit count is a polynomial of degree
    <= k+1 whose leading coefficient is the volume, read with stderr 0
    off the finite differences of exact counts at n = 2k+5, 2k+3, ..., 1;
    the spare point checks the fit (ArithmeticError if not), and the
    largest count comes first, so an over-budget request fails at once.
    """
    _check_method(method)
    if not w.is_pair_matched():
        raise ValueError("p_limit requires a pair-matched word")
    k = len(w) // 2
    if not w.is_color_consistent():
        # a letter pairs positions of different kinds: no circuit qualifies
        return VolumeEstimate(0.0, 0.0)

    n_cases = case_count(w)
    if n_cases > budget:
        raise BudgetExceededError(f"word has {n_cases} affine cases, budget is {budget:.2e}")
    systems = []
    seen = set()
    for case in build_cases(w):
        cs = resolve_affine(w, case)
        if not cs.identity_ok():
            continue
        key = cs.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        systems.append(cs)
    if not systems:
        return VolumeEstimate(0.0, 0.0)
    if method == "exact":
        diffs = [count_circuits_exact(w, n, budget=budget) for n in range(2 * k + 5, 0, -2)]
        for _ in range(k + 1):
            diffs = [a - b for a, b in zip(diffs, diffs[1:])]
        if diffs[0] != diffs[1]:
            raise ArithmeticError(f"circuit counts of {w.text} are not a degree-{k + 1} polynomial in odd n")
        # the (k+1)-th difference at step 2 is (k+1)! 2^(k+1) times the leading coefficient
        return VolumeEstimate(diffs[0] / (math.factorial(k + 1) * 2 ** (k + 1)), 0.0)

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
    """p_limit memoized on the word and its arguments; same value, computed once."""
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
    """(value, stderr) of the limiting expected normalized trace moment."""
    _check_method(method)
    return _sum_estimates(
        p_limit_cached(drop_indices(w), method, samples=samples, seed=seed, budget=budget)
        for w in pair_matched_words(q, budget)
    )


def alpha(
    q: Monomial,
    method: str = "mc",
    *,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Limiting expected normalized trace moment of the monomial.

    The sum of word volumes over all index-respecting pair matchings;
    exactly zero when no such matching exists.
    """
    return alpha_estimate(q, method, samples=samples, seed=seed, budget=budget).value
