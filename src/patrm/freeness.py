"""Non-crossing pair-partition moment predictions and the exact freeness verdict.

The prediction machinery evaluates mixed moments of a free semicircular
family against the limits of the other letters: cut the monomial at its
guide letters into blocks, cyclically and without rotating it, sum over
color-respecting non-crossing pair partitions of the guide letters, and
multiply block limits (alpha) along the cycles of the partition composed
with the full cycle.  Wigner copies play the semicircular role; the same
machinery with another kind in that role quantifies *non*-freeness.  The
partitions are the Catalan pair-matched words of the guide letters, so
multi-copy guide families only pair equal copy labels.  `freeness_report`
decides by Fraction equality of the two exact values; it simulates
nothing.  Tier-1 tests check that the exact prediction equals the exact
limit for every mixed {W, X} monomial of length 2..8 and 10 and every
{W1, W2, X1, X2} monomial of length 2..6, X = T, H, R or S; more copies
and other lengths are not checked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import limits
from .algebra import Monomial, is_catalan, match_pairs
from .linkfns import LinkKind

# unused, but pinned by perfbench/test_perfbench.py and tests/test_package.py;
# it is why this module still loads numpy
from .sampler import sample_matrix  # noqa: F401

CyclePermutation = tuple[tuple[int, ...], ...]


def sigma_gamma_cycles(sigma: Sequence[tuple[int, int]]) -> CyclePermutation:
    """Cycles of r -> sigma(gamma(r)), gamma the full cycle (1 2 ... m), m = 2 len(sigma).

    sigma acts as the involution swapping each pair.  For non-crossing
    sigma, and only then, the composition has 1 + m/2 cycles.
    """
    m = 2 * len(sigma)
    inv = {}
    for a, b in sigma:
        inv[a] = b
        inv[b] = a
    if sorted(inv) != list(range(1, m + 1)):
        raise ValueError("partition does not cover {1..m}")

    def step(r: int) -> int:
        g = r + 1 if r < m else 1
        return inv[g]

    cycles = []
    seen: set[int] = set()
    for start in range(1, m + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = step(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = step(nxt)
        cycles.append(tuple(cyc))
    return tuple(cycles)


def free_moment_prediction(
    q: Monomial,
    guide_kind: LinkKind = LinkKind.WIGNER,
    *,
    method: str = "mc",
    samples: int = limits.DEFAULT_MC_SAMPLES,
    seed: int = 0,
    budget: int = limits.DEFAULT_BUDGET,
) -> float | Fraction:
    """Mixed-moment value if the guide copies were a free semicircular family.

    Block r holds the letters after guide letter r up to the next one, the
    last block wrapping past the end of the monomial, which is never
    rotated.  Sum over color-respecting non-crossing pair partitions of the
    guide positions (the Catalan pair-matched words of the guide letters
    alone); each partition contributes the product, over cycles of the
    partition composed with the full cycle, of the marginal of the
    concatenated blocks visited by that cycle: the limit alpha of the
    block monomial by `method`, or 1 for an empty block.  "mc" returns a
    float, "exact" a Fraction.  The request is checked and the budget bounds
    the guide pairings and each block limit, as in limits.alpha.
    """
    zero = limits._check_request(method, samples)
    letters = q.letters
    guides = [i for i, (kind, _) in enumerate(letters) if kind is guide_kind]
    if not guides:
        raise ValueError(f"monomial has no {guide_kind.char} letter")
    m = len(guides)
    if m % 2 or len(q) % 2:
        # an odd guide count admits no pairing; an odd length leaves an odd
        # block in every cycle product, whose alpha is 0.  Returning here
        # keeps a sweep's many odd monomials from enumerating pairings.
        return zero
    bounds = guides + [guides[0] + len(q)]
    blocks = [(letters + letters)[a + 1 : b] for a, b in zip(bounds, bounds[1:])]
    guide = Monomial(tuple(letters[i] for i in guides))
    total = zero
    for w in limits.pair_matched_words(guide, budget):
        if not is_catalan(w):
            continue
        prod = zero + 1
        for cycle in sigma_gamma_cycles(match_pairs(w)):
            block = sum((blocks[r - 1] for r in cycle), ())
            if block:
                prod *= limits.alpha(
                    Monomial(block), method, samples=samples, seed=seed, budget=budget
                )
        total += prod
    return total


@dataclass(frozen=True)
class FreenessReport:
    """Exact limit vs exact free prediction for one monomial."""

    alpha: Fraction
    free_prediction: Fraction
    free: bool  # alpha == prediction


def freeness_report(q: Monomial, budget: int = limits.DEFAULT_BUDGET) -> FreenessReport:
    """Compare the exact limit with the exact free prediction for one monomial.

    The monomial must mix Wigner letters with at least one other kind (the
    freeness claim is specific to the Wigner role); the verdict is Fraction
    equality.  The budget bounds both, as in limits.alpha.
    """
    kinds = {kind for kind, _ in q.letters}
    if LinkKind.WIGNER not in kinds:
        raise ValueError("freeness check requires at least one Wigner letter")
    if kinds == {LinkKind.WIGNER}:
        raise ValueError("freeness check requires at least one non-Wigner letter")
    a_val = limits.alpha(q, "exact", budget=budget)
    pred = free_moment_prediction(q, method="exact", budget=budget)
    return FreenessReport(a_val, pred, a_val == pred)
