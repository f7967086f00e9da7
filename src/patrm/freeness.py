"""Non-crossing pair-partition moment predictions and freeness diagnostics.

The prediction machinery evaluates mixed moments of a free semicircular
family against the limits of the other letters: decompose the monomial
into guide letters alternating with blocks, sum over color-respecting
non-crossing pair partitions of the guide letters, and multiply block
limits (alpha) along the cycles of the partition composed with the full
cycle.  Wigner copies play the semicircular role; the same machinery with
another kind in that role quantifies *non*-freeness.  The partitions are
the Catalan pair-matched words of the guide letters, so multi-copy guide
families only pair equal copy labels; coverage beyond two copies is
numerical extrapolation, not a proved case.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import limits
from .algebra import Monomial, enumerate_pair_matched_words, is_catalan, match_pairs
from .linkfns import LinkKind
from .sampler import (
    InputDistribution,
    empirical_trace_moment,
    sample_matrix,
    substream,
    trace_moment_samples,
)

CyclePermutation = tuple[tuple[int, ...], ...]


def sigma_gamma_cycles(sigma: Sequence[tuple[int, int]], m: int) -> CyclePermutation:
    """Cycles of r -> sigma(gamma(r)), gamma the full cycle (1 2 ... m).

    sigma acts as the involution swapping each pair.  For non-crossing
    sigma, and only then, the composition has 1 + m/2 cycles.
    """
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


@dataclass(frozen=True)
class AlternatingMonomial:
    """Guide letters alternating with (possibly empty) blocks of other kinds.

    guide_indices[r] is the copy index of the r-th guide letter; blocks[r]
    holds the letters between guide letters r and r+1 (cyclically for the
    last).
    """

    guide_indices: tuple[int, ...]
    blocks: tuple[tuple[tuple[LinkKind, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.guide_indices)


def alternating_decomposition(q: Monomial, guide_kind: LinkKind = LinkKind.WIGNER) -> AlternatingMonomial:
    """Rotate the monomial to start on a guide letter and split into blocks."""
    letters = q.letters
    shift = next((i for i, (kind, _) in enumerate(letters) if kind is guide_kind), None)
    if shift is None:
        raise ValueError(f"monomial has no {guide_kind.char} letter")
    letters = letters[shift:] + letters[:shift]
    guide_indices: list[int] = []
    blocks: list[tuple[tuple[LinkKind, int], ...]] = []
    for kind, idx in letters:
        if kind is guide_kind:
            guide_indices.append(idx)
            blocks.append(())
        else:
            blocks[-1] = blocks[-1] + ((kind, idx),)
    return AlternatingMonomial(tuple(guide_indices), tuple(blocks))


def free_moment_prediction(
    q: Monomial,
    guide_kind: LinkKind = LinkKind.WIGNER,
    *,
    samples: int = limits.DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Mixed-moment value if the guide copies were a free semicircular family.

    Sum over color-respecting non-crossing pair partitions of the guide
    positions (the Catalan pair-matched words of the guide letters alone);
    each partition contributes the product, over cycles of the
    partition composed with the full cycle, of the marginal of the
    concatenated blocks visited by that cycle: the Monte Carlo limit alpha
    of the block monomial, or 1 for an empty block.
    """
    alt = alternating_decomposition(q, guide_kind)
    if alt.m % 2 or len(q) % 2:
        # an odd guide count admits no pairing; an odd length leaves an odd
        # block in every cycle product, whose alpha is 0.  Returning here
        # keeps a sweep's many odd monomials from enumerating pairings.
        return 0.0
    guide = Monomial(tuple((guide_kind, i) for i in alt.guide_indices))
    total = 0.0
    for w in enumerate_pair_matched_words(guide):
        if not is_catalan(w):
            continue
        prod = 1.0
        for cycle in sigma_gamma_cycles(match_pairs(w), alt.m):
            letters: tuple = ()
            for r in cycle:
                letters = letters + alt.blocks[r - 1]
            if letters:
                prod *= limits.alpha(Monomial(letters), "mc", samples=samples, seed=seed)
        total += prod
    return total


@dataclass(frozen=True)
class FreenessReport:
    """Limit-vs-prediction (and optional simulation) comparison for one monomial."""

    q: str
    alpha: float
    alpha_stderr: float
    free_prediction: float
    empirical: Optional[float]
    empirical_sd: Optional[float]
    deviation: float  # |alpha - prediction|
    empirical_deviation: Optional[float]  # |empirical - prediction|
    free_within_tol: bool
    tol: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def freeness_report(
    q: Monomial,
    n: int = 0,
    dist: InputDistribution = InputDistribution.GAUSSIAN,
    reps: int = 0,
    tol: float = 0.03,
    samples: int = limits.DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> FreenessReport:
    """Compare the combinatorial limit with the free prediction for one monomial.

    The monomial must mix Wigner letters with at least one other kind (the
    freeness claim is specific to the Wigner role).  The empirical column
    is simulated only when reps >= 1 and n >= 1, and is advisory: the
    verdict compares limit against prediction.
    """
    kinds = {kind for kind, _ in q.letters}
    if LinkKind.WIGNER not in kinds:
        raise ValueError("freeness check requires at least one Wigner letter")
    if kinds == {LinkKind.WIGNER}:
        raise ValueError("freeness check requires at least one non-Wigner letter")
    a_val, a_err = limits.alpha_estimate(q, "mc", samples=samples, seed=seed)
    pred = free_moment_prediction(q, samples=samples, seed=seed)
    emp = emp_sd = emp_dev = None
    if reps >= 1 and n >= 1:
        est = empirical_trace_moment(q, n, dist, reps, seed)
        emp, emp_sd = est.mean, est.stddev
        emp_dev = abs(emp - pred)
    dev = abs(a_val - pred)
    return FreenessReport(
        str(q), a_val, a_err, pred, emp, emp_sd, dev, emp_dev, dev <= tol, tol
    )


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

    All traces are of powers of one scaled matrix; the gap vanishes as n
    grows when the ensemble's spectral moments concentrate.
    """
    if len(powers) < 2:
        raise ValueError("need at least two powers")
    rows = []
    for n in n_list:
        per_power = np.empty((reps, len(powers)))
        for rep in range(reps):
            x = sample_matrix(kind, n, dist, substream(seed, rep, kind, 1))
            acc = np.eye(n)
            traces = {}
            kmax = max(powers)
            for p in range(1, kmax + 1):
                acc = acc @ x
                traces[p] = np.trace(acc)
            for ci, p in enumerate(powers):
                per_power[rep, ci] = traces[p] / n ** (1 + p / 2)
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
