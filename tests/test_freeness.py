
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    all_monomials,
    catalan_number,
    concentration_check,
    matchings_bruteforce,
    noncrossing_matchings_bruteforce,
    trace_factorization_check,
)
from patrm import limits
from patrm.algebra import (
    Monomial,
    drop_indices,
    enumerate_pair_matched_words,
    is_catalan,
    match_pairs,
    parse_monomial,
)
from patrm.freeness import (
    alternating_decomposition,
    free_moment_prediction,
    freeness_report,
    sigma_gamma_cycles,
)
from patrm.limits import alpha, alpha_estimate, count_circuits_exact, p_limit_cached
from patrm.linkfns import LinkKind
from patrm.sampler import InputDistribution

GAUSS = InputDistribution.GAUSSIAN
W, T = LinkKind.WIGNER, LinkKind.TOEPLITZ


def nc2(guide_indices):
    """The pairings free_moment_prediction sums over: the Catalan
    pair-matched words of the guide letters, as 1-based position pairs."""
    guide = Monomial(tuple((W, i) for i in guide_indices))
    return [tuple(match_pairs(w)) for w in enumerate_pair_matched_words(guide) if is_catalan(w)]


def test_enumerate_nc2_examples():
    assert nc2((1, 1)) == [((1, 2),)]
    assert nc2((1, 1, 1, 1)) == [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert nc2((1, 1, 1)) == []


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_enumerate_nc2_matches_bruteforce(m):
    got = nc2((1,) * m)
    assert set(got) == set(noncrossing_matchings_bruteforce(m))
    assert len(got) == catalan_number(m // 2)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_nc2_count_is_catalan(m):
    assert len(nc2((1,) * m)) == catalan_number(m // 2)


def test_filter_colored_examples():
    # two guide copies: only pairings of equal copy labels survive
    assert nc2((1, 2)) == []
    assert nc2((1, 1)) == [((1, 2),)]
    assert nc2((1, 2, 2, 1)) == [((1, 4), (2, 3))]


def test_sigma_gamma_examples():
    assert sigma_gamma_cycles(((1, 2),), 2) == ((1,), (2,))
    cycles = sigma_gamma_cycles(((1, 2), (3, 4)), 4)
    assert sorted(len(c) for c in cycles) == [1, 1, 2]
    assert len(cycles) == 3


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_cycle_count_law(m):
    # exactly the non-crossing partitions hit the maximal cycle count
    noncrossing = set(noncrossing_matchings_bruteforce(m))
    for match in matchings_bruteforce([0] * m):
        sigma = tuple((a + 1, b + 1) for a, b in match)
        cycles = sigma_gamma_cycles(sigma, m)
        assert (len(cycles) == 1 + m // 2) == (sigma in noncrossing)


def test_alternating_decomposition():
    alt = alternating_decomposition(parse_monomial("WWTT"))
    assert alt.m == 2
    assert alt.blocks == ((), ((T, 1), (T, 1)))
    # rotation brings the leading block behind the last guide letter
    alt2 = alternating_decomposition(parse_monomial("TTWW"))
    assert alt2.m == 2
    assert alt2.blocks == ((), ((T, 1), (T, 1)))
    with pytest.raises(ValueError):
        alternating_decomposition(parse_monomial("TTTT"))


def test_prediction_examples():
    mc = dict(samples=100000, seed=4)
    assert free_moment_prediction(parse_monomial("WWTT"), **mc) == pytest.approx(1.0, abs=0.01)
    assert free_moment_prediction(parse_monomial("WTWT"), **mc) == 0.0
    assert free_moment_prediction(parse_monomial("WWWW"), **mc) == pytest.approx(2.0)


def test_prediction_of_odd_monomial_needs_no_block_limit(monkeypatch):
    # an even number of guide letters, but the odd T block vanishes in every
    # cycle product, so no block limit is evaluated
    def no_alpha(*args, **kwargs):
        raise AssertionError("evaluated a block limit of an odd monomial")

    monkeypatch.setattr(limits, "alpha", no_alpha)
    assert free_moment_prediction(parse_monomial("WWT")) == 0.0


def test_prediction_checks_the_request_before_its_odd_return():
    # WWT returns before any block limit, which must not hide a bad request
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        free_moment_prediction(parse_monomial("WWT"), method="bogus")
    with pytest.raises(ValueError, match="samples must be >= 1"):
        free_moment_prediction(parse_monomial("WWT"), samples=0)


def test_prediction_with_non_wigner_guide_detects_dependence():
    # Toeplitz in the semicircular role: the independent-product prediction
    # is 0, while the true limit moment is 2/3
    q = parse_monomial("THTH")
    pred = free_moment_prediction(q, guide_kind=T, samples=100000, seed=4)
    a = alpha(q, "exact")
    assert pred == 0.0
    assert abs(a - pred) == pytest.approx(2 / 3, abs=0.02)


def test_freeness_report_examples():
    r = freeness_report(parse_monomial("WTWT"))
    assert r.alpha == r.free_prediction == Fraction(0)
    assert r.free is True
    r = freeness_report(parse_monomial("WWHH"))
    assert r.alpha == r.free_prediction == Fraction(1)
    assert r.free is True


def test_freeness_report_prints_exact_rationals():
    d = freeness_report(parse_monomial("WWTHTH")).to_json_dict()
    assert (d["alpha"], d["alpha_exact"]) == (2 / 3, "2/3")
    assert (d["free_prediction"], d["free_prediction_exact"]) == (2 / 3, "2/3")
    assert "deviation" not in d


def test_freeness_report_rejects_wrong_monomials():
    with pytest.raises(ValueError):
        freeness_report(parse_monomial("THTH"))
    with pytest.raises(ValueError):
        freeness_report(parse_monomial("WWWW"))


def test_two_wigner_copies_prediction():
    # colored filter with two independent guide copies
    q = parse_monomial("W1 T1 W2 T1 W2 T1 W1 T1")
    alt = alternating_decomposition(q)
    assert alt.guide_indices == (1, 2, 2, 1)
    # only the nested partition respects the copy labels
    assert nc2(alt.guide_indices) == [((1, 4), (2, 3))]
    pred = free_moment_prediction(q, samples=150000, seed=8)
    a, err = alpha_estimate(q, samples=150000, seed=8)
    assert abs(a - pred) <= 3 * err + 0.01


def _mixed_monomials(other, lengths, indices):
    # every monomial over the W and `other` copies that holds both kinds
    for length in lengths:
        for q in all_monomials((W, other), length, indices):
            if len(set(q.colors)) == 2:
                yield q


@pytest.mark.parametrize("other", "THRS")
def test_freeness_identity_is_exact(other):
    # the paper's theorem: Wigner copies are asymptotically free from copies
    # of T, H, R and S, so each mixed limit equals its free prediction
    other = LinkKind.from_char(other)
    monomials = [
        *_mixed_monomials(other, range(2, 9), (1,)),
        *_mixed_monomials(other, range(2, 7), (1, 2)),
    ]
    assert len(monomials) == 494 + 5208
    for q in monomials:
        a = alpha(q, "exact")
        pred = free_moment_prediction(q, method="exact")
        assert type(a) is type(pred) is Fraction
        assert a == pred, str(q)


def _wigner_match_with_unmatched_interior(w):
    pairs = match_pairs(w)
    for i, j in pairs:
        if w.colors[i - 1] is not W:
            continue
        interior = w.letters[i : j - 1]
        counts = {}
        for lid in interior:
            counts[lid] = counts.get(lid, 0) + 1
        if any(c % 2 for c in counts.values()):
            return True
    return False


@pytest.mark.parametrize("other", "THRS")
def test_wigner_string_vanishing(other):
    kinds = (W, LinkKind.from_char(other))
    checked = 0
    for length in (2, 4, 6):
        for q in all_monomials(kinds, length):
            if W not in q.colors:
                continue
            for w in enumerate_pair_matched_words(q):
                w = drop_indices(w)
                if not _wigner_match_with_unmatched_interior(w):
                    continue
                est = p_limit_cached(w, "mc", samples=50000, seed=13)
                assert est.value <= 3 * est.stderr + 1e-12
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("other", "TH")
def test_surviving_words_concentrate_on_reversed_wigner_class(other, monkeypatch):
    solve = limits.solve_branch_grid

    def c2_only(kind, n, prev, fa, fb, branch):
        # a Wigner match takes only the reversed endpoint identification
        if kind is W:
            return fa, prev == fb
        return solve(kind, n, prev, fa, fb, branch)

    kinds = (W, LinkKind.from_char(other))
    for length in (4, 6):
        for q in all_monomials(kinds, length):
            if W not in q.colors:
                continue
            for w in enumerate_pair_matched_words(q):
                w = drop_indices(w)
                est = p_limit_cached(w, "mc", samples=50000, seed=13)
                if est.value <= 0.05:
                    continue
                k = len(w) // 2
                gaps = []
                for n in (12, 24):
                    full = count_circuits_exact(w, n)
                    with monkeypatch.context() as m:
                        m.setattr(limits, "solve_branch_grid", c2_only)
                        c2 = count_circuits_exact(w, n)
                    gaps.append((full - c2) / n ** (1 + k))
                assert gaps[1] <= gaps[0] + 1e-12


def test_trace_factorization_decays():
    rows = trace_factorization_check(T, (2, 2), (100, 200, 400), GAUSS, reps=300, seed=3)
    gaps = [abs(r.value) for r in rows]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    rows = trace_factorization_check(LinkKind.HANKEL, (2, 4), (100, 200, 400), GAUSS, reps=300, seed=3)
    gaps = [abs(r.value) for r in rows]
    assert gaps[2] < gaps[0]
    rows = trace_factorization_check(W, (2, 2), (100, 200, 400), GAUSS, reps=300, seed=3)
    gaps = [abs(r.value) for r in rows]
    assert gaps[2] < gaps[0]


def test_trace_factorization_validates():
    with pytest.raises(ValueError):
        trace_factorization_check(T, (2,), (100,), GAUSS, reps=10)


def test_concentration_slope():
    for q_text in ("TT", "THTH", "WW"):
        rows, slope = concentration_check(
            parse_monomial(q_text), (64, 128, 256), GAUSS, reps=200, seed=5
        )
        values = [r.value for r in rows]
        assert values[1] < values[0] and values[2] < values[1]
        assert slope < -1.0
    with pytest.raises(ValueError):
        concentration_check(parse_monomial("TT"), (64,), GAUSS, reps=10)


def test_sweep_values_golden_bytes():
    # alpha and the free prediction, to 17 significant digits, of every
    # {W,R} and {W,T} monomial of length 2..6 that holds both kinds, as the
    # freeness sweep computes them.  The file was written before the case
    # walk dropped prefixes at a failed Wigner identification: the
    # surviving systems, their order and so each system's MC stream are
    # unchanged.
    rows = ["monomial,alpha,prediction"]
    for other in (LinkKind.REVERSE_CIRCULANT, T):
        for length in range(2, 7):
            for colors in itertools.product((W, other), repeat=length):
                if len(set(colors)) < 2:
                    continue
                q = Monomial(tuple((c, 1) for c in colors))
                a = alpha(q, "mc", samples=2000, seed=21)
                pred = free_moment_prediction(q, samples=2000, seed=21)
                rows.append(f"{q},{a:.17g},{pred:.17g}")
    assert len(rows) == 1 + 2 * sum(2**length - 2 for length in range(2, 7)) == 229
    golden = Path(__file__).resolve().parent / "golden" / "sweep_WR_WT_len2to6_samples2000_seed21.csv"
    assert "\n".join(rows) + "\n" == golden.read_text()
