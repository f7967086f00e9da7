
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    all_monomials,
    catalan_number,
    concentration_check,
    matchings_bruteforce,
    noncrossing_matchings_bruteforce,
    rotate_monomial,
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
from patrm.cli import EXIT_OK, main
from patrm.freeness import free_moment_prediction, freeness_report, sigma_gamma_cycles
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
    assert sigma_gamma_cycles(((1, 2),)) == ((1,), (2,))
    cycles = sigma_gamma_cycles(((1, 2), (3, 4)))
    assert sorted(len(c) for c in cycles) == [1, 1, 2]
    assert len(cycles) == 3


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_cycle_count_law(m):
    # exactly the non-crossing partitions hit the maximal cycle count
    noncrossing = set(noncrossing_matchings_bruteforce(m))
    for match in matchings_bruteforce([0] * m):
        sigma = tuple((a + 1, b + 1) for a, b in match)
        cycles = sigma_gamma_cycles(sigma)
        assert (len(cycles) == 1 + m // 2) == (sigma in noncrossing)


def test_prediction_is_rotation_invariant():
    # blocks are cut cyclically, so the letters before the first guide letter join the last block
    for text in ("WWTT", "TWWT", "WTHWHT", "HTWHTW", "WWTHTH"):
        q = parse_monomial(text)
        preds = {free_moment_prediction(rotate_monomial(q, r), method="exact") for r in range(len(q))}
        assert preds == {alpha(q, "exact")}, text
    with pytest.raises(ValueError):
        free_moment_prediction(parse_monomial("TTTT"), method="exact")


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


@pytest.mark.parametrize(
    "text,gap",
    [
        ("THTH", Fraction(2, 3)),
        ("TSTS", Fraction(2, 3)),
        ("TRTR", Fraction(2, 3)),
        ("HSHS", Fraction(2, 3)),
        ("T1T2T1T2", Fraction(2, 3)),
        ("S1S2S1S2", Fraction(1)),
        ("R1R2R1R2", Fraction(0)),
        ("H1H2H1H2", Fraction(0)),
    ],
)
def test_free_prediction_gap_of_non_wigner_guides_is_exact(text, gap):
    # the paper's non-freeness, without Monte Carlo: the exact limit minus the
    # exact free prediction with the first letter's kind as the guide; only
    # the R and H copies close the gap at this length
    q = parse_monomial(text)
    prediction = free_moment_prediction(q, guide_kind=q.letters[0][0], method="exact")
    assert alpha(q, "exact") - prediction == gap


def test_freeness_report_examples():
    r = freeness_report(parse_monomial("WTWT"))
    assert r.alpha == r.free_prediction == Fraction(0)
    assert r.free is True
    r = freeness_report(parse_monomial("WWHH"))
    assert r.alpha == r.free_prediction == Fraction(1)
    assert r.free is True


def test_freeness_report_prints_exact_rationals(capsys):
    # the freeness command prints each rational as its float, then its exact string
    assert main(["freeness", "--q", "WWTHTH"]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
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
    guide_indices = tuple(idx for kind, idx in q.letters if kind is W)
    assert guide_indices == (1, 2, 2, 1)
    # only the nested partition respects the copy labels
    assert nc2(guide_indices) == [((1, 4), (2, 3))]
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


@pytest.mark.parametrize("other", "THRS")
def test_freeness_identity_is_exact_at_length_ten(other):
    # the same theorem on every one-copy mixed monomial of length 10
    other = LinkKind.from_char(other)
    monomials = list(_mixed_monomials(other, (10,), (1,)))
    assert len(monomials) == 2**10 - 2
    for q in monomials:
        assert alpha(q, "exact") == free_moment_prediction(q, method="exact"), str(q)


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
    # freeness sweep computes them.  Each distinct case polytope draws once
    # from the seed_sequence stream of its key, so the file pins the keys
    # and their multiplicities as well as the streams.
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
