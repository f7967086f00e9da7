import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circuit_count_bruteforce
from patrm import limits
from patrm.algebra import (
    Monomial,
    cyclic_rotate,
    enumerate_pair_matched_words,
    parse_monomial,
    word_from_text,
)
from patrm.limits import (
    AffineForm,
    BudgetExceededError,
    alpha,
    alpha_bound,
    alpha_estimate,
    build_cases,
    case_count,
    case_volume_mc,
    count_circuits_exact,
    p_limit,
    p_limit_cached,
    pair_matched_words,
    resolve_affine,
)
from patrm.linkfns import ALL_KINDS, DELTA, LinkKind
from patrm.reference_tables import ALL_ROWS

T = LinkKind.TOEPLITZ


def word(word_text, mono_text):
    return word_from_text(word_text, parse_monomial(mono_text))


def test_build_cases_counts():
    assert len(build_cases(word("abab", "THTH"))) == 2
    assert len(build_cases(word("abab", "RHRH"))) == 3
    assert len(build_cases(word("aabccb", "HHSHHS"))) == 6
    assert len(build_cases(word("abab", "WSWS"))) == 12


def test_resolve_single_pair_full_volume():
    for kind in "WTHRS":
        w = word("aa", kind * 2)
        total = 0.0
        for case in build_cases(w):
            cs = resolve_affine(w, case)
            total += case_volume_mc(cs, 1000, seed=0).value
        assert total == pytest.approx(1.0)


def test_resolve_structure_invariants():
    w = word("aabccb", "TTHTTH")
    for case in build_cases(w):
        cs = resolve_affine(w, case)
        assert cs.gen_positions[0] == 0
        assert len(cs.gen_positions) == len(w) // 2 + 1
        slots = {pos: i for i, pos in enumerate(cs.gen_positions)}
        for pos, form in cs.dep_forms:
            # dependent forms reference only strictly earlier generating coords
            for slot_idx, coeff in enumerate(form.coeffs):
                if coeff != 0:
                    assert cs.gen_positions[slot_idx] < pos


def test_toeplitz_quadruple_survivors_match_exact_count():
    # only case combinations whose closure holds identically contribute
    w = word("abab", "TTTT")
    surviving = [c for c in build_cases(w) if resolve_affine(w, c).identity_ok()]
    assert surviving == [(-1, -1)]
    total = sum(case_volume_mc(resolve_affine(w, c), 300000, seed=1).value for c in surviving)
    est = p_limit(w, "exact")
    assert total == pytest.approx(est.value, abs=0.02)


def test_wigner_crossing_case_contributes_zero():
    w = word("abab", "WTWT")
    for case in build_cases(w):
        cs = resolve_affine(w, case)
        assert not cs.identity_ok()
        assert case_volume_mc(cs, 100, seed=0).value == 0.0
    # normalized counts decay like 1/n: the limit is zero
    r50 = count_circuits_exact(w, 50) / 50**3
    r100 = count_circuits_exact(w, 100) / 100**3
    assert r100 <= 0.6 * r50
    assert r100 < 0.03


def test_case_volume_full_cube_and_dead_closure():
    w = word("aa", "TT")
    cs_ok = resolve_affine(w, (-1,))
    assert case_volume_mc(cs_ok, 10, seed=0).value == 1.0
    cs_dead = resolve_affine(w, (1,))
    est = case_volume_mc(cs_dead, 10, seed=0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_case_volume_thth():
    w = word("abab", "THTH")
    total, var = 0.0, 0.0
    for case in build_cases(w):
        est = case_volume_mc(resolve_affine(w, case), 10**6, seed=3)
        total += est.value
        var += est.stderr**2
    assert abs(total - 2 / 3) <= 3 * (var**0.5 + 1e-12) + 1e-3


def test_count_examples():
    for kind in "WTHRS":
        assert count_circuits_exact(word("aa", kind * 2), 7) == 49
    w = word("abab", "THTH")
    assert count_circuits_exact(w, 12) == circuit_count_bruteforce("abab", "THTH", 12)
    for n in (20, 40):
        ratio = count_circuits_exact(word("aabb", "TTHH"), n) / n**3
        assert abs(ratio - 1.0) <= 3.0 / n


def test_count_budget_guard():
    w = word("abcabc", "TTTTTT")
    with pytest.raises(BudgetExceededError):
        count_circuits_exact(w, 50, budget=1000)


@settings(max_examples=25)
@given(
    st.lists(st.sampled_from(ALL_KINDS), min_size=2, max_size=2),
    st.integers(0, 2),
    st.integers(2, 9),
)
def test_count_matches_bruteforce_random(pair, pairing_idx, n):
    colors = tuple(pair[i % 2] for i in range(4))
    q = Monomial(tuple((c, 1) for c in colors))
    words = enumerate_pair_matched_words(q)
    if not words:
        return
    w = words[pairing_idx % len(words)]
    got = count_circuits_exact(w, n)
    want = circuit_count_bruteforce(w.text, w.color_text, n)
    assert got == want


TABLE_EXAMPLES = [
    ("abab", "THTH", Fraction(2, 3)),
    ("abab", "RHRH", Fraction(0)),
    ("abcabc", "RRHRRH", Fraction(2, 3)),
    ("abcabc", "HHRHHR", Fraction(1, 2)),
    ("ababcc", "SSSSHH", Fraction(1)),
]


@pytest.mark.parametrize("word_text,mono,expected", TABLE_EXAMPLES)
def test_p_limit_mc_examples(word_text, mono, expected):
    est = p_limit(word(word_text, mono), "mc", samples=400000, seed=11)
    assert est.value == pytest.approx(float(expected), abs=max(3 * est.stderr, 0.004))


@pytest.mark.parametrize("word_text,mono,expected", TABLE_EXAMPLES)
def test_p_limit_exact_examples(word_text, mono, expected):
    est = p_limit(word(word_text, mono), "exact")
    assert est.value == float(expected)
    assert est.stderr == 0.0


@pytest.mark.parametrize("word_text,mono", [("abcdbcda", "RRRRRRRR"), ("abbacddc", "TTTTHHHH")])
def test_p_limit_exact_full_volume_words(word_text, mono):
    assert p_limit(word(word_text, mono), "exact") == (1.0, 0.0)


def test_exact_counts_odd_sizes_largest_first(monkeypatch):
    sizes = []

    def recording(w, n, *, budget):
        sizes.append(n)
        return count_circuits_exact(w, n, budget=budget)

    monkeypatch.setattr(limits, "count_circuits_exact", recording)
    assert p_limit(word("abcabc", "RRHRRH"), "exact").value == 2 / 3
    assert sizes == [11, 9, 7, 5, 3, 1]


def test_exact_word_without_surviving_system_is_zero_uncounted(monkeypatch):
    # over odd n this word's counts are not a polynomial; its volume is
    # zero because no constraint system survives, decided before counting
    def no_counting(w, n, *, budget):
        raise AssertionError("counted circuits of a word without surviving systems")

    monkeypatch.setattr(limits, "count_circuits_exact", no_counting)
    assert p_limit(word("abcabcdd", "WTTWTTSS"), "exact") == (0.0, 0.0)


@pytest.mark.parametrize(
    "mono,expected",
    [
        ("TTTT", Fraction(8, 3)),
        ("TTTTTT", Fraction(11)),
        ("HHHHHH", Fraction(11, 2)),
        ("RRRRRR", Fraction(6)),
        ("SSSSSS", Fraction(15)),
        ("WWWWWW", Fraction(5)),
        ("THTHTHTH", Fraction(13, 5)),
    ],
)
def test_exact_marginal_moments(mono, expected):
    # word volumes are exact; their float sum is not
    assert alpha(parse_monomial(mono), "exact") == pytest.approx(float(expected), rel=1e-12)


def test_p_limit_methods_agree_on_catalan():
    w = word("aabccb", "TTHTTH")
    mc = p_limit(w, "mc", samples=300000, seed=5)
    ex = p_limit(w, "exact")
    assert abs(mc.value - ex.value) <= 3 * (mc.stderr + ex.stderr) + 1e-3
    assert mc.value == pytest.approx(1.0, abs=0.01)


def test_p_limit_color_inconsistent_word_is_zero():
    est = p_limit(word("abcabc", "HHHSHS"), "mc", samples=100)
    assert est.value == 0.0 and est.stderr == 0.0


def test_p_limit_range_invariant():
    for word_text, mono, _ in TABLE_EXAMPLES:
        w = word(word_text, mono)
        k = len(w) // 2
        cap = max(DELTA[c] for c in set(w.colors)) ** k
        for method in ("mc", "exact"):
            est = p_limit(w, method, samples=50000, seed=2)
            assert 0.0 <= est.value <= cap


def test_rotation_invariance_of_p():
    rows = [("abab", "THTH"), ("aabb", "TTHH"), ("aabccb", "TTHTTH"), ("abcbac", "HHTHHT")]
    for word_text, mono in rows:
        w = word(word_text, mono)
        base = p_limit(w, "mc", samples=200000, seed=7)
        for shift in range(1, len(w)):
            rot = cyclic_rotate(w, shift)
            est = p_limit(rot, "mc", samples=200000, seed=7)
            tol = 3 * (base.stderr + est.stderr) + 2e-3
            assert abs(est.value - base.value) <= tol


def test_catalan_floor_smoke():
    w = word("aabccb", "TTHTTH")
    for n in (8, 16, 24):
        assert count_circuits_exact(w, n) >= n**4


def test_exact_over_budget_raises():
    w = word("abcabc", "TTTTTT")
    with pytest.raises(BudgetExceededError):
        p_limit(w, "exact", samples=20000, seed=0, budget=10_000)


def test_alpha_examples():
    assert alpha(parse_monomial("THTH"), samples=400000, seed=1) == pytest.approx(2 / 3, abs=0.005)
    assert alpha(parse_monomial("TTT")) == 0.0
    assert alpha(parse_monomial("T1T1T2T2"), "exact") == pytest.approx(1.0, abs=0.02)
    assert alpha(parse_monomial("T1T2T1T2"), "exact") == pytest.approx(2 / 3, abs=0.02)
    assert alpha(parse_monomial("WWWW")) == pytest.approx(2.0)
    # the crossing Wigner word vanishes exactly in the volume picture
    assert p_limit(word("abab", "WWWW"), "mc", samples=100).value == 0.0


def test_alpha_bound_examples():
    assert alpha_bound(parse_monomial("THTH")) == pytest.approx(12.0)
    assert alpha_bound(parse_monomial("WHWH")) == pytest.approx(3.0)
    assert alpha_bound(parse_monomial("THT")) == 0.0
    assert alpha_bound(parse_monomial("W1T1W2T1")) == 0.0
    # k! Delta^{k/2} / ((k/2)! 2^{k/2}) at lengths where the integers are huge
    for text, k, dmax in (("T" * 40, 40, 2), ("W" * 30, 30, 1)):
        pairings = Fraction(math.factorial(k), math.factorial(k // 2) * 2 ** (k // 2))
        assert alpha_bound(parse_monomial(text)) == float(pairings * dmax ** (k // 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: p_limit(word("abab", "THHT"), "bogus"),
        lambda: alpha(parse_monomial("THT"), "bogus"),
    ],
    ids=["p_limit", "alpha"],
)
def test_unknown_method_rejected(call):
    # each call has an early exit (color-inconsistent word, no pair-matched
    # word) that must not skip the method check
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        call()


def test_alpha_estimate_stderr_combines():
    # three words: aabb and abba at volume 1, abab at 2/3
    value, stderr = alpha_estimate(parse_monomial("TTTT"), samples=50000, seed=3)
    assert value == pytest.approx(1 + 1 + 2 / 3, abs=0.02)
    assert 0 <= stderr < 0.01


def test_affine_form_helpers():
    c1 = AffineForm((0, 1, 0), 0)
    f = AffineForm((1, 1, -1), 0)
    assert f.bare_coordinate() is None
    assert c1.bare_coordinate() == 1
    assert AffineForm((0, 1, 0), 1).bare_coordinate() is None
    assert AffineForm((0, -1, 0), 0).bare_coordinate() is None
    assert f.value_interval() == (-1, 2)
    assert AffineForm((1, -1, 0), 1).value_interval() == (0, 2)


def test_resolved_forms_are_integer_rows():
    w = word("abab", "SSSS")
    for case in build_cases(w):
        cs = resolve_affine(w, case)
        for _, form in cs.dep_forms:
            assert len(form.coeffs) == cs.dim
            assert all(type(c) is int for c in (*form.coeffs, form.const))


WORDS6 = (
    "aabbcc", "aabcbc", "aabccb", "ababcc", "abacbc", "abaccb", "abbacc", "abcabc",
    "abcacb", "abbcac", "abcbac", "abccab", "abbcca", "abcbca", "abccba",
)
R_LIVE6 = {"aabbcc", "aabccb", "abbacc", "abcabc", "abbcca", "abccba"}

# (cases, identity survivors, dedup survivors) of every word of the monomial
GOLDEN_CASE_COUNTS = {
    "TTTTTT": dict.fromkeys(WORDS6, (8, 1, 1)),
    "SSSSSS": dict.fromkeys(WORDS6, (216, 7, 7)),
    "RRRRRR": {w: (27, 7, 7) if w in R_LIVE6 else (27, 0, 0) for w in WORDS6},
    "HHHSHS": {"aabcbc": (6, 1, 1), "abacbc": (6, 0, 0), "abbcac": (6, 1, 1)},
    "WSWSWS": {},
    "WSWWSW": {"abacbc": (24, 0, 0), "abcabc": (24, 0, 0), "abccba": (24, 1, 1)},
}


@pytest.mark.parametrize("mono", sorted(GOLDEN_CASE_COUNTS))
def test_case_engine_golden_counts(mono):
    got = {}
    for w in enumerate_pair_matched_words(parse_monomial(mono)):
        cases = build_cases(w)
        assert case_count(w) == len(cases)
        systems = [resolve_affine(w, c) for c in cases]
        alive = [cs for cs in systems if cs.identity_ok()]
        got[w.text] = (len(cases), len(alive), len({cs.canonical_key() for cs in alive}))
    assert got == GOLDEN_CASE_COUNTS[mono]


def test_case_product_charged_against_budget():
    w = word("abcabc", "SSSSSS")  # 6^3 = 216 cases
    with pytest.raises(BudgetExceededError):
        p_limit(w, "mc", samples=100, budget=100)
    assert p_limit(w, "mc", samples=100, budget=216).value > 0


def test_cached_volume_distinguishes_copy_indices():
    # same letters and colors, different copy structure: abba pairs the two
    # Wigner copies when indices are uniform (volume 1) but crosses copies
    # under the 1-1-2-2 assignment (no qualifying circuit at all)
    uniform = word_from_text("abba", parse_monomial("WWWW"))
    split = word_from_text("abba", parse_monomial("W1W1W2W2"))
    assert p_limit_cached(uniform, "mc", samples=100, seed=0).value == 1.0
    assert p_limit_cached(split, "mc", samples=100, seed=0).value == 0.0


def test_negative_master_seed_accepted():
    est = p_limit(word("abab", "THTH"), "mc", samples=20000, seed=-7)
    assert est.value == pytest.approx(2 / 3, abs=0.02)


def test_dedup_never_merges_distinct_positive_cases():
    # distinct surviving case labels always differ in some dependent form
    for mono, word_text in [("TTTT", "aabb"), ("SSSS", "aabb"), ("RRRR", "abab")]:
        w = word(word_text, mono)
        keys = set()
        for case in build_cases(w):
            cs = resolve_affine(w, case)
            if cs.identity_ok():
                key = cs.canonical_key()
                assert key not in keys
                keys.add(key)


def test_cached_volume_equals_uncached_on_reference_rows():
    # the memo only stores p_limit's value: the word's stream comes from
    # p_limit itself, whichever entry point is called
    for row in ALL_ROWS:
        w = word(row.word, row.monomial)
        direct = p_limit(w, "mc", samples=2000, seed=1)
        assert p_limit_cached(w, "mc", samples=2000, seed=1) == direct, (row.monomial, row.word)


def test_pair_matched_words_skips_enumeration_at_zero_count(monkeypatch):
    def no_enumeration(q):
        raise AssertionError("enumerated a monomial without pair-matched words")

    monkeypatch.setattr(limits, "enumerate_pair_matched_words", no_enumeration)
    assert pair_matched_words(parse_monomial("THT"), budget=10) == []
