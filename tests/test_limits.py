import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    all_monomials,
    case_volume_mc_reference,
    circuit_count_bruteforce,
    cyclic_rotate,
    resolve_case_reference,
    volume_from_odd_counts,
)
from patrm import limits
from patrm.algebra import (
    ColoredWord,
    Monomial,
    count_pairings,
    dihedral_key,
    enumerate_pair_matched_words,
    is_catalan,
    match_pairs,
    parse_monomial,
    word_from_text,
)
from patrm.limits import (
    _MC_CHUNK,
    DEFAULT_BUDGET,
    AffineForm,
    BranchBudget,
    BudgetExceededError,
    ConstraintSystem,
    VolumeEstimate,
    alpha,
    alpha_bound,
    alpha_estimate,
    build_cases,
    case_count,
    case_volume_exact,
    case_volume_mc,
    count_circuits_exact,
    p_limit,
    p_limit_cached,
    pair_matched_words,
    resolve_affine,
)
from patrm.linkfns import ALL_KINDS, DELTA, LinkKind, solve_branch_grid
from patrm.reference_tables import ALL_ROWS
from patrm.sampler import seed_sequence

T = LinkKind.TOEPLITZ


def word(word_text, mono_text):
    return word_from_text(word_text, parse_monomial(mono_text))


def test_build_cases_counts():
    assert len(build_cases(word("abab", "THTH"))) == 2
    assert len(build_cases(word("abab", "RHRH"))) == 3
    assert len(build_cases(word("aabccb", "HHSHHS"))) == 6
    assert len(build_cases(word("abab", "WSWS"))) == 12


def test_resolve_single_pair_full_volume():
    # W keeps only its straight identification (C2 fails at the match);
    # T, H, R and S keep every case, closure failures included
    for kind, systems in zip("WTHRS", (1, 2, 1, 3, 6)):
        w = word("aa", kind * 2)
        resolved = resolve_affine(w)
        assert len(resolved) == systems, kind
        total = sum(case_volume_mc(cs, 1000, seed=0).value for cs in resolved)
        assert total == pytest.approx(1.0)


def test_resolve_structure_invariants():
    w = word("aabccb", "TTHTTH")
    for cs in resolve_affine(w):
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
    alive = [(c, cs) for c, cs in zip(build_cases(w), resolve_affine(w)) if cs.identity_ok()]
    assert [c for c, _ in alive] == [(-1, -1)]
    total = sum(case_volume_mc(cs, 300000, seed=1).value for _, cs in alive)
    est = p_limit(w, "exact")
    assert total == pytest.approx(est.value, abs=0.02)


def test_wigner_crossing_case_contributes_zero():
    w = word("abab", "WTWT")
    # every one of the four cases fails a Wigner identification at its match
    assert len(build_cases(w)) == 4
    assert resolve_affine(w) == []
    assert p_limit(w, "mc", samples=100) == (0.0, 0.0)
    # normalized counts decay like 1/n: the limit is zero
    r50 = count_circuits_exact(w, 50) / 50**3
    r100 = count_circuits_exact(w, 100) / 100**3
    assert r100 <= 0.6 * r50
    assert r100 < 0.03


def test_case_volume_full_cube_and_dead_closure():
    w = word("aa", "TT")
    assert build_cases(w) == [(1,), (-1,)]
    cs_dead, cs_ok = resolve_affine(w)
    assert case_volume_mc(cs_ok, 10, seed=0).value == 1.0
    est = case_volume_mc(cs_dead, 10, seed=0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_case_volume_thth():
    w = word("abab", "THTH")
    total, var = 0.0, 0.0
    for cs in resolve_affine(w):
        est = case_volume_mc(cs, 10**6, seed=3)
        total += est.value
        var += est.stderr**2
    assert abs(total - 2 / 3) <= 3 * (var**0.5 + 1e-12) + 1e-3


def _survivors(word_text, mono):
    return [cs for cs in resolve_affine(word(word_text, mono)) if cs.identity_ok()]


def _repeats_a_form(cs):
    forms = [f for _, f in cs.dep_forms[:-1] if f.bare_coordinate() is None]
    return len(set(forms)) < len(forms)


# systems of dims 1-5, among them every short-circuit of the kernel
_C = _MC_CHUNK
KERNEL_SYSTEMS = {
    # 2 v1 in [0, 1): volume 1/2
    "dim1": ConstraintSystem((0,), ((1, AffineForm((2,), 0)), (2, AffineForm((1,), 0))), ()),
    "no-form": resolve_affine(word("aa", "TT"))[1],
    "dead": resolve_affine(word("aa", "TT"))[0],
    # v0 + v1 + 2 lies in [2, 4): provably outside [0, 1)
    "empty-box": ConstraintSystem(
        (0, 1), ((2, AffineForm((1, 1), 2)), (3, AffineForm((1, 0), 0))), ()
    ),
    "dim3": _survivors("abab", "THTH")[0],
    "dim4-repeated-form": next(cs for cs in _survivors("abaccb", "TTTTTT") if _repeats_a_form(cs)),
    "dim5-repeated-form": next(cs for cs in _survivors("aabcbddc", "TTTTTTTT") if _repeats_a_form(cs)),
    # three forms, none of them provably empty
    "dim5": resolve_affine(word("abacbdcd", "TTTTTTTT"))[15],
}


def test_kernel_systems_cover_their_labels():
    assert [cs.dim for cs in KERNEL_SYSTEMS.values()] == [1, 2, 2, 2, 3, 4, 5, 5]
    assert not KERNEL_SYSTEMS["dead"].identity_ok()
    assert KERNEL_SYSTEMS["no-form"].inequality_forms() == []
    assert case_volume_mc(KERNEL_SYSTEMS["empty-box"], 10, seed=0) == (0.0, 0.0)
    assert len(KERNEL_SYSTEMS["dim5"].inequality_forms()) == 3
    for name in ("dim1", "dim3", "dim4-repeated-form", "dim5-repeated-form", "dim5"):
        assert 0.0 < case_volume_mc(KERNEL_SYSTEMS[name], 1000, seed=0).value < 1.0, name


@pytest.mark.parametrize("samples", [1, _C - 1, _C, _C + 1, 3 * _C + 7, 10**6])
@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_case_volume_mc_equals_single_threaded_reference(monkeypatch, name, samples):
    cs = KERNEL_SYSTEMS[name]
    seed = seed_sequence(21, samples)
    want = case_volume_mc_reference(cs, samples, seed)
    for workers in (1, 2, 3):
        monkeypatch.setattr(limits, "_MC_WORKERS", workers)
        assert case_volume_mc(cs, samples, seed) == want, workers


def test_case_volume_mc_more_threads_than_cores(monkeypatch):
    # each thread writes only its own slot; a lost or misplaced count would change the estimate
    cs = KERNEL_SYSTEMS["dim5"]
    samples = 20 * _C + 3
    want = case_volume_mc_reference(cs, samples, seed=9)
    monkeypatch.setattr(limits, "_MC_WORKERS", 16)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = case_volume_mc(cs, samples, seed=9)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
def test_case_volume_mc_memory_does_not_grow_with_samples(monkeypatch, workers):
    monkeypatch.setattr(limits, "_MC_WORKERS", workers)
    cs = KERNEL_SYSTEMS["dim5"]
    # the first sampled call of a process may import modules; keep that out
    case_volume_mc(cs, 1, seed=3)
    tracemalloc.start()
    try:
        case_volume_mc(cs, 10**6, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of points, one of form values and two masks per worker
    assert peak <= workers * 2 * 2**20


def test_surviving_systems_list_each_form_once():
    survivors = 0
    for kind in ALL_KINDS:
        for length in (2, 4, 6, 8):
            for w in enumerate_pair_matched_words(Monomial(((kind, 1),) * length)):
                for cs in resolve_affine(w):
                    if not cs.identity_ok():
                        continue
                    survivors += 1
                    forms = cs.inequality_forms()
                    assert len(set(forms)) == len(forms), (w.text, kind)
                    assert set(forms) == {f for _, f in cs.dep_forms[:-1] if f.bare_coordinate() is None}
    assert survivors == 2794


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


# counts of the per-combination counter, beyond the brute-force oracles' reach
@pytest.mark.parametrize(
    "word_text,mono,counts",
    [
        ("abcdbcda", "SSSSSSSS", (36337, 116289)),
        ("abcdabcd", "TTTTTTTT", (15121, 48865)),
        ("abcbadcd", "WRWRWRWR", (637, 1377)),
        ("abbacddc", "TTTTHHHH", (17689, 61641)),
    ],
)
def test_count_golden_long_words(word_text, mono, counts):
    w = word(word_text, mono)
    assert tuple(count_circuits_exact(w, n) for n in (7, 9)) == counts


def test_count_solves_each_branch_prefix_once(monkeypatch):
    # one solve per start vertex and branch prefix: the i-th second
    # occurrence is reached by at most prod_{j<=i} DELTA_j prefixes
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_branch_grid(*args)

    monkeypatch.setattr(limits, "solve_branch_grid", counting)
    w, n = word("abab", "TTTT"), 5
    deltas = [DELTA[w.colors[s - 1]] for s in sorted(s for _, s in match_pairs(w))]
    bound = n * sum(math.prod(deltas[: i + 1]) for i in range(len(deltas)))
    assert count_circuits_exact(w, n) == circuit_count_bruteforce("abab", "TTTT", n)
    assert 0 < len(calls) <= bound


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
    assert isinstance(est.value, Fraction)
    assert est.value == expected
    assert est.stderr == 0.0


@pytest.mark.parametrize("word_text,mono", [("abcdbcda", "RRRRRRRR"), ("abbacddc", "TTTTHHHH")])
def test_p_limit_exact_full_volume_words(word_text, mono):
    assert p_limit(word(word_text, mono), "exact") == (1.0, 0.0)


def exact_volume(w) -> Fraction:
    """The rational that p_limit's exact route rounds: its survivors' exact volumes, summed."""
    if not w.is_color_consistent():
        return Fraction(0)
    survivors = {cs.canonical_key(): cs for cs in resolve_affine(w) if cs.identity_ok()}
    branches = BranchBudget(DEFAULT_BUDGET)
    return sum((case_volume_exact(cs, branches) for cs in survivors.values()), Fraction(0))


def test_exact_counts_odd_sizes_largest_first(monkeypatch):
    sizes = []

    def recording(w, n, *, budget):
        sizes.append(n)
        return count_circuits_exact(w, n, budget=budget)

    monkeypatch.setattr(oracles, "count_circuits_exact", recording)
    assert volume_from_odd_counts(word("abcabc", "RRHRRH")) == Fraction(2, 3)
    assert sizes == [11, 9, 7, 5, 3, 1]


def test_odd_count_reader_takes_odd_sizes_for_mixed_toeplitz_circulant_word():
    # even-n counts of words mixing T and S have period 4 in n, so an
    # even-n fit of this word reads 11/16; the reader's sizes must stay odd
    w = word("abcbca", "TTSTST")
    assert volume_from_odd_counts(w) == exact_volume(w) == Fraction(2, 3)


def test_odd_count_reader_rejects_counts_that_are_no_polynomial(monkeypatch):
    monkeypatch.setattr(oracles, "count_circuits_exact", lambda w, n, *, budget: 2**n)
    with pytest.raises(ArithmeticError, match="not a degree-3 polynomial"):
        volume_from_odd_counts(word("abab", "THTH"))


def test_exact_word_without_surviving_system_is_zero_uncounted(monkeypatch):
    # over odd n this word's counts are not a polynomial; its volume is
    # zero because no constraint system survives, decided before any
    # counting or integration
    def no_volume(*args, **kwargs):
        raise AssertionError("measured a word without surviving systems")

    monkeypatch.setattr(limits, "count_circuits_exact", no_volume)
    monkeypatch.setattr(limits, "case_volume_exact", no_volume)
    assert p_limit(word("abcabcdd", "WTTWTTSS"), "exact") == (0.0, 0.0)


def test_exact_route_rounds_the_integrated_volume():
    # the route returns the integrated rational itself, so a report rounds it once
    for word_text, mono in [("abcabc", "RRHRRH"), ("abcdabcd", "TTTTTTTT"), ("abcbca", "TTSTST")]:
        w = word(word_text, mono)
        assert p_limit(w, "exact") == (exact_volume(w), 0.0)


def test_integrator_equals_odd_count_reader_on_reference_words():
    for word_text, colors in REFERENCE_WORDS:
        w = word(word_text, colors)
        volume = exact_volume(w)
        if volume:
            assert volume == volume_from_odd_counts(w), (word_text, colors)
        else:
            # the reader needs a surviving system; a word without one is 0 uncounted
            assert p_limit(w, "exact") == (0.0, 0.0), (word_text, colors)


def test_integrator_equals_p_true_on_reference_rows():
    for row in ALL_ROWS:
        assert exact_volume(word(row.word, row.monomial)) == row.p_true, (row.monomial, row.word)


@pytest.mark.parametrize(
    "mono,expected",
    [
        ("TTTT", Fraction(8, 3)),
        ("TTTTTT", Fraction(11)),
        ("TTTTTTTT", Fraction(908, 15)),
        ("HHHHHH", Fraction(11, 2)),
        ("HHHHHHHH", Fraction(281, 15)),
        ("HHHHHHHHHH", Fraction(2717, 36)),
        ("RRRRRR", Fraction(6)),
        ("RRRRRRRR", Fraction(24)),
        ("SSSSSS", Fraction(15)),
        ("WWWWWW", Fraction(5)),
        ("WWWWWWWW", Fraction(14)),
        ("THTHTHTH", Fraction(13, 5)),
    ],
)
def test_exact_moments_as_fractions(mono, expected):
    words = enumerate_pair_matched_words(parse_monomial(mono))
    assert sum((exact_volume(w) for w in words), Fraction(0)) == expected


def _key_word(key) -> ColoredWord:
    # the least image that a dihedral key names, with uniform copy indices
    letters, colors = key
    return ColoredWord(letters, tuple(LinkKind.from_char(c) for c in colors), (1,) * len(letters))


def test_exact_volume_is_constant_on_dihedral_classes():
    # rotating or reversing a word leaves its exact volume unchanged, so
    # every word's volume is that of the representative its key names
    words = [word(text, colors) for length in (2, 4, 6) for text, colors in _color_consistent_words(length)]
    for mono in ("TTTTTTTT", "HHHHHHHH", "RRRRRRRR", "THTHTHTH", "SSSSSSSS", "WWWWWWWW"):
        words += enumerate_pair_matched_words(parse_monomial(mono))
    # the words of the freeness sweep: every {W, X} monomial of length <= 8 holding both kinds
    sweep = {
        w
        for other in "THRS"
        for length in range(2, 9)
        for q in all_monomials((LinkKind.WIGNER, LinkKind.from_char(other)), length)
        if len(set(q.colors)) == 2
        for w in enumerate_pair_matched_words(q)
    }
    assert (len(sweep), len({dihedral_key(w) for w in sweep})) == (6264, 628)
    words += sweep
    volumes = {}

    def volume(w):
        # p_limit, never p_limit_cached, which keys exact volumes by the class
        # under test and so would only compare the cache with itself
        if w not in volumes:
            volumes[w] = p_limit(w, "exact").value
        return volumes[w]

    keys = set()
    for w in words:
        key = dihedral_key(w)
        rep = _key_word(key)
        assert dihedral_key(rep) == key
        assert volume(w) == volume(rep), (w.text, w.color_text)
        keys.add(key)
    assert (len(words), len(keys)) == (2279 + 6264 + 210, 941 + 34)


@pytest.mark.parametrize("length,words,classes", [(8, 105, 17), (10, 945, 79)])
def test_exact_alpha_integrates_one_word_per_dihedral_class(monkeypatch, length, words, classes):
    integrated = []

    def unit_volume(w, method, **kwargs):
        integrated.append(dihedral_key(w))
        return VolumeEstimate(Fraction(1), 0.0)

    # a private cache, so the stub's volumes never reach the process's one
    monkeypatch.setattr(limits, "_P_CACHE", {})
    monkeypatch.setattr(limits, "p_limit", unit_volume)
    # with every class at volume 1 the limit counts the words: the class sizes
    assert alpha_estimate(parse_monomial("T" * length), "exact") == (words, 0.0)
    assert len(integrated) == len(set(integrated)) == classes
    assert len(limits._P_CACHE) == classes
    # a copy monomial's words lie in the same classes, so it integrates none
    copies = parse_monomial("T1" * (length - 4) + "T2" * 4)
    assert alpha_estimate(copies, "exact") == (count_pairings(length - 4) * 3, 0.0)
    assert len(integrated) == len(limits._P_CACHE) == classes


def _closed_form_s(q):
    # circulants commute, so S copies behave as independent standard
    # Gaussians: the product of each copy's moment, (m - 1)!! or 0
    return math.prod(count_pairings(m) for m in Counter(q.indices).values())


def _closed_form_r(q):
    # R copies are half independent: prod e! when each copy sits at as many
    # even positions e as odd ones, else 0
    even = Counter(q.indices[::2])
    odd = Counter(q.indices[1::2])
    return math.prod(math.factorial(e) for e in even.values()) if even == odd else 0


@pytest.mark.parametrize("kind,closed_form", [("S", _closed_form_s), ("R", _closed_form_r)], ids=["S", "R"])
@pytest.mark.parametrize("length,copies", [(4, 3), (6, 3), (8, 2)], ids=["4", "6", "8"])
def test_circulant_copy_monomials_take_their_closed_forms(kind, closed_form, length, copies):
    for q in all_monomials([LinkKind.from_char(kind)], length, indices=tuple(range(1, copies + 1))):
        assert alpha_estimate(q, "exact").value == closed_form(q), str(q)


@pytest.mark.parametrize("length,copies", [(2, 3), (4, 3), (6, 3), (8, 2)])
def test_wigner_copy_monomials_count_their_noncrossing_words(length, copies):
    # Wigner copies are free among themselves: the limit counts the
    # non-crossing pairings that pair equal copies, the Catalan words
    for q in all_monomials([LinkKind.WIGNER], length, indices=tuple(range(1, copies + 1))):
        want = sum(is_catalan(w) for w in enumerate_pair_matched_words(q))
        assert alpha_estimate(q, "exact").value == want, str(q)


def _is_symmetric(w):
    # every match joins an odd and an even position
    return all((f + s) % 2 for f, s in match_pairs(w))


@pytest.mark.parametrize(
    "kind,lengths,closed_form",
    [
        ("W", (2, 4, 6, 8), lambda w: Fraction(int(is_catalan(w)))),
        ("R", (2, 4, 6, 8), lambda w: Fraction(int(_is_symmetric(w)))),
        ("S", (2, 4, 6), lambda w: Fraction(1)),
        ("H", (2, 4, 6, 8), lambda w: None if _is_symmetric(w) else Fraction(0)),
    ],
)
def test_single_kind_word_volumes_take_their_closed_forms(kind, lengths, closed_form):
    # W: 1 iff Catalan; R: 1 iff symmetric; S: always 1; H: 0 unless symmetric
    for length in lengths:
        for w in enumerate_pair_matched_words(parse_monomial(kind * length)):
            want = closed_form(w)
            if want is not None:
                assert exact_volume(w) == want, w.text


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
        ("TTTTTTTT", Fraction(908, 15)),
        ("TTTTTTTTTT", Fraction(415)),
        ("HHHHHHHH", Fraction(281, 15)),
        ("HHHHHHHHHH", Fraction(2717, 36)),
        ("RRRRRRRR", Fraction(24)),
        ("SSSSSSSS", Fraction(105)),
        ("WWWWWWWW", Fraction(14)),
    ],
)
def test_exact_marginal_moments(mono, expected):
    # the class volumes are exact, and so is their weighted sum
    est = alpha_estimate(parse_monomial(mono), "exact")
    assert isinstance(est.value, Fraction)
    assert est == (expected, 0.0)


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
        volume_from_odd_counts(w, budget=10_000)
    # 8 cases fit a budget of 30; the 36 integration branches do not
    with pytest.raises(BudgetExceededError, match="exact integration needs more than 30 branches"):
        p_limit(w, "exact", budget=30)
    assert p_limit(w, "exact", budget=36).value == exact_volume(w)


def test_integration_branches_are_charged_per_word():
    # one budget for all of a word's surviving systems, not one per system
    w = word("abcabc", "RRRRRR")
    survivors = [cs for cs in resolve_affine(w) if cs.identity_ok()]
    per_system = []
    for cs in survivors:
        branches = BranchBudget(DEFAULT_BUDGET)
        case_volume_exact(cs, branches)
        per_system.append(branches.spent)
    assert len(survivors) == 7 and max(per_system) < sum(per_system) == 112
    with pytest.raises(BudgetExceededError):
        p_limit(w, "exact", budget=111)
    assert p_limit(w, "exact", budget=112).value == 1.0


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: p_limit(word("abab", "WSWS"), samples=0),
        lambda: p_limit(word("abab", "THHT"), samples=0),
        lambda: alpha(parse_monomial("THT"), samples=0),
        lambda: p_limit(word("abab", "THTH"), "exact", samples=0),
    ],
    ids=["no-surviving-system", "color-inconsistent", "odd-monomial", "exact-route"],
)
def test_nonpositive_samples_rejected(call):
    # the check comes before any case work, so it depends on neither the
    # word nor the route
    with pytest.raises(ValueError, match="samples must be >= 1"):
        call()


# alpha_estimate(q, samples=20000, seed=1) as the per-case resolver gave
# it; equal tuples mean the case order, the dedup order and the
# per-system seeds are unchanged
GOLDEN_ALPHA_ESTIMATES = {
    "SSSSSS": (15.00965, 0.01709202298954106),
    "RRRRRR": (6.00295, 0.005950350189274577),
    "WRWRWR": (0.0, 0.0),
    "THTHTH": (0.0, 0.0),
    "THTHHH": (1.3415, 0.00469935969042592),
}


@pytest.mark.parametrize("mono", sorted(GOLDEN_ALPHA_ESTIMATES))
def test_alpha_estimate_golden_values(mono):
    assert tuple(alpha_estimate(parse_monomial(mono), samples=20000, seed=1)) == GOLDEN_ALPHA_ESTIMATES[mono]


def _color_consistent_words(length):
    # every pair-matched letter string, each letter colored by one kind
    for w in enumerate_pair_matched_words(parse_monomial("T" * length)):
        letters = sorted(set(w.text))
        for kinds in itertools.product("WTHRS", repeat=len(letters)):
            color = dict(zip(letters, kinds))
            yield w.text, "".join(color[ch] for ch in w.text)


REFERENCE_WORDS = [
    *(pair for length in (2, 4, 6) for pair in _color_consistent_words(length)),
    ("abcdabcd", "SSSSSSSS"),
    ("abcdbcda", "RRRRRRRR"),
    ("abcbadcd", "WRWRWRWR"),
]


def test_resolve_affine_equals_reference_walk():
    # the walk keeps exactly the cases whose Wigner equalities all hold as
    # identities, resolved as the reference resolves them, in build_cases
    # order; closure failures are kept for identity_ok
    assert len(REFERENCE_WORDS) == 5 * 1 + 25 * 3 + 125 * 15 + 3 == 1958
    kept = omitted = closure_failures = 0
    for word_text, colors in REFERENCE_WORDS:
        w = word(word_text, colors)
        got = [(cs.gen_positions, cs.dep_forms, cs.equalities) for cs in resolve_affine(w)]
        want = []
        for case in build_cases(w):
            ref = resolve_case_reference(word_text, colors, case)
            if all(a == b for a, b in ref[2]):
                want.append(ref)
                closure_failures += AffineForm(*ref[1][-1][1]).bare_coordinate() != 0
            else:
                omitted += 1
        assert got == want, (word_text, colors)
        kept += len(want)
    assert (kept, omitted, closure_failures) == (30291, 12884, 27735)


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
    for cs in resolve_affine(w):
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
        systems = resolve_affine(w)
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
    # the exact key drops copy indices but keeps color consistency
    assert p_limit_cached(uniform, "exact").value == 1
    assert p_limit_cached(split, "exact").value == 0
    # a cached class still checks the request
    with pytest.raises(ValueError):
        p_limit_cached(uniform, "exact", samples=0)


def test_negative_master_seed_accepted():
    est = p_limit(word("abab", "THTH"), "mc", samples=20000, seed=-7)
    assert est.value == pytest.approx(2 / 3, abs=0.02)


def test_dedup_never_merges_distinct_positive_cases():
    # distinct surviving case labels always differ in some dependent form
    for mono, word_text in [("TTTT", "aabb"), ("SSSS", "aabb"), ("RRRR", "abab")]:
        w = word(word_text, mono)
        keys = set()
        for cs in resolve_affine(w):
            if cs.identity_ok():
                key = cs.canonical_key()
                assert key not in keys
                keys.add(key)


def test_cached_volume_equals_uncached_on_reference_rows():
    # the memo only stores p_limit's value: the word's stream comes from
    # p_limit itself, whichever entry point is called, and an exact volume
    # stored under the word's dihedral class is the word's own
    for row in ALL_ROWS:
        w = word(row.word, row.monomial)
        direct = p_limit(w, "mc", samples=2000, seed=1)
        assert p_limit_cached(w, "mc", samples=2000, seed=1) == direct, (row.monomial, row.word)
        assert p_limit_cached(w, "exact") == p_limit(w, "exact"), (row.monomial, row.word)


def test_pair_matched_words_skips_enumeration_at_zero_count(monkeypatch):
    def no_enumeration(q):
        raise AssertionError("enumerated a monomial without pair-matched words")

    monkeypatch.setattr(limits, "enumerate_pair_matched_words", no_enumeration)
    assert pair_matched_words(parse_monomial("THT"), budget=10) == []
