import gc
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_monomials, cyclic_rotate, matchings_bruteforce, rotate_monomial
from patrm.algebra import (
    ColoredWord,
    Monomial,
    canonical_letters,
    count_pairings,
    dihedral_key,
    drop_indices,
    enumerate_pair_matched_words,
    is_catalan,
    match_pairs,
    pairing_count_estimate,
    parse_monomial,
    word_from_text,
)
from patrm.linkfns import ALL_KINDS, LinkKind

W, T, H = LinkKind.WIGNER, LinkKind.TOEPLITZ, LinkKind.HANKEL


def test_parse_examples():
    assert parse_monomial("THTH").letters == ((T, 1), (H, 1), (T, 1), (H, 1))
    assert parse_monomial("W1 T1 W2 T1").letters == ((W, 1), (T, 1), (W, 2), (T, 1))
    assert parse_monomial("W1T1W2T1").letters == ((W, 1), (T, 1), (W, 2), (T, 1))
    for bad in ("X", "", "  ", "T0", "T-1", "1T"):
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_parse_roundtrip():
    for text in ("THTH", "W1 T1 W2 T1", "SSRR", "H3 H3"):
        q = parse_monomial(text)
        assert parse_monomial(str(q)) == q


def test_enumerate_examples():
    words = enumerate_pair_matched_words(parse_monomial("TTTTHH"))
    assert {w.text for w in words} == {"aabbcc", "abbacc", "ababcc"}
    assert [w.text for w in enumerate_pair_matched_words(parse_monomial("THTH"))] == ["abab"]
    assert enumerate_pair_matched_words(parse_monomial("THT")) == []
    assert enumerate_pair_matched_words(parse_monomial("W1T1W2T1")) == []


def test_enumeration_leaves_no_reference_cycle():
    # a self-referencing closure would keep each call's word list alive
    # until the cyclic collector runs
    q = parse_monomial("TTTTTTTT")
    gc.collect()
    gc.disable()
    try:
        pairs = [match_pairs(w) for w in enumerate_pair_matched_words(q)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(pairs) == 105 and pairs == sorted(pairs)


@given(st.lists(st.tuples(st.sampled_from(ALL_KINDS), st.integers(1, 2)), min_size=1, max_size=6))
def test_enumeration_matches_bruteforce(letters):
    q = Monomial(tuple(letters))
    got = {tuple(match_pairs(w)) for w in enumerate_pair_matched_words(q)}
    want = {
        tuple((a + 1, b + 1) for a, b in m) for m in matchings_bruteforce(list(q.letters))
    }
    assert got == want
    assert len(got) == pairing_count_estimate(q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_single_color_count_identity(k):
    q = Monomial(tuple((T, 1) for _ in range(2 * k)))
    words = enumerate_pair_matched_words(q)
    assert len(words) == count_pairings(2 * k)


def test_drop_indices_worked_example():
    # two copies each of two ensembles, pattern a b c c d d b a
    q = parse_monomial("W1 W2 T1 T1 T2 T2 W2 W1")
    words = enumerate_pair_matched_words(q)
    target = next(w for w in words if w.text == "abccddba")
    dropped = drop_indices(target)
    assert dropped.text == "abccddba"
    assert dropped.colors == target.colors
    assert set(dropped.indices) == {1}


@pytest.mark.parametrize("colors", [("T", "H"), ("W", "T"), ("R", "S")])
def test_drop_indices_injective_up_to_length_six(colors):
    kinds = tuple(LinkKind.from_char(c) for c in colors)
    for length in (2, 4, 6):
        for q in all_monomials(kinds, length, indices=(1, 2)):
            words = enumerate_pair_matched_words(q)
            images = {(drop_indices(w).letters, drop_indices(w).colors) for w in words}
            assert len(images) == len(words)


def test_is_catalan_examples():
    assert is_catalan(word_from_text("aabb", parse_monomial("TTHH"))) is True
    assert is_catalan(word_from_text("abab", parse_monomial("THTH"))) is False
    assert is_catalan(word_from_text("aabccb", parse_monomial("TTHTTH"))) is True


def test_catalan_iff_noncrossing():
    for k in (1, 2, 3, 4):
        q = Monomial(tuple((T, 1) for _ in range(2 * k)))
        for w in enumerate_pair_matched_words(q):
            pairs = match_pairs(w)
            crossing = any(
                a < c < b < d
                for (a, b), (c, d) in itertools.combinations(pairs, 2)
            )
            assert is_catalan(w) == (not crossing)


def test_match_pairs_examples():
    assert match_pairs(word_from_text("abab", parse_monomial("THTH"))) == [(1, 3), (2, 4)]
    assert match_pairs(word_from_text("aabb", parse_monomial("TTHH"))) == [(1, 2), (3, 4)]
    assert match_pairs(word_from_text("aabccb", parse_monomial("TTHTTH"))) == [
        (1, 2),
        (3, 6),
        (4, 5),
    ]


def test_cyclic_rotate_examples():
    abab = word_from_text("abab", parse_monomial("THTH"))
    assert cyclic_rotate(abab, 1).text == "abab"
    assert cyclic_rotate(abab, 1).colors == (H, T, H, T)
    aabb = word_from_text("aabb", parse_monomial("TTHH"))
    assert cyclic_rotate(aabb, 1).text == "abba"
    with pytest.raises(ValueError):
        cyclic_rotate(aabb, 4)


@given(
    st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_rotation_bijection(kind_pool, shift_raw, pick):
    q = Monomial(tuple((k, 1) for k in kind_pool * 2))
    words = enumerate_pair_matched_words(q)
    if not words:
        return
    shift = shift_raw % len(q)
    rotated_q = rotate_monomial(q, shift)
    rotated = {cyclic_rotate(w, shift) for w in words}
    assert rotated == set(enumerate_pair_matched_words(rotated_q))
    w = words[pick % len(words)]
    back = cyclic_rotate(cyclic_rotate(w, shift), (len(q) - shift) % len(q))
    assert back == w


def _reversed(w: ColoredWord) -> ColoredWord:
    return ColoredWord(canonical_letters(w.letters[::-1]), w.colors[::-1], w.indices[::-1])


def test_dihedral_key_examples():
    key = dihedral_key(word_from_text("aabb", parse_monomial("TTHH")))
    # letters first: aabb beats abba, and HHTT (a rotation by two) beats TTHH
    assert key == word_from_text("aabb", parse_monomial("HHTT"))
    assert dihedral_key(word_from_text("abba", parse_monomial("THHT"))) == key
    # copy indices move with their letters and break ties: aabb on W1W2W2W1 beats W2W1W1W2
    w = word_from_text("abba", parse_monomial("W1W1W2W2"))
    assert dihedral_key(w) == word_from_text("aabb", parse_monomial("W1W2W2W1"))


@given(
    st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_dihedral_key_invariant_under_rotation_and_reversal(kind_pool, shift_raw, pick):
    q = Monomial(tuple((k, 1) for k in kind_pool * 2))
    words = enumerate_pair_matched_words(q)
    if not words:
        return
    w = words[pick % len(words)]
    rotated = cyclic_rotate(w, shift_raw % len(q))
    assert dihedral_key(rotated) == dihedral_key(_reversed(rotated)) == dihedral_key(w)


@pytest.mark.parametrize("k,classes", [(1, 1), (2, 2), (3, 5), (4, 17), (5, 79)])
def test_dihedral_classes_of_single_kind_words(k, classes):
    # chord diagrams on 2k points up to rotation and reflection
    words = enumerate_pair_matched_words(parse_monomial("T" * (2 * k)))
    assert len({dihedral_key(w) for w in words}) == classes


def test_word_from_text_validates():
    q = parse_monomial("THTH")
    with pytest.raises(ValueError):
        word_from_text("abc", q)
    with pytest.raises(ValueError):
        word_from_text("ab!b", q)
    # non-canonical input letters are renamed
    assert word_from_text("baba", q).text == "abab"


def test_color_consistency_flag():
    # pairing positions of different kinds is representable but inconsistent
    w = word_from_text("abcabc", parse_monomial("HHHSHS"))
    assert w.is_pair_matched()
    assert not w.is_color_consistent()


def test_canonical_letters():
    assert canonical_letters((5, 5, 2, 2)) == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        ColoredWord((1, 0), (T, T), (1, 1))
