"""Monomials over colored/indexed matrix symbols and their pair-matched words.

A monomial is an ordered list of letters (kind, copy index).  A word is an
equivalence class of circuits, represented by the partition of positions
into same-letter blocks together with the per-position colors and indices
inherited from the monomial.  Words are canonicalized so that letters are
numbered in order of first occurrence ('a' before 'b' before 'c', ...).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .linkfns import LinkKind

_TOKEN = re.compile(r"([A-Za-z])(\d*)")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Monomial:
    """Ordered product of matrix symbols; each letter is (kind, copy index >= 1)."""

    letters: tuple[tuple[LinkKind, int], ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty monomial")
        if any(idx < 1 for _, idx in self.letters):
            raise ValueError("copy indices must be >= 1")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if all(idx == 1 for _, idx in self.letters):
            return "".join(kind.char for kind, _ in self.letters)
        return " ".join(f"{kind.char}{idx}" for kind, idx in self.letters)

    @property
    def colors(self) -> tuple[LinkKind, ...]:
        return tuple(kind for kind, _ in self.letters)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(idx for _, idx in self.letters)

    def rotated(self, shift: int) -> "Monomial":
        k = len(self.letters)
        shift %= k
        return Monomial(self.letters[shift:] + self.letters[:shift])


def parse_monomial(text: str) -> Monomial:
    """Parse monomial text: tokens <kind-char><optional digits>, e.g. 'THTH' or 'W1 T1 W2 T1'.

    A bare kind character means copy index 1.  Whitespace is optional
    everywhere (compact forms like 'W1T1W2T1' are accepted).
    """
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty monomial text")
    letters = []
    pos = 0
    for m in _TOKEN.finditer(stripped):
        if m.start() != pos:
            raise ValueError(f"cannot parse monomial text at {stripped[pos:]!r}")
        kind = LinkKind.from_char(m.group(1))
        idx = int(m.group(2)) if m.group(2) else 1
        if idx == 0:
            raise ValueError("copy index 0 is not allowed (indices start at 1)")
        letters.append((kind, idx))
        pos = m.end()
    if pos != len(stripped):
        raise ValueError(f"cannot parse monomial text at {stripped[pos:]!r}")
    return Monomial(tuple(letters))


@dataclass(frozen=True)
class ColoredWord:
    """A word: canonical letter ids per position plus inherited colors/indices."""

    letters: tuple[int, ...]
    colors: tuple[LinkKind, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.letters) == len(self.colors) == len(self.indices)):
            raise ValueError("letters, colors and indices must have equal length")
        if canonical_letters(self.letters) != self.letters:
            raise ValueError("letter ids must be canonical (first-occurrence order)")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def text(self) -> str:
        if max(self.letters) >= len(_ALPHABET):
            raise ValueError("word has more than 26 distinct letters")
        return "".join(_ALPHABET[i] for i in self.letters)

    @property
    def color_text(self) -> str:
        return "".join(c.char for c in self.colors)

    def is_pair_matched(self) -> bool:
        counts: dict[int, int] = {}
        for lid in self.letters:
            counts[lid] = counts.get(lid, 0) + 1
        return all(c == 2 for c in counts.values())

    def is_color_consistent(self) -> bool:
        """True when every letter block carries a single color (and index)."""
        seen: dict[int, tuple[LinkKind, int]] = {}
        for lid, col, idx in zip(self.letters, self.colors, self.indices):
            if lid in seen and seen[lid] != (col, idx):
                return False
            seen.setdefault(lid, (col, idx))
        return True

    def to_json_dict(self) -> dict:
        return {
            "word": self.text,
            "colors": self.color_text,
            "indices": list(self.indices),
            "catalan": is_catalan(self) if self.is_pair_matched() else False,
        }


def canonical_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    rename: dict[int, int] = {}
    out = []
    for lid in letters:
        if lid not in rename:
            rename[lid] = len(rename)
        out.append(rename[lid])
    return tuple(out)


def word_from_text(word_text: str, q: Monomial) -> ColoredWord:
    """Word from its letter string, colored positionally by the monomial.

    The result may be color-inconsistent (a letter pairing positions of
    different kinds); such words index no circuits at all.
    """
    if len(word_text) != len(q):
        raise ValueError(f"word {word_text!r} has length {len(word_text)}, monomial has {len(q)}")
    ids = []
    for ch in word_text.lower():
        if ch not in _ALPHABET:
            raise ValueError(f"invalid word letter {ch!r}")
        ids.append(_ALPHABET.index(ch))
    return ColoredWord(canonical_letters(tuple(ids)), q.colors, q.indices)


def match_pairs(w: ColoredWord) -> list[tuple[int, int]]:
    """The (first, second) 1-based position pairs of a pair-matched word, sorted."""
    first: dict[int, int] = {}
    pairs = []
    for pos, lid in enumerate(w.letters, start=1):
        if lid in first:
            pairs.append((first.pop(lid), pos))
        else:
            first[lid] = pos
    if first:
        raise ValueError("word is not pair-matched")
    return sorted(pairs)


def enumerate_pair_matched_words(q: Monomial) -> list[ColoredWord]:
    """All perfect matchings of positions sharing color and copy index.

    Empty when the length is odd or any (color, index) class has odd
    cardinality.  Words come out in lexicographic order of their letter
    strings.
    """
    if pairing_count_estimate(q) == 0:
        return []
    k = len(q)
    keys = q.letters
    colors, indices = q.colors, q.indices
    words: list[ColoredWord] = []
    letters = [-1] * k

    def rec(i: int, lid: int):
        # i is the first unmatched position; letters are numbered by their
        # first position, so every word comes out canonical
        if i == k:
            words.append(ColoredWord(tuple(letters), colors, indices))
            return
        letters[i] = lid
        for j in range(i + 1, k):
            if letters[j] == -1 and keys[j] == keys[i]:
                letters[j] = lid
                nxt = i + 1
                while nxt < k and letters[nxt] != -1:
                    nxt += 1
                rec(nxt, lid + 1)
                letters[j] = -1
        letters[i] = -1

    rec(0, 0)
    return words


def drop_indices(w: ColoredWord) -> ColoredWord:
    """Forget copy indices, keeping the letter partition and colors.

    Injective on the pair-matched words of a fixed monomial: distinct
    matchings keep distinct letter strings.
    """
    return ColoredWord(w.letters, w.colors, tuple(1 for _ in w.indices))


def is_catalan(w: ColoredWord) -> bool:
    """True iff repeatedly deleting adjacent equal-letter pairs empties the word.

    Equivalent to the match partition being non-crossing.
    """
    if not w.is_pair_matched():
        raise ValueError("catalan test requires a pair-matched word")
    stack: list[int] = []
    for lid in w.letters:
        if stack and stack[-1] == lid:
            stack.pop()
        else:
            stack.append(lid)
    return not stack


def cyclic_rotate(w: ColoredWord, shift: int) -> ColoredWord:
    """Word with positions shifted left by `shift`, re-canonicalized.

    Its monomial is the same rotation of the original monomial.
    """
    n = len(w)
    if not 0 <= shift < n:
        raise ValueError(f"shift must be in [0, {n})")
    letters = tuple(w.letters[(i + shift) % n] for i in range(n))
    colors = tuple(w.colors[(i + shift) % n] for i in range(n))
    indices = tuple(w.indices[(i + shift) % n] for i in range(n))
    return ColoredWord(canonical_letters(letters), colors, indices)


def count_pairings(num_positions: int) -> int:
    """(2k)!/(k! 2^k) for 2k positions; 0 for odd counts."""
    if num_positions % 2:
        return 0
    k = num_positions // 2
    out = 1
    for m in range(1, 2 * k, 2):
        out *= m
    return out


def pairing_count_estimate(q: Monomial) -> int:
    """Number of pair-matched words of the monomial, without enumerating them.

    Product over (color, index) classes of the class's pairing count;
    zero when any class has odd cardinality.
    """
    counts: dict[tuple[LinkKind, int], int] = {}
    for key in q.letters:
        counts[key] = counts.get(key, 0) + 1
    total = 1
    for c in counts.values():
        total *= count_pairings(c)
    return total


def all_monomials(kinds, length: int, indices=(1,)) -> list[Monomial]:
    """Every monomial of the given length over the kind/index alphabet."""
    alphabet = [(k, i) for k in kinds for i in indices]
    return [Monomial(tuple(c)) for c in itertools.product(alphabet, repeat=length)]
