"""Published reference values of word volumes for two-ensemble monomials.

Each row is (monomial, word, published limit).  Two cells of the H/S
table disagree with the machinery that produced the rest: for HHHSHS the
two color-consistent words aabcbc and abbcac have limit 2/3 — the single
circulant match is automatically satisfied by the two Hankel constraints
plus circuit closure, exact counts at odd n = 1..11 fit a polynomial with
leading coefficient 2/3, and direct trace simulation of the whole
monomial confirms it — while the source prints 1/2.  Those rows carry the
verified value beside the published one; consumers choose which to use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class TableRow:
    monomial: str
    word: str
    p_published: Fraction
    p_verified: Optional[Fraction] = None  # set only where it differs from published

    @property
    def p_true(self) -> Fraction:
        return self.p_verified if self.p_verified is not None else self.p_published


def _rows(*items) -> tuple[TableRow, ...]:
    out = []
    for item in items:
        mono, word, p = item[:3]
        verified = item[3] if len(item) > 3 else None
        out.append(TableRow(mono, word, Fraction(p), verified))
    return tuple(out)


# Toeplitz/Hankel monomials
TABLE_TH = _rows(
    ("TTHH", "aabb", 1),
    ("THTH", "abab", Fraction(2, 3)),
    ("TTTTHH", "aabbcc", 1),
    ("TTTTHH", "abbacc", 1),
    ("TTTTHH", "ababcc", Fraction(2, 3)),
    ("HHHHTT", "aabbcc", 1),
    ("HHHHTT", "abbacc", 1),
    ("HHHHTT", "ababcc", 0),
    ("TTHTTH", "aabccb", 1),
    ("TTHTTH", "abcbac", Fraction(1, 2)),
    ("TTHTTH", "abcabc", Fraction(1, 2)),
    ("HHTHHT", "aabccb", 1),
    ("HHTHHT", "abcbac", Fraction(1, 2)),
    ("HHTHHT", "abcabc", 0),
)

# Reverse Circulant/Hankel monomials
TABLE_RH = _rows(
    ("RRHH", "aabb", 1),
    ("RHRH", "abab", 0),
    ("RRRRHH", "aabbcc", 1),
    ("RRRRHH", "abbacc", 1),
    ("RRRRHH", "ababcc", 0),
    ("HHHHRR", "aabbcc", 1),
    ("HHHHRR", "abbacc", 1),
    ("HHHHRR", "ababcc", 0),
    ("RRHRRH", "aabccb", 1),
    ("RRHRRH", "abcbac", 0),
    ("RRHRRH", "abcabc", Fraction(2, 3)),
    ("HHRHHR", "aabccb", 1),
    ("HHRHHR", "abcbac", 0),
    ("HHRHHR", "abcabc", Fraction(1, 2)),
)

# Symmetric Circulant/Hankel monomials
TABLE_SH = _rows(
    ("SSHH", "aabb", 1),
    ("SHSH", "abab", Fraction(2, 3)),
    ("SSSSHH", "aabbcc", 1),
    ("SSSSHH", "abbacc", 1),
    ("SSSSHH", "ababcc", 1),
    ("HHHHSS", "aabbcc", 1),
    ("HHHHSS", "abbacc", 1),
    ("HHHHSS", "ababcc", 0),
    ("HHHSHS", "aabcbc", Fraction(1, 2), Fraction(2, 3)),
    ("HHHSHS", "abbcac", Fraction(1, 2), Fraction(2, 3)),
    ("HHHSHS", "abcabc", 0),
    ("HHSHHS", "aabccb", 1),
    ("HHSHHS", "abcbac", Fraction(1, 2)),
    ("HHSHHS", "abcabc", 0),
)

ALL_ROWS: tuple[TableRow, ...] = TABLE_TH + TABLE_RH + TABLE_SH
