"""Closed-form Betti numbers and graded shift tables for the resolved cases,
independent of any complex construction.

The three cases, by the residue b of m0 modulo n (b = n when the residue is 0):

  b = 1      beta_0 = 1, beta_s = s*C(n+1, s+1)
  b = n      beta_1 = 1 + C(n, 2), beta_s = (s-1)*C(n, s) + s*C(n, s+1)
  b = 2, n=4 Betti numbers (1, 9, 16, 9, 1) with an explicit shift table,
             palindromic about T = q(q+2d+9)+9d where q = 2a+1

Shift tables here are computed straight from the basis-degree formula
(sum of chosen top degrees plus (v1+1) times the column degree step).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .curve import ArithmeticSequence
from .complexes import WrongCase


@dataclass
class BettiTable:
    """Per-homological-step multiset of graded shifts (stored sorted)."""

    rows: dict[int, tuple[int, ...]]

    @classmethod
    def from_rows(cls, rows: dict) -> "BettiTable":
        return cls(rows={s: tuple(sorted(v)) for s, v in rows.items()})

    @classmethod
    def from_complex(cls, complex_) -> "BettiTable":
        return cls.from_rows(dict(enumerate(complex_.steps)))

    @property
    def length(self) -> int:
        return max(self.rows)

    def betti(self) -> tuple[int, ...]:
        return tuple(len(self.rows[s]) for s in range(self.length + 1))

    def is_palindromic(self, total: int) -> bool:
        """True iff rows[L-s] = {total - x : x in rows[s]} for every s."""
        L = self.length
        for s in range(L + 1):
            mirrored = sorted(total - x for x in self.rows[L - s])
            if tuple(mirrored) != self.rows[s]:
                return False
        return True

    def same_shifts(self, other: "BettiTable") -> bool:
        return self.rows == other.rows

    def to_json_obj(self) -> list:
        return [
            {"step": s, "shifts": list(self.rows[s])}
            for s in sorted(self.rows)
        ]


def betti_b1(n: int) -> tuple[int, ...]:
    if n < 2:
        raise ValueError("n must be at least 2")
    return (1,) + tuple(s * comb(n + 1, s + 1) for s in range(1, n + 1))


def betti_bn(n: int) -> tuple[int, ...]:
    if n < 2:
        raise ValueError("n must be at least 2")
    return (1, 1 + comb(n, 2)) + tuple(
        (s - 1) * comb(n, s) + s * comb(n, s + 1) for s in range(2, n + 1)
    )


def _minor_complex_rows(tops: list[int], step: int) -> dict[int, list[int]]:
    """Shift rows of the minor complex of a 2-row monomial matrix, from the
    basis-degree formula: sum of chosen top degrees + (v1+1)*step."""
    m = len(tops)
    rows: dict[int, list[int]] = {0: [0]}
    for s in range(1, m):
        shifts = []
        for cols in combinations(range(m), s + 1):
            base = sum(tops[c] for c in cols)
            shifts.extend(base + (v1 + 1) * step for v1 in range(s))
        rows[s] = shifts
    return rows


def _tops_a(seq: ArithmeticSequence) -> list[int]:
    return [seq.terms[j] for j in range(seq.n)]


def _tops_b(seq: ArithmeticSequence) -> list[int]:
    return [seq.a * seq.terms[seq.n]] + [
        seq.terms[j] for j in range(seq.n - seq.b + 1)
    ]


def shift_table_b1(seq: ArithmeticSequence) -> BettiTable:
    """Graded shifts of the b = 1 resolution, from the basis-degree formula."""
    if seq.b != 1:
        raise WrongCase(f"b = {seq.b}, need b = 1")
    return BettiTable.from_rows(_minor_complex_rows(_tops_b(seq), seq.d))


def shift_table_bn(seq: ArithmeticSequence) -> BettiTable:
    """Graded shifts of the b = n resolution (cone), from the basis-degree formula."""
    if seq.b != seq.n:
        raise WrongCase(f"b = {seq.b}, need b = n = {seq.n}")
    inner = _minor_complex_rows(_tops_a(seq), seq.d)
    bump = (seq.a + seq.d + 1) * seq.m0
    rows: dict[int, list[int]] = {0: [0]}
    for s in range(1, seq.n + 1):
        shifts = list(inner.get(s, []))
        shifts.extend(x + bump for x in inner.get(s - 1, []))
        rows[s] = shifts
    return BettiTable.from_rows(rows)


def shifts_gor4(a: int, d: int) -> BettiTable:
    """The 4-step table (1, 9, 16, 9, 1) for n = 4, b = 2, spelled out summand
    by summand with q = 2a + 1; the repeated k = 4 shift in step 1 and the
    doubled summands in step 2 are kept as they stand, with no normalization."""
    if a < 1:
        raise ValueError("a must be at least 1")
    if d < 0:
        raise ValueError("d must be non-negative")
    q = 2 * a + 1
    step1 = [4 * q + k * d for k in range(2, 7)]
    step1 += [4 * q + 4 * d]
    step1 += [q * (q + 2 * d + 1) + k * d for k in range(0, 3)]

    step2 = [6 * q + 4 * d]
    for k in range(5, 8):
        step2 += [6 * q + k * d] * 2
    step2 += [6 * q + 8 * d]
    step2 += [q * (q + 2 * d + 3) + d]
    for k in range(2, 5):
        step2 += [q * (q + 2 * d + 3) + k * d] * 2
    step2 += [q * (q + 2 * d + 3) + 5 * d]

    step3 = [8 * q + k * d for k in range(7, 10)]
    step3 += [q * (q + 2 * d + 5) + k * d for k in range(3, 8)]
    step3 += [q * (q + 2 * d + 5) + 5 * d]

    step4 = [q * (q + 2 * d + 9) + 9 * d]
    return BettiTable.from_rows({0: [0], 1: step1, 2: step2, 3: step3, 4: step4})


def gor4_symmetry_point(a: int, d: int) -> int:
    """The shift T with rows[4-s] = T - rows[s] in the b = 2, n = 4 table."""
    q = 2 * a + 1
    return q * (q + 2 * d + 9) + 9 * d
