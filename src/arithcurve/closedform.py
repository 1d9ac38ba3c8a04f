"""Closed-form Betti numbers and graded shift tables for the resolved cases,
independent of any complex construction.

The three cases, by the residue b of m0 modulo n (b = n when the residue is 0):

  b = 1      beta_0 = 1, beta_s = s*C(n+1, s+1)
  b = n      beta_1 = 1 + C(n, 2), beta_s = (s-1)*C(n, s) + s*C(n, s+1)
  b = 2, n=4 Betti numbers (1, 9, 16, 9, 1) with an explicit shift table,
             palindromic about T = q(q+2d+9)+9d where q = 2a+1

Shift tables here are computed straight from the basis-degree formula
(sum of chosen top degrees plus (v1+1) times the column degree step); the
`alt_*` functions give an equivalent nested-summation form whose index
placement admits two readings, kept so tests can document which reading
agrees (see compare_shift_tables).
"""

from __future__ import annotations

from collections import Counter
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
        return cls(rows=complex_.shift_rows())

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

    @classmethod
    def from_json_obj(cls, obj: list) -> "BettiTable":
        return cls.from_rows({row["step"]: row["shifts"] for row in obj})


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


def generator_degree_sum_parity(seq: ArithmeticSequence) -> str:
    """Parity of the sum of the 9 generator degrees in the b = 2, n = 4 case."""
    if seq.b != 2 or seq.n != 4:
        raise WrongCase(f"(b, n) = ({seq.b}, {seq.n}), need (2, 4)")
    total = sum(seq.generators().degrees())
    return "odd" if total % 2 else "even"


# -- alternate nested-summation form ------------------------------------------
#
# The same tables can be written as a chain of nested direct sums: explicit
# blocks at the two ends, and a generic block indexed by subsets
# r_1 < ... < r_s of [1, n] and an inner counter k for the middle.  That
# presentation is ambiguous about whether the generic block standing between
# the arrows d_s and d_{s-1} is homological step s or step s-1 (it is the
# *target* of d_s).  aligned=True places it at step s-1, which reproduces
# shift_table_* exactly; aligned=False reads the index at face value, which
# miscounts the middle steps (the ends are unambiguous either way).  Both
# readings are kept so tests can document the discrepancy.


def _generic_block_b1(n, m0, d, a, s) -> list[int]:
    shifts = []
    for r in combinations(range(1, n + 1), s):
        shifts.extend(s * m0 + sum(r) * d - k * d for k in range(1, s))
    for r in combinations(range(1, n + 1), s - 1):
        shifts.extend((a + s - 1 + d) * m0 + sum(r) * d - k * d for k in range(1, s))
    return shifts


def _generic_block_bn(n, m0, d, a, s) -> list[int]:
    shifts = []
    for r in combinations(range(1, n + 1), s):
        shifts.extend(s * m0 + sum(r) * d - k * d for k in range(1, s))
    for r in combinations(range(1, n + 1), s - 1):
        shifts.extend((a + s + d) * m0 + sum(r) * d - k * d for k in range(1, s - 1))
    return shifts


def alt_shift_table_b1(seq: ArithmeticSequence, aligned: bool = True) -> BettiTable:
    if seq.b != 1:
        raise WrongCase(f"b = {seq.b}, need b = 1")
    n, m0, d, a = seq.n, seq.m0, seq.d, seq.a
    rows: dict[int, list[int]] = {0: [0]}
    if aligned:
        for step in range(1, n + 1):
            rows[step] = _generic_block_b1(n, m0, d, a, step + 1)
    else:
        for step in range(2, n - 1):
            rows[step] = _generic_block_b1(n, m0, d, a, step)
        top = n * (n + 1) // 2
        rows[n] = [(a + n + d) * m0 + top * d - k * d for k in range(1, n + 1)]
        if n - 1 >= 2:
            block = [n * m0 + top * d - k * d for k in range(1, n)]
            for r in combinations(range(1, n + 1), n - 1):
                block.extend(
                    (a + d + n - 1) * m0 + sum(r) * d - k * d for k in range(1, n)
                )
            rows[n - 1] = block
        block1 = [
            2 * m0 + (r1 + r2 - 1) * d for r1, r2 in combinations(range(1, n + 1), 2)
        ]
        block1 += [(a + 1 + d) * m0 + k * d for k in range(n)]
        rows[1] = block1
    return BettiTable.from_rows(rows)


def alt_shift_table_bn(seq: ArithmeticSequence, aligned: bool = True) -> BettiTable:
    if seq.b != seq.n:
        raise WrongCase(f"b = {seq.b}, need b = n = {seq.n}")
    n, m0, d, a = seq.n, seq.m0, seq.d, seq.a
    rows: dict[int, list[int]] = {0: [0]}
    first = [2 * m0 + (r1 + r2 - 1) * d for r1, r2 in combinations(range(1, n + 1), 2)]
    first.append((a + 1 + d) * m0)
    rows[1] = first
    if aligned:
        for step in range(2, n + 1):
            rows[step] = _generic_block_bn(n, m0, d, a, step + 1)
    else:
        for step in range(2, n - 1):
            rows[step] = _generic_block_bn(n, m0, d, a, step)
        top = n * (n + 1) // 2
        rows[n] = [(a + n + d + 1) * m0 + top * d - k * d for k in range(1, n)]
        if n - 1 >= 2:
            block = [n * m0 + top * d - k * d for k in range(1, n)]
            for r in combinations(range(1, n + 1), n - 1):
                block.extend(
                    (a + n + d) * m0 + sum(r) * d - k * d for k in range(1, n - 1)
                )
            rows[n - 1] = block
    return BettiTable.from_rows(rows)


def compare_shift_tables(t1: BettiTable, t2: BettiTable) -> list[tuple]:
    """Per-step multiset differences: (step, only_in_t1, only_in_t2); empty if equal."""
    out = []
    for s in sorted(set(t1.rows) | set(t2.rows)):
        c1 = Counter(t1.rows.get(s, ()))
        c2 = Counter(t2.rows.get(s, ()))
        only1 = sorted((c1 - c2).elements())
        only2 = sorted((c2 - c1).elements())
        if only1 or only2:
            out.append((s, tuple(only1), tuple(only2)))
    return out
