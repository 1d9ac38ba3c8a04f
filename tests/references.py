"""Reference implementations that only the tests and CI call.

Each one checks a claim of the paper or pins a fast path of the package
against a slower, plainer computation, and no command, benchmark workload
or package function reads it:

  monomial_divides/div/lcm  exponent-tuple monomial arithmetic, against
                            which the packed layout of `ring` is tested
  leading_term/monomial     a polynomial's lead as an exponent tuple
  all_minors2               every 2x2 minor of a 2-row matrix, which CI's
                            ideal identity sums over matrix_a and matrix_b
  word_lcms                 the lcm of exponent words, a field-wise max,
                            which the engine's pair criteria compute inline
  semigroup_contains        exact membership in the semigroup of a sequence
  alt_shift_table_b1/bn     the nested-summation reading of the b = 1 and
                            b = n shift tables, in both index placements,
                            and compare_shift_tables, which tells them apart
  colon_ideal/colon_check   (I : f) and the test (I : f) = I, which checks
                            the paper's "sum of two determinantal ideals"
                            and the reverse-lex x0 test of
                            `oracle._x0_regular_basis`
  minimal_generators        graded greedy minimalization of a homogeneous set

The tests import them with `from references import ...`: pytest puts this
directory on `sys.path`, and CI runs its inline checks with
`PYTHONPATH=tests`.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Sequence

from arithcurve.closedform import BettiTable
from arithcurve.complexes import WrongCase
from arithcurve.curve import ArithmeticSequence
from arithcurve.groebner import (
    DEFAULT_LIMITS,
    Limits,
    _Engine,
    common_ring,
    minimal_module_generators,
    syzygies_and_basis,
)
from arithcurve.matrices import PolyMatrix
from arithcurve.oracle import ideal_contains
from arithcurve.ring import Polynomial, PolyRing


# -- monomials as exponent tuples ---------------------------------------------


def monomial_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff X^a divides X^b."""
    return all(x <= y for x, y in zip(a, b))

def monomial_div(b: Sequence[int], a: Sequence[int]):
    """Exponent vector of X^b / X^a."""
    return tuple(y - x for x, y in zip(a, b))

def monomial_lcm(a: Sequence[int], b: Sequence[int]):
    return tuple(max(x, y) for x, y in zip(a, b))


def word_lcms(ring: PolyRing, a: int, words: Sequence[int]) -> list[int]:
    """lcm word of the exponent word `a` with each of `words`, a
    field-wise max: (a | word_guard) - b keeps the guard bit of each
    field where a's exponent is at least b's, and that bit less itself
    shifted down to the field's foot masks the field, which is taken
    from a; every other field from b.  `decode` reads a word's
    exponents."""
    fields, guard, bits = ring.word_fields, ring.word_guard, ring._mask.bit_length()
    high = a | guard
    out = []
    for b in words:
        t = (high - b) & guard
        m = t - (t >> bits)
        out.append((a & m) | (b & (fields ^ m)))
    return out


def leading_term(p: Polynomial) -> tuple:
    """(exponent tuple, coefficient) of p's lead under its ring's order."""
    if not p.packed:
        raise ValueError("zero polynomial has no leading term")
    m, c = p.packed[0]
    return p.ring.decode(m), c


def leading_monomial(p: Polynomial) -> tuple:
    return leading_term(p)[0]


def all_minors2(M: PolyMatrix) -> list[Polynomial]:
    """Every 2x2 minor of a 2-row matrix, columns in lexicographic order."""
    return [M.minor2(c1, c2) for c1, c2 in combinations(range(M.cols), 2)]


# -- the semigroup ------------------------------------------------------------


def semigroup_contains(seq: ArithmeticSequence, x: int) -> bool:
    """Exact membership of x in the semigroup generated by the terms.

    A sum of k terms is k*m0 + j*d with 0 <= j <= k*n, and every such
    number is one, so x lies in S iff some k has k*m0 <= x <= k*(m0 + n*d)
    and k*m0 = x (mod d).  The upper bound holds for every k from
    ceil(x / (m0 + n*d)) on, so only the least such k in the right
    residue class (gcd(m0, d) = 1) needs the lower bound.
    """
    if x < 0:
        return False
    m0, d = seq.m0, seq.d
    k = -(-x // (m0 + seq.n * d))
    k += (x * pow(m0, -1, d) - k) % d
    return k * m0 <= x


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


# -- colon ideals and minimal generators ----------------------------------------


def colon_ideal(gens: Sequence[Polynomial], f: Polynomial,
                limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Generators of (I : f), read off the syzygies of [f, g_1, ..., g_k]:
    the coefficient of f in each is its flat terms at position 0, those
    keyed >= 0."""
    ring = common_ring([f, *gens])
    syz, _ = syzygies_and_basis([f.packed, *(g.packed for g in gens)], ring, 1,
                                limits=limits)
    coefficients = (tuple([t for t in s if t[0] >= 0]) for s in syz)
    return [Polynomial(ring, c) for c in coefficients if c]


def colon_check(gens: Sequence[Polynomial], f: Polynomial,
                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Is (I : f) = I?  Requires f not in I; raises ValueError otherwise.

    Both memberships are decided by `ideal_contains`: f's before the syzygy
    run of `colon_ideal`, so an f in I raises with no colon run made, and
    the quotient's after it.  Elements the generators of I top-reduce to
    zero make no run; the others are tested against one full basis of I.
    """
    if ideal_contains(gens, [f], limits=limits):
        raise ValueError("multiplier lies in the ideal; colon comparison undefined")
    # (I : f) always contains I, so only the forward inclusion needs work
    return ideal_contains(gens, colon_ideal(gens, f, limits=limits), limits=limits)


def minimal_generators(gens: Sequence[Polynomial],
                       limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Subset of a homogeneous generating set that generates minimally.

    Candidates are processed by increasing degree, keeping those not already
    in the ideal of the kept ones (graded Nakayama), in one unshifted
    rank-1 syzygy run.  ValueError if the generators do not all share one
    ring.
    """
    ring = common_ring(gens)
    if ring is None:
        return []
    engine = _Engine(ring, 1, want_syzygies=True, limits=limits)
    return [v[0] for _, v in minimal_module_generators([(g,) for g in gens], engine)]
