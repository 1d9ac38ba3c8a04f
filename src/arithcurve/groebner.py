"""Buchberger engine for ideals and submodules of free modules, with syzygies.

Module elements are tuples of polynomials (one per free-module position).
The module order is position-over-term: position 0 dominates, ties broken by
the ring's monomial order, so the leading term of a vector lives in its first
nonzero component.  Ideals are handled as rank-1 modules.

Syzygy extraction keeps, for every basis element, its expression in the
original input vectors.  An S-pair that reduces to zero then yields that
expression as a syzygy of the inputs; because the inputs themselves stay in
the working basis, these transcripts generate the full syzygy module.

Pair criteria depend on whether the run extracts syzygies:

  - Syzygy runs (`syzygy_generators`, so the oracle resolution and the colon
    ideal) apply none and reduce every same-position pair.  A dropped pair
    would drop its transcript too; the raw syzygy list would change, and
    with it what greedy pruning keeps and the matrices the oracle emits.
  - Every other run (`groebner`, `module_groebner_basis` and the pruning
    runs of `minimal_module_generators`) applies the Gebauer-Moeller update
    (Gebauer & Moeller, "On an installation of Buchberger's algorithm",
    JSC 1988): the B, M and F criteria at every rank, and the product
    criterion (coprime leads) at rank 1 only, where it holds.  These runs
    return a Groebner basis or a membership answer, which no choice of
    pairs can change: the reduced basis is unique, membership does not
    depend on the basis used, and pruning keeps input candidates.

Minimal-generator pruning completes its basis degree by degree: before a
candidate of degree D is tested, only the pairs of shifted degree <= D are
reduced.  For homogeneous input under non-negative weights every S-pair is
homogeneous of its lcm's shifted degree and a reduction never raises the
degree, so after those pairs the basis is a Groebner basis up to degree D and
top reduction decides membership of the candidate exactly (La Scala &
Stillman's degree-by-degree strategy, applied to pruning only).  The pair
criteria keep this exact: the pairs that justify dropping a pair have lcms
dividing its lcm, so none has a higher shifted degree.

Membership is decided by top reduction against a Groebner basis: a vector
lies in the module exactly when cancelling leading terms sends it to zero.
`ideal_member`, `module_member`, pruning and `verify_exactness` all decide
it so.  The full normal form, which also reduces the terms below the lead,
serves only `_interreduce` and `reduce_poly`.

The engine works on packed monomials (see `ring`): leading monomials are
packed ints, a reducer is found by the guard-bit divisibility test, the
multiplier of a reduction is a difference of packed ints, and an S-pair is
keyed by its packed lcm, which sorts exactly like the lcm's order key.

All computations are deterministic: fixed insertion order, pairs processed in
increasing (packed lcm, position, i, j) - prefixed by the lcm's shifted
degree in pruning runs - and reducers chosen first-in-basis.  Resource limits
are explicit errors, never silent truncation; the S-pair budget counts only
the pairs that are reduced, not those a criterion drops.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import Polynomial, PolyRing


class ResourceLimitExceeded(RuntimeError):
    pass


@dataclass
class Limits:
    """Caps for the engine; exceeding one raises ResourceLimitExceeded."""

    max_spairs: int = 2_000_000
    max_basis: int = 100_000
    max_support: int = 1_000_000  # largest allowed term count per basis element
    deadline_s: Optional[float] = None  # wall-clock budget for this computation

    def start(self) -> "_Meter":
        return _Meter(self)


class _Meter:
    def __init__(self, limits: Limits):
        self.limits = limits
        self.spairs = 0
        self.t0 = time.monotonic()

    def tick_pair(self):
        self.spairs += 1
        if self.spairs > self.limits.max_spairs:
            raise ResourceLimitExceeded(
                f"S-pair budget {self.limits.max_spairs} exhausted"
            )
        # the clock is read on the first pair of a run and every 64th after
        # it, so short runs are checked too
        if (
            self.limits.deadline_s is not None
            and self.spairs % 64 == 1
            and time.monotonic() - self.t0 > self.limits.deadline_s
        ):
            raise ResourceLimitExceeded(
                f"deadline of {self.limits.deadline_s}s exceeded"
            )

    def check_basis(self, size: int):
        if size > self.limits.max_basis:
            raise ResourceLimitExceeded(f"basis size cap {self.limits.max_basis} hit")

    def check_support(self, v: "Vector"):
        support = sum(len(p.packed) for p in v)
        if support > self.limits.max_support:
            raise ResourceLimitExceeded(
                f"support size {support} exceeds cap {self.limits.max_support}"
            )


DEFAULT_LIMITS = Limits()


# -- vectors -----------------------------------------------------------------

Vector = tuple  # tuple[Polynomial, ...]


def v_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def v_leading(v: Vector):
    """Leading module term (pos, exps, coeff) under position-over-term, or None."""
    lead = _lead(v)
    if lead is None:
        return None
    pos, m, coeff = lead
    return pos, v[pos].ring.decode(m), coeff


def _lead(v: Vector):
    """Leading module term (pos, packed monomial, coeff), or None."""
    for pos, p in enumerate(v):
        if p.packed:
            m, coeff = p.packed[0]
            return pos, m, coeff
    return None


def _lm(p: Polynomial) -> int:
    """Packed leading monomial of a nonzero polynomial."""
    return p.packed[0][0]


def v_add_mul(v: Vector, w: Vector, u: int, coeff) -> Vector:
    """v + coeff * X^u * w for a packed monomial u.

    Vectors are sparse, so zero components of w pass through without a call.
    """
    return tuple([a.add_mul(b, u, coeff) if b.packed else a for a, b in zip(v, w)])


def v_mul_packed(v: Vector, u: int, coeff) -> Vector:
    return tuple([p.mul_packed(u, coeff) if p.packed else p for p in v])


def v_scale(v: Vector, coeff) -> Vector:
    return tuple(p.scale(coeff) for p in v)


def v_degree(v: Vector, shifts: Optional[Sequence[int]] = None):
    """Weighted degree of a homogeneous vector (None if inhomogeneous/zero)."""
    degs = set()
    for pos, p in enumerate(v):
        if p.is_zero():
            continue
        d = p.weighted_degree()
        if d is None:
            return None
        degs.add(d + (shifts[pos] if shifts else 0))
    if len(degs) != 1:
        return None
    return degs.pop()


class _Engine:
    """One Buchberger run over vectors of a fixed rank.

    With `shifts` (one per position) the pairs are keyed first by the
    shifted degree of their lcm, so `_main_loop(stop)` can complete the
    basis degree by degree.
    """

    def __init__(self, ring: PolyRing, rank: int, want_syzygies: bool,
                 limits: Limits, shifts: Optional[Sequence[int]] = None):
        self.ring = ring
        self.rank = rank
        self.want_syz = want_syzygies
        self.shifts = shifts
        self.meter = limits.start()
        self.basis: list[Vector] = []
        self.leads: list[tuple] = []  # (pos, packed); basis elements are monic
        self.coords: list[Vector] = []  # expressions in the original inputs
        self.by_pos: dict[int, list[int]] = {}
        self.pairs: list[tuple] = []  # ([shifted degree,] packed lcm, pos, i, j)
        self.dead: set[tuple[int, int]] = set()  # queued (i, j) the B criterion drops
        self.syzygies: list[Vector] = []

    # -- reduction ----------------------------------------------------------

    def _find_reducer(self, pos: int, m: int) -> Optional[int]:
        divides = self.ring.divides
        for idx in self.by_pos.get(pos, ()):  # first match: deterministic
            if divides(self.leads[idx][1], m):
                return idx
        return None

    def top_reduce(self, v: Vector, coord: Optional[Vector]):
        """Cancel leading terms until none is reducible; returns (v, coord)."""
        while True:
            lead = _lead(v)
            if lead is None:
                return v, coord
            pos, m, coeff = lead
            idx = self._find_reducer(pos, m)
            if idx is None:
                return v, coord
            u = m - self.leads[idx][1]
            k = self.ring.field.neg(coeff)
            v = v_add_mul(v, self.basis[idx], u, k)
            if coord is not None:
                coord = v_add_mul(coord, self.coords[idx], u, k)

    def normal_form(self, v: Vector) -> Vector:
        """Full normal form: every remaining term is irreducible.

        Zero exactly when the first top reduction gives zero.  The
        irreducible leads of each position leave in strictly decreasing
        order, so appending them keeps the remainder sorted.
        """
        ring = self.ring
        remainder = [[] for _ in range(self.rank)]
        work = v
        while True:
            work, _ = self.top_reduce(work, None)
            lead = _lead(work)
            if lead is None:
                return tuple(Polynomial(ring, tuple(r)) for r in remainder)
            # move the irreducible lead term to the remainder
            pos, m, coeff = lead
            remainder[pos].append((m, coeff))
            w = list(work)
            w[pos] = Polynomial(ring, work[pos].packed[1:])
            work = tuple(w)

    # -- basis growth ---------------------------------------------------------

    def _insert(self, v: Vector, coord: Optional[Vector]):
        """Store v, made monic, as a basis element; forms no pairs."""
        pos, m, coeff = _lead(v)
        inv = self.ring.field.inv(coeff)
        v = v_scale(v, inv)
        if coord is not None:
            coord = v_scale(coord, inv)
        self.by_pos.setdefault(pos, []).append(len(self.basis))
        self.basis.append(v)
        self.leads.append((pos, m))
        self.coords.append(coord)
        self.meter.check_basis(len(self.basis))
        self.meter.check_support(v)

    def add_element(self, v: Vector, coord: Optional[Vector]):
        pos, m, _ = _lead(v)
        ring = self.ring
        new = len(self.basis)
        lcms = {k: ring.lcm(self.leads[k][1], m) for k in self.by_pos.get(pos, ())}
        # a syzygy run applies no criterion and reduces every same-position
        # pair, since a dropped pair would take its transcript out of the raw
        # syzygies that pruning reads; every other run returns only a basis,
        # so it applies the Gebauer-Moeller criteria
        if self.want_syz:
            for k, lcm in lcms.items():
                heapq.heappush(self.pairs, self._pair_key(pos, lcm, k, new))
        else:
            self._gebauer_moller(pos, m, new, lcms)
        self._insert(v, coord)

    def _gebauer_moller(self, pos: int, m: int, new: int, lcms: dict):
        """Queue the pairs of a new element h (lead m, index `new`) that the
        Gebauer-Moeller criteria keep; `lcms` maps each same-position basis
        index k to lcm(lead k, m).

        B: a queued pair (i, j) whose lcm L is a multiple of m, with lcm(i, h)
        and lcm(j, h) both proper divisors of L, is marked dead.  M: a new
        pair whose lcm is a proper multiple of another new pair's lcm is
        dropped.  F: one pair is kept per remaining lcm, the one with the
        smallest k.  Product criterion (rank 1 only: it does not hold for
        vectors): an lcm class with one coprime pair is dropped whole.
        """
        ring = self.ring
        for key in self.pairs:
            lcm, p, i, j = key[-4:]
            if (p == pos and ring.divides(m, lcm)
                    and lcms[i] != lcm and lcms[j] != lcm):
                self.dead.add((i, j))
        classes: dict[int, int] = {}  # lcm -> smallest k; -1 if a pair is coprime
        for k, lcm in lcms.items():
            if self.rank == 1 and lcm == self.leads[k][1] + m:
                classes[lcm] = -1
            else:
                classes.setdefault(lcm, k)
        # a proper divisor sorts first, and a multiple of a dropped lcm is a
        # multiple of the kept lcm that dropped it
        minimal: list[int] = []
        for lcm in sorted(classes):
            if any(ring.divides(low, lcm) for low in minimal):
                continue
            minimal.append(lcm)
            if classes[lcm] >= 0:
                heapq.heappush(self.pairs, self._pair_key(pos, lcm, classes[lcm], new))

    def _pair_key(self, pos, lcm, i, j):
        key = (lcm, pos, i, j)
        if self.shifts is None:
            return key
        return (self.ring.packed_degree(lcm) + self.shifts[pos],) + key

    def run(self, vectors: Sequence[Vector]):
        unit = [self.ring.zero] * len(vectors)
        for i, v in enumerate(vectors):
            coord = None
            if self.want_syz:
                e = list(unit)
                e[i] = self.ring.one
                coord = tuple(e)
            if v_is_zero(v):
                if self.want_syz:
                    self.syzygies.append(coord)
                continue
            self.add_element(v, coord)
        self._main_loop()
        return self

    def _main_loop(self, stop: Optional[int] = None):
        """Reduce pairs in key order; with `stop`, leave those of shifted
        degree above it in the queue."""
        while self.pairs:
            if stop is not None and self.pairs[0][0] > stop:
                return
            *_, lcm, _, i, j = heapq.heappop(self.pairs)
            if (i, j) in self.dead:
                self.dead.remove((i, j))
                continue
            self.meter.tick_pair()
            u_i = lcm - self.leads[i][1]
            u_j = lcm - self.leads[j][1]
            s = v_add_mul(v_mul_packed(self.basis[i], u_i, 1), self.basis[j], u_j, -1)
            coord = None
            if self.want_syz:
                coord = v_add_mul(
                    v_mul_packed(self.coords[i], u_i, 1), self.coords[j], u_j, -1
                )
            s, coord = self.top_reduce(s, coord)
            if v_is_zero(s):
                if self.want_syz and coord is not None and not v_is_zero(coord):
                    self.syzygies.append(coord)
            else:
                self.add_element(s, coord)


def minimal_module_generators(vectors: Sequence[Vector], ring: PolyRing,
                              shifts: Optional[Sequence[int]] = None,
                              limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Minimal generating subset of a list of homogeneous vectors.

    Candidates are taken in increasing degree (graded Nakayama); a candidate
    already inside the module of the kept ones is dropped.  Ties and the kept
    order are deterministic.

    The basis of the kept module is completed only up to the degree of the
    candidate at hand.  This is exact because the vectors are homogeneous
    and the weights non-negative: every S-pair is homogeneous of the shifted
    degree of its lcm, and reducing a degree-D vector uses only basis
    elements of degree <= D.  Once every pair of degree <= D is reduced, the
    basis is a Groebner basis up to degree D, so a degree-D candidate lies
    in the kept module exactly when top reduction sends it to zero.  Pairs
    above the last candidate's degree are never processed.
    """
    nonzero = [v for v in vectors if not v_is_zero(v)]
    if not nonzero:
        return []
    rank = len(nonzero[0])
    shifts = tuple(shifts) if shifts else (0,) * rank

    def sort_key(v: Vector):
        deg = v_degree(v, shifts)
        if deg is None:
            raise ValueError("minimal generators need homogeneous vectors")
        pos, m, _ = _lead(v)
        return (deg, pos, m)

    eng = _Engine(ring, rank, want_syzygies=False, limits=limits, shifts=shifts)
    kept: list[Vector] = []
    for v in sorted(nonzero, key=sort_key):
        eng._main_loop(stop=v_degree(v, shifts))
        reduced, _ = eng.top_reduce(v, None)
        if v_is_zero(reduced):
            continue
        kept.append(v)
        eng.add_element(reduced, None)
    return kept


def module_groebner_basis(vectors: Sequence[Vector], ring: PolyRing,
                          limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Groebner basis (not interreduced) of the module the vectors generate."""
    if not vectors:
        return []
    eng = _Engine(ring, len(vectors[0]), want_syzygies=False, limits=limits)
    return list(eng.run(vectors).basis)


def module_reducer(basis: Sequence[Vector], ring: PolyRing, rank: int) -> "_Engine":
    """Reusable reducer over a fixed (Groebner) basis; no completion is run."""
    eng = _Engine(ring, rank, want_syzygies=False, limits=DEFAULT_LIMITS)
    for b in basis:
        eng._insert(b, None)
    return eng


def module_member(v: Vector, basis: Sequence[Vector], ring: PolyRing) -> bool:
    """True iff top reduction by the basis sends v to zero; this decides
    membership when the basis is a Groebner basis."""
    return v_is_zero(module_reducer(basis, ring, len(v)).top_reduce(v, None)[0])


def syzygy_generators(vectors: Sequence[Vector], ring: PolyRing,
                      limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Generators of the syzygy module of the given vectors (in R^len(vectors))."""
    if not vectors:
        return []
    eng = _Engine(ring, len(vectors[0]), want_syzygies=True, limits=limits)
    return list(eng.run(vectors).syzygies)


# -- ideal layer ---------------------------------------------------------------


def groebner(gens: Sequence[Polynomial], limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced Groebner basis, sorted by increasing leading term.

    Deterministic for fixed input order; idempotent (a reduced basis maps to
    itself).
    """
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    eng = _Engine(ring, 1, want_syzygies=False, limits=limits)
    return _interreduce([v[0] for v in eng.run([(g,) for g in nonzero]).basis], ring)


def _interreduce(basis: list[Polynomial], ring: PolyRing) -> list[Polynomial]:
    # minimalize: drop any element whose leading monomial is divisible by
    # another's, preferring to keep smaller leading terms
    basis = sorted(basis, key=_lm)
    kept: list[Polynomial] = []
    for p in basis:
        lm = _lm(p)
        if any(ring.divides(_lm(q), lm) for q in kept):
            continue
        kept.append(p)
    # tail-reduce each against all of them: every term met while reducing
    # the tail of p lies below lead(p), so p itself is never a reducer
    reducer = module_reducer([(p,) for p in kept], ring, 1)
    return [
        reducer.normal_form((Polynomial(ring, p.packed[1:]),))[0]
        .add_mul(ring.one, *p.packed[0]).monic()
        for p in kept
    ]


def reduce_poly(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of p modulo a list of polynomials."""
    if p.is_zero() or not basis:
        return p
    reducer = module_reducer([(b,) for b in basis if not b.is_zero()], p.ring, 1)
    return reducer.normal_form((p,))[0]


def ideal_member(p: Polynomial, gb: Sequence[Polynomial]) -> bool:
    """True iff top reduction by gb sends p to zero, as `module_member`."""
    return module_member((p,), [(g,) for g in gb if not g.is_zero()], p.ring)
