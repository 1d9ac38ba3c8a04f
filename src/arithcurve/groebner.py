"""Buchberger engine for ideals and submodules of free modules, with syzygies.

Module elements are tuples of polynomials (one per free-module position).
The module order is position-over-term: position 0 dominates, ties broken by
the ring's monomial order, so the leading term of a vector lives in its first
nonzero component.  Ideals are handled as rank-1 modules.

Inside the engine a vector is flat: one tuple of (key, coefficient) terms
sorted strictly decreasing, the packed monomial m at position pos keyed as
m - pos * U, where U (`PolyRing.position_unit`) lies one bit above the
packed fields and their guard bits.  Decreasing key order is then
position-over-term, a vector's flat terms are its components' packed terms
concatenated in position order, and at rank 1 they are the polynomial's own
packed terms.  A vector being reduced lives in one map {key: coefficient}
from its S-pair to its remainder: forming the S-pair is two calls of the
ring's kernel `ring._add_into`, each reduction step v <- v + k * X^u * b is
one more, whatever the rank, and the map is sorted into flat terms once at
the end.  The engine forms no product anywhere else.
Tuples of polynomials are converted to and from the flat form only at the
public functions.

Syzygy extraction works in the augmented module [F | I]: a syzygy run on
vectors of rank r gives input i a term 1 at position r + i, below every
term of F, so the merges that reduce a vector carry its expression in the
inputs, its transcript, along.  An S-vector that reduces to transcript
terms alone (a zero input is one at once) is a syzygy of the inputs;
because the inputs stay in the working basis, these generate the full
syzygy module.

Pair criteria (Gebauer & Moeller, "On an installation of Buchberger's
algorithm", JSC 1988) depend on the run:

  - `syzygy_generators` (so the oracle resolution and the colon ideal)
    applies none and reduces every same-position pair.  A dropped pair
    would drop its transcript too; the raw syzygy list would change, and
    with it what greedy pruning keeps and the matrices the oracle emits.
  - `syzygies_and_basis` (the exactness check) applies the B, M and F
    criteria but never the product criterion.  These drop only pairs whose
    syzygy of leading terms the kept pairs generate, so the transcripts
    still generate the syzygy module (Moeller, Mora & Traverso, "Groebner
    bases computation using syzygies", ISSAC 1992); the syzygy list is
    shorter than `syzygy_generators`' but generates the same module.  The
    product criterion would lose the Koszul syzygy of a coprime pair.
  - Every other run (`groebner`, `module_groebner_basis` and the pruning
    runs of `minimal_module_generators`) applies the B, M and F criteria
    at every rank, and the product criterion (coprime leads) at rank 1
    only, where it holds.  These runs return a Groebner basis or a
    membership answer, which no choice of pairs can change: the reduced
    basis is unique, membership does not depend on the basis used, and
    pruning keeps input candidates.

Every run takes its pairs by sugar first (Giovini et al., ISSAC 1991): a
pair's is its lcm's shifted degree (shifts are zero unless the run gives
some) plus the larger excess of its elements' sugar over their leads'
shifted degree.  Without the inherited sugar of `_Engine.add_element` an
inhomogeneous elimination run can take minutes, not a second.  On
homogeneous input every excess is zero.  A curve ring packs the weighted
degree as a monomial's top field, so there this is the packed-lcm order
itself; only the elimination order, which packs the t-degree first, is
reordered.  Pruning relies on the degree order (minimal_module_generators).

Membership is decided by top reduction against a Groebner basis: a vector
lies in the module exactly when cancelling leading terms sends it to zero,
whichever Groebner basis of the module is used.  `ideal_member`,
`module_member`, pruning and the oracle's membership tests all decide it
so, against the unreduced basis of `module_groebner_basis` or of
`syzygies_and_basis`.  Only a basis that is itself an output is
interreduced: `groebner()` is `interreduce` of `module_groebner_basis`.
The full normal form, which also reduces the terms below the lead, serves
only `interreduce` and `reduce_poly`.

The engine works on packed monomials (see `ring`).  The low bits of a key
are its packed monomial, so the guard-bit divisibility test, the multiplier
of a reduction (a difference of keys at one position), the degree field and
`decode` read keys unchanged; reducers are looked up among the basis
elements that lead at the same position.  Each lead is decoded once, when
its element is added, and a pair's lcm is packed from the two exponent
tuples.  After its sugar, an S-pair is keyed by its position-free packed
lcm, which sorts exactly like the lcm's order key.
Each stored basis element, transcript included, carries the degree of its
highest-degree term (`PolyRing.top_degree`), which the kernel range-checks
every product against: one that would leave the packed range raises
MonomialOutOfRange before it is merged, even when that term lies below the
lead.

All computations are deterministic: fixed insertion order, pairs processed in
increasing (sugar, packed lcm, position, i, j) and reducers chosen
first-in-basis.  `_find_reducer` remembers the reducer it found for a key:
an element is only ever appended to the basis, so the first element whose
lead divides a key stays the first.  Resource limits are explicit errors,
never silent truncation; the S-pair budget counts only the pairs that are
reduced, not those a criterion drops.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Optional, Sequence

from .ring import Polynomial, PolyRing, _add_into


class ResourceLimitExceeded(RuntimeError):
    pass


@dataclass
class Limits:
    """Caps for the engine; exceeding one raises ResourceLimitExceeded."""

    max_spairs: int = 2_000_000
    max_basis: int = 100_000
    max_support: int = 1_000_000  # term cap per basis element and per transcript
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
        # the clock is read on every pair when a deadline is set, so a run
        # whose pairs are individually slow stops at the first pair past it
        if (
            self.limits.deadline_s is not None
            and time.monotonic() - self.t0 > self.limits.deadline_s
        ):
            raise ResourceLimitExceeded(
                f"deadline of {self.limits.deadline_s}s exceeded"
            )

    def check_growth(self, size: int, support: int):
        if size > self.limits.max_basis:
            raise ResourceLimitExceeded(f"basis size cap {self.limits.max_basis} hit")
        if support > self.limits.max_support:
            raise ResourceLimitExceeded(
                f"support size {support} exceeds cap {self.limits.max_support}"
            )


DEFAULT_LIMITS = Limits()


# -- vectors -----------------------------------------------------------------

Vector = tuple  # tuple[Polynomial, ...]


def v_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def v_degree(v: Vector, shifts: Optional[Sequence[int]] = None):
    """Weighted degree of a homogeneous vector (None if inhomogeneous/zero),
    read from every packed term in one pass."""
    if not v:
        return None
    degree = v[0].ring.packed_degree
    degs = {degree(m) + shift
            for p, shift in zip(v, shifts or repeat(0)) for m, _ in p.packed}
    return degs.pop() if len(degs) == 1 else None


def to_flat(v: Vector, unit: int) -> tuple:
    """The engine's form of a vector: its components' packed terms in
    position order, the monomial m at position pos keyed as m - pos * unit."""
    return tuple([(m - pos * unit, c) for pos, p in enumerate(v) for m, c in p.packed])


def from_flat(flat: tuple, ring: PolyRing, rank: int, start: int = 0) -> Vector:
    """Components start..rank-1 of the vector of rank `rank` whose flat terms
    are `flat`, which has none at a position below `start`.  An empty
    component is `ring.zero` itself."""
    unit = ring.position_unit
    comps = [ring.zero] * (rank - start)
    pos, terms = None, []
    for key, c in flat:  # positions ascend, each one's terms contiguous
        p, m = _split(key, unit)
        if p != pos:
            if terms:
                comps[pos - start] = Polynomial(ring, tuple(terms))
            pos, terms = p, []
        terms.append((m, c))
    if terms:
        comps[pos - start] = Polynomial(ring, tuple(terms))
    return tuple(comps)


def _split(key: int, unit: int) -> tuple[int, int]:
    """(position, packed monomial) of a flat key."""
    pos = -(key // unit)
    return pos, key + pos * unit


class _Engine:
    """One Buchberger run over vectors of a fixed rank.

    Vectors are flat (see `to_flat`); each basis element is stored as
    (flat terms, top degree), the leading arguments of the ring's kernel
    `_add_into`; in a syzygy run its terms keyed below `floor` are its
    transcript.  A vector being reduced is a map {key: coefficient}, sorted
    into flat terms once it is done.  `shifts`, one per position, default
    0.  `all_pairs` reduces every same-position pair (see the module
    docstring).
    """

    def __init__(self, ring: PolyRing, rank: int, want_syzygies: bool,
                 limits: Limits, shifts: Optional[Sequence[int]] = None,
                 all_pairs: bool = False):
        self.ring = ring
        self.unit = ring.position_unit
        self.rank = rank
        self.want_syz = want_syzygies
        self.all_pairs = all_pairs
        self.shifts = tuple(shifts) if shifts else (0,) * rank
        self.meter = limits.start()
        self.floor = (1 - rank) * self.unit  # the least key at a position < rank
        self.basis: list[tuple] = []  # (flat vector, top degree); monic
        self.leads: list[int] = []  # flat key of each basis element's lead
        self.lead_exps: list[tuple] = []  # exponents of each lead, kept by add_element
        self.reducer_of: dict[int, int] = {}  # key -> first reducer found
        self.by_pos: dict[int, list[int]] = {}
        self.excess: list[int] = []  # sugar less the lead's unshifted degree
        self.pairs: list[tuple] = []  # (sugar, packed lcm, pos, i, j)
        self.dead: set[tuple[int, int]] = set()  # queued (i, j) the B criterion drops
        self.syzygies: list[tuple] = []  # flat transcripts, below `floor`

    # -- reduction ----------------------------------------------------------

    def _find_reducer(self, key: int) -> Optional[int]:
        """The first basis element whose lead divides key, or None.  Hits
        are remembered (see the module docstring); a miss may not stay one."""
        idx = self.reducer_of.get(key)
        if idx is not None:
            return idx
        divides, leads = self.ring.divides, self.leads
        pos, _ = _split(key, self.unit)
        for idx in self.by_pos.get(pos, ()):  # first match: deterministic
            if divides(leads[idx], key):
                self.reducer_of[key] = idx
                return idx
        return None

    def _reduce(self, acc: dict) -> tuple:
        """Cancel the leading terms of a map {key: coefficient} in place
        until none is reducible; the flat remainder, empty for 0."""
        ring = self.ring
        neg = ring.field.neg
        basis, leads = self.basis, self.leads
        while acc:
            key = max(acc)
            idx = self._find_reducer(key)
            if idx is None:
                return tuple(sorted(acc.items(), reverse=True))
            _add_into(acc, *basis[idx], key - leads[idx], neg(acc[key]), ring)
        return ()

    def _top_reduce(self, v: tuple) -> tuple:
        """Cancel leading terms of a flat v until none is reducible; v itself
        when its lead is not."""
        if not v or self._find_reducer(v[0][0]) is None:
            return v
        return self._reduce(dict(v))

    def top_reduce(self, v: Vector) -> tuple:
        """`_top_reduce` on a tuple of polynomials; returns the flat
        remainder, empty when v reduces to 0."""
        return self._top_reduce(to_flat(v, self.unit))

    def normal_form(self, v: tuple) -> tuple:
        """Full normal form of a flat v: every remaining term is irreducible.

        Zero exactly when the first top reduction gives zero.  The
        irreducible leads leave in strictly decreasing key order, so
        appending them keeps the remainder sorted.
        """
        remainder = []
        while True:
            v = self._top_reduce(v)
            if not v:
                return tuple(remainder)
            remainder.append(v[0])
            v = v[1:]

    # -- basis growth ---------------------------------------------------------

    def _insert(self, v: tuple):
        """Store a flat v, made monic, as a basis element; forms no pairs."""
        ring = self.ring
        key, coeff = v[0]
        if coeff != 1:
            inv = ring.field.inv(coeff)
            mul = ring.field.mul
            v = tuple([(m, mul(c, inv)) for m, c in v])
        self.by_pos.setdefault(_split(key, self.unit)[0], []).append(len(self.basis))
        self.basis.append((v, ring.top_degree(v)))
        self.leads.append(key)

    def add_element(self, v: tuple, pair=None):
        """Queue the pairs of a nonzero flat v and store it, or keep it as a
        syzygy when it leads in its transcript.  v keeps the sugar of the
        pair it was reduced from (`pair`: position, sugar) while it leads at
        that position, as a run's inputs may be homogeneous under shifts it
        is not given; else its sugar is its top shifted degree there."""
        key = v[0][0]
        if key < self.floor:
            self.syzygies.append(v)
            return
        pos, m = _split(key, self.unit)
        ring = self.ring
        new = len(self.basis)
        degree = ring.packed_degree
        if pair is not None and pair[0] == pos:
            sugar = pair[1]
        else:  # the terms at the lead's position have keys >= key - m
            sugar = max([degree(k) for k, _ in v if k >= key - m]) + self.shifts[pos]
        self.excess.append(sugar - degree(key))
        exps, pack, lead_exps = ring.decode(key), ring._pack, self.lead_exps
        lcms = {k: pack([*map(max, lead_exps[k], exps)])
                for k in self.by_pos.get(pos, ())}
        if self.all_pairs:  # no pair criteria: see the module docstring
            for k, lcm in lcms.items():
                heapq.heappush(self.pairs, self._pair_key(pos, lcm, k, new))
        else:
            self._gebauer_moller(pos, m, new, lcms)
        self._insert(v)
        lead_exps.append(exps)
        # the support cap counts the vector and its transcript apart
        head = len([k for k, _ in v if k >= self.floor])
        self.meter.check_growth(len(self.basis), max(head, len(v) - head))

    def _gebauer_moller(self, pos: int, m: int, new: int, lcms: dict):
        """Queue the pairs of a new element h (lead m, index `new`) that the
        Gebauer-Moeller criteria keep; `lcms` maps each same-position basis
        index k to lcm(lead k, m).

        B: a queued pair (i, j) whose lcm L is a multiple of m, with lcm(i, h)
        and lcm(j, h) both proper divisors of L, is marked dead.  M: a new
        pair whose lcm is a proper multiple of another new pair's lcm is
        dropped.  F: one pair is kept per remaining lcm, the one with the
        smallest k.  Product criterion (rank 1 only: it does not hold for
        vectors; and never in a syzygy run, which would lose the Koszul
        syzygy of a coprime pair): an lcm class with one coprime pair is
        dropped whole.
        """
        ring = self.ring
        product = self.rank == 1 and not self.want_syz
        for key in self.pairs:
            _, lcm, p, i, j = key
            if (p == pos and ring.divides(m, lcm)
                    and lcms[i] != lcm and lcms[j] != lcm):
                self.dead.add((i, j))
        classes: dict[int, int] = {}  # lcm -> smallest k; -1 if a pair is coprime
        for k, lcm in lcms.items():
            # at rank 1 a lead's flat key is its packed monomial
            if product and lcm == self.leads[k] + m:
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
        sugar = self.ring.packed_degree(lcm) + max(self.excess[i], self.excess[j])
        return (sugar, lcm, pos, i, j)

    def run(self, flats: Sequence[tuple]):
        if self.want_syz:  # input i gains its transcript, 1 at position rank + i
            one = self.ring.one.packed[0][1]
            flats = [v + ((-(self.rank + i) * self.unit, one),)
                     for i, v in enumerate(flats)]
        for v in flats:
            if v:
                self.add_element(v)
        self._main_loop()
        return self

    def _main_loop(self, stop: Optional[int] = None):
        """Reduce pairs in key order; with `stop`, leave those of sugar
        above it in the queue."""
        ring = self.ring
        while self.pairs:
            if stop is not None and self.pairs[0][0] > stop:
                return
            sugar, lcm, pos, i, j = heapq.heappop(self.pairs)
            if (i, j) in self.dead:
                self.dead.remove((i, j))
                continue
            self.meter.tick_pair()
            at = lcm - pos * self.unit  # the lcm's key at position pos
            u_i = at - self.leads[i]
            u_j = at - self.leads[j]
            acc = {}
            _add_into(acc, *self.basis[i], u_i, 1, ring)
            _add_into(acc, *self.basis[j], u_j, -1, ring)
            s = self._reduce(acc)
            if s:
                self.add_element(s, (pos, sugar))


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
    in the kept module exactly when top reduction sends it to zero (La Scala
    & Stillman's degree-by-degree strategy).  The pair criteria keep this
    exact: the pairs that justify dropping a pair have lcms dividing its lcm.

    A candidate c that is a multiple lambda * X^w * e of an earlier one is
    dropped without a reduction.  Such an e has the same lead position and
    the same flat keys relative to the lead, so it is looked for only among
    the earlier candidates filed under those (the keys by their hash, which
    costs no memory per term; `_is_multiple` compares them in full).  e was
    taken first, so it lies in the kept module, and so does c, which top
    reduction would send to zero.  The pairs up to c's degree are still
    reduced, so the S-pairs a run reduces do not change.
    """
    nonzero = [v for v in vectors if not v_is_zero(v)]
    if not nonzero:
        return []
    eng = _Engine(ring, len(nonzero[0]), want_syzygies=False, limits=limits,
                  shifts=shifts)

    def candidate(v: Vector):
        """((degree, position, packed lead), flat v, v)"""
        deg = v_degree(v, eng.shifts)
        if deg is None:
            raise ValueError("minimal generators need homogeneous vectors")
        flat = to_flat(v, eng.unit)
        return (deg, *_split(flat[0][0], eng.unit)), flat, v

    # (lead position, hash of the keys less the lead's) -> flat candidates
    shapes: dict[tuple, list[tuple]] = {}
    kept: list[Vector] = []
    for (deg, pos, _), flat, v in sorted(map(candidate, nonzero), key=itemgetter(0)):
        eng._main_loop(stop=deg)
        lead = flat[0][0]
        shape = shapes.setdefault((pos, hash(tuple([k - lead for k, _ in flat]))), [])
        if any(_is_multiple(flat, e, ring) for e in shape):
            continue
        shape.append(flat)
        reduced = eng._top_reduce(flat)
        if not reduced:
            continue
        kept.append(v)
        eng.add_element(reduced)
    return kept


def _is_multiple(v: tuple, e: tuple, ring: PolyRing) -> bool:
    """True iff the flat v is lambda * X^w * e for a scalar lambda and a
    monomial X^w, given that v and e lead at the same position: e's lead
    divides v's, each key of v is e's key plus w, and the coefficients are
    proportional (compared crosswise, so no inverse is taken)."""
    (lead, lc), (e_lead, e_lc) = v[0], e[0]
    w, mul = lead - e_lead, ring.field.mul
    return (len(v) == len(e) and ring.divides(e_lead, lead)
            and all(k == ek + w and mul(ec, lc) == mul(c, e_lc)
                    for (k, c), (ek, ec) in zip(v, e)))


def module_groebner_basis(vectors: Sequence[Vector], ring: PolyRing,
                          limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Groebner basis (not interreduced) of the module the vectors generate."""
    if not vectors:
        return []
    rank = len(vectors[0])
    eng = _Engine(ring, rank, want_syzygies=False, limits=limits)
    eng.run([to_flat(v, eng.unit) for v in vectors])
    return [from_flat(v, ring, rank) for v, _ in eng.basis]


def module_reducer(basis: Sequence[Vector], ring: PolyRing, rank: int) -> "_Engine":
    """Reusable reducer over a fixed (Groebner) basis; no completion is run."""
    eng = _Engine(ring, rank, want_syzygies=False, limits=DEFAULT_LIMITS)
    for b in basis:
        eng._insert(to_flat(b, eng.unit))
    return eng


def module_member(v: Vector, basis: Sequence[Vector], ring: PolyRing) -> bool:
    """True iff top reduction by the basis sends v to zero; this decides
    membership when the basis is a Groebner basis."""
    return not module_reducer(basis, ring, len(v)).top_reduce(v)


def _syzygy_run(vectors: Sequence[Vector], ring: PolyRing, limits: Limits,
                all_pairs: bool) -> tuple[list[Vector], "_Engine"]:
    """(syzygies, engine) of one syzygy run over nonempty `vectors`."""
    rank = len(vectors[0])
    eng = _Engine(ring, rank, want_syzygies=True, limits=limits,
                  all_pairs=all_pairs)
    eng.run([to_flat(v, eng.unit) for v in vectors])
    return [from_flat(s, ring, rank + len(vectors), rank) for s in eng.syzygies], eng


def syzygy_generators(vectors: Sequence[Vector], ring: PolyRing,
                      limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Generators of the syzygy module of the given vectors (in R^len(vectors)),
    one per same-position pair that reduces to zero (and per zero input)."""
    if not vectors:
        return []
    return _syzygy_run(vectors, ring, limits, all_pairs=True)[0]


def syzygies_and_basis(vectors: Sequence[Vector], ring: PolyRing,
                       limits: Limits = DEFAULT_LIMITS
                       ) -> tuple[list[Vector], list[Vector]]:
    """(generators of the syzygy module, Groebner basis (not interreduced) of
    the module the vectors generate) from one run with the pair criteria.

    The syzygies generate the same module as `syzygy_generators`' list, most
    often with fewer elements; the basis is the stored vectors with their
    transcripts stripped.
    """
    if not vectors:
        return [], []
    syz, eng = _syzygy_run(vectors, ring, limits, all_pairs=False)
    floor = eng.floor
    return syz, [from_flat([t for t in v if t[0] >= floor], ring, eng.rank)
                 for v, _ in eng.basis]


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
    basis = module_groebner_basis([(g,) for g in nonzero], ring, limits=limits)
    return interreduce([v for v, in basis], ring)


def _lm(p: Polynomial) -> int:
    """Packed leading monomial of a nonzero polynomial."""
    return p.packed[0][0]


def interreduce(basis: list[Polynomial], ring: PolyRing) -> list[Polynomial]:
    """The reduced Groebner basis, sorted by increasing leading term, of the
    ideal that a Groebner basis of nonzero polynomials generates."""
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
        Polynomial(ring, reducer.normal_form(p.packed[1:]))
        .add_mul(ring.one, *p.packed[0]).monic()
        for p in kept
    ]


def reduce_poly(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of p modulo a list of polynomials."""
    if p.is_zero() or not basis:
        return p
    reducer = module_reducer([(b,) for b in basis if not b.is_zero()], p.ring, 1)
    return Polynomial(p.ring, reducer.normal_form(p.packed))


def ideal_member(p: Polynomial, gb: Sequence[Polynomial]) -> bool:
    """True iff top reduction by gb sends p to zero, as `module_member`."""
    return module_member((p,), [(g,) for g in gb if not g.is_zero()], p.ring)
