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
from its S-pair to its remainder: forming the S-pair is two range-checked
calls of the field's merge loop `add_into` (the loop of the ring's kernel
`ring._add_into`), each reduction step v <- v + k * X^u * b is one more,
whatever the rank, and the map is sorted into flat terms once at the end.
The engine forms no product anywhere else.
The public functions convert tuples of polynomials to and from the flat
form, except three that the exactness check chains: `syzygies_and_basis`
takes flat columns and returns flat syzygies and a flat image basis,
`module_reducer` stores flat vectors, and its reducer's `top_reduce`
reduces one, so no vector becomes polynomials between one syzygy run and
the reducer its syzygies are tested by.

Syzygy extraction works in the augmented module [F | I]: a syzygy run on
vectors of rank r gives input i a term 1 at position r + i, below every
term of F, so the merges that reduce a vector carry its expression in the
inputs, its transcript, along.  An S-vector that reduces to transcript
terms alone (a zero input is one at once) is a syzygy of the inputs;
because the inputs stay in the working basis, these generate the full
syzygy module.

Pair criteria (Gebauer & Moeller, "On an installation of Buchberger's
algorithm", JSC 1988) depend on the run:

  - A syzygy run (`syzygy_generators`, so the oracle resolution and the
    colon ideal; `syzygies_and_basis`, so the exactness check) applies the
    B, M and F criteria but never the product criterion.  These drop only
    pairs whose syzygy of leading terms the kept pairs generate, so the
    transcripts still generate the syzygy module (Moeller, Mora &
    Traverso, "Groebner bases computation using syzygies", ISSAC 1992).
    The product criterion would lose the Koszul syzygy of a coprime pair.
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
`syzygies_and_basis`.  On homogeneous input a basis up to degree D
decides the vectors of degree <= D (La Scala & Stillman, "Strategies for
computing minimal free resolutions", JSC 1998): pruning completes its
basis degree by degree, and `module_groebner_basis(degree=D)`, which the
oracle's `ideal_contains` asks for, stops at D.  Only a basis that is
itself an output is interreduced: `groebner()` is `interreduce` of
`module_groebner_basis`.
The full normal form, which also reduces the terms below the lead, serves
only `interreduce` and `reduce_poly`.

The engine works on packed monomials (see `ring`).  The low bits of a key
are its packed monomial, so the guard-bit divisibility test, the multiplier
of a reduction (a difference of keys at one position), the degree field and
`decode` read keys unchanged; reducers are looked up among the basis
elements that lead at the same position.  Each run reads the ring's packed
layout once (the guard mask, the degree field's shift and mask,
`degree_cap` and `position_unit`) and tests keys inline: a divisibility
test is `not (b - a) & guard`, a degree read `key >> shift & mask` and a
position `-(key // unit)`, with no ring method called per test.  The pair
criteria work on each lead's exponent word, its packed monomial masked to
the exponent fields (`_WordLayout`): an lcm is a field-wise max read off
the guard bits of one subtraction, divisibility the same guard-bit test,
and only the lcm of a pair the criteria queue is packed.  After its sugar,
an S-pair is keyed by its position-free packed lcm, which sorts exactly
like the lcm's order key.
Each stored basis element, transcript included, carries the degree of its
highest-degree term (as `PolyRing.top_degree` reads it), and the engine
range-checks every product against it, as `ring._add_into` does, before
the field merges any term: one that would leave the packed range raises
MonomialOutOfRange, even when that term lies below the lead.

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
from operator import itemgetter, mul
from typing import Optional, Sequence

from .ring import Polynomial, PolyRing


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
        # every cap is compared fail-closed: no count is within a NaN cap
        if not self.spairs <= self.limits.max_spairs:
            raise ResourceLimitExceeded(
                f"S-pair budget {self.limits.max_spairs} exhausted"
            )
        # the clock is read on every pair when a deadline is set: a run stops at
        # the first pair past it, however slow its pairs, or at its first if NaN
        if (
            self.limits.deadline_s is not None
            and not time.monotonic() - self.t0 <= self.limits.deadline_s
        ):
            raise ResourceLimitExceeded(
                f"deadline of {self.limits.deadline_s}s exceeded"
            )

    def check_growth(self, size: int, support: int):
        if not size <= self.limits.max_basis:
            raise ResourceLimitExceeded(f"basis size cap {self.limits.max_basis} hit")
        if not support <= self.limits.max_support:
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
    ring = v[0].ring
    dshift, mask = ring._degree_shift, ring._mask
    degs = {(m >> dshift & mask) + shift
            for p, shift in zip(v, shifts or repeat(0)) for m, _ in p.packed}
    return degs.pop() if len(degs) == 1 else None


def to_flat(v: Vector, unit: int) -> tuple:
    """The engine's form of a vector: its components' packed terms in
    position order, the monomial m at position pos keyed as m - pos * unit.
    At rank 1 that is the polynomial's own packed terms."""
    if len(v) == 1:
        return v[0].packed
    return tuple([(m - pos * unit, c) for pos, p in enumerate(v) for m, c in p.packed])


def from_flat(flat: tuple, ring: PolyRing, rank: int, start: int = 0) -> Vector:
    """Components start..rank-1 of the vector of rank `rank` whose flat terms
    are `flat`, which has none at a position below `start`.  An empty
    component is `ring.zero` itself."""
    unit = ring.position_unit
    comps = [ring.zero] * (rank - start)
    pos, terms = None, []
    for key, c in flat:  # positions ascend, each one's terms contiguous
        p = -(key // unit)
        if p != pos:
            if terms:
                comps[pos - start] = Polynomial(ring, tuple(terms))
            pos, terms = p, []
        terms.append((key + p * unit, c))
    if terms:
        comps[pos - start] = Polynomial(ring, tuple(terms))
    return tuple(comps)


class _WordLayout:
    """Exponent words of a ring's packed monomials: a monomial's word is its
    packed int masked to the exponent fields (`fields`), whose guard bits
    are `guard`.  One word divides another exactly when their difference
    leaves every guard bit clear, and a larger word is never a proper
    divisor of a smaller one."""

    def __init__(self, ring: PolyRing):
        self.mask, self.shifts = ring._mask, ring._exp_shifts
        self.bits = self.mask.bit_length()
        self.fields = sum(self.mask << s for s in self.shifts)
        self.guard = sum(1 << (s + self.bits) for s in self.shifts)

    def lcms(self, a: int, words: Sequence[int]) -> list[int]:
        """lcm word of `a` with each of `words`, a field-wise max: (a | guard)
        - b keeps the guard bit of each field where a's exponent is at least
        b's, and that bit less itself shifted down to the field's foot masks
        the field, which is taken from a; every other field from b."""
        fields, guard, bits = self.fields, self.guard, self.bits
        high = a | guard
        out = []
        for b in words:
            t = (high - b) & guard
            m = t - (t >> bits)
            out.append((a & m) | (b & (fields ^ m)))
        return out

    def exps(self, word: int) -> list[int]:
        """Exponents of a word."""
        mask = self.mask
        return [word >> s & mask for s in self.shifts]


class _Engine:
    """One Buchberger run over vectors of a fixed rank.

    Vectors are flat (see `to_flat`); each basis element is stored as
    (flat terms, top degree), the terms a product multiplies and the degree
    its range check reads; in a syzygy run its terms keyed below `floor`
    are its transcript.  A vector being reduced is a map {key: coefficient}, sorted
    into flat terms once it is done.  `shifts`, one per position, default
    0.  Every run queues only the pairs the criteria keep (see the module
    docstring).
    """

    def __init__(self, ring: PolyRing, rank: int, want_syzygies: bool,
                 limits: Limits, shifts: Optional[Sequence[int]] = None):
        self.ring = ring
        # the packed layout, read once: keys are tested inline (see the
        # module docstring)
        self.unit = ring.position_unit
        self.guard = ring.guard
        self.dshift, self.dmask = ring._degree_shift, ring._mask
        self.cap = ring.degree_cap
        self.rank = rank
        self.want_syz = want_syzygies
        self.shifts = tuple(shifts) if shifts else (0,) * rank
        self.meter = limits.start()
        self.floor = (1 - rank) * self.unit  # the least key at a position < rank
        self.basis: list[tuple] = []  # (flat vector, top degree); monic
        self.leads: list[int] = []  # flat key of each basis element's lead
        self.layout = _WordLayout(ring)
        self.words: list[int] = []  # exponent word of each lead, kept by add_element
        self.top_lead = 0  # the largest lead degree among them
        self.reducer_of: dict[int, int] = {}  # key -> first reducer found
        self.by_pos: dict[int, list[int]] = {}
        self.excess: list[int] = []  # sugar less the lead's unshifted degree
        self.pairs: list[tuple] = []  # (sugar, packed lcm, pos, i, j, lcm word)
        self.dead: set[tuple[int, int]] = set()  # queued (i, j) the B criterion drops
        self.syzygies: list[tuple] = []  # flat transcripts, below `floor`

    # -- reduction ----------------------------------------------------------

    def _find_reducer(self, key: int) -> Optional[int]:
        """The first basis element whose lead divides key, or None.  Hits
        are remembered (see the module docstring); a miss may not stay one."""
        idx = self.reducer_of.get(key)
        if idx is not None:
            return idx
        guard, leads = self.guard, self.leads
        # first match: deterministic; a lead at key's position divides key
        # when the difference of their keys leaves every guard bit clear
        for idx in self.by_pos.get(-(key // self.unit), ()):
            if not (key - leads[idx]) & guard:
                self.reducer_of[key] = idx
                return idx
        return None

    def _reduce(self, acc: dict) -> tuple:
        """Cancel the leading terms of a map {key: coefficient} in place
        until none is reducible; the flat remainder, empty for 0."""
        ring = self.ring
        neg, add_into = ring.field.neg, ring.field.add_into
        basis, leads, reducer_of = self.basis, self.leads, self.reducer_of
        dshift, mask, cap = self.dshift, self.dmask, self.cap
        while acc:
            key = max(acc)
            idx = reducer_of.get(key)
            if idx is None:
                idx = self._find_reducer(key)
                if idx is None:
                    return tuple(sorted(acc.items(), reverse=True))
            q, top = basis[idx]
            u = key - leads[idx]
            top += u >> dshift & mask
            if top >= cap:  # `_add_into`'s range check
                ring.check_degree(top)
            add_into(acc, q, u, neg(acc[key]))
        return ()

    def _top_reduce(self, v: tuple) -> tuple:
        """Cancel leading terms of a flat v until none is reducible; v itself
        when its lead is not, and empty when v reduces to 0."""
        if not v or self._find_reducer(v[0][0]) is None:
            return v
        return self._reduce(dict(v))

    # the name a `module_reducer` is called by, and the benchmark's tracer
    # wraps on each reducer; pruning and `normal_form` call `_top_reduce`
    top_reduce = _top_reduce

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
        field = self.ring.field
        key, coeff = v[0]
        if coeff != 1:
            inv = field.inv(coeff)
            mul = field.mul
            v = tuple([(m, mul(c, inv)) for m, c in v])
        dshift, mask = self.dshift, self.dmask
        self.by_pos.setdefault(-(key // self.unit), []).append(len(self.basis))
        self.basis.append((v, max([k >> dshift & mask for k, _ in v])))
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
        pos = -(key // self.unit)
        low = -pos * self.unit  # the least key at the lead's position
        new = len(self.basis)
        dshift, mask = self.dshift, self.dmask
        if pair is not None and pair[0] == pos:
            sugar = pair[1]
        else:
            sugar = max([k >> dshift & mask for k, _ in v if k >= low]) + self.shifts[pos]
        degree = key >> dshift & mask
        self.excess.append(sugar - degree)
        # a key's low bits are its packed monomial
        layout, words = self.layout, self.words
        word = key & layout.fields
        same = self.by_pos.get(pos, ())
        lcms = dict(zip(same, layout.lcms(word, [words[k] for k in same])))
        # an lcm's degree is at most the sum of its leads': only past the
        # cap is each one's exact degree checked, in index order
        if degree + self.top_lead >= self.cap:
            ring = self.ring
            for lcm in lcms.values():
                ring.check_degree(sum(map(mul, layout.exps(lcm), ring.weights)))
        self._gebauer_moller(pos, word, new, lcms)
        self._insert(v)
        words.append(word)
        self.top_lead = max(self.top_lead, degree)
        # the support cap counts the vector and its transcript apart, which
        # can matter only when the vector or the basis could exceed a cap;
        # written fail-closed, so that a NaN cap stops the run
        limits = self.meter.limits
        if not (len(v) <= limits.max_support and new < limits.max_basis):
            head = len([k for k, _ in v if k >= self.floor])
            self.meter.check_growth(new + 1, max(head, len(v) - head))

    def _gebauer_moller(self, pos: int, m: int, new: int, lcms: dict):
        """Queue the pairs of a new element h (lead word m, index `new`)
        that the Gebauer-Moeller criteria keep; `lcms` maps each
        same-position basis index k to the word of lcm(lead k, m).  Every
        test is on words; only a queued pair's lcm is packed.

        B: a queued pair (i, j) whose lcm L is a multiple of m, with lcm(i, h)
        and lcm(j, h) both proper divisors of L, is marked dead.  M: a new
        pair whose lcm is a proper multiple of another new pair's lcm is
        dropped.  F: one pair is kept per remaining lcm, the one with the
        smallest k.  Product criterion (rank 1 only: it does not hold for
        vectors; and never in a syzygy run, which would lose the Koszul
        syzygy of a coprime pair): an lcm class with one coprime pair, one
        whose lcm is the product of its leads, is dropped whole.
        """
        guard, dead = self.layout.guard, self.dead
        product = self.rank == 1 and not self.want_syz
        for _, _, p, i, j, lcm in self.pairs:
            if (p == pos and not (lcm - m) & guard
                    and lcms[i] != lcm and lcms[j] != lcm):
                dead.add((i, j))
        classes: dict[int, int] = {}  # lcm -> smallest k; -1 if a pair is coprime
        words = self.words
        for k, lcm in lcms.items():
            if product and lcm == words[k] + m:
                classes[lcm] = -1
            else:
                classes.setdefault(lcm, k)
        # a proper divisor sorts first, and a multiple of a dropped lcm is a
        # multiple of the kept lcm that dropped it
        dshift, mask, excess, pairs = self.dshift, self.dmask, self.excess, self.pairs
        pack, exps = self.ring._pack, self.layout.exps
        minimal: list[int] = []
        for lcm in sorted(classes):
            for low in minimal:
                if not (lcm - low) & guard:
                    break
            else:
                minimal.append(lcm)
                k = classes[lcm]
                # keyed (sugar, packed lcm, position, i, j); the word is for B
                if k >= 0:
                    packed = pack(exps(lcm))
                    sugar = (packed >> dshift & mask) + max(excess[k], excess[new])
                    heapq.heappush(pairs, (sugar, packed, pos, k, new, lcm))

    def run(self, flats: Sequence[tuple], stop: Optional[int] = None):
        """Store the nonempty flats and reduce their pairs, those of sugar
        above `stop` left queued (see `_main_loop`)."""
        if self.want_syz:  # input i gains its transcript, 1 at position rank + i
            one = self.ring.one.packed[0][1]
            flats = [v + ((-(self.rank + i) * self.unit, one),)
                     for i, v in enumerate(flats)]
        for v in flats:
            if v:
                self.add_element(v)
        self._main_loop(stop)
        return self

    def _main_loop(self, stop: Optional[int] = None):
        """Reduce pairs in key order; with `stop`, leave those of sugar
        above it in the queue."""
        ring = self.ring
        add_into = ring.field.add_into
        pairs, dead, basis, leads = self.pairs, self.dead, self.basis, self.leads
        unit, dshift, mask, cap = self.unit, self.dshift, self.dmask, self.cap
        tick = self.meter.tick_pair
        while pairs:
            if stop is not None and pairs[0][0] > stop:
                return
            sugar, lcm, pos, i, j, _ = heapq.heappop(pairs)
            if (i, j) in dead:
                dead.remove((i, j))
                continue
            tick()
            at = lcm - pos * unit  # the lcm's key at position pos
            acc = {}
            for idx, k in ((i, 1), (j, -1)):
                q, top = basis[idx]
                u = at - leads[idx]
                top += u >> dshift & mask
                if top >= cap:  # `_add_into`'s range check
                    ring.check_degree(top)
                add_into(acc, q, u, k)
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
        lead = flat[0][0]
        return (deg, -(lead // eng.unit), lead % eng.unit), flat, v

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
                          limits: Limits = DEFAULT_LIMITS,
                          degree: Optional[int] = None) -> list[Vector]:
    """Groebner basis (not interreduced) of the module the vectors generate.

    With `degree`, only the pairs of sugar up to it are reduced, so the
    result is a Groebner basis up to that degree and not a full basis: it
    decides membership of vectors of degree <= `degree`, and only when every
    vector is homogeneous (the weights are positive), by the argument of
    `minimal_module_generators`.  On other input a truncated run decides
    nothing.
    """
    if not vectors:
        return []
    rank = len(vectors[0])
    eng = _Engine(ring, rank, want_syzygies=False, limits=limits)
    eng.run([to_flat(v, eng.unit) for v in vectors], stop=degree)
    return [from_flat(v, ring, rank) for v, _ in eng.basis]


def module_reducer(basis: Sequence[tuple], ring: PolyRing, rank: int) -> "_Engine":
    """Reusable reducer over a fixed (Groebner) basis of flat vectors of rank
    `rank`; no completion is run.  Its `top_reduce` takes a flat vector."""
    eng = _Engine(ring, rank, want_syzygies=False, limits=DEFAULT_LIMITS)
    for b in basis:
        eng._insert(b)
    return eng


def module_member(v: Vector, basis: Sequence[Vector], ring: PolyRing) -> bool:
    """True iff top reduction by the basis sends v to zero; this decides
    membership when the basis is a Groebner basis."""
    unit = ring.position_unit
    reducer = module_reducer([to_flat(b, unit) for b in basis], ring, len(v))
    return not reducer.top_reduce(to_flat(v, unit))


def syzygy_generators(vectors: Sequence[Vector], ring: PolyRing,
                      limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Generators of the syzygy module of the given vectors (in R^len(vectors)),
    one per criteria-kept pair that reduces to zero (and per zero input).
    Which generators, and how many, depends on the pair criteria; the
    module they generate does not."""
    if not vectors:
        return []
    rank = len(vectors[0])
    eng = _Engine(ring, rank, want_syzygies=True, limits=limits)
    eng.run([to_flat(v, eng.unit) for v in vectors])
    return [from_flat(s, ring, rank + len(vectors), rank) for s in eng.syzygies]


def syzygies_and_basis(columns: Sequence[tuple], ring: PolyRing, rank: int,
                       limits: Limits = DEFAULT_LIMITS
                       ) -> tuple[list[tuple], list[tuple]]:
    """(generators of the syzygy module, Groebner basis (not interreduced) of
    the module the columns generate) from one syzygy run, all flat.

    `columns` are flat vectors of rank `rank` (see `to_flat`).  The syzygies
    are those of `syzygy_generators`, in its order, with their transcript
    positions rank.. rebased to 0.., so that `from_flat(s, ring,
    len(columns))` reads one back; the basis is the stored vectors with
    their transcripts stripped.
    """
    if not columns:
        return [], []
    eng = _Engine(ring, rank, want_syzygies=True, limits=limits).run(columns)
    shift, floor = rank * eng.unit, eng.floor
    return ([tuple([(k + shift, c) for k, c in s]) for s in eng.syzygies],
            [tuple([t for t in v if t[0] >= floor]) for v, _ in eng.basis])


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
    reducer = module_reducer([p.packed for p in kept], ring, 1)
    return [
        Polynomial(ring, reducer.normal_form(p.packed[1:]))
        .add_mul(ring.one, *p.packed[0]).monic()
        for p in kept
    ]


def reduce_poly(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of p modulo a list of polynomials."""
    if p.is_zero() or not basis:
        return p
    reducer = module_reducer([b.packed for b in basis if not b.is_zero()], p.ring, 1)
    return Polynomial(p.ring, reducer.normal_form(p.packed))


def ideal_member(p: Polynomial, gb: Sequence[Polynomial]) -> bool:
    """True iff top reduction by gb sends p to zero, as `module_member`."""
    return module_member((p,), [(g,) for g in gb if not g.is_zero()], p.ring)
