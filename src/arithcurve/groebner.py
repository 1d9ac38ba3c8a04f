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
products, the first (k = 1 into an empty map) one dict comprehension and
the second a call of the field's merge loop `add_into` (the loop of the
ring's kernel `ring._add_into`), each reduction step v <- v + k * X^u * b
is one more call, whatever the rank, and the map is sorted into flat terms
once at the end.  The engine forms no product anywhere else.
Polynomials become flat vectors only in `to_flat` and flat vectors
polynomials only in `from_flat`: pruning converts each candidate once
and reads its degree off the flat terms, and `syzygy_generators` reads
its syzygies back.  The basis and membership functions speak it:
`module_groebner_basis` takes flat columns and returns a flat basis,
`syzygies_and_basis` flat syzygies and a flat image basis,
`module_reducer` stores flat vectors in a `_Reducer`, and its `top_reduce`
reduces one, so no vector becomes polynomials between a basis run and the
reducer that tests membership against it.

A run is one `_Engine`: a `_Reducer` whose basis grows by the S-pairs it
reduces, under one meter (`Limits.start`) that every cap bounds.  Each
event of a run is one frame: `add_element` stores an element and queues
its pairs, the only place pairs are queued; `_main_loop` forms each
S-pair, and `_reduce` looks up each reducer inline.  A
`_Reducer` alone reduces against a finished basis (membership tests,
normal forms, interreduction): it forms no pair and starts no meter, so
it is no run and takes no cap.

Syzygy extraction works in the augmented module [F | I]: a syzygy run on
vectors of rank r gives input i a term 1 at position r + i, below every
term of F, so the merges that reduce a vector carry its expression in the
inputs, its transcript, along.  An S-vector that reduces to transcript
terms alone (a zero input is one at once) is a syzygy of the inputs;
because the inputs stay in the working basis, these generate the full
syzygy module.

Pair criteria (Gebauer & Moeller, "On an installation of Buchberger's
algorithm", JSC 1988) depend on the run:

  - A syzygy run (each step of the oracle resolution, whose
    `minimal_module_generators` prunes as the head of the step's run and
    `syzygy_generators` completes it; `syzygies_and_basis`, so the
    exactness check) applies the B, M and F criteria but never the
    product criterion, not even at rank 1, where the resolution's step 0
    prunes generators.
    These drop only pairs whose syzygy of leading terms the kept pairs
    generate, so the transcripts still generate the syzygy module
    (Moeller, Mora & Traverso, "Groebner bases computation using
    syzygies", ISSAC 1992).  The product criterion would lose the Koszul
    syzygy of a coprime pair.
  - Every other run (`groebner` and `module_groebner_basis`) applies the
    B, M and F criteria at every rank, and the product criterion (coprime
    leads) at rank 1 only, where it holds.  These runs return a Groebner
    basis or a membership answer, which no choice of pairs can change: the
    reduced basis is unique, and membership does not depend on the basis
    used.

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
whichever Groebner basis of the module is used.  `ideal_member`, pruning
and the oracle's membership tests all decide it so, against the
unreduced basis of `module_groebner_basis`, of `syzygies_and_basis` or of
the pruning run itself; a zero remainder by any generating set is a
standard representation, so `ideal_contains` first top-reduces by the
generators, with no run.  On homogeneous input
a basis up to degree D decides the vectors of degree <= D (La Scala &
Stillman, "Strategies for computing minimal free resolutions", JSC
1998): pruning completes its basis degree by degree and is the only
caller that stops a run early; every other run is completed in full.
Only a basis that is itself an output is interreduced: `groebner()` is
`interreduce` of `module_groebner_basis`.
The full normal form, which also reduces the terms below the lead, serves
only `interreduce`, `reduce_poly` and the products of `oracle.artinian_table`.

The engine works on packed monomials (see `ring`).  The low bits of a key
are its packed monomial, so the guard-bit divisibility test, the multiplier
of a reduction (a difference of keys at one position), the degree field and
`decode` read keys unchanged; reducers are looked up among the basis
elements that lead at the same position.  Each reducer, run or not,
reads the ring's packed layout once (the guard mask, the degree field's
shift and mask, `degree_cap` and `position_unit`) and tests keys inline:
a divisibility test is `not (b - a) & guard`, a degree read
`key >> shift & mask` and a position `-(key // unit)`, with no ring
method called per test.  The pair criteria work on each lead's exponent
word, its packed monomial masked to the exponent fields
(`PolyRing.word_fields`): an lcm is a field-wise max read off the guard
bits of one subtraction (inline in `add_element`), divisibility the same
guard-bit test, and only the lcm of a pair the criteria queue is packed,
field by field from the exponent shifts and packing columns read once per
run.
After its sugar, an S-pair is keyed by its position-free packed lcm,
which sorts exactly like the lcm's order key.
Each stored basis element, transcript included, carries the degree of its
highest-degree term, the one `PolyRing.top_degree` reads: `add_element`
reads it in the pass that computes the element's sugar, or in one pass of
its own when the sugar comes from the pair, and a fixed basis is read by
`top_degree` itself.  The engine range-checks every product against it,
as `ring._add_into` does, before the field merges any term: one that
would leave the packed range raises MonomialOutOfRange, even when that
term lies below the lead.

All computations are deterministic: fixed insertion order, pairs processed in
increasing (sugar, packed lcm, position, i, j) and reducers chosen
first-in-basis.  Resource limits are explicit errors, never silent
truncation; each cap bounds one run, and the S-pair budget counts only the
pairs that run reduces, not those a criterion drops.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
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


def to_flat(v: Vector, unit: int) -> tuple:
    """The engine's form of a vector: its components' packed terms in
    position order, the monomial m at position pos keyed as m - pos * unit.
    At rank 1 that is the polynomial's own packed terms."""
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


class _Reducer:
    """Reduction against a fixed basis of flat vectors (see `to_flat`); it
    forms no pairs and starts no meter, so it is not a run.

    Each basis element is stored monic as (flat terms, top degree), the
    terms a product multiplies and the degree its range check reads.  A
    vector being reduced is a map {key: coefficient}, sorted into flat terms
    once it is done.
    """

    def __init__(self, ring: PolyRing, basis: Sequence[tuple] = ()):
        self.ring = ring
        # the packed layout, read once: keys are tested inline (see the
        # module docstring)
        self.unit = ring.position_unit
        self.guard = ring.guard
        self.dshift, self.dmask = ring._degree_shift, ring._mask
        self.cap = ring.degree_cap
        self.basis: list[tuple] = []  # (flat vector, top degree); monic
        self.leads: list[int] = []  # flat key of each basis element's lead
        self.by_pos: dict[int, list[int]] = {}
        for b in basis:
            self._insert(b)

    def _find_reducer(self, key: int) -> Optional[int]:
        """The first basis element whose lead divides key, or None."""
        guard, leads = self.guard, self.leads
        # first match: deterministic; a lead at key's position divides key
        # when the difference of their keys leaves every guard bit clear
        for idx in self.by_pos.get(-(key // self.unit), ()):
            if not (key - leads[idx]) & guard:
                return idx
        return None

    def _reduce(self, acc: dict) -> tuple:
        """Cancel the leading terms of a map {key: coefficient} in place
        until none is reducible; the flat remainder, empty for 0.  Each
        reducer is looked up inline by `_find_reducer`'s first-match rule."""
        ring = self.ring
        neg, add_into = ring.field.neg, ring.field.add_into
        basis, leads, by_pos = self.basis, self.leads, self.by_pos
        unit, guard = self.unit, self.guard
        dshift, mask, cap = self.dshift, self.dmask, self.cap
        while acc:
            key = max(acc)
            for idx in by_pos.get(-(key // unit), ()):
                if not (key - leads[idx]) & guard:
                    break
            else:
                return tuple(sorted(acc.items(), reverse=True))
            q, top = basis[idx]
            u = key - leads[idx]
            top += u >> dshift & mask
            if top >= cap:  # `_add_into`'s range check
                ring.check_degree(top)
            add_into(acc, q, u, neg(acc[key]))
        return ()

    def top_reduce(self, v: tuple) -> tuple:
        """Cancel leading terms of a flat v until none is reducible; v itself
        when its lead is not, and empty when v reduces to 0."""
        if not v or self._find_reducer(v[0][0]) is None:
            return v
        return self._reduce(dict(v))

    def normal_form(self, v: tuple) -> tuple:
        """Full normal form of a flat v: every remaining term is irreducible.

        Zero exactly when the first top reduction gives zero.  The
        irreducible leads leave in strictly decreasing key order, so
        appending them keeps the remainder sorted.
        """
        remainder = []
        while True:
            v = self.top_reduce(v)
            if not v:
                return tuple(remainder)
            remainder.append(v[0])
            v = v[1:]

    def _insert(self, v: tuple):
        """Store a flat v, made monic, as a basis element; forms no pairs.
        A run stores its elements in `_Engine.add_element`."""
        field = self.ring.field
        key, coeff = v[0]
        if coeff != 1:
            inv = field.inv(coeff)
            mul = field.mul
            v = tuple([(m, mul(c, inv)) for m, c in v])
        self.by_pos.setdefault(-(key // self.unit), []).append(len(self.basis))
        self.basis.append((v, self.ring.top_degree(v)))
        self.leads.append(key)


class _Engine(_Reducer):
    """One Buchberger run over vectors of a fixed rank: a `_Reducer` whose
    basis grows by the pairs it reduces, under one meter.

    In a syzygy run a basis element's terms keyed below `floor` are its
    transcript.  `shifts`, one per position, default 0.  Every run queues
    only the pairs the criteria keep (see the module docstring).
    """

    def __init__(self, ring: PolyRing, rank: int, want_syzygies: bool,
                 limits: Limits, shifts: Optional[Sequence[int]] = None):
        super().__init__(ring)
        # the exponent words' layout, read once: lcms and divisibility are
        # read off it inline
        self.word_fields, self.word_guard = ring.word_fields, ring.word_guard
        self.bits = ring._mask.bit_length()
        # (shift, packing column) of each exponent field: a queued lcm word
        # is packed field by field
        self.pack_fields = tuple(zip(ring._exp_shifts, ring._cols))
        self.rank = rank
        self.want_syz = want_syzygies
        # the product criterion holds at rank 1 only, and never in a syzygy
        # run, which would lose the Koszul syzygy of a coprime pair
        self.product = rank == 1 and not want_syzygies
        self.shifts = tuple(shifts) if shifts else (0,) * rank
        self.meter = limits.start()
        self.floor = (1 - rank) * self.unit  # the least key at a position < rank
        self.words: list[int] = []  # exponent word of each lead, kept by add_element
        self.top_lead = 0  # the largest lead degree among them
        self.excess: list[int] = []  # sugar less the lead's unshifted degree
        self.pairs: list[tuple] = []  # (sugar, packed lcm, pos, i, j, lcm word)
        self.dead: set[tuple[int, int]] = set()  # queued (i, j) the B criterion drops
        self.syzygies: list[tuple] = []  # flat transcripts, below `floor`

    def add_element(self, v: tuple, pair=None):
        """Queue the pairs of a nonzero flat v and store it, or keep it as a
        syzygy when it leads in its transcript; every pair the run reduces
        is queued here.

        v keeps the sugar of the pair it was reduced from (`pair`: position,
        sugar) while it leads at that position, as a run's inputs may be
        homogeneous under shifts it is not given; else its sugar is its top
        shifted degree there.  v is stored monic with its top degree, the
        one `PolyRing.top_degree` reads, which this pass reads itself, in
        the same loop as the sugar when it computes one.

        The Gebauer-Moeller criteria work on exponent words (the lead
        masked to the exponent fields); only a queued pair's lcm is packed,
        field by field: each exponent it reads times that variable's
        packing column.  That packing makes no range check: every lcm whose
        degree could reach `degree_cap` is checked first.  An element that
        opens a new position has no same-position partner, so no pair and
        no criterion concerns it.

        B: a queued pair (i, j) whose lcm L is a multiple of the new lead
        m, with lcm(i, m) and lcm(j, m) both proper divisors of L, is
        marked dead.  M: a new pair whose lcm is a proper multiple of
        another new pair's lcm is dropped.  F: one pair is kept per
        remaining lcm, the one with the smallest partner index k.  Product
        criterion (rank 1 only: it does not hold for vectors; and never in
        a syzygy run): an lcm class with one coprime pair, one whose lcm is
        the product of its leads, is dropped whole.
        """
        key = v[0][0]
        if key < self.floor:
            self.syzygies.append(v)
            return
        unit, dshift, mask = self.unit, self.dshift, self.dmask
        pos = -(key // unit)
        degree = key >> dshift & mask
        if pair is not None and pair[0] == pos:
            sugar = pair[1]
            top = max([k >> dshift & mask for k, _ in v])
        else:
            # the lead's position holds the keys from `low` up
            low, top, here = -pos * unit, 0, 0
            for k, _ in v:
                d = k >> dshift & mask
                if k >= low:
                    if d > here:
                        here = d
                elif d > top:
                    top = d
            if here > top:
                top = here
            sugar = here + self.shifts[pos]
        excess = sugar - degree
        field = self.ring.field
        coeff = v[0][1]
        if coeff != 1:
            inv, fmul = field.inv(coeff), field.mul
            v = tuple([(m, fmul(c, inv)) for m, c in v])
        words, basis = self.words, self.basis
        new = len(basis)
        word = key & self.word_fields  # a key's low bits are its packed monomial
        same = self.by_pos.get(pos)
        if same is None:
            self.by_pos[pos] = [new]
        else:
            # the lcm word of each same-position partner k, a field-wise max,
            # and its class: lcm -> smallest k, or -1 once a pair of that lcm
            # is coprime
            fields, guard, bits = self.word_fields, self.word_guard, self.bits
            product, high = self.product, word | guard
            lcms, classes = {}, {}
            for k in same:
                b = words[k]
                t = (high - b) & guard
                t -= t >> bits
                lcm = lcms[k] = (word & t) | (b & (fields ^ t))
                if product and lcm == b + word:
                    classes[lcm] = -1
                elif lcm not in classes:
                    classes[lcm] = k
            # an lcm's degree is at most the sum of its leads': only past
            # the cap is each one's exact degree checked, in index order
            if degree + self.top_lead >= self.cap:
                ring = self.ring
                for lcm in lcms.values():
                    ring.check_degree(sum(map(mul, ring.decode(lcm), ring.weights)))
            dead, pairs = self.dead, self.pairs
            for _, _, p, i, j, lcm in pairs:  # B
                if (p == pos and not (lcm - word) & guard
                        and lcms[i] != lcm and lcms[j] != lcm):
                    dead.add((i, j))
            # M and F: a proper divisor sorts first, and a multiple of a
            # dropped lcm is a multiple of the kept lcm that dropped it
            excess_of, packing = self.excess, self.pack_fields
            minimal: list[int] = []
            for lcm in sorted(classes):
                for smaller in minimal:
                    if not (lcm - smaller) & guard:
                        break
                else:
                    minimal.append(lcm)
                    k = classes[lcm]
                    # keyed (sugar, packed lcm, position, i, j); the word is for B
                    if k >= 0:
                        packed = 0
                        for s, col in packing:
                            packed += (lcm >> s & mask) * col
                        heapq.heappush(pairs, (
                            (packed >> dshift & mask) + max(excess_of[k], excess),
                            packed, pos, k, new, lcm))
            same.append(new)
        basis.append((v, top))
        self.leads.append(key)
        words.append(word)
        self.excess.append(excess)
        if degree > self.top_lead:
            self.top_lead = degree
        # the support cap counts the vector and its transcript apart, which
        # can matter only when the vector or the basis could exceed a cap;
        # written fail-closed, so that a NaN cap stops the run
        limits = self.meter.limits
        if not (len(v) <= limits.max_support and new < limits.max_basis):
            head = len([k for k, _ in v if k >= self.floor])
            self.meter.check_growth(new + 1, max(head, len(v) - head))

    def add_inputs(self, flats: Sequence[tuple]):
        """Store the nonempty flats and queue their pairs; `_main_loop`
        reduces them."""
        if self.want_syz:  # input i gains its transcript, 1 at position rank + i
            one = self.ring.one.packed[0][1]
            flats = [v + ((-(self.rank + i) * self.unit, one),)
                     for i, v in enumerate(flats)]
        for v in flats:
            if v:
                self.add_element(v)
        return self

    def _main_loop(self, stop: Optional[int] = None):
        """Reduce the queued pairs in key order, each S-pair formed and
        reduced in one map, and store each nonzero remainder
        (`add_element`); with `stop`, leave those of sugar above it in the
        queue."""
        ring = self.ring
        add_into = ring.field.add_into
        pairs, dead, basis, leads = self.pairs, self.dead, self.basis, self.leads
        unit, dshift, mask, cap = self.unit, self.dshift, self.dmask, self.cap
        tick, reduce, store = self.meter.tick_pair, self._reduce, self.add_element
        while pairs:
            if stop is not None and pairs[0][0] > stop:
                return
            sugar, lcm, pos, i, j, _ = heapq.heappop(pairs)
            if (i, j) in dead:
                dead.remove((i, j))
                continue
            tick()
            at = lcm - pos * unit  # the lcm's key at position pos
            q, top = basis[i]
            u = at - leads[i]
            top += u >> dshift & mask
            if top >= cap:  # `_add_into`'s range check
                ring.check_degree(top)
            acc = {m + u: c for m, c in q}  # 1 * X^u * q into an empty map
            q, top = basis[j]
            u = at - leads[j]
            top += u >> dshift & mask
            if top >= cap:
                ring.check_degree(top)
            add_into(acc, q, u, -1)
            s = reduce(acc)
            if s:
                store(s, (pos, sugar))


def minimal_module_generators(vectors: Sequence[Vector],
                              engine: _Engine) -> list[tuple[int, Vector]]:
    """Minimal generating subset of a list of homogeneous vectors, as one
    (degree, vector) pair per kept vector, its degree read under the
    engine's shifts.

    Each vector is converted once with `to_flat`; an empty result is the
    zero vector, which is skipped.  The degree and the sort key are read
    off the flat terms: every term's degree field plus the shift at its
    position must give one degree, else ValueError.

    Candidates are taken in increasing degree (graded Nakayama); a candidate
    already inside the module of the kept ones is dropped.  Ties and the kept
    order are deterministic.

    The basis of the kept module is completed only up to the degree of the
    candidate at hand: `_main_loop` is entered only when the least queued
    sugar, the head of the pair heap, is at most that degree, and it
    stores what it reduces through `add_element`, which queues their
    pairs and gives each its top degree.  This is exact because the
    vectors are homogeneous and the weights non-negative: every S-pair is
    homogeneous of the shifted degree of its lcm, and reducing a degree-D
    vector uses only basis elements of degree <= D.  Once every pair of
    degree <= D is reduced, the basis is a Groebner basis up to degree D,
    so a degree-D candidate lies in the kept module exactly when top
    reduction sends it to zero (La Scala & Stillman's degree-by-degree
    strategy).  The pair criteria keep this exact: the pairs that justify
    dropping a pair have lcms dividing its lcm.

    Pruning is the head of `engine`, a syzygy run of the vectors' rank that
    has stored nothing yet and carries the shifts the degrees are read
    under, its ring and its limits, and `syzygy_generators(kept, engine)`
    is the tail that completes it.  Each candidate gets its transcript, 1 at
    position rank + len(kept), before it is top-reduced.  Head arithmetic
    never reads transcripts, so a candidate is dropped exactly when its
    remainder has no head term, and that remainder is discarded (the next
    candidate takes its position).  A kept remainder is inserted with its
    transcript, which writes it in the kept columns.  Column j with its
    transcript is (c_j | e_j), and its remainder differs from it by an
    element of the module that the earlier kept columns span in the same
    way, so the inserted vectors span the same augmented module [C | I]
    as the kept columns do (C the kept columns, I the identity).  The
    transcript-leading remainders of a complete, criteria-pruned run with
    no product criterion on such vectors generate Syz(kept), as in a run
    on the kept columns themselves; those of the pairs reduced while
    pruning are among them.
    """
    unit, one = engine.unit, engine.ring.one.packed[0][1]
    dshift, mask, shifts = engine.dshift, engine.dmask, engine.shifts
    candidates = []  # ((degree, position, packed lead), flat v, v)
    for v in vectors:
        flat = to_flat(v, unit)
        if not flat:  # the zero vector
            continue
        degrees = {(key >> dshift & mask) + shifts[-(key // unit)] for key, _ in flat}
        if len(degrees) != 1:
            raise ValueError("minimal generators need homogeneous vectors")
        lead = flat[0][0]
        candidates.append(((degrees.pop(), -(lead // unit), lead % unit), flat, v))

    kept: list[tuple[int, Vector]] = []
    pairs = engine.pairs  # a heap: pairs[0] has the least sugar
    for (deg, _, _), flat, v in sorted(candidates, key=itemgetter(0)):
        if pairs and pairs[0][0] <= deg:  # a pair is due
            engine._main_loop(stop=deg)
        # its transcript leads no basis element, so the remainder keeps it
        reduced = engine.top_reduce(flat + ((-(engine.rank + len(kept)) * unit, one),))
        if reduced[0][0] < engine.floor:  # no head: a member
            continue
        kept.append((deg, v))
        engine.add_element(reduced)
    return kept


def module_groebner_basis(columns: Sequence[tuple], ring: PolyRing, rank: int,
                          limits: Limits = DEFAULT_LIMITS) -> list[tuple]:
    """Groebner basis (not interreduced) of the module that flat columns of
    rank `rank` (see `to_flat`) generate, as flat vectors."""
    eng = _Engine(ring, rank, want_syzygies=False, limits=limits)
    eng.add_inputs(columns)._main_loop()
    return [v for v, _ in eng.basis]


def module_reducer(basis: Sequence[tuple], ring: PolyRing) -> _Reducer:
    """Reusable reducer over a fixed (Groebner) basis of flat vectors; no
    completion is run and no meter started.  Its `top_reduce` takes a flat
    vector."""
    return _Reducer(ring, basis)


def syzygy_generators(kept: Sequence, engine: _Engine) -> list[Vector]:
    """Generators of the syzygy module of the columns that
    `minimal_module_generators` kept in `engine`'s run, one per kept entry
    in order, as vectors in R^len(kept): the run is completed, and every
    syzygy it collected is returned, those of the pairs reduced while
    pruning included.  They generate the syzygy module by the argument
    given there.  Which generators, and how many, depends on the pair
    criteria; the module they generate does not.  Syzygies of vectors
    that were not pruned come from `syzygies_and_basis`."""
    engine._main_loop()
    rank = engine.rank
    return [from_flat(s, engine.ring, rank + len(kept), rank) for s in engine.syzygies]


def syzygies_and_basis(columns: Sequence[tuple], ring: PolyRing, rank: int,
                       limits: Limits = DEFAULT_LIMITS
                       ) -> tuple[list[tuple], list[tuple]]:
    """(generators of the syzygy module, Groebner basis (not interreduced) of
    the module the columns generate) from one syzygy run, all flat.

    `columns` are flat vectors of rank `rank` (see `to_flat`).  The syzygies
    are one per criteria-kept pair that reduces to zero (and per empty
    column), with their transcript positions rank.. rebased to 0.., so
    that `from_flat(s, ring, len(columns))` reads one back and the terms
    keyed >= 0 are the coefficient of column 0; the basis is the stored
    vectors with their transcripts stripped.
    """
    eng = _Engine(ring, rank, want_syzygies=True, limits=limits).add_inputs(columns)
    eng._main_loop()
    shift, floor = rank * eng.unit, eng.floor
    return ([tuple([(k + shift, c) for k, c in s]) for s in eng.syzygies],
            [tuple([t for t in v if t[0] >= floor]) for v, _ in eng.basis])


# -- ideal layer ---------------------------------------------------------------


def common_ring(polys: Sequence[Polynomial]) -> Optional[PolyRing]:
    """The ring all of `polys` live in, None when there are none;
    ValueError if they do not all share one, as packed terms read in
    another ring's layout are other monomials."""
    rings = [p.ring for p in polys]
    if any(r is not rings[0] and r != rings[0] for r in rings):
        raise ValueError("polynomials from different rings")
    return rings[0] if rings else None


def groebner(gens: Sequence[Polynomial], limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced Groebner basis, sorted by increasing leading term.

    Deterministic for fixed input order; idempotent (a reduced basis maps to
    itself).
    """
    ring = common_ring(gens)
    if ring is None:
        return []
    return interreduce(module_groebner_basis([g.packed for g in gens], ring, 1,
                                             limits=limits), ring)


def interreduce(basis: Sequence[tuple], ring: PolyRing) -> list[Polynomial]:
    """The reduced Groebner basis, sorted by increasing leading term, of the
    ideal that a Groebner basis of nonzero flat rank-1 vectors (packed
    terms) generates.

    The basis is the engine's, as `module_groebner_basis` returns it: every
    element is monic, so each keeps its lead and has only its tail reduced.
    """
    # minimalize: drop any element whose leading monomial is divisible by
    # another's, preferring to keep smaller leading terms; at rank 1 a lead
    # key is the packed leading monomial
    kept: list[tuple] = []
    for v in sorted(basis, key=lambda v: v[0][0]):
        if not any(ring.divides(q[0][0], v[0][0]) for q in kept):
            kept.append(v)
    # tail-reduce each against all of them: every term met while reducing
    # the tail of v lies below lead(v), so v itself is never a reducer and
    # the lead followed by the tail's normal form stays sorted
    reducer = module_reducer(kept, ring)
    return [Polynomial(ring, (v[0],) + reducer.normal_form(v[1:])) for v in kept]


def reduce_poly(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of p modulo a list of polynomials."""
    ring = common_ring([p, *basis])
    reducer = module_reducer([b.packed for b in basis if not b.is_zero()], ring)
    return Polynomial(ring, reducer.normal_form(p.packed))


def ideal_member(p: Polynomial, gb: Sequence[Polynomial]) -> bool:
    """True iff top reduction by gb sends p to zero; this decides membership
    when gb is a Groebner basis."""
    reducer = module_reducer([g.packed for g in gb if g.packed], common_ring([p, *gb]))
    return not reducer.top_reduce(p.packed)
