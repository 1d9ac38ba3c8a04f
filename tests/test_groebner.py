"""The Buchberger engine: reduced bases, module membership, syzygies, limits."""

import collections
import hashlib
import importlib
import itertools
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from arithcurve import (
    Limits,
    ResourceLimitExceeded,
    groebner,
    ideal_equal,
    ideal_member,
    minimal_resolution,
    module_groebner_basis,
    reduce_poly,
    resolution_b1,
    resolution_bn,
    toric_ideal,
    validate_sequence,
)
from arithcurve.cli import main
from arithcurve.groebner import (
    DEFAULT_LIMITS,
    Vector,
    _Engine,
    _Reducer,
    from_flat,
    minimal_module_generators,
    module_reducer,
    syzygies_and_basis,
    to_flat,
)
from arithcurve.ring import (
    QQ,
    MonomialOutOfRange,
    PolyRing,
    PrimeField,
    curve_ring,
    elimination_ring,
)
from references import (
    colon_ideal,
    minimal_generators,
    monomial_div,
    monomial_lcm,
    word_lcms,
)


@pytest.fixture
def R():
    return curve_ring((5, 6, 7, 8, 9))


def syzygies_of(vectors, ring, limits=DEFAULT_LIMITS):
    """The syzygies of polynomial vectors, as vectors in R^len(vectors),
    from one `syzygies_and_basis` run on their flat forms."""
    if not vectors:
        return []
    unit = ring.position_unit
    syz, _ = syzygies_and_basis([to_flat(v, unit) for v in vectors], ring,
                                len(vectors[0]), limits=limits)
    return [from_flat(s, ring, len(vectors)) for s in syz]


def prune(vectors, ring, shifts=None):
    """The vectors `minimal_module_generators` keeps in a syzygy run of
    their rank, unshifted unless `shifts` are given."""
    engine = shifted_engine(ring, shifts or (0,) * len(vectors[0]))
    return [v for _, v in minimal_module_generators(vectors, engine)]


def is_zero(v):
    """The reference zero test: no component has packed terms."""
    return not any(p.packed for p in v)


def shifted_degree(v, shifts=None):
    """The degree every nonzero component of v shares, its
    `Polynomial.weighted_degree()` plus its shift (default 0); None when
    v is zero, a component is inhomogeneous or two components differ."""
    degs = set()
    for p, shift in zip(v, shifts or [0] * len(v)):
        if not p.is_zero():
            d = p.weighted_degree()
            degs.add(None if d is None else d + shift)
    return degs.pop() if len(degs) == 1 else None


class TestGroebner:
    def test_single_binomial_is_its_own_basis(self, R):
        p = R.var(0) * R.var(2) - R.var(1) ** 2
        gb = groebner([p])
        assert gb == [-p]  # its lead -X1^2, made monic

    def test_linear_pair_reduces(self, R):
        gb = groebner([R.var(0), R.var(0) + R.var(1)])
        assert gb == [R.var(0), R.var(1)]

    def test_idempotent(self, R):
        seq = validate_sequence(5, 1, 4)
        gb = groebner(list(seq.generators().all))
        assert groebner(gb) == gb

    @pytest.mark.parametrize("field, want", [
        (QQ, ["X0 - 1/3*X1", "X1^2 + 3/2*X2^2"]),
        (PrimeField(7), ["X0 + 2*X1", "X1^2 + 5*X2^2"]),
    ])
    def test_non_monic_leads_give_a_monic_basis(self, field, want):
        """`interreduce` keeps each lead as the engine stored it, so every
        basis vector is monic even when the inputs' leads are not, and the
        reduced basis is the one the field dictates."""
        ring = curve_ring((1, 1, 1), field)
        x, y, z = (ring.var(i) for i in range(3))
        gens = [3 * x - y, 2 * x * y + z ** 2]
        basis = module_groebner_basis([g.packed for g in gens], ring, 1)
        assert basis and all(type(v[0][1]) is int and v[0][1] == 1 for v in basis)
        gb = groebner(gens)
        assert [str(g) for g in gb] == want
        assert all(type(g.packed[0][1]) is int and g.packed[0][1] == 1 for g in gb)

    def test_empty_and_zero_inputs(self, R):
        assert groebner([]) == []
        assert groebner([R.zero]) == []
        assert minimal_generators([]) == []
        p = R.var(0) * R.var(2) - 3 * R.var(1) ** 2
        gb = groebner([p])
        assert reduce_poly(R.zero, gb) == R.zero
        assert reduce_poly(p, []) == p
        assert syzygies_and_basis([], R, 1) == ([], [])

    @pytest.mark.parametrize("call", [
        lambda A, B: groebner([A.var(0), B.var(1)]),
        lambda A, B: ideal_member(A.var(0), [B.var(0)]),
        lambda A, B: reduce_poly(A.var(1), [B.var(1)]),
        lambda A, B: minimal_generators([A.var(0), B.var(1)]),
        lambda A, B: minimal_resolution(
            [A.var(0), curve_ring(A.weights, PrimeField(7)).var(1)]),
        lambda A, B: colon_ideal(
            [A.var(1)], curve_ring(A.weights, PrimeField(7)).var(0)),
    ], ids=["groebner", "ideal_member", "reduce_poly", "minimal_generators",
            "minimal_resolution", "colon_ideal"])
    def test_polynomials_from_different_rings_raise(self, call):
        """Packed terms read in another ring's layout are other monomials:
        X0 of the ring of (6 7 8 9 10) is not the X0 of (5 6 7 8 9), nor is
        X1 over GF(7) the X1 over QQ."""
        A, B = curve_ring((5, 6, 7, 8, 9)), curve_ring((6, 7, 8, 9, 10))
        with pytest.raises(ValueError, match="polynomials from different rings"):
            call(A, B)

    def test_membership(self, R):
        seq = validate_sequence(5, 1, 4)
        gens = list(seq.generators().all)
        gb = groebner(gens)
        for g in gens:
            assert ideal_member(g, gb)
        assert ideal_member(gens[0] * R.var(3) - R.zero, gb)
        assert not ideal_member(R.var(0), gb)

    def test_reduce_poly_is_normal_form(self, R):
        gb = groebner([R.var(0), R.var(1)])
        p = R.var(0) * R.var(2) + R.var(3)
        assert reduce_poly(p, gb) == R.var(3)

    def test_spair_budget_enforced(self, R):
        seq = validate_sequence(5, 1, 4)
        with pytest.raises(ResourceLimitExceeded):
            groebner(list(seq.generators().all), limits=Limits(max_spairs=2))

    def test_range_check_covers_terms_below_the_lead(self):
        """Under the elimination order t leads X4^k although X4^k has the
        larger degree; the S-pair with t*X0 multiplies X4^k by X0, which
        must not fit.  In the rank-2 case X0*X4^k would lead the S-vector
        alone in its position, so no later lcm would catch it."""
        ring = elimination_ring((5, 6, 7, 8, 9))
        t, x0, z = ring.var(0), ring.var(1), ring.zero
        x4k = ring.var(ring.nvars - 1, (ring.degree_cap - 1) // ring.weights[-1])
        with pytest.raises(MonomialOutOfRange):
            groebner([t + x4k, t * x0])
        with pytest.raises(MonomialOutOfRange):
            syzygies_of([(t + x4k,), (t * x0,)], ring)
        with pytest.raises(MonomialOutOfRange):
            syzygies_of([(t, x4k), (t * x0, z)], ring)

    def test_range_check_covers_a_reduction_step(self):
        """t leads t + X4^k, so a reduction step on t*X0 multiplies X4^k by
        X0, which must not fit, in the full normal form and in top
        reduction alike."""
        ring = elimination_ring((5, 6, 7, 8, 9))
        t, x0 = ring.var(0), ring.var(1)
        x4k = ring.var(ring.nvars - 1, (ring.degree_cap - 1) // ring.weights[-1])
        with pytest.raises(MonomialOutOfRange):
            reduce_poly(t * x0, [t + x4k])
        with pytest.raises(MonomialOutOfRange):
            ideal_member(t * x0, [t + x4k])

    def test_deadline_enforced(self):
        seq = validate_sequence(13, 1, 6)
        with pytest.raises(ResourceLimitExceeded):
            from arithcurve.oracle import toric_ideal

            toric_ideal(seq, limits=Limits(deadline_s=0.0))

    def test_inhomogeneous_elimination_run_inherits_sugar(self):
        """A reduced S-vector keeps its pair's sugar.  Over fp:32003 this run
        then takes 58 S-pairs, against 101 by the lcm's degree alone and 131
        by packed lcm; over QQ, by the lcm's degree alone, its coefficients
        grew until each pair took seconds."""
        ring = elimination_ring((2, 3), field=PrimeField(32003))
        t, x0, x1 = ring.var(0), ring.var(1), ring.var(2)
        two, three = ring.field.of(2), ring.field.of(3)
        gens = [three * t**3 * x0**3 + t**2 * x0**3 * x1 + three * t,
                two * t**3 * x0**3 * x1 + three * t * x0**2,
                three * t**2 + two * t + two * x0 * x1**2]
        assert groebner(gens, limits=Limits(max_spairs=60))

    def test_support_cap_covers_transcripts(self):
        """The basis elements of this syzygy run have at most 2 terms and
        their transcripts up to 4, so a cap of 3 must stop it."""
        x0, x1, x2 = R3.var(0), R3.var(1), R3.var(2)
        vectors = [(x0 ** 2 + x1,), (x0 * x1 + x2,), (x1 ** 2 + x0 * x2,)]
        assert syzygies_of(vectors, R3, limits=Limits(max_support=4))
        with pytest.raises(ResourceLimitExceeded):
            syzygies_of(vectors, R3, limits=Limits(max_support=3))

    def test_basis_size_cap_stops_a_growing_run(self):
        """Three inputs whose S-pairs add three more elements: a cap of 6
        lets the run finish, and a cap of 5 stops it at its last element."""
        x0, x1, x2 = R3.var(0), R3.var(1), R3.var(2)
        gens = [x0 ** 2 + x1, x0 * x1 + x2, x1 ** 2 + x0 * x2]
        assert groebner(gens, limits=Limits(max_basis=6))
        with pytest.raises(ResourceLimitExceeded, match="basis size cap 5 hit"):
            groebner(gens, limits=Limits(max_basis=5))

    def test_deadline_read_on_every_pair(self, monkeypatch):
        """A run whose pairs are individually slow stops at the first pair
        past its deadline."""
        engine = importlib.import_module("arithcurve.groebner")  # not the function
        now = [0.0]
        clock = types.SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(engine, "time", clock)
        meter = engine._Meter(Limits(deadline_s=1.0))
        meter.tick_pair()
        now[0] = 2.0
        with pytest.raises(ResourceLimitExceeded, match="deadline of 1.0s exceeded"):
            meter.tick_pair()

    def test_nan_deadline_stops_the_first_pair(self):
        """No elapsed time is within a NaN deadline, so the run stops at its
        first pair; infinity never fires."""
        gens = list(validate_sequence(7, 2, 4).generators(QQ).all)
        with pytest.raises(ResourceLimitExceeded, match="deadline of nans exceeded"):
            groebner(gens, limits=Limits(deadline_s=float("nan")))
        assert len(groebner(gens, limits=Limits(deadline_s=float("inf")))) == 8

    @pytest.mark.parametrize("cap,message", [
        ("max_spairs", "S-pair budget nan exhausted"),
        ("max_basis", "basis size cap nan hit"),
        ("max_support", "exceeds cap nan"),
    ])
    def test_nan_cap_stops_the_run(self, cap, message):
        """No count is within a NaN cap, so the resolution stops at its
        first S-pair or basis element instead of running uncapped."""
        gens = list(validate_sequence(7, 2, 4).generators(QQ).all)
        with pytest.raises(ResourceLimitExceeded, match=message):
            minimal_resolution(gens, limits=Limits(**{cap: float("nan")}))

    def test_reducer_over_fixed_basis_meters_nothing(self, R, monkeypatch):
        """A reducer never grows its basis, so the default caps do not
        apply to it: a caller's own limits are the only ones that count."""
        engine = importlib.import_module("arithcurve.groebner")  # not the function
        monkeypatch.setattr(engine, "DEFAULT_LIMITS", Limits(max_basis=1))
        x0, x1 = R.var(0), R.var(1)
        assert reduce_poly(x0 * x1 + R.var(2), [x0, x1]) == R.var(2)
        assert groebner([x0, x1], limits=Limits()) == [x0, x1]


def test_queued_pairs_key_their_packed_lcm(monkeypatch):
    """Every pair the criteria queue is keyed by its lcm word packed field
    by field, which equals `_pack(decode(word))`, and that word is the one
    `PolyRing.word_lcms` gives for its two leads, on the runs of a toric-n4
    operation (`toric_ideal`, then `ideal_equal` with the generators).
    `add_element` queues every pair, and a queued pair stays in the heap
    until the main loop pops it, so the heap is checked after each call."""
    checked = set()
    original = _Engine.add_element

    def checking(self, *args):
        original(self, *args)
        ring, words = self.ring, self.words
        for _, packed, pos, i, j, word in self.pairs:
            assert packed == ring._pack(ring.decode(word))
            assert [word] == word_lcms(ring, words[i], [words[j]])
            checked.add((id(self), pos, i, j))

    monkeypatch.setattr(_Engine, "add_element", checking)
    seq = validate_sequence(9, 2, 4)
    assert ideal_equal(list(seq.generators().all), toric_ideal(seq))
    assert len(checked) > 50


@pytest.mark.parametrize("argv", [
    ["resolve", "7", "1", "4", "--method", "oracle"],
    ["resolve", "5", "1", "4", "--verify"],
], ids=["resolve-7-1-4-oracle", "resolve-5-1-4-verify"])
def test_stored_elements_carry_their_top_degree(argv, monkeypatch, capsys):
    """Every basis element a run stores (`_Engine.add_element`, which reads
    its top degree itself) and every one a fixed-basis reducer holds
    carries the top degree `PolyRing.top_degree` reads off its terms, on
    every run of one command (the oracle's resolution builds no reducer)."""
    stored = collections.Counter()
    add_element, init = _Engine.add_element, _Reducer.__init__

    def checked(self, start=0):
        for v, top in self.basis[start:]:
            assert top == self.ring.top_degree(v)
        stored[type(self)] += len(self.basis) - start

    def adding(self, v, pair=None):
        size = len(self.basis)
        add_element(self, v, pair)
        checked(self, size)

    def initialising(self, ring, basis=()):
        init(self, ring, basis)
        checked(self)

    monkeypatch.setattr(_Engine, "add_element", adding)
    monkeypatch.setattr(_Reducer, "__init__", initialising)
    assert main(argv) == 0
    capsys.readouterr()
    assert stored[_Engine] > 20, stored


class TestModules:
    def test_module_membership(self, R):
        x0, x1, x2 = R.var(0), R.var(1), R.var(2)
        unit = R.position_unit
        vecs = [to_flat(v, unit) for v in [(x0, x1), (x1, x2)]]
        reducer = module_reducer(module_groebner_basis(vecs, R, 2), R)
        assert not reducer.top_reduce(to_flat((x0 * x1, x1 * x1), unit))
        assert reducer.top_reduce(to_flat((R.one, R.zero), unit))

    def test_syzygies_annihilate_columns(self, R):
        seq = validate_sequence(5, 1, 4)
        gens = list(seq.generators().all)
        syz = syzygies_of([(g,) for g in gens], R)
        assert syz
        for s in syz:
            total = R.zero
            for coeff, g in zip(s, gens):
                total = total + coeff * g
            assert total.is_zero()

    def test_syzygy_of_single_independent_column_is_empty(self, R):
        syz = syzygies_of([(R.var(0),)], R)
        assert [s for s in syz if not is_zero(s)] == []

    def test_zero_input_vector_gives_unit_syzygy(self, R):
        syz = syzygies_of([(R.zero,), (R.var(0),)], R)
        nonzero = [s for s in syz if not is_zero(s)]
        assert ((R.one, R.zero)) in nonzero

    def test_koszul_pair(self, R):
        x0, x1 = R.var(0), R.var(1)
        syz = [s for s in syzygies_of([(x0,), (x1,)], R) if not is_zero(s)]
        assert len(syz) == 1
        s = syz[0]
        assert (s[0] * x0 + s[1] * x1).is_zero()

    def test_minimal_module_generators_prunes(self, R):
        x0, x1, x3, z = R.var(0), R.var(1), R.var(3), R.zero
        vecs = [(x0, z), (x1, z), (x0 * x1, z)]
        kept = prune(vecs, R)
        assert len(kept) == 2
        # a zero vector and a multiple of a kept vector are dropped; a vector
        # outside the module of the kept ones is kept
        vecs = [(z, z), (x0 * x3, z), (x0, z), (x1, z)]
        assert prune(vecs, R) == [(x0, z), (x1, z)]
        assert prune([(z,)], R) == []
        assert prune([(x0,)], R) == [(x0,)]

    def test_minimal_module_generators_need_homogeneous_input(self, R):
        x0, x1 = R.var(0), R.var(1)
        with pytest.raises(ValueError):
            prune([(x0, R.zero), (x0 + x1 * x1, R.zero)], R)

    def test_leading_term_position_priority(self, R):
        v = (R.zero, R.var(3), R.var(0))
        pos, exps, _ = v_leading(v)
        assert pos == 1 and exps == (0, 0, 0, 1, 0)


class TestFields:
    def test_prime_field_groebner_agrees_on_leading_terms(self):
        seq = validate_sequence(5, 1, 4)
        gens_q = list(seq.generators().all)
        gens_p = list(seq.generators(PrimeField(32003)).all)
        lead_q = {g.leading_monomial() for g in groebner(gens_q)}
        lead_p = {g.leading_monomial() for g in groebner(gens_p)}
        assert lead_q == lead_p


# -- randomized self-checks ------------------------------------------------------

RQ = PolyRing(tuple(f"X{i}" for i in range(4)), (3, 4, 5, 7))


def vectors_of(ring):
    """Vectors of rank 1 to 5 over `ring`, often with zero components."""
    exps = st.tuples(*[st.integers(0, 4)] * ring.nvars)
    poly = st.dictionaries(exps, st.integers(-5, 5), max_size=3).map(
        lambda d: ring.from_dict({m: ring.field.of(c) for m, c in d.items()})
    )
    component = poly | st.just(ring.zero)
    return st.integers(1, 5).flatmap(lambda r: st.tuples(*[component] * r))


@pytest.mark.parametrize("ring", [RQ, elimination_ring((3, 4, 5, 7))],
                         ids=["curve", "elimination"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_layout(ring, data):
    """The engine's flat form of a vector round-trips, is sorted strictly
    decreasing, and its first term is the position-over-term lead."""
    v = data.draw(vectors_of(ring))
    unit = ring.position_unit
    flat = to_flat(v, unit)
    assert from_flat(flat, ring, len(v)) == v
    # the trailing components alone, as a syzygy run reads its transcripts
    for start in range(len(v) + 1):
        tail = tuple(t for t in flat if -(t[0] // unit) >= start)
        comps = from_flat(tail, ring, len(v), start)
        assert comps == v[start:]
        assert all(p is ring.zero for p in comps if p.is_zero())
    keys = [key for key, _ in flat]
    assert keys == sorted(set(keys), reverse=True)
    if not flat:
        assert v_leading(v) is None
        return
    key, coeff = flat[0]
    assert (-(key // ring.position_unit), ring.decode(key), coeff) == v_leading(v)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pruning_reads_the_common_shifted_degree(data):
    """Pruning one random vector (mostly inhomogeneous) under random
    shifts, with zero vectors around it, against `shifted_degree`: a
    homogeneous vector is kept with that degree, an inhomogeneous one
    raises, and a zero one is skipped; then the vector's leading terms,
    shifted to one degree, are kept with it."""
    v = data.draw(vectors_of(RQ))
    shifts = data.draw(st.lists(st.integers(0, 9), min_size=len(v), max_size=len(v)))
    zero = (RQ.zero,) * len(v)

    def pruned(vectors, shifts):
        return minimal_module_generators(vectors, shifted_engine(RQ, shifts))

    degree = shifted_degree(v, shifts)
    if is_zero(v):
        assert pruned([v, zero], shifts) == []
    elif degree is None:
        with pytest.raises(ValueError, match="homogeneous"):
            pruned([zero, v], shifts)
    else:
        assert pruned([zero, v, zero], shifts) == [(degree, v)]
    leads = tuple(RQ.monomial(*p.leading_term()) if not p.is_zero() else p for p in v)
    if is_zero(leads):
        return
    top = max(p.weighted_degree() for p in leads if not p.is_zero())
    level = [top - p.weighted_degree() if not p.is_zero() else 0 for p in leads]
    assert shifted_degree(leads, level) == top
    assert pruned([leads, zero], level) == [(top, leads)]


R3 = curve_ring((2, 3, 5))


def small_polys(ring=R3):
    """Lists of polynomials in a 3-variable ring."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    term = st.tuples(exps, st.integers(-3, 3))
    poly = st.lists(term, min_size=1, max_size=3).map(
        lambda ts: ring.from_dict(
            {m: ring.field.of(sum(c for m2, c in ts if m2 == m)) for m, _ in ts}
        )
    )
    return st.lists(poly, min_size=1, max_size=4).map(
        lambda ps: [p for p in ps if not p.is_zero()]
    )


def spoly(f, g):
    lf, cf = f.leading_term()
    lg, cg = g.leading_term()
    lcm = monomial_lcm(lf, lg)
    ring = f.ring
    return f.mul_term(monomial_div(lcm, lf), ring.field.inv(cf)) - g.mul_term(
        monomial_div(lcm, lg), ring.field.inv(cg)
    )


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_output_satisfies_buchberger_criterion(gens):
    gb = groebner(gens)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert reduce_poly(spoly(gb[i], gb[j]), gb).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_ideal_membership_closure(gens):
    gb = groebner(gens)
    for g in gens:
        assert ideal_member(g, gb)
    if len(gens) >= 2:
        assert ideal_member(gens[0] * R3.var(1) + gens[-1], gb)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_ideal_member_agrees_with_normal_form_on_any_list(basis, polys):
    """ideal_member decides by top reduction; on any list, a Groebner basis
    or not, that reaches zero exactly when the full normal form is zero."""
    if basis:
        polys = polys + [basis[0] * R3.var(1), basis[0] * basis[-1] + basis[-1]]
    for p in polys + [R3.zero]:
        assert ideal_member(p, basis) == reduce_poly(p, basis).is_zero()


@settings(max_examples=30, deadline=None)
@given(small_polys())
# drawn by --hypothesis-seed=130381481: 1,101 raw syzygies and about 15 s
# when syzygy runs applied no pair criteria
@example([R3.from_dict({(1, 3, 2): 1, (2, 0, 2): -3, (0, 0, 1): 3}),
          R3.from_dict({(2, 3, 1): -2, (0, 1, 2): -2, (3, 0, 0): -1}),
          R3.from_dict({(3, 3, 2): -3, (3, 3, 1): -1, (2, 3, 0): -3})])
def test_random_syzygies_annihilate(gens):
    syz = syzygies_of([(g,) for g in gens], R3)
    assert not any(is_zero(s) for s in syz)
    for s in syz:
        total = R3.zero
        for coeff, g in zip(s, gens):
            total = total + coeff * g
        assert total.is_zero()


def _b1_d2_columns():
    d2 = resolution_b1(validate_sequence(5, 1, 4)).differential(2)
    return [d2.column(j) for j in range(d2.cols)], d2.ring


def _generator_vectors(m0, d, n, field=QQ):
    gens = list(validate_sequence(m0, d, n).generators(field).all)
    return [(g,) for g in gens], gens[0].ring


def _zero_and_duplicate():
    x0, x1, x2 = R3.var(0), R3.var(1), R3.var(2)
    return [(x0,), (R3.zero,), (x0,), (x1 * x2,)], R3


@pytest.mark.parametrize("inputs,count,digest", [
    (lambda: _generator_vectors(7, 2, 4), 15,
     "f70f2ed5a2014c5db01de8fb23530afde376b394a4fb7f1c18b00c18d8c05d5b"),
    (_b1_d2_columns, 22,
     "8bf491789aea0f7a21db07b2c64813fe282587933656cbd9e8f6ebc5a9e7f335"),
    (lambda: _generator_vectors(11, 1, 5, PrimeField(32003)), 40,
     "eb0da9346d988a1a83b9a94b7e4a8724edf3914378f1925e65f90e3cb9849f85"),
    (_zero_and_duplicate, 3,
     "ce3d2b89eea476a9dea48cab55b7d37a65e068544b8ab4ab7a584418f12833a5"),
], ids=["7-2-4", "5-1-4-d2", "11-1-5-fp", "zero-and-duplicate"])
def test_raw_syzygies_pinned(inputs, count, digest):
    """The raw syzygy list, order and coefficients included, as recorded
    when syzygy runs took up the pair criteria; pruning downstream hides
    any change that does not alter what it keeps."""
    vectors, ring = inputs()
    syz = [tuple(map(str, s)) for s in syzygies_of(vectors, ring)]
    assert len(syz) == count
    assert hashlib.sha256(repr(syz).encode()).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: resolution_b1(validate_sequence(5, 1, 4)),
    lambda: resolution_bn(validate_sequence(8, 1, 4)),
    lambda: minimal_resolution(
        list(validate_sequence(7, 2, 4).generators(PrimeField(32003)).all)),
], ids=["b1-5-1-4", "bn-8-1-4", "oracle-7-2-4-fp"])
def test_criteria_pruned_run_generates_same_modules(build):
    """For each differential, the flat run of `syzygies_and_basis` gives
    syzygies that `from_flat` reads back as relations of the columns, and
    a basis that generates the module of the columns; verify_exactness
    decides membership by top reduction against that basis."""
    C = build()
    ring = C.differential(1).ring
    unit = ring.position_unit

    def inside(vectors, generators, rank):
        gb = module_groebner_basis(generators, ring, rank)
        return not any(module_reducer(gb, ring).top_reduce(v) for v in vectors)

    for s in range(1, C.length + 1):
        mat = C.differential(s)
        cols = [mat.column(j) for j in range(mat.cols)]
        flat_cols = [to_flat(c, unit) for c in cols]
        syz, basis = syzygies_and_basis(flat_cols, ring, mat.rows)
        for v in syz:
            coeffs = from_flat(v, ring, len(cols))
            assert all(sum((f * c[i] for f, c in zip(coeffs, cols)), ring.zero).is_zero()
                       for i in range(mat.rows)), s
        assert inside(basis, flat_cols, mat.rows), s
        assert inside(flat_cols, basis, mat.rows), s
        reducer = module_reducer(basis, ring)
        assert not any(reducer.top_reduce(c) for c in flat_cols), s


# -- a criteria-free Buchberger reference ----------------------------------------

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


def v_add_mul(v: Vector, w: Vector, u: int, coeff) -> Vector:
    """v + coeff * X^u * w for a packed monomial u.

    Vectors are sparse, so zero components of w pass through without a call.
    """
    return tuple([a.add_mul(b, u, coeff) if b.packed else a for a, b in zip(v, w)])


def v_mul_packed(v: Vector, u: int, coeff) -> Vector:
    return v_add_mul(tuple([p.ring.zero for p in v]), v, u, coeff)


def lead_term(v):
    """(position, packed monomial, coefficient) of v's leading term, or None."""
    for pos, p in enumerate(v):
        if p.packed:
            return (pos,) + p.packed[0]
    return None


def plain_top_reduce(v, basis, ring):
    """Cancel v's leading term by the first basis element whose lead divides
    it, until the lead is irreducible or v is zero."""
    while (lead := lead_term(v)) is not None:
        pos, m, coeff = lead
        for b in basis:
            b_pos, b_m, b_coeff = lead_term(b)
            if b_pos == pos and ring.divides(b_m, m):
                k = ring.field.neg(ring.field.mul(coeff, ring.field.inv(b_coeff)))
                v = v_add_mul(v, b, m - b_m, k)
                break
        else:
            return v
    return v


def s_vector(f, g, ring):
    """S-vector of two vectors whose leading terms share a position."""
    (_, m_f, c_f), (_, m_g, c_g) = lead_term(f), lead_term(g)
    lcm = ring.encode(monomial_lcm(ring.decode(m_f), ring.decode(m_g)))
    field = ring.field
    return v_add_mul(v_mul_packed(f, lcm - m_f, field.inv(c_f)),
                     g, lcm - m_g, field.neg(field.inv(c_g)))


def polynomial_basis(vectors, ring, rank):
    """`module_groebner_basis` of vectors of polynomials of rank `rank`,
    read back as vectors of polynomials for the reference functions."""
    unit = ring.position_unit
    basis = module_groebner_basis([to_flat(v, unit) for v in vectors], ring, rank)
    return [from_flat(b, ring, rank) for b in basis]


def same_position_pairs(basis):
    return [(f, g) for f, g in itertools.combinations(basis, 2)
            if lead_term(f)[0] == lead_term(g)[0]]


class PlainBuchberger:
    """Buchberger's algorithm with no pair criteria: every same-position pair
    of the basis is reduced, so the reference shares no criterion with the
    engine under test."""

    def __init__(self, ring):
        self.ring = ring
        self.basis = []
        self.pairs = []

    def add(self, v):
        """Add a generator and complete the basis again."""
        self._insert(v)
        while self.pairs:
            i, j = self.pairs.pop()
            s = s_vector(self.basis[i], self.basis[j], self.ring)
            s = plain_top_reduce(s, self.basis, self.ring)
            if not is_zero(s):
                self._insert(s)

    def _insert(self, v):
        pos = lead_term(v)[0]
        new = len(self.basis)
        self.pairs += [(k, new) for k, b in enumerate(self.basis) if lead_term(b)[0] == pos]
        self.basis.append(v)

    def contains(self, v):
        return is_zero(plain_top_reduce(v, self.basis, self.ring))


@pytest.mark.parametrize("m0,d,n", [(3, 1, 2), (4, 1, 2), (4, 1, 3), (5, 1, 3),
                                    (6, 1, 3)])
def test_syzygies_match_criteria_free_reference(m0, d, n):
    """Every differential of the oracle resolution, every b at n = 2 and 3:
    the syzygies of a criteria-pruned run and those of `PlainBuchberger`,
    which drops no pair, generate one module."""
    gens = list(validate_sequence(m0, d, n).generators(PrimeField(32003)).all)
    ring = gens[0].ring
    C = minimal_resolution(gens)
    for s in range(1, C.length + 1):
        mat = C.differential(s)
        cols = [mat.column(j) for j in range(mat.cols)]
        syz = syzygies_of(cols, ring)
        reference = plain_syzygies(cols, ring)
        assert _all_inside(syz, reference, ring), s
        assert _all_inside(reference, syz, ring), s


def plain_syzygies(cols, ring):
    """Syzygies of the columns by `PlainBuchberger` on the augmented columns
    [c_j | e_j]: under position-over-term an element of its basis that leads
    at a position >= rank is zero above it, and these elements' e-parts
    form a Groebner basis of the syzygy module."""
    rank, zero = len(cols[0]), ring.zero
    gb = PlainBuchberger(ring)
    for j, c in enumerate(cols):
        gb.add(tuple(c) + tuple(ring.one if i == j else zero
                                for i in range(len(cols))))
    return [v[rank:] for v in gb.basis if lead_term(v)[0] >= rank]


def _all_inside(vectors, generators, ring):
    """Every vector lies in the module of the generators, decided against
    a `PlainBuchberger` basis."""
    gb = PlainBuchberger(ring)
    for g in generators:
        if not is_zero(g):
            gb.add(g)
    return all(gb.contains(v) for v in vectors)


# -- degree-truncated pruning against full completion ---------------------------


def shifted_engine(ring, shifts):
    """The syzygy run a step of `minimal_resolution` prunes in: one
    position per shift, the degrees read under those shifts."""
    return _Engine(ring, len(shifts), want_syzygies=True, limits=DEFAULT_LIMITS,
                   shifts=shifts)


def reference_prune(vectors, ring, shifts=None):
    """Greedy pruning that decides each candidate against a Groebner basis of
    the kept vectors, completed by `PlainBuchberger` with no pair criteria and
    no degree truncation."""

    def key(v):
        pos, exps, _ = v_leading(v)
        return (shifted_degree(v, shifts), pos, ring.order.key(exps))

    kept, gb = [], PlainBuchberger(ring)
    for v in sorted((v for v in vectors if not is_zero(v)), key=key):
        if not gb.contains(v):
            kept.append(v)
            gb.add(v)
    return kept


@pytest.mark.parametrize("m0,d,n", [(5, 1, 3), (6, 1, 3), (7, 1, 3), (8, 1, 3),
                                    (7, 1, 4)])
def test_truncated_pruning_matches_full_completion(m0, d, n):
    """Replay every pruning call of minimal_resolution: the generators, then
    the raw syzygies of each differential with the real shifts."""
    seq = validate_sequence(m0, d, n)
    gens = list(seq.generators(PrimeField(32003)).all)
    ring = gens[0].ring
    candidates = [(g,) for g in gens]
    assert prune(candidates, ring) == reference_prune(candidates, ring)
    C = minimal_resolution(gens)
    for s in range(1, C.length + 1):
        mat = C.differential(s)
        raw = syzygies_of([mat.column(j) for j in range(mat.cols)], ring)
        shifts = C.steps[s]
        kept = minimal_module_generators(raw, shifted_engine(ring, shifts))
        assert [v for _, v in kept] == reference_prune(raw, ring, shifts), (s, len(raw))
        assert [deg for deg, _ in kept] == [shifted_degree(v, shifts) for _, v in kept], s


def monomials_of_degree(ring, k):
    return [e for e in itertools.product(*(range(k // w + 1) for w in ring.weights))
            if sum(a * w for a, w in zip(e, ring.weights)) == k]


@st.composite
def homogeneous_candidates(draw, max_base=3):
    """Rank-2 homogeneous vectors under mixed shifts: one to `max_base`
    random ones and homogeneous combinations of them, so some candidates
    are redundant only through an S-pair of their own degree.  From three
    random vectors a basis can pass 100 elements, where the chain criterion
    fires most, and where the criteria-free `reference_prune` takes seconds
    per example."""
    shifts = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))

    def poly(k):
        mons = monomials_of_degree(R3, k)
        if not mons:
            return R3.zero
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=2,
                               unique=True))
        return R3.from_dict({m: R3.field.of(draw(st.integers(1, 3))) for m in chosen})

    base = []
    for _ in range(draw(st.integers(1, max_base))):
        deg = draw(st.integers(max(shifts) + 2, max(shifts) + 8))
        v = (poly(deg - shifts[0]), poly(deg - shifts[1]))
        if not is_zero(v):
            base.append((v, deg))
    combos = []
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(max(shifts) + 4, max(shifts) + 12))
        total = (R3.zero, R3.zero)
        for v, dv in base:
            f = poly(deg - dv)
            total = (total[0] + f * v[0], total[1] + f * v[1])
        combos.append(total)
    vectors = draw(st.permutations([v for v, _ in base] + combos))
    return vectors, shifts


# two base vectors keep the criteria-free reference to milliseconds an example
@settings(max_examples=60, deadline=None)
@given(homogeneous_candidates(max_base=2))
def test_truncated_pruning_on_mixed_shifts(data):
    vectors, shifts = data
    kept = minimal_module_generators(vectors, shifted_engine(R3, shifts))
    assert [v for _, v in kept] == reference_prune(vectors, R3, shifts)
    assert [deg for deg, _ in kept] == [shifted_degree(v, shifts) for _, v in kept]


# -- pruning of multiples of earlier candidates ----------------------------------


def member_prune(vectors, ring, shifts=None):
    """Greedy pruning that decides each candidate by top reduction against a
    full `module_groebner_basis` of the vectors kept before it."""

    def key(v):
        pos, exps, _ = v_leading(v)
        return (shifted_degree(v, shifts), pos, ring.order.key(exps))

    kept, gb, unit = [], [], ring.position_unit
    for v in sorted((v for v in vectors if not is_zero(v)), key=key):
        if module_reducer(gb, ring).top_reduce(to_flat(v, unit)):
            kept.append(v)
            gb = module_groebner_basis([to_flat(k, unit) for k in kept], ring, len(v))
    return kept


def _multiples_cases():
    """(name, candidates) over k[x, y, z], standard grading, rank 2."""
    ring = curve_ring((1, 1, 1), PrimeField(7))
    x, y, z = (ring.var(i) for i in range(3))
    zero = ring.zero
    e = (x * x - y * y, x * z)
    f = (x * y + z * z, zero)
    return ring, [
        ("scalar multiple first", [(3 * e[0], 3 * e[1]), e, f]),
        ("monomial multiples", [e, (x * y * e[0], x * y * e[1]), f,
                                (5 * z * f[0], zero), (x * x * e[0], x * x * e[1])]),
        ("same offsets, lead does not divide", [(x * x * e[0], x * x * e[1]),
                                                (x * y * e[0], x * y * e[1])]),
        ("same offsets, not proportional", [e, (x * (x * x + 2 * y * y), 3 * x * x * z)]),
        ("same shape at another position", [(zero, e[0]), (e[0], zero),
                                            (zero, x * e[0]), (x * e[0], zero)]),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _multiples_cases()[1]])
def test_pruning_of_multiples_matches_member_reference(name):
    ring, cases = _multiples_cases()
    vectors = dict(cases)[name]
    assert prune(vectors, ring) == member_prune(vectors, ring)


def test_pruning_matches_member_reference_on_raw_syzygies():
    """Every pruning call of the 11 1 5 resolution over fp:32003: the
    generators, then each differential's raw syzygies with its shifts."""
    gens = list(validate_sequence(11, 1, 5).generators(PrimeField(32003)).all)
    ring = gens[0].ring
    candidates = [(g,) for g in gens]
    assert prune(candidates, ring) == member_prune(candidates, ring)
    C = minimal_resolution(gens)
    for s in range(1, C.length + 1):
        mat = C.differential(s)
        raw = syzygies_of([mat.column(j) for j in range(mat.cols)], ring)
        shifts = C.steps[s]
        kept = minimal_module_generators(raw, shifted_engine(ring, shifts))
        assert [v for _, v in kept] == member_prune(raw, ring, shifts), (s, len(raw))
        assert [deg for deg, _ in kept] == [shifted_degree(v, shifts) for _, v in kept], s


# -- the pair criteria of basis runs ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(homogeneous_candidates())
def test_module_basis_satisfies_buchberger_criterion(data):
    """Every same-position S-vector of a rank-2 basis reduces to zero against
    it, so no criterion dropped a pair it needed (the product criterion
    does not hold for vectors)."""
    vectors, _ = data
    gb = polynomial_basis(vectors, R3, 2)
    for f, g in same_position_pairs(gb):
        assert is_zero(plain_top_reduce(s_vector(f, g, R3), gb, R3))


@pytest.mark.parametrize("ring", [R3, elimination_ring((2, 3))],
                         ids=["curve", "elimination"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_one_basis_satisfies_buchberger_criterion(ring, data):
    """The rank-1 companion, on inhomogeneous input and before
    interreduction.  In a curve ring the pairs' sugar order is their packed
    order on homogeneous input; the elimination ring packs t first, so only
    there do the two orders differ on it."""
    gens = data.draw(small_polys(ring))
    gb = polynomial_basis([(g,) for g in gens], ring, 1)
    for f, g in same_position_pairs(gb):
        assert is_zero(plain_top_reduce(s_vector(f, g, ring), gb, ring))
