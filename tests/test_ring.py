"""Polynomial kernel: exact arithmetic, weighted degrees, monomial orders."""

import collections
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithcurve import (
    cli,
    groebner,
    module_groebner_basis,
    resolution_b1,
    resolution_bn,
    validate_sequence,
)
from arithcurve.groebner import from_flat, syzygies_and_basis
from arithcurve.oracle import ideal_equal, minimal_resolution, toric_ideal
from arithcurve.ring import (
    QQ,
    RING_CACHE_SIZE,
    EliminationOrder,
    MonomialOutOfRange,
    Polynomial,
    PolyRing,
    PrimeField,
    WeightedGrevlex,
    WeightedRevlex,
    curve_ring,
    elimination_ring,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    revlex_ring,
    weighted_degree_of,
)
from arithcurve.ring import (
    _MR_EXACT_BOUND,
    _add_into,
    _curve_ring,
    _elimination_ring,
    _is_prime,
    _revlex_ring,
)

W = (5, 6, 7, 8, 9)


@pytest.fixture
def R():
    return curve_ring(W)


def test_weighted_degree_of_quadratic_binomial(R):
    p = R.var(0) * R.var(2) + (-1) * (R.var(1) * R.var(1))
    assert p.is_homogeneous
    assert p.weighted_degree() == 12  # 5 + 7 = 6 + 6


def test_additive_inverse_gives_zero(R):
    p = R.var(0) * R.var(2) - R.var(1) * R.var(3)
    assert (p + (-p)).is_zero()
    assert (p + (-p)).terms == ()


def test_one_is_multiplicative_identity(R):
    p = R.var(0) * R.var(2) - R.var(1) ** 2 + 3 * R.var(4)
    assert R.one * p == p
    assert 1 * p == p


def test_inhomogeneous_marker(R):
    assert (R.var(0) - R.var(1)).weighted_degree() is None
    assert not (R.var(0) - R.var(1)).is_homogeneous


def test_constant_has_degree_zero(R):
    assert R.one.weighted_degree() == 0


def test_zero_degree_raises(R):
    with pytest.raises(ValueError):
        R.zero.weighted_degree()


def test_terms_sorted_strictly_decreasing(R):
    p = R.var(0) ** 3 + R.var(4) + R.var(2) * R.var(3)
    keys = [R.order.key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert len({m for m, _ in p.terms}) == len(p.terms)


def test_no_zero_coefficients_stored(R):
    p = R.var(0) + R.var(1)
    q = p - R.var(1)
    assert all(c != 0 for _, c in q.terms)
    assert q == R.var(0)


def test_grevlex_tie_break(R):
    # X1^2 and X0*X2 share weighted degree 12; grevlex puts X1^2 first
    p = R.var(0) * R.var(2) - R.var(1) ** 2
    assert p.leading_monomial() == (0, 2, 0, 0, 0)


def test_elimination_order_puts_t_first():
    ext = elimination_ring(W)
    t, x0 = ext.var(0), ext.var(1)
    p = x0 ** 5 - t
    assert p.leading_monomial() == (1, 0, 0, 0, 0, 0)


def test_scalar_and_power(R):
    p = R.var(0) + R.var(1)
    assert p * 0 == R.zero
    assert (p ** 2) == p * p


def test_float_coefficients_rejected(R):
    with pytest.raises(TypeError):
        R.constant(0.5)


def test_prime_field_values_reduced():
    F = PrimeField(7)
    assert F.of(10) == 3
    assert F.of(-1) == 6
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(ValueError):
        PrimeField(6)


def _trial_division_prime(p):
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def test_primality_agrees_with_trial_division():
    for p in range(10**4):
        assert _is_prime(p) == _trial_division_prime(p), p


def test_large_prime_field():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # composites: a Carmichael number, the smallest strong pseudoprime to the
    # first nine prime bases, and a product of two Mersenne primes
    for n in (561, 3825123056546413051, (2**31 - 1) * (2**61 - 1)):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_primality_bound_named():
    with pytest.raises(ValueError, match=str(_MR_EXACT_BOUND)):
        PrimeField(_MR_EXACT_BOUND)


@pytest.mark.parametrize("make", [
    lambda R: R.field.of(0.5),
    lambda R: R.monomial((1, 0, 0), 0.5),
    lambda R: R.from_dict({(1, 0, 0): 1, (0, 1, 0): 0.5}),
], ids=["of", "monomial", "from_dict"])
def test_prime_field_rejects_floats(make):
    with pytest.raises(TypeError, match=r"GF\(7\)"):
        make(curve_ring((1, 1, 1), PrimeField(7)))


def test_from_dict_reduces_into_the_prime_field():
    R = curve_ring((1, 1, 1), PrimeField(7))
    x0, x1 = R.var(0), R.var(1)
    p = R.from_dict({(1, 0, 0): 1, (0, 1, 0): -1})
    assert p == x0 - x1
    [g] = module_groebner_basis([p.packed], R, 1)
    assert g == (x0 - x1).packed
    assert all(0 < c < 7 for _, c in g)


def test_from_dict_drops_coefficients_that_vanish_in_the_field():
    R = curve_ring((1, 1, 1), PrimeField(7))
    assert R.from_dict({(1, 0, 0): 7}).is_zero()
    assert R.from_dict({(1, 0, 0): 8, (0, 0, 1): 14}) == R.var(0)


def test_from_dict_rejects_floats_over_qq():
    with pytest.raises(TypeError):
        curve_ring((1, 1)).from_dict({(1, 0): 0.5})


def test_prime_field_rejects_bad_denominator():
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F.of(QQ.of(1) / QQ.of(7))


def test_rationals_reduced_positive_denominator():
    c = QQ.of(4) / QQ.of(-6)
    assert c.numerator == -2 and c.denominator == 3


def test_rationals_of_returns_fraction():
    assert type(QQ.of(3)) is Fraction


rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_rationals_int_exactly_when_integral(a, b):
    results = [(QQ.add(a, b), Fraction(a) + b), (QQ.mul(a, b), Fraction(a) * b)]
    if b != 0:
        results.append((QQ.inv(b), 1 / Fraction(b)))
    for got, want in results:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_curve_basis_over_qq_has_int_coefficients():
    """Integral coefficients leave the engine as ints, never as Fractions
    with denominator 1, which would take the slower Fraction arithmetic."""
    gb = groebner(validate_sequence(5, 1, 4).generators(QQ).all)
    assert gb
    assert all(type(c) is int for p in gb for _, c in p.packed)


# -- integral QQ coefficients are stored as ints ----------------------------------


def integral_fractions(polys) -> list:
    """The stored coefficients of `polys` that are Fractions with denominator 1."""
    return [c for p in polys for _, c in p.packed
            if type(c) is Fraction and c.denominator == 1]


def differential_entries(C) -> list:
    return [e for s in range(1, C.length + 1) for e in C.differential(s).nonzero.values()]


def test_integral_coefficients_are_ints_from_construction_on(R):
    built = [R.var(0), R.one, R.constant(Fraction(4, 2))]
    assert integral_fractions(built) == []
    assert built[2].packed == ((0, 2),)
    for m0, resolve in [(5, resolution_b1), (8, resolution_bn),
                        (6, lambda seq: minimal_resolution(seq.generators(QQ).all))]:
        seq = validate_sequence(m0, 1, 4)
        gens = seq.generators(QQ).all
        ring = gens[0].ring
        syz, _ = syzygies_and_basis([g.packed for g in gens], ring, 1)
        raw = [from_flat(s, ring, len(gens)) for s in syz]
        for polys in (gens, differential_entries(resolve(seq)), [p for v in raw for p in v]):
            assert integral_fractions(polys) == [], m0
    assert integral_fractions(toric_ideal(validate_sequence(9, 2, 4))) == []


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """Counts the calls of Fraction's arithmetic operators, by name."""
    calls = collections.Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    return calls


def test_fraction_counter_sees_non_integral_coefficients(R, fraction_ops):
    seventh = QQ.of(1) / QQ.of(7)
    p = R.constant(seventh) * R.var(0)
    assert p.packed[0][1] == Fraction(1, 7) and type(p.packed[0][1]) is Fraction
    assert fraction_ops["__truediv__"] == 1
    assert sum(fraction_ops.values()) > 1  # the product formed one too


@pytest.mark.parametrize("seq", ["5 1 4", "9 2 4", "8 1 4", "16 3 4", "6 1 4"])
def test_resolve_verify_over_qq_does_no_fraction_arithmetic(seq, fraction_ops):
    assert cli.main(["resolve", *seq.split(), "--verify", "--json"]) == 0
    assert fraction_ops == {}


def test_toric_identity_over_qq_does_no_fraction_arithmetic(fraction_ops):
    seq = validate_sequence(7, 1, 4)
    assert ideal_equal(toric_ideal(seq), seq.generators(QQ).all)
    assert fraction_ops == {}


# -- the product kernel ----------------------------------------------------------

KERNEL_FIELDS = {"GF(7)": PrimeField(7), "GF(32003)": PrimeField(32003), "QQ": QQ}


def kernel_coefficients(field):
    """Nonzero field elements; over QQ ints and Fractions, integral ones too."""
    if field.char:
        return st.integers(1, field.char - 1)
    return st.one_of(st.integers(-6, 6),
                     st.fractions(-6, 6, max_denominator=4)).filter(bool)


def reference_add_into(acc, q, u, k, field):
    """acc + k * X^u * q, built term by term with `field.add` and `field.mul`."""
    out = dict(acc)
    for m, c in q:
        m += u
        out[m] = field.add(out[m], field.mul(c, k)) if m in out else field.mul(c, k)
        if not out[m]:
            del out[m]
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_add_into_matches_field_operations(name, data):
    field = KERNEL_FIELDS[name]
    ring = curve_ring((2, 3, 5), field)
    draw, coeff = data.draw, kernel_coefficients(field)
    monomial = st.tuples(*[st.integers(0, 3)] * 3).map(ring.encode)
    q_terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=6))
    q = tuple(sorted(q_terms.items(), reverse=True))
    u = draw(monomial)
    case = draw(st.sampled_from(["any", "k = 1, empty map", "k = -1", "cancel",
                                 "integral sums"]))
    k = {"k = 1, empty map": 1, "k = -1": -1}.get(case) or draw(coeff)
    if case == "k = 1, empty map":
        acc = {}
    elif case == "cancel":  # acc is -k * X^u * q, so the sum is zero
        acc = reference_add_into({}, q, u, field.neg(k), field)
    elif case == "integral sums":  # acc + k * X^u * q has small int coefficients
        acc = {m + u: field.add(field.of(draw(st.integers(-3, 3))),
                                field.neg(field.mul(c, k))) for m, c in q}
        acc = {m: c for m, c in acc.items() if c}
    else:
        acc = draw(st.dictionaries(
            st.one_of(monomial, st.sampled_from([m + u for m in q_terms])),
            coeff.map(lambda c: field.mul(c, 1)), max_size=6))
    want = reference_add_into(acc, q, u, k, field)
    _add_into(acc, q, ring.top_degree(q), u, k, ring)
    assert {m: (c, type(c)) for m, c in acc.items()} == {
        m: (c, type(c)) for m, c in want.items()}
    assert all(acc.values())
    if case == "cancel":
        assert acc == {}
    if not field.char:
        assert not any(type(c) is Fraction and c.denominator == 1 for c in acc.values())


def test_add_into_range_checks_before_adding():
    ring = curve_ring((2, 3, 5), PrimeField(7))
    big = ring.var(2, (ring.degree_cap - 1) // 5)
    q = (big + ring.one).packed
    u = ring.encode((0, 0, 1))
    acc = {u: 3}  # the product's term X2 would land here
    with pytest.raises(MonomialOutOfRange):
        _add_into(acc, q, ring.top_degree(q), u, 1, ring)
    assert acc == {u: 3}


# -- property tests ------------------------------------------------------------

NVARS = 4
SMALL_W = (3, 4, 5, 7)


def poly_strategy(ring):
    exps = st.tuples(*[st.integers(0, 4) for _ in range(ring.nvars)])
    term = st.tuples(exps, st.integers(-5, 5))
    return st.lists(term, max_size=5).map(
        lambda ts: ring.from_dict(
            {m: ring.field.of(sum(c for m2, c in ts if m2 == m)) for m, _ in ts}
        )
    )


RQ = PolyRing(tuple(f"X{i}" for i in range(NVARS)), SMALL_W)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RQ), poly_strategy(RQ))
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RQ), poly_strategy(RQ))
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(poly_strategy(RQ), poly_strategy(RQ), poly_strategy(RQ))
def test_multiplication_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def reference_product(p, q):
    """Every pair of terms multiplied, summed per monomial, then sorted."""
    field = p.ring.field
    data = {}
    for ma, ca in p.packed:
        for mb, cb in q.packed:
            m = ma + mb
            prod = field.mul(ca, cb)
            data[m] = field.add(data[m], prod) if m in data else prod
    terms = sorted(((m, c) for m, c in data.items() if c != 0), reverse=True)
    return Polynomial(p.ring, tuple(terms))


@pytest.mark.parametrize("ring", [RQ, elimination_ring(SMALL_W)],
                         ids=["curve", "elimination"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_reference(ring, data):
    p, q = data.draw(poly_strategy(ring)), data.draw(poly_strategy(ring))
    assert (p * q).packed == reference_product(p, q).packed


CROSS_RING_OPS = {
    "add": lambda p, q: p + q,
    "sub": lambda p, q: p - q,
    "mul": lambda p, q: p * q,
    "add_mul": lambda p, q: p.add_mul(q, 0, 1),
}


@pytest.mark.parametrize("op", sorted(CROSS_RING_OPS))
def test_operations_across_rings_raise(op):
    other = PolyRing(RQ.names, RQ.weights, field=PrimeField(32003))
    for p in (RQ.var(0) + RQ.var(1), RQ.zero):
        for q in (other.var(2), other.zero):
            for a, b in ((p, q), (q, p)):
                with pytest.raises(ValueError):
                    CROSS_RING_OPS[op](a, b)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RQ), poly_strategy(RQ))
def test_rational_and_prime_backends_agree(p, q):
    """Integer computations reduced mod p match the prime-field computation."""
    Fp = PrimeField(32003)
    Rp = PolyRing(RQ.names, RQ.weights, field=Fp)
    assert (p * q + p).change_ring(Rp) == (
        p.change_ring(Rp) * q.change_ring(Rp) + p.change_ring(Rp)
    )


def test_change_ring_across_fields_matches_from_dict():
    """Into another field, each coefficient takes its stored form there and
    one that vanishes is dropped, as `from_dict` of the terms gives."""
    R = curve_ring(W)
    Rp = revlex_ring(W, PrimeField(7))
    p = R.from_dict({(1, 0, 0, 0, 2): 7, (0, 3, 0, 0, 0): Fraction(1, 2),
                     (0, 0, 1, 1, 0): -3})
    q = p.change_ring(Rp)
    assert q == Rp.from_dict(dict(p.terms))
    assert len(q.packed) == 2 and all(c.__class__ is int for _, c in q.packed)
    assert q.change_ring(R) == R.from_dict({(0, 3, 0, 0, 0): 4, (0, 0, 1, 1, 0): 4})


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(0, 5) for _ in range(NVARS)]),
    st.tuples(*[st.integers(0, 5) for _ in range(NVARS)]),
    st.tuples(*[st.integers(0, 3) for _ in range(NVARS)]),
)
def test_order_keys_multiplicative(u, v, w):
    for order in (WeightedGrevlex(SMALL_W), WeightedRevlex(SMALL_W)):
        if order.key(u) > order.key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert order.key(uw) > order.key(vw)


def test_revlex_lead_of_a_tied_degree():
    """Of x0^3 and x1*x2, both of weighted degree 9 under (3, 4, 5), the
    curve ring's total-degree tie break leads with x0^3, which does not
    divide the difference; with x0 the smallest variable, x1*x2 leads."""
    for ring, lead in ((curve_ring((3, 4, 5)), (3, 0, 0)),
                       (revlex_ring((3, 4, 5)), (0, 1, 1))):
        x0, x1, x2 = (ring.var(i) for i in range(3))
        assert (x0 ** 3 - x1 * x2).leading_monomial() == lead


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_revlex_lead_involving_x0_divides_by_x0(data):
    """A homogeneous polynomial whose revlex lead involves x0 has x0 in
    every term: the lead has the least exponent of x0 among its terms."""
    ring = revlex_ring(SMALL_W)
    degree = data.draw(st.integers(0, 30))
    monomials = [e for e in itertools.product(*(range(degree // w + 1) for w in SMALL_W))
                 if weighted_degree_of(e, SMALL_W) == degree]
    if not monomials:
        return
    chosen = data.draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    p = ring.from_dict({e: k for k, e in enumerate(chosen, 1)})
    assert p.weighted_degree() == degree
    if p.leading_monomial()[0]:
        assert all(e[0] for e, _ in p.terms)


def test_elimination_order_is_multiplicative():
    order = EliminationOrder(SMALL_W)
    u, v, w = (1, 0, 0, 2, 0), (0, 3, 1, 0, 0), (2, 1, 0, 0, 1)
    assert order.key(u) > order.key(v)
    uw = tuple(a + b for a, b in zip(u, w))
    vw = tuple(a + b for a, b in zip(v, w))
    assert order.key(uw) > order.key(vw)


# -- packed monomials ------------------------------------------------------------

PACKED_RINGS = {"curve": curve_ring(W), "elimination": elimination_ring(W),
                "revlex": revlex_ring(W)}


def packed_exps(ring):
    """Small exponents, and exponents whose degree reaches toward half the
    packed range, so that a product of two still fits."""
    top = ring.degree_cap // 2 // sum(ring.weights)
    small = st.tuples(*[st.integers(0, 4) for _ in ring.weights])
    large = st.tuples(*[st.integers(0, top) for _ in ring.weights])
    return st.one_of(small, large)


@pytest.mark.parametrize("name", sorted(PACKED_RINGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packing_agrees_with_tuple_references(name, data):
    ring = PACKED_RINGS[name]
    u, v, w = (data.draw(packed_exps(ring)) for _ in range(3))
    pu, pv = ring.encode(u), ring.encode(v)
    uv = tuple(a + b for a, b in zip(u, v))
    assert ring.decode(pu) == u
    assert (pu > pv) == (ring.order.key(u) > ring.order.key(v))
    assert (pu == pv) == (u == v)
    assert pu + pv - ring.encode((0,) * ring.nvars) == ring.encode(uv)
    assert ring.divides(pu, pv) == monomial_divides(u, v)
    assert ring.divides(pu, pu + pv)
    if monomial_divides(u, v):
        assert pv - pu == ring.encode(monomial_div(v, u))
    assert ring.packed_degree(pu) == weighted_degree_of(u, ring.weights)
    # a product by mul_term keeps the packed terms sorted like the order keys
    p = ring.monomial(u, 2) + ring.monomial(v, 3)
    keys = [ring.order.key(m) for m, _ in p.mul_term(w, 1).terms]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("name", sorted(PACKED_RINGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exponent_words_agree_with_tuple_references(name, data):
    """The engine's pair criteria work on exponent words: the lcm word packs
    to the packed lcm, the guard-bit test on words is divisibility, and an
    lcm equals the sum of its words exactly when no variable is shared."""
    ring = PACKED_RINGS[name]
    u, v = (data.draw(packed_exps(ring)) for _ in range(2))
    wu, wv = ring.encode(u) & ring.word_fields, ring.encode(v) & ring.word_fields
    [lcm] = ring.word_lcms(wu, [wv])
    assert ring.decode(wu) == u
    assert ring._pack(ring.decode(lcm)) == ring.encode(monomial_lcm(u, v))
    assert (not (wv - wu) & ring.word_guard) == monomial_divides(u, v)
    assert (lcm == wu + wv) == all(a == 0 or b == 0 for a, b in zip(u, v))


@pytest.mark.parametrize("name", sorted(PACKED_RINGS))
def test_monomial_past_the_packed_range_raises(name):
    ring = PACKED_RINGS[name]
    last, w = ring.nvars - 1, ring.weights[-1]
    fits = (ring.degree_cap - 1) // w
    assert ring.decode(ring.encode((0,) * last + (fits,))) == (0,) * last + (fits,)
    with pytest.raises(MonomialOutOfRange):
        ring.encode((0,) * last + (fits + 1,))
    with pytest.raises(MonomialOutOfRange):
        ring.var(last, fits + 1)
    half = ring.var(last, fits // 2 + 1)
    with pytest.raises(MonomialOutOfRange):
        half * half
    with pytest.raises(MonomialOutOfRange):
        half.mul_term((0,) * last + (fits // 2 + 1,), 1)
    # each fits, but their lcm has about twice the degree: the engine checks
    # its degree when it files the pair, so it raises before any criterion
    # applies
    near = (0,) * (last - 1) + ((ring.degree_cap - 1) // ring.weights[last - 1], 0)
    with pytest.raises(MonomialOutOfRange) as caught:
        groebner([ring.monomial(near), ring.monomial((0,) * last + (fits,))])
    assert any(entry.name == "add_element" for entry in caught.traceback)


# source and target rings for `PolyRing.repacker`: the three orders on W,
# on W less its first weight (so with one variable fewer, or the same number
# for the elimination ring) and a ring of unit weights, whose smaller
# degree_cap the large exponents of `packed_exps` pass
REPACK_RINGS = [curve_ring(W), revlex_ring(W), elimination_ring(W),
                curve_ring(W[1:]), revlex_ring(W[1:]), elimination_ring(W[1:]),
                curve_ring((1,) * len(W))]
REPACK_PAIRS = [(source, target, drop) for source in REPACK_RINGS
                for target in REPACK_RINGS for drop in (False, True)
                if target.nvars == source.nvars - drop]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_repacker_agrees_with_decode_and_pack(data):
    """The field-to-field repacking equals packing the decoded exponents in
    the target, first one dropped or not: MonomialOutOfRange exactly when
    that does, ValueError when a dropped first exponent is not zero."""
    source, target, drop = data.draw(st.sampled_from(REPACK_PAIRS))
    exps = data.draw(packed_exps(source))
    m = source.encode(exps)
    repack = source.repacker(target, drop_first=drop)
    assert source.repacker(target, drop_first=drop) is repack
    if drop and exps[0]:
        with pytest.raises(ValueError, match="eliminated variable"):
            repack(m)
        return
    try:
        expected = target._pack(exps[1:] if drop else exps)
    except MonomialOutOfRange:
        with pytest.raises(MonomialOutOfRange):
            repack(m)
        return
    assert repack(m) == expected


def test_repacker_range_checks_against_the_target():
    """X4^k fits curve_ring(W), whose cap is 2^24, but past k = 2^18 - 1
    not the unit-weight ring, whose cap is 2^18."""
    source, target = curve_ring(W), curve_ring((1,) * len(W))
    repack = source.repacker(target)
    k = target.degree_cap - 1
    assert repack(source.encode((0, 0, 0, 0, k))) == target.encode((0, 0, 0, 0, k))
    with pytest.raises(MonomialOutOfRange):
        repack(source.encode((0, 0, 0, 0, k + 1)))
    with pytest.raises(ValueError, match="variable count"):
        source.repacker(curve_ring(W[1:]))


def test_range_check_covers_terms_below_the_lead():
    """Under the elimination order t leads X4^k although X4^k has the larger
    degree; multiplying must still check the degree of X4^k."""
    ring = PACKED_RINGS["elimination"]
    last, w = ring.nvars - 1, ring.weights[-1]
    k = (ring.degree_cap - 1) // w
    p = ring.var(0) + ring.var(last, k)
    assert p.leading_monomial() == (1,) + (0,) * last
    with pytest.raises(MonomialOutOfRange):
        p.mul_term((0,) * last + (1,), 1)


@pytest.mark.parametrize("make,cached", [(curve_ring, _curve_ring),
                                         (elimination_ring, _elimination_ring),
                                         (revlex_ring, _revlex_ring)],
                         ids=["curve", "elimination", "revlex"])
def test_ring_caches_stay_at_their_bound(make, cached):
    """Each ring constructor keeps at most RING_CACHE_SIZE rings: an equal
    call returns the same object while it is cached, and the least
    recently used ring is dropped first, to be built again when asked.  The
    ring built again hashes as the first one did, so both key one
    `repacker` cache entry."""
    first = make((10_000, 10_001))
    for k in range(1, RING_CACHE_SIZE + 8):
        assert make((10_000 + k, 10_001 + k)) is make((10_000 + k, 10_001 + k))
    assert cached.cache_info().currsize == RING_CACHE_SIZE
    again = make((10_000, 10_001))
    assert again == first and again is not first
    assert cached.cache_info().currsize == RING_CACHE_SIZE
    assert hash(again) == hash(first)
    source = make((3, 5))
    assert source.repacker(again) is source.repacker(first)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        PolyRing(("x", "y"), (1, 0))
