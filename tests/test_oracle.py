"""Oracle ground truth: toric ideals, ideal identities, colon ideals,
minimal resolutions, and exactness verification."""

import hashlib
import itertools
import math
import re
import types

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import arithcurve.oracle
from arithcurve import (
    BettiTable,
    GradedComplex,
    Limits,
    ResourceLimitExceeded,
    artinian_table,
    betti_b1,
    betti_bn,
    groebner,
    ideal_contains,
    ideal_equal,
    ideal_member,
    minimal_resolution,
    module_groebner_basis,
    resolution_b1,
    resolution_bn,
    shift_table_b1,
    shift_table_bn,
    shifts_gor4,
    toric_ideal,
    toric_ideal_of_weights,
    validate_sequence,
    verify_complex,
    verify_exactness,
)
from arithcurve.groebner import _Engine, minimal_module_generators, module_reducer
from arithcurve.matrices import PolyMatrix
from arithcurve.ring import (
    QQ,
    PrimeField,
    curve_ring,
    drop_first_variable,
    elimination_ring,
    weighted_degree_of,
)
from references import (
    all_minors2,
    colon_check,
    colon_ideal,
    leading_monomial,
    leading_term,
    minimal_generators,
    monomial_div,
    monomial_lcm,
)


class TestToricIdeal:
    def test_cusp(self):
        gb = toric_ideal_of_weights((2, 3))
        R = curve_ring((2, 3))
        assert gb == [R.var(0) ** 3 - R.var(1) ** 2]

    def test_rational_normal_curve_quartic(self):
        gb = toric_ideal_of_weights((4, 5, 6, 7, 8))
        assert len(groebner(gb)) == len(gb)
        # contains the consecutive-pair minors
        R = curve_ring((4, 5, 6, 7, 8))
        quad = R.var(0) * R.var(2) - R.var(1) ** 2
        assert ideal_contains(gb, [quad])

    def test_kernel_equals_generator_ideal(self):
        seq = validate_sequence(5, 1, 4)
        P = toric_ideal(seq)
        assert ideal_equal(P, list(seq.generators().all))

    def test_nine_minimal_generators_for_gor4(self):
        seq = validate_sequence(6, 1, 4)
        P = toric_ideal(seq)
        assert len(minimal_generators(P)) == 9

    def test_everything_in_kernel_vanishes(self):
        seq = validate_sequence(7, 1, 3)
        for g in toric_ideal(seq):
            assert seq.vanishes(g)

    @staticmethod
    def _t_free_part_of_reduced_elimination_basis(weights, field):
        """The t-free elements of the reduced basis of (X_i - t^{w_i}) in
        order, in the curve ring: the reference the weight chain's run must
        match."""
        ext = elimination_ring(weights, field)
        full = groebner([ext.var(i + 1) - ext.var(0, w) for i, w in enumerate(weights)])
        target = curve_ring(weights, field)
        return [drop_first_variable(g, target) for g in full
                if leading_monomial(g)[0] == 0]

    @pytest.mark.parametrize("weights", [
        (2, 3), (3, 5, 7), (4, 5, 6, 7, 8), (7, 3, 5), (3, 3, 5), (6, 10, 15),
    ])
    def test_equals_t_free_part_of_reduced_elimination_basis(self, weights):
        """The run from the weight chain, whose t-free part is reduced
        alone, gives the t-free part of the fully reduced basis of the
        X_i - t^{w_i}, in order, over QQ and fp:32003: on unsorted weights,
        on a repeated weight, whose gap of 0 makes a t-free input, and on
        weights of which each two share a divisor."""
        for field in (QQ, PrimeField(32003)):
            assert toric_ideal_of_weights(weights, field=field) == (
                self._t_free_part_of_reduced_elimination_basis(weights, field))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 15), min_size=2, max_size=4))
    def test_weight_chain_gives_the_elimination_ideal(self, weights):
        """Any 2 to 4 weights in any order, repeats allowed: the same
        reduced basis as the run from the X_i - t^{w_i}."""
        assert toric_ideal_of_weights(weights) == (
            self._t_free_part_of_reduced_elimination_basis(weights, QQ))

    def test_drop_first_variable_repacks_or_refuses(self):
        ext, target = elimination_ring((3, 5)), curve_ring((3, 5))
        t, x0, x1 = (ext.var(i) for i in range(3))
        p = x0 ** 5 - 2 * x1 ** 3 + x0 * x1
        assert drop_first_variable(p, target) == target.from_dict(
            {(5, 0): 1, (0, 3): -2, (1, 1): 1})
        with pytest.raises(ValueError, match="eliminated variable"):
            drop_first_variable(p + t, target)

    def test_drop_first_variable_refuses_an_x0_term(self):
        """Dropping X0 from a curve ring repacks an X0-free polynomial and
        refuses one with an X0 term."""
        ring, target = curve_ring((3, 5, 7)), curve_ring((5, 7))
        x0, x1, x2 = (ring.var(i) for i in range(3))
        p = x1 ** 7 - x2 ** 5
        assert drop_first_variable(p, target) == target.from_dict({(7, 0): 1, (0, 5): -1})
        with pytest.raises(ValueError, match="eliminated variable"):
            drop_first_variable(p + x0 ** 4 * x2 ** 2 - x0 * x1 ** 4 * x2, target)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            toric_ideal_of_weights((0, 3))

    def test_bases_pinned_over_grid(self):
        """sha256 of str() of every basis over fp:32003 on the n in {3, 4, 5},
        a in {1, 2}, d in {1, 2, 3} grid (51 valid cells, every b), recorded
        before the elimination run applied the Gebauer-Moeller criteria."""
        h = hashlib.sha256()
        for n in (3, 4, 5):
            for a in (1, 2):
                for d in (1, 2, 3):
                    for b in range(1, n + 1):
                        if math.gcd(a * n + b, d) != 1:
                            continue
                        seq = validate_sequence(a * n + b, d, n)
                        h.update(str(toric_ideal(seq, field=PrimeField(32003))).encode())
        assert h.hexdigest() == (
            "9a019efc8a7c9b731b05a364c83b73b84d59b7d770329cfd8c6652dea10238c3")

    @pytest.mark.parametrize("m0,d,n,spairs,basis", [
        (5, 1, 4, 45, 16), (7, 1, 4, 40, 15), (9, 2, 4, 65, 20),
        (13, 2, 4, 68, 21), (16, 3, 4, 72, 22),
    ], ids=["5-1-4", "7-1-4", "9-2-4", "13-2-4", "16-3-4"])
    def test_elimination_fits_spair_budget(self, m0, d, n, spairs, basis):
        """The elimination run of each case reduces exactly `spairs`
        S-pairs and stores `basis` elements; the pairs the criteria drop
        are not counted."""
        seq = validate_sequence(m0, d, n)
        assert toric_ideal(seq, limits=Limits(max_spairs=spairs, max_basis=basis))
        with pytest.raises(ResourceLimitExceeded, match="S-pair budget"):
            toric_ideal(seq, limits=Limits(max_spairs=spairs - 1))
        with pytest.raises(ResourceLimitExceeded, match="basis size cap"):
            toric_ideal(seq, limits=Limits(max_basis=basis - 1))

    @pytest.mark.parametrize("m0,d,n,spairs", [
        (9, 2, 4, [65]), (16, 3, 4, [72]), (13, 2, 4, [68]),
    ], ids=["9-2-4", "16-3-4", "13-2-4"])
    def test_identity_spairs_pinned(self, m0, d, n, spairs):
        """S-pairs reduced by each run of the toric identity over QQ: the
        elimination run is the only one.  A change that reorders or drops
        its pairs shows here even when the basis does not change.  Neither
        direction of `ideal_equal` makes a run: each side's generators
        top-reduce every element of the other side to zero, the one that
        is not a generator up to a scalar (of degree 26, 44 and 34)
        included."""
        seq = validate_sequence(m0, d, n)
        limits = KeepMeters()
        basis = toric_ideal(seq, limits=limits)
        assert ideal_equal(basis, list(seq.generators(QQ).all), limits=limits)
        assert [meter.spairs for meter in limits.meters] == spairs

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "fp"])
    def test_basis_lives_in_the_generators_ring(self, field):
        """One ring per (weights, field): the toric basis, the generators
        and `seq.ring` share one ring object, whichever equal field object
        or weight sequence asks for it."""
        seq = validate_sequence(9, 2, 4)
        ring = seq.generators(field).all[0].ring
        assert all(g.ring is ring for g in toric_ideal(seq, field=field))
        assert ring is seq.ring(field) is curve_ring(list(seq.terms), field=field)
        assert curve_ring(seq.terms, PrimeField(32003)) is curve_ring(
            seq.terms, PrimeField(32003))
        assert elimination_ring(list(seq.terms), field) is elimination_ring(
            seq.terms, field)


def _monomials_by_degree(ring, top: int) -> dict:
    """{degree: exponent tuples of that weighted degree} for degrees <= top."""
    out: dict = {}
    for e in itertools.product(*(range(top // w + 1) for w in ring.weights)):
        k = weighted_degree_of(e, ring.weights)
        if k <= top:
            out.setdefault(k, []).append(e)
    return out


# k[X0, X1, X2] graded by a curve's weights
CURVE = curve_ring((3, 4, 5))
MONOMIALS = _monomials_by_degree(CURVE, 30)


@st.composite
def membership_cases(draw):
    """(gens, member, candidate): a few homogeneous binomials of CURVE of
    degree at most 12, a member of some degree D at least theirs, and a
    random binomial of degree D.  The member is either a combination of
    the generators' monomial multiples or the S-polynomial of the first
    two, whose pair the run must reduce at degree D exactly."""
    binomial_degrees = [k for k, mons in MONOMIALS.items() if len(mons) >= 2]

    def binomial(k):
        a, b = draw(st.lists(st.sampled_from(MONOMIALS[k]), min_size=2,
                             max_size=2, unique=True))
        return CURVE.monomial(a) - CURVE.monomial(b, draw(st.integers(1, 3)))

    gens = [binomial(draw(st.sampled_from([k for k in binomial_degrees if k <= 12])))
            for _ in range(draw(st.integers(1, 3)))]
    if len(gens) >= 2 and draw(st.booleans()):
        (a, ca), (b, cb) = leading_term(gens[0]), leading_term(gens[1])
        lcm = monomial_lcm(a, b)
        top = weighted_degree_of(lcm, CURVE.weights)
        member = (gens[0].mul_term(monomial_div(lcm, a), cb)
                  - gens[1].mul_term(monomial_div(lcm, b), ca))
        return gens, member, binomial(top)
    top = draw(st.sampled_from([k for k in binomial_degrees
                                if k >= max(g.weighted_degree() for g in gens)]))
    member = CURVE.zero
    for g in gens:
        multipliers = MONOMIALS.get(top - g.weighted_degree())
        if multipliers:
            for w in draw(st.lists(st.sampled_from(multipliers), max_size=2,
                                   unique=True)):
                member += CURVE.monomial(w, draw(st.integers(1, 3))) * g
    return gens, member, binomial(top)


def _inhomogeneous_cases() -> dict:
    R = curve_ring((1, 1))
    x, y, one = R.var(0), R.var(1), R.one
    # (x - 1, y - 1) in disguise: x - y needs pairs of sugar 3
    disguised = [x * x * y - one, x * y * y - y]
    return {
        "inhomogeneous gens, member": (disguised, [x - y], True),
        "inhomogeneous gens, non-member": (disguised, [x - y, x * x], False),
        # not a Groebner basis: y^3 + x*y is a member that they leave nonzero
        "inhomogeneous poly, member": ([x * x - y * y, x * y], [y ** 3 + x * y], True),
        "inhomogeneous poly, non-member": ([x * y, y * y], [x * x + y], False),
    }


INHOMOGENEOUS = _inhomogeneous_cases()


def _recording_basis_runs(monkeypatch) -> list:
    """Patch the oracle's `module_groebner_basis` to record the columns of
    every run it starts; returns the list they go to."""
    runs = []
    run = arithcurve.oracle.module_groebner_basis

    def recording(columns, *args, **kwargs):
        runs.append(list(columns))
        return run(columns, *args, **kwargs)

    monkeypatch.setattr(arithcurve.oracle, "module_groebner_basis", recording)
    return runs


class TestIdealContains:
    @settings(max_examples=80, deadline=None)
    @given(membership_cases())
    def test_membership_agrees_with_full_basis(self, case):
        """The verdicts agree with membership against the full reduced
        basis, for members and for elements of the members' degree that
        may lie outside, alone and side by side."""
        gens, member, candidate = case
        full = groebner(gens)
        assert ideal_member(member, full)
        assert ideal_contains(gens, [member])
        inside = ideal_member(candidate, full)
        assert ideal_contains(gens, [candidate]) is inside
        assert ideal_contains(gens, [member, candidate]) is inside

    @pytest.mark.parametrize("case", list(INHOMOGENEOUS))
    def test_inhomogeneous_input_takes_the_full_run(self, monkeypatch, case):
        gens, polys, inside = INHOMOGENEOUS[case]
        runs = _recording_basis_runs(monkeypatch)
        assert ideal_contains(gens, polys) is inside
        assert runs == [[g.packed for g in gens]]
        assert all(ideal_member(p, groebner(gens)) for p in polys) is inside

    def test_one_run_tests_what_the_generators_leave(self, monkeypatch):
        """Elements the generators top-reduce to zero make no run: beside
        x^3*y and x^2*y^2 - y^4 (reduced to zero), the members y^3 and
        x*y^2 - y^3 and the non-member y^2 are left, and they are tested
        against one run over every nonzero generator."""
        R = curve_ring((1, 1))
        x, y = R.var(0), R.var(1)
        gens = [x * x - y * y, R.zero, x * y]
        runs = _recording_basis_runs(monkeypatch)
        zero = [x ** 3 * y, x * x * y * y - y ** 4]
        full = groebner(gens)
        for left in ([y ** 3, x * y * y - y ** 3], [y ** 3, y * y, x * y * y - y ** 3]):
            runs.clear()
            polys = [zero[0], *left, zero[1]]
            assert ideal_contains(gens, polys) is all(ideal_member(p, full)
                                                      for p in polys)
            assert runs == [[gens[0].packed, gens[2].packed]]
        runs.clear()
        assert ideal_contains(gens, zero)
        assert runs == []
        assert all(ideal_member(p, full) for p in zero)

    def test_commands_settle_membership_by_the_generators(self, monkeypatch, capsys):
        """No basis run starts inside `ideal_contains` on the n = 4 and 5
        grids (a in {1, 2}, d in {1, 2, 3}, gcd(m0, d) = 1): not in
        `resolve --verify` with the auto method where one of the paper's
        constructions applies, nor with `--method oracle` on every n = 4
        cell and the a = 1 cells of n = 5, nor in the toric identity of
        the toric-n4 workload.  The entries of d_1 and the toric basis are
        generators up to a scalar or reduce to zero by them.  Should this
        fail, a membership run is made again, and how much of it to
        complete (a basis up to the largest degree tested suffices on
        homogeneous input) is worth deciding anew."""
        from arithcurve import cli

        runs = _recording_basis_runs(monkeypatch)
        contains, made = arithcurve.oracle.ideal_contains, []

        def counting(*args, **kwargs):
            before = len(runs)
            verdict = contains(*args, **kwargs)
            made.append(len(runs) - before)
            return verdict

        monkeypatch.setattr(arithcurve.oracle, "ideal_contains", counting)
        commands = []
        for n in (4, 5):
            for a, b, d in itertools.product((1, 2), range(1, n + 1), (1, 2, 3)):
                m0 = a * n + b
                if math.gcd(m0, d) != 1:
                    continue
                argv = ["resolve", str(m0), str(d), str(n), "--verify", "--json",
                        "--field", "fp:32003"]
                if b in (1, n) or (b, n) == (2, 4):
                    commands.append(argv)
                if n == 4 or a == 1:
                    commands.append(argv + ["--method", "oracle"])
        for argv in commands:
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        # the toric-n4 workload's cases
        for m0, d, n in [(5, 1, 4), (7, 1, 4), (9, 2, 4), (13, 2, 4), (16, 3, 4)]:
            seq = validate_sequence(m0, d, n)
            assert ideal_equal(toric_ideal(seq), list(seq.generators().all))
        # every command but the 3 closed-form ones checks a complex's d_1,
        # its image against the generators both ways, and each identity
        # tests both inclusions
        assert len(commands) == 46
        assert made == [0] * (2 * 43 + 2 * 5)

    def test_polynomials_from_different_rings_raise(self):
        """Generators and elements must share one ring: the first generator
        of 7 1 4 read in the layout of 5 1 4's ring, or the generators of
        5 1 4 over QQ against those over GF(7), decide nothing."""
        seq = validate_sequence(5, 1, 4)
        gens = list(seq.generators(QQ).all)
        other = validate_sequence(7, 1, 4).generators(QQ).all[0]
        with pytest.raises(ValueError, match="different rings"):
            ideal_contains(gens, [other])
        with pytest.raises(ValueError, match="different rings"):
            ideal_equal(gens, list(seq.generators(PrimeField(7)).all))

    def test_zero_polys_are_skipped(self):
        """The zero polynomial has no degree; it lies in every ideal, so a
        list of zeros needs no run and a zero beside others changes nothing."""
        R = curve_ring((1, 1))
        x, y = R.var(0), R.var(1)
        limits = KeepMeters()
        assert ideal_contains([x * y], [R.zero, R.zero], limits=limits)
        assert ideal_contains([], [R.zero], limits=limits)
        assert limits.meters == []
        assert ideal_contains([x * y], [R.zero, x * x * y, R.zero])
        assert not ideal_contains([x * y, R.zero], [R.zero, x * x])

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "fp"])
    def test_scalar_multiples_of_generators_take_no_run(self, field):
        """A nonzero scalar multiple of a generator (its monomials, its
        coefficients times one scalar) is a member with no engine run:
        -g, 3g and 12345g, also beside other such multiples.  So is the
        monomial multiple X1*g, which the generators top-reduce to zero,
        alone or beside -g.  An element with g's monomials but other
        coefficients, which the generators leave nonzero, and the
        non-member X1 still take a run, which a member beside them does
        not avoid.  Every verdict is `ideal_member`'s against the reduced
        basis."""
        gens = list(validate_sequence(5, 1, 4).generators(field).all)
        g = gens[0]  # X0*X2 - X1^2
        x1 = g.ring.var(1)
        full = groebner(gens)
        for polys, runs in [
            ([-g], 0), ([3 * g], 0), ([12345 * g], 0), ([g, -g, 3 * gens[5]], 0),
            ([x1 * g], 0), ([-g, x1 * g], 0),
            ([g + 2 * x1 ** 2], 1), ([x1], 1), ([-g, x1, x1 * g], 1),
        ]:
            limits = KeepMeters()
            verdict = ideal_contains(gens, polys, limits=limits)
            assert len(limits.meters) == runs, polys
            assert verdict is all(ideal_member(p, full) for p in polys), polys


class TestIdealEqual:
    def test_trivial_examples(self):
        R = curve_ring((1, 1))
        x0 = R.var(0)
        assert not ideal_equal([x0], [x0 ** 2])
        assert ideal_equal([x0], [x0])

    def test_sum_of_minor_ideals_is_kernel(self):
        for m0, d, n in [(5, 1, 4), (7, 1, 3), (4, 1, 2), (6, 1, 4)]:
            seq = validate_sequence(m0, d, n)
            both = all_minors2(seq.matrix_a()) + all_minors2(seq.matrix_b())
            assert ideal_equal(both, toric_ideal(seq))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_sum_of_minor_ideals_is_kernel_past_n4(self, n):
        """The identity for every class b with a, d in {1, 2} and
        gcd(m0, d) = 1: 78 cells over n = 5..8."""
        for a, b, d in itertools.product((1, 2), range(1, n + 1), (1, 2)):
            m0 = a * n + b
            if math.gcd(m0, d) == 1:
                seq = validate_sequence(m0, d, n)
                both = all_minors2(seq.matrix_a()) + all_minors2(seq.matrix_b())
                assert ideal_equal(both, toric_ideal(seq)), (m0, d, n)

    def test_b1_pair_minors_inside_power_minors(self):
        # when b = 1 the power matrix contains every consecutive pair
        seq = validate_sequence(5, 1, 4)
        assert ideal_contains(
            all_minors2(seq.matrix_b()), all_minors2(seq.matrix_a())
        )

    def test_other_power_minors_already_in_pair_ideal(self):
        # 2x2 minors of the power matrix avoiding its first column lie in the
        # ideal of the consecutive-pair minors
        for m0, d, n in [(5, 1, 4), (6, 1, 4), (8, 1, 4), (7, 1, 3)]:
            seq = validate_sequence(m0, d, n)
            B = seq.matrix_b()
            rest = [
                B.minor2(c1, c2)
                for c1 in range(1, B.cols)
                for c2 in range(c1 + 1, B.cols)
            ]
            assert ideal_contains(all_minors2(seq.matrix_a()), rest)


class TestColon:
    def test_colon_by_power_binomial_fixes_pair_ideal(self):
        for m0, d, n in [(8, 1, 4), (6, 1, 3)]:
            seq = validate_sequence(m0, d, n)
            minors = all_minors2(seq.matrix_a())
            psi = seq.generators().powers[0]
            assert colon_check(minors, psi)

    @pytest.mark.parametrize("m0,d,n,count,digest", [
        (8, 1, 4, 17, "a277ea32d149c98e380ee564afddcf18619aff4189dc07bd80a9adbde30826b5"),
        (7, 2, 4, 19, "0ab3a70afd7056c2478df47225f7918c52dd47d54b264157781e18aa535c5444"),
        (11, 1, 5, 45, "98f2ecb1c6f80faa7765074300576906da2f59a1f48f8509abb901a8b69a48ce"),
    ])
    def test_colon_by_x0_pinned(self, m0, d, n, count, digest):
        """The generators of (I : X0) for the curve's generators, order and
        coefficients included, as recorded before the colon ideal came to
        read them off the flat syzygies of `syzygies_and_basis`."""
        gens = list(validate_sequence(m0, d, n).generators().all)
        quotient = [str(p) for p in colon_ideal(gens, gens[0].ring.var(0))]
        assert len(quotient) == count
        assert hashlib.sha256(repr(quotient).encode()).hexdigest() == digest

    @pytest.mark.parametrize("m0,d,n,count,digest", [
        (8, 1, 4, 6, "483bed2f5eb4e100d86c7892640f87c5123efbd7c8f9ff193682ceb440921a6d"),
        (7, 2, 4, 6, "483bed2f5eb4e100d86c7892640f87c5123efbd7c8f9ff193682ceb440921a6d"),
        (11, 1, 5, 10, "3e19475ae5cbd2f216705565f4fa6bfbd8e398e08e98245984b24aa43a3cc5cf"),
    ])
    def test_colon_of_pair_minors_pinned(self, m0, d, n, count, digest):
        """The generators of the pair minors' ideal quotient by the first
        power binomial, pinned as above; at n = 4 both sequences print the
        same list."""
        seq = validate_sequence(m0, d, n)
        quotient = [str(p) for p in colon_ideal(all_minors2(seq.matrix_a()),
                                                seq.generators().powers[0])]
        assert len(quotient) == count
        assert hashlib.sha256(repr(quotient).encode()).hexdigest() == digest

    def test_colon_detects_growth(self):
        R = curve_ring((1, 1))
        x0, x1 = R.var(0), R.var(1)
        assert not colon_check([x0 * x1], x0)
        quotient = colon_ideal([x0 * x1], x0)
        assert ideal_equal(quotient, [x1])

    def test_colon_undefined_for_member(self):
        R = curve_ring((1, 1))
        x0 = R.var(0)
        with pytest.raises(ValueError):
            colon_check([x0], x0 ** 2)

    def test_member_multiplier_raises_before_the_colon_run(self):
        """f in I is found before the colon's syzygy run, which is not
        made: x0^2, which the generator x0 reduces to zero, with no run,
        and y^3, which [x^2 - y^2, x*y] leave nonzero, with the membership
        run alone."""
        R = curve_ring((1, 1))
        x0, x1 = R.var(0), R.var(1)
        for gens, f, runs in [([x0], x0 ** 2, 0),
                              ([x0 * x0 - x1 * x1, x0 * x1], x1 ** 3, 1)]:
            limits = KeepMeters()
            with pytest.raises(ValueError):
                colon_check(gens, f, limits=limits)
            assert len(limits.meters) == runs

    def test_prime_ideal_colon_family(self):
        # for a prime ideal, (P : f) = P for any f outside P
        seq = validate_sequence(8, 1, 4)
        minors = all_minors2(seq.matrix_a())
        R = seq.ring()
        for f in [R.var(1), R.var(0) * R.var(4), R.var(2) ** 2 + R.var(1) * R.var(3)]:
            assert colon_check(minors, f)

    def test_kernel_ideal_colon_family(self):
        seq = validate_sequence(5, 1, 4)
        gens = list(seq.generators().all)
        R = seq.ring()
        for f in [R.var(0), R.var(3) ** 2, R.var(0) * R.var(2) + R.var(1) ** 2]:
            assert colon_check(gens, f)


class TestMinimalGenerators:
    def test_redundant_member_dropped(self):
        R = curve_ring((1, 1))
        x0, x1 = R.var(0), R.var(1)
        kept = minimal_generators([x0, x1, x0 * x1, x0 ** 3])
        assert sorted(str(p) for p in kept) == ["X0", "X1"]

    def test_curve_generators_already_minimal(self):
        for m0, d, n in [(5, 1, 4), (8, 1, 4), (6, 1, 4)]:
            seq = validate_sequence(m0, d, n)
            gens = list(seq.generators().all)
            assert len(minimal_generators(gens)) == len(gens)


class KeepMeters(Limits):
    """Default limits that keep the meter of every engine run they start."""

    def __init__(self, **caps):
        super().__init__(**caps)
        self.meters = []

    def start(self):
        meter = super().start()
        self.meters.append(meter)
        return meter


EXACT = {"exactness": {"pass": True, "witness": []}}


def failed(witness):
    """The exactness entry of a check whose first failure is `witness`."""
    return {"exactness": {"pass": False, "witness": [witness]}}


class TestMinimalResolution:
    @pytest.mark.parametrize("m0,d,n,field,spairs", [
        (7, 2, 4, QQ, [15, 36, 5, 0]),
        (11, 1, 5, PrimeField(32003), [40, 125, 90, 15, 1]),
        (5, 1, 4, PrimeField(32003), [20, 35, 17, 1]),
    ])
    def test_spairs_per_engine_run_pinned(self, m0, d, n, field, spairs):
        """S-pairs reduced by each engine run of the resolution, one run per
        step in order, as recorded when pruning and the syzygies came to
        share that run.  A change that reorders pruning or syzygy pairs
        shows here even when the output does not."""
        limits = KeepMeters()
        minimal_resolution(list(validate_sequence(m0, d, n).generators(field).all),
                           limits=limits)
        assert [meter.spairs for meter in limits.meters] == spairs

    @pytest.mark.parametrize("m0,d,n,field", [
        (4, 1, 2, QQ), (8, 1, 3, QQ), (7, 2, 4, QQ), (11, 1, 5, PrimeField(32003)),
    ])
    def test_one_engine_run_per_step(self, m0, d, n, field):
        """Each step prunes its candidates and takes the syzygies of the kept
        ones in one run, so the meters started equal the differentials."""
        limits = KeepMeters()
        C = minimal_resolution(list(validate_sequence(m0, d, n).generators(field).all),
                               limits=limits)
        assert len(limits.meters) == C.length == n

    def test_step_pruning_reduces_the_coprime_pair(self):
        """A step's pruning runs in the step's syzygy run: the pair of x0
        and x1, coprime, is reduced, and x0*x1 is dropped as a member."""
        ring = curve_ring((1, 1, 1))
        x0, x1, x2 = (ring.var(i) for i in range(3))
        vectors = [(x0,), (x1,), (x0 * x1,), (x2 * x2,)]
        limits = KeepMeters()
        engine = _Engine(ring, 1, want_syzygies=True, limits=limits, shifts=(0,))
        kept = minimal_module_generators(vectors, engine)
        assert [v for _, v in kept] == [(x1,), (x0,), (x2 * x2,)]
        assert [meter.spairs for meter in limits.meters] == [1]

    def test_codim3_gorenstein_shape(self):
        seq = validate_sequence(8, 1, 3)
        C = minimal_resolution(list(seq.generators().all))
        assert C.betti() == (1, 5, 5, 1)
        assert all(c["pass"] for c in verify_complex(C).values())

    @pytest.mark.parametrize("m0,d,n", [(5, 1, 4), (6, 1, 4), (7, 1, 4), (8, 1, 4)])
    def test_minimal_without_unit_entries(self, m0, d, n):
        seq = validate_sequence(m0, d, n)
        C = minimal_resolution(list(seq.generators(PrimeField(32003)).all))
        assert verify_complex(C)["minimal"]["pass"]
        for s in range(1, C.length + 1):
            assert not any(e.is_constant() and not e.is_zero()
                           for e in C.differential(s).nonzero.values())

    def test_b1_agrees_with_construction(self):
        seq = validate_sequence(5, 1, 4)
        C = minimal_resolution(list(seq.generators().all))
        assert C.betti() == betti_b1(4)
        assert BettiTable.from_complex(C).same_shifts(shift_table_b1(seq))

    def test_bn_agrees_with_construction(self):
        seq = validate_sequence(6, 1, 3)
        C = minimal_resolution(list(seq.generators().all))
        assert C.betti() == betti_bn(3)
        assert BettiTable.from_complex(C).same_shifts(shift_table_bn(seq))

    def test_gor4_table(self):
        seq = validate_sequence(6, 1, 4)
        C = minimal_resolution(list(seq.generators().all))
        assert BettiTable.from_complex(C).same_shifts(
            shifts_gor4(seq.a, seq.d)
        )

    def test_length_equals_codimension(self):
        for m0, d, n in [(5, 1, 4), (8, 1, 4), (6, 1, 4), (7, 1, 3), (4, 1, 2)]:
            seq = validate_sequence(m0, d, n)
            C = minimal_resolution(list(seq.generators().all))
            assert C.length == n

    def test_resolution_of_non_minimal_input(self):
        # redundant generators must not change the Betti numbers
        seq = validate_sequence(7, 1, 3)
        gens = list(seq.generators().all)
        R = seq.ring()
        padded = gens + [gens[0] * R.var(2), gens[1] * R.var(0)]
        C = minimal_resolution(padded)
        assert C.betti() == betti_b1(3)

    def test_field_invariance(self):
        seq = validate_sequence(6, 1, 4)
        over_q = minimal_resolution(list(seq.generators().all))
        over_p = minimal_resolution(list(seq.generators(PrimeField(32003)).all))
        assert BettiTable.from_complex(over_q).same_shifts(
            BettiTable.from_complex(over_p)
        )

    def test_n3_grid_betti_by_residue_class(self):
        """Full oracle grid at n = 3: vectors depend only on the class b."""
        import math

        expected = {1: (1, 6, 8, 3), 2: (1, 5, 5, 1), 3: (1, 4, 5, 2)}
        field = PrimeField(32003)
        for b in (1, 2, 3):
            for a in (1, 2):
                for d in (1, 2, 3):
                    m0 = 3 * a + b
                    if math.gcd(m0, d) != 1:
                        continue
                    seq = validate_sequence(m0, d, 3)
                    C = minimal_resolution(list(seq.generators(field).all))
                    assert C.betti() == expected[b], (m0, d)

    def test_n2_shapes(self):
        field = PrimeField(32003)
        for m0, d, expected in [(3, 1, (1, 3, 2)), (5, 2, (1, 3, 2)),
                                (4, 1, (1, 2, 1)), (6, 1, (1, 2, 1))]:
            seq = validate_sequence(m0, d, 2)
            C = minimal_resolution(list(seq.generators(field).all))
            assert C.betti() == expected

    def test_exactness_of_own_output(self):
        seq = validate_sequence(8, 1, 3)
        gens = list(seq.generators().all)
        C = minimal_resolution(gens)
        assert verify_exactness(C, gens) == EXACT

    @pytest.mark.parametrize("m0,d,n", [(7, 1, 4), (7, 2, 4), (11, 1, 4), (8, 1, 5)])
    def test_exactness_where_no_construction_exists(self, m0, d, n):
        """b = 3: no construction or closed form, so only these checks tie the
        oracle's complex to the curve ideal."""
        seq = validate_sequence(m0, d, n)
        gens = list(seq.generators(PrimeField(32003)).all)
        C = minimal_resolution(gens)
        assert verify_complex(C)["minimal"]["pass"]
        assert verify_exactness(C, gens) == EXACT

    def test_n5_grid_betti_by_residue_class(self):
        """The uniformity check one n higher: a, d in {1, 2} gives at least
        two valid cells in every class b."""
        import math

        field = PrimeField(32003)
        found = {}
        for b in range(1, 6):
            for a in (1, 2):
                for d in (1, 2):
                    m0 = 5 * a + b
                    if math.gcd(m0, d) != 1:
                        continue
                    seq = validate_sequence(m0, d, 5)
                    C = minimal_resolution(list(seq.generators(field).all))
                    found.setdefault(b, []).append(C.betti())
        assert sorted(found) == [1, 2, 3, 4, 5]
        for b, vectors in found.items():
            assert len(vectors) >= 2 and len(set(vectors)) == 1, (b, vectors)
        betti = {b: vectors[0] for b, vectors in found.items()}
        assert betti[1] == betti_b1(5) == (1, 15, 40, 45, 24, 5)
        assert betti[5] == betti_bn(5) == (1, 11, 30, 35, 19, 4)
        assert betti[2] == betti[2][::-1] == (1, 14, 35, 35, 14, 1)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_n6_cell(self, b):
        """The n = 6 cells with a = 1, d = 1: b = 1 and b = n against the
        closed forms, the classes between against the n = 6 scan's vectors,
        recorded before syzygy runs took up the pair criteria."""
        middle = {2: (1, 20, 64, 90, 64, 20, 1), 3: (1, 19, 58, 75, 44, 11, 2),
                  4: (1, 18, 52, 60, 39, 17, 3), 5: (1, 17, 46, 65, 54, 23, 4)}
        seq = validate_sequence(6 + b, 1, 6)
        C = minimal_resolution(list(seq.generators(PrimeField(32003)).all))
        table = BettiTable.from_complex(C)
        if b == 1:
            assert C.betti() == betti_b1(6)
            assert table.same_shifts(shift_table_b1(seq))
        elif b == 6:
            assert C.betti() == betti_bn(6)
            assert table.same_shifts(shift_table_bn(seq))
        else:
            assert C.betti() == middle[b]

    def test_n6_syzygy_runs_fit_500_spairs(self):
        """Every engine run of 13 1 6 reduces at most 280 S-pairs (449
        before pruning and syzygies shared a run); its largest syzygy run
        reduced 1,876 without the pair criteria."""
        seq = validate_sequence(13, 1, 6)
        C = minimal_resolution(list(seq.generators(PrimeField(32003)).all),
                               limits=Limits(max_spairs=500))
        assert C.betti() == betti_b1(6)

    def test_rejects_inhomogeneous(self):
        R = curve_ring((5, 6, 7))
        with pytest.raises(ValueError):
            minimal_resolution([R.var(0) + R.var(1)])

    def test_rejects_unit_ideal(self):
        R = curve_ring((5, 6, 7))
        with pytest.raises(ValueError):
            minimal_resolution([R.one])


def _grid(n, field):
    """The test grid's valid cells at n: every class b, a in {1, 2},
    d in {1, 2, 3}, gcd(m0, d) = 1, as generator lists over `field`."""
    return [list(validate_sequence(a * n + b, d, n).generators(field).all)
            for b in range(1, n + 1) for a in (1, 2) for d in (1, 2, 3)
            if math.gcd(a * n + b, d) == 1]


GF2 = PrimeField(2)
FP = PrimeField(32003)


FIELDS = {"QQ": QQ, "GF(2)": GF2, "GF(3)": PrimeField(3), "fp:32003": FP}


def _monomials_of_degree(degree, weights):
    """Every exponent tuple of the given weighted degree."""
    if not weights:
        return [()] if degree == 0 else []
    return [(e,) + rest for e in range(degree // weights[0] + 1)
            for rest in _monomials_of_degree(degree - e * weights[0], weights[1:])]


@st.composite
def artinian_cases(draw):
    """(field name, weights, generators as {exponents: coefficient} maps):
    x0 and 2 to 4 more variables of weights 1 to 3; a pure power of each
    x_j, one of them left out in half the cases, so that A
    is infinite; and 1 to 3 homogeneous binomials or trinomials, whose
    terms may involve x0."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1)))
    missing = draw(st.sampled_from([None] * n + list(range(1, n + 1))))
    gens = [{tuple(p if k == j else 0 for k in range(n + 1)): 1}
            for j, p in enumerate(draw(st.lists(st.integers(1, 4), min_size=n,
                                                max_size=n)), 1)
            if j != missing]
    for _ in range(draw(st.integers(1, 3))):
        monomials = _monomials_of_degree(draw(st.integers(2, 6)), weights)
        if len(monomials) < 2:
            continue
        gens.append({m: draw(st.integers(-3, 3).filter(bool))
                     for m in draw(st.lists(st.sampled_from(monomials), min_size=2,
                                            max_size=3, unique=True))})
    return draw(st.sampled_from(sorted(FIELDS))), weights, gens


class TestArtinianGenerators:
    """The routes of `artinian_table`: the Morse-reduced Koszul kernel on
    A = R/(I, x0) when x0 is a nonzerodivisor and A is finite, the
    resolution over R otherwise."""

    @pytest.mark.parametrize("n,field", [(2, QQ), (2, FP), (2, GF2),
                                         (3, QQ), (3, FP), (3, GF2),
                                         (4, QQ), (4, FP), (4, GF2),
                                         (5, QQ), (5, FP), (5, GF2),
                                         (6, FP)],
                             ids=["2-QQ", "2-fp", "2-GF2", "3-QQ", "3-fp", "3-GF2",
                                  "4-QQ", "4-fp", "4-GF2", "5-QQ", "5-fp", "5-GF2",
                                  "6-fp"])
    def test_reduced_tables_equal_full_ring_tables(self, n, field):
        """On every cell of the grid, x0 is a nonzerodivisor and A is
        finite, so `artinian_table` reads the Koszul homology of A off the
        one basis run that decides it, past 2^n standard monomials too
        (m0 = 5 and 6 at n = 2, m0 = 9 at n = 3), and gives the full
        ring's graded Betti table."""
        for gens in _grid(n, field):
            full = BettiTable.from_complex(minimal_resolution(gens))
            limits = KeepMeters()
            assert artinian_table(gens, limits) == full, gens[0].ring.weights
            assert len(limits.meters) == 1

    @pytest.mark.parametrize("a", [3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_large_quotients_are_resolved(self, a, d):
        """At n = 4 every a = 3..5 cell, dim A = m0 up to 24, is read from
        one basis run, whatever dim A is against 2^n = 16, and gives the
        full ring's table."""
        for b in range(1, 5):
            if math.gcd(4 * a + b, d) != 1:
                continue
            gens = list(validate_sequence(4 * a + b, d, 4).generators(FP).all)
            limits = KeepMeters()
            table = artinian_table(gens, limits)
            assert table == BettiTable.from_complex(minimal_resolution(gens))
            assert len(limits.meters) == 1, (a, b, d)

    @settings(max_examples=150, deadline=None)
    @given(artinian_cases())
    # x2^2 leads x1^2 - x1*x2 - x2^2 under the reverse-lex order, so the
    # product x2 * x2 that a row needs has the normal form x1^2 - x1*x2
    @example(("QQ", (1, 1, 1), [{(0, 3, 0): 1}, {(0, 0, 3): 1},
                                {(0, 2, 0): 1, (0, 1, 1): -1, (0, 0, 2): -1}]))
    def test_table_equals_the_full_ring_resolution(self, case):
        """On random homogeneous ideals, finite A or not, x0 a
        nonzerodivisor or not, the table is that of the resolution over
        R; an example that hits the small caps is skipped."""
        name, weights, terms = case
        ring = curve_ring(weights, FIELDS[name])
        gens = [ring.from_dict(t) for t in terms]
        limits = Limits(max_spairs=400, max_basis=400, max_support=300)
        try:
            table = artinian_table(gens, limits)
            want = BettiTable.from_complex(minimal_resolution(gens, limits))
        except ResourceLimitExceeded:
            assume(False)
        assert table == want

    def test_quotient_past_max_basis_is_not_walked(self):
        """At 65 1 4, A has 65 standard monomials and 4 feet; under
        `max_basis` 20 the kernel takes it all the same, as it never walks
        A, and gives the full ring's table from one basis run."""
        gens = list(validate_sequence(65, 1, 4).generators(FP).all)
        limits = KeepMeters(max_basis=20)
        assert artinian_table(gens, limits) == BettiTable.from_complex(
            minimal_resolution(gens))
        assert len(limits.meters) == 1

    def test_foot_walk_holds_at_most_max_basis_feet(self):
        """Modulo (x1^3, x2^3, x3), A has 9 standard monomials free of x3,
        all feet: `max_basis` 9 lets the walk through, and 8 stops it,
        naming the Koszul phase, after a basis run of 3 elements."""
        R = curve_ring((1, 1, 1, 1))
        x1, x2, x3 = R.var(1), R.var(2), R.var(3)
        gens = [x1 ** 3, x2 ** 3, x3]
        full = BettiTable.from_complex(minimal_resolution(gens))
        assert artinian_table(gens, Limits(max_basis=9)) == full
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^Koszul homology: the standard monomials free of x_3 "
                                 r"exceed the basis size cap 8$"):
            artinian_table(gens, Limits(max_basis=8))

    def test_non_curve_inputs_take_the_resolution(self):
        """Where x0 lies in I, divides zero modulo I or a generator is
        inhomogeneous, or where A is not finite or I is zero,
        `artinian_table` gives the table of the resolution over R, or
        raises what that raises."""
        R = curve_ring((1, 1))
        x0, x1 = R.var(0), R.var(1)
        S = curve_ring((1, 2, 3))
        y0, y1, y2 = S.var(0), S.var(1), S.var(2)
        for gens in ([x0 * x1], [x0, x1 * x1], [x0 * x0 + x1], [R.one, x1],
                     [y0 * y1], [y0, y1 * y1], [y0 * y2 - y1 * y1, y0 * y1],
                     [y1 * y1, y0 * y1 * y1],  # A = k[x1, x2]/(x1^2)
                     [R.zero], [curve_ring((2,)).zero]):  # the zero ideal
            try:
                want = BettiTable.from_complex(minimal_resolution(gens))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    artinian_table(gens)
            else:
                assert artinian_table(gens) == want, gens

    def test_koszul_blocks_are_capped(self):
        """Each Morse block's size is compared with `max_basis` before it
        is built.  Modulo (x1^2, x2^2, x3^2, x1*x2*x3), with every weight 1,
        A has the feet 1, x1, x2, x1*x2 and the heads x3, x1*x3, x2*x3,
        x1*x2; the largest blocks, as step 1 in degree 2, have 5 critical
        cells, and the basis run stores fewer."""
        R = curve_ring((1, 1, 1, 1))
        x1, x2, x3 = R.var(1), R.var(2), R.var(3)
        gens = [x1 * x1, x2 * x2, x3 * x3, x1 * x2 * x3]
        full = BettiTable.from_complex(minimal_resolution(gens))
        assert artinian_table(gens, Limits(max_basis=5)) == full
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^Koszul homology: 5 elements of step 1 in degree 2 "
                                 r"exceed the basis size cap 4$"):
            artinian_table(gens, Limits(max_basis=4))

    def test_koszul_deadline_is_read_between_blocks(self, monkeypatch):
        """The kernel reads its clock when it starts and before each block:
        with a clock that moves 10 s a reading, a deadline of 15 s lets the
        first block through and stops the second, naming the phase, after
        a basis run that the deadline did not stop."""
        clock = itertools.count(0, 10)
        monkeypatch.setattr(arithcurve.oracle, "time",
                            types.SimpleNamespace(monotonic=lambda: next(clock)))
        gens = list(validate_sequence(7, 1, 4).generators(FP).all)
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^Koszul homology: deadline of 15s exceeded$"):
            artinian_table(gens, Limits(deadline_s=15))
        assert next(clock) == 30

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "fp"])
    def test_decision_equals_the_colon_check(self, n, field):
        """On every cell of the grid the reverse-lex lead test finds x0 a
        nonzerodivisor exactly when `colon_check` does, by one engine run
        under the caller's limits."""
        for gens in _grid(n, field):
            ring = gens[0].ring
            limits = KeepMeters()
            found = arithcurve.oracle._x0_regular_basis(gens, limits)
            assert len(limits.meters) == 1
            assert (found is not None) == colon_check(gens, ring.var(0)), ring.weights

    def test_redundant_lead_divisible_by_x0_still_reduces(self):
        """(x1^2, x0*x1^2) = (x1^2), modulo which x0 is a nonzerodivisor;
        the unreduced basis keeps the lead x0*x1^2, whose quotient x1^2 by
        x0 is a lead, so no minimal lead involves x0."""
        R = curve_ring((1, 2, 3))
        x0, x1 = R.var(0), R.var(1)
        gens = [x1 * x1, x0 * x1 * x1]
        assert colon_check(gens, x0)
        revlex, gb = arithcurve.oracle._x0_regular_basis(gens, Limits())
        assert (revlex.weights, revlex.field) == (R.weights, R.field)
        assert [revlex.decode(v[0][0]) for v in gb] == [(0, 2, 0), (1, 2, 0)]

    def test_zero_divisor_leaves_the_generators(self):
        """x0 divides zero modulo (x0*x1) and modulo (x0*x2 - x1^2, x0*x1),
        where x1^2 leads the first generator under either order, and lies
        in (x0, x1^2): the lead test rejects each, to be resolved over R.
        So it does x0^2 + x1, which is not homogeneous, although x0 is a
        nonzerodivisor modulo it."""
        R = curve_ring((1, 1))
        x0, x1 = R.var(0), R.var(1)
        for gens in ([x0 * x1], [x0, x1 * x1], [x0 * x0 + x1]):
            assert arithcurve.oracle._x0_regular_basis(gens, Limits()) is None
        R = curve_ring((1, 2, 3))
        x0, x1, x2 = R.var(0), R.var(1), R.var(2)
        for gens in ([x0 * x1], [x0, x1 * x1], [x0 * x2 - x1 * x1, x0 * x1]):
            assert arithcurve.oracle._x0_regular_basis(gens, Limits()) is None

    def test_unit_ideal_leaves_the_generators(self):
        """x0 lies in the unit ideal: its basis leads with 1."""
        R = curve_ring((1, 2))
        gens = [R.one, R.var(1)]
        assert arithcurve.oracle._x0_regular_basis(gens, Limits()) is None


class TestVerifyExactness:
    def test_constructed_b1_resolution_exact(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        assert verify_exactness(C, list(seq.generators().all)) == EXACT

    def test_constructed_bn_resolution_exact(self):
        seq = validate_sequence(8, 1, 4)
        C = resolution_bn(seq)
        assert verify_exactness(C, list(seq.generators().all)) == EXACT

    def test_truncated_complex_fails_at_cut(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        truncated = GradedComplex(C.steps[:-1], C.maps[:-1])
        rep = verify_exactness(truncated, list(seq.generators().all))
        assert rep == failed(f"exactness at step {truncated.length}")

    def test_dropped_column_fails_at_middle_step(self):
        """Without one column of d_2 (its shift and the matching row of
        d_3 go too), the image of d_2 misses a syzygy of d_1, and d_2 * d_3
        is no longer zero, so the loop on F decides alone.  It stops there:
        after d_1's run only d_2's run is made, not those of d_3 and d_4;
        every entry of d_1 is a generator up to a scalar, so the
        generators' basis is not run."""
        seq = validate_sequence(5, 1, 4)
        cut = _drop_column(resolution_b1(seq), 2, 0)
        limits = KeepMeters()
        rep = verify_exactness(cut, list(seq.generators().all), limits=limits)
        assert rep == failed("exactness at step 1")
        assert len(limits.meters) == 2

    @pytest.mark.parametrize("m0,build,spairs", [
        (5, resolution_b1, [20, 19, 6, 0]),
        (8, resolution_bn, [14, 12, 4, 0]),
    ])
    def test_spairs_per_engine_run_pinned(self, m0, build, spairs):
        """S-pairs reduced by each engine run of the check, in order: the
        syzygies and image basis of d_1 modulo x_4, then one run per later
        differential modulo x_4; on F the runs reduced [20, 39, 19, 3] and
        [14, 18, 13, 2].  A second basis of d_1's entries (20 and 8
        S-pairs) no longer runs first, nor does the Groebner basis of the
        generators: every entry of d_1 is a generator up to a scalar, so
        `ideal_contains` needs no run either way (completed up to the
        largest degree of d_1's entries it reduced 0 pairs, and run to the
        end 20 and 8)."""
        seq = validate_sequence(m0, 1, 4)
        limits = KeepMeters()
        assert verify_exactness(build(seq), list(seq.generators().all),
                                limits=limits) == EXACT
        assert [meter.spairs for meter in limits.meters] == spairs

    @pytest.mark.parametrize("change", ["add X0", "drop one"])
    def test_each_inclusion_of_the_first_image_checked(self, change):
        """gens less one misses a generator of the image of d_1, which
        `ideal_contains` decides first, with one run; gens + X0 escapes
        only the image of d_1, which the second `ideal_contains` decides
        with one basis run of d_1's entries, after a first that needs no
        run.  No syzygy run of any differential follows."""
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        gens = list(seq.generators().all)
        gens = gens + [seq.ring().var(0)] if change == "add X0" else gens[1:]
        image = list(C.differential(1).nonzero.values())
        assert ideal_contains(image, gens) is (change == "drop one")
        assert ideal_contains(gens, image) is (change == "add X0")
        limits = KeepMeters()
        rep = verify_exactness(C, gens, limits=limits)
        assert rep == failed("image of the first differential")
        assert len(limits.meters) == 1

    def test_failure_returns_before_a_cap_applies(self):
        """gens + X0 fails at the image of d_1, decided by one basis run of
        d_1's entries that reduces 20 S-pairs under a 30-pair cap; the
        check returns there and makes no syzygy run.  (On F, d_2's run
        reduces 39 S-pairs, past the cap; modulo x_4 it reduces 19.)"""
        seq = validate_sequence(5, 1, 4)
        gens = list(seq.generators().all) + [seq.ring().var(0)]
        limits = KeepMeters(max_spairs=30)
        rep = verify_exactness(resolution_b1(seq), gens, limits=limits)
        assert rep == failed("image of the first differential")
        assert [meter.spairs for meter in limits.meters] == [20]

    def test_wrong_ideal_detected(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        wrong = [seq.ring().var(0)]
        assert verify_exactness(C, wrong) == failed("image of the first differential")

    def test_section_certifies_an_exact_complex(self, monkeypatch):
        """On a graded complex whose section modulo x_4 is exact, the loop
        on F/x_4F decides alone: one syzygy run per differential, and no
        run of the loop on F."""
        seq = validate_sequence(5, 1, 4)
        C, gens = resolution_b1(seq), list(seq.generators().all)
        assert arithcurve.oracle._first_inexact_step(C, Limits(), modulo_last=True) is None
        rep, starts = meters_started(monkeypatch, lambda: verify_exactness(C, gens))
        assert rep == EXACT
        assert starts == C.length

    def test_full_loop_decides_where_the_section_fails(self, monkeypatch):
        """0 -> R(-3) -> R with d_1 = [X0*X1] over k[X0, X1] resolves
        R/(X0*X1), but X1 divides zero there: modulo X1, d_1 is 0, whose
        kernel is the whole of step 1, so the section fails at step 1 and
        the loop on F decides.  One run on d_1 modulo X1, then one on d_1."""
        R = curve_ring((1, 2))
        x0x1 = R.var(0) * R.var(1)
        C = GradedComplex([(0,), (3,)], [PolyMatrix(R, 1, 1, {(0, 0): x0x1})])
        assert arithcurve.oracle._first_inexact_step(C, Limits(), modulo_last=True) == 1
        rep, starts = meters_started(monkeypatch, lambda: verify_exactness(C, [x0x1]))
        assert rep == EXACT
        assert starts == 2

    def test_inhomogeneous_complex_skips_the_section(self, monkeypatch):
        """The Koszul complex of a = (1 + x2)*x0 and b = (1 + x2)*x1 is a
        complex, but its entries are not homogeneous: modulo x2 it is the
        Koszul complex of x0, x1, which is exact, while on F the syzygy
        (x1, -x0) of d_1 is not (1 + x2) times anything.  So the loop on F
        alone decides, with the runs on d_1 and d_2."""
        R = curve_ring((1, 1, 1))
        x0, x1, x2 = (R.var(i) for i in range(3))
        a, b = (R.one + x2) * x0, (R.one + x2) * x1
        C = GradedComplex([(0,), (2, 2), (4,)],
                          [PolyMatrix(R, 1, 2, {(0, 0): a, (0, 1): b}),
                           PolyMatrix(R, 2, 1, {(0, 0): b, (1, 0): -a})])
        assert not C._nonzero_product() and C._off_degree() == (1, 0, 0)
        assert arithcurve.oracle._first_inexact_step(C, Limits(), modulo_last=True) is None
        rep, starts = meters_started(monkeypatch, lambda: verify_exactness(C, [a, b]))
        assert rep == failed("exactness at step 1")
        assert starts == 2

    def test_non_complex_skips_the_section(self, monkeypatch):
        """Twice one entry of d_3 of the b = 1 complex of 5 1 4 makes
        d_2 * d_3 nonzero: the loop on F alone decides, failing at step 2
        after the runs on d_1, d_2 and d_3."""
        seq = validate_sequence(5, 1, 4)
        C = _scale_entry(resolution_b1(seq), 3, 0, 2)
        assert C._nonzero_product() == (3, 0, 0)
        rep, starts = meters_started(
            monkeypatch, lambda: verify_exactness(C, list(seq.generators().all)))
        assert rep == failed("exactness at step 2")
        assert starts == 3

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(5, resolution_b1), (8, resolution_bn)]), st.data())
    def test_verdict_is_the_loop_on_f(self, case, data):
        """A complex of 5 1 4 or 8 1 4 with one column of some d_s dropped,
        or one entry of some d_s scaled by 0, 2 or a variable, or left as
        it is: `verify_exactness` gives the verdict and witness of the loop
        on F, whichever route decides."""
        m0, build = case
        seq = validate_sequence(m0, 1, 4)
        C, gens = build(seq), list(seq.generators().all)
        s = data.draw(st.integers(1, C.length), label="s")
        change = data.draw(st.sampled_from(["none", "drop", "scale"]), label="change")
        if change == "drop":
            C = _drop_column(C, s, data.draw(st.integers(0, C.differential(s).cols - 1)))
        elif change == "scale":
            R = seq.ring()
            factor = data.draw(st.sampled_from([R.zero, R.one * 2, *map(R.var, range(5))]))
            C = _scale_entry(C, s, data.draw(st.integers(0, len(C.differential(s).nonzero) - 1)),
                             factor)
        assert verify_exactness(C, gens) == _loop_on_f(C, gens)


def _drop_column(C: GradedComplex, s: int, drop: int) -> GradedComplex:
    """C without column `drop` of d_s: its shift at step s goes, and so does
    row `drop` of d_{s+1}."""
    def skip(k):
        return k - (k > drop)

    maps, steps = list(C.maps), list(C.steps)
    d = maps[s - 1]
    maps[s - 1] = PolyMatrix(d.ring, d.rows, d.cols - 1,
                             {(i, skip(j)): e for (i, j), e in d.nonzero.items()
                              if j != drop})
    if s < C.length:
        d = maps[s]
        maps[s] = PolyMatrix(d.ring, d.rows - 1, d.cols,
                             {(skip(i), j): e for (i, j), e in d.nonzero.items()
                              if i != drop})
    steps[s] = steps[s][:drop] + steps[s][drop + 1:]
    return GradedComplex(steps, maps)


def _scale_entry(C: GradedComplex, s: int, k: int, factor) -> GradedComplex:
    """C with the k-th nonzero entry of d_s, row-major, times `factor`."""
    d = C.differential(s)
    entries = dict(d.nonzero)
    key = list(entries)[k]
    entries[key] = entries[key] * factor
    maps = list(C.maps)
    maps[s - 1] = PolyMatrix(d.ring, d.rows, d.cols,
                             {at: e for at, e in entries.items() if not e.is_zero()})
    return GradedComplex(C.steps, maps)


def _loop_on_f(C: GradedComplex, gens) -> dict:
    """The verdict of the exactness loop on F, after the image of d_1 is
    compared with the ideal of `gens`."""
    if not ideal_equal(gens, list(C.differential(1).nonzero.values())):
        return failed("image of the first differential")
    s = arithcurve.oracle._first_inexact_step(C, Limits())
    return EXACT if s is None else failed(f"exactness at step {s}")


def meters_started(monkeypatch, run):
    """(run(), the number of meters `Limits.start` handed out meanwhile),
    counted on the class, so that a meter of the default limits counts."""
    started = []
    start = Limits.start

    def counted(limits):
        started.append(start(limits))
        return started[-1]

    monkeypatch.setattr(Limits, "start", counted)
    try:
        return run(), len(started)
    finally:
        monkeypatch.undo()


class TestOneMeterPerRun:
    """A reduction against a finished basis grows no basis and reduces no
    S-pair, so it is no engine run and starts no meter: membership tests,
    normal forms and interreduction take none."""

    @pytest.mark.parametrize("m0,d,n", [
        (5, 1, 4), (7, 1, 4), (9, 2, 4), (13, 2, 4), (16, 3, 4),
    ])
    def test_toric_identity_is_one_run(self, monkeypatch, m0, d, n):
        """The elimination run of `toric_ideal`; its interreduction and both
        `ideal_contains` directions, which the generators decide, start
        none."""
        seq = validate_sequence(m0, d, n)
        gens = list(seq.generators().all)
        equal, starts = meters_started(
            monkeypatch, lambda: ideal_equal(toric_ideal(seq), gens))
        assert equal
        assert starts == 1

    @pytest.mark.parametrize("m0,d,n", [(5, 1, 4), (9, 2, 4)])
    def test_exactness_is_one_run_per_differential(self, monkeypatch, m0, d, n):
        """One syzygy run per differential, each modulo x_4; both
        inclusions of the first image and the reducer of each step's image
        basis start none."""
        seq = validate_sequence(m0, d, n)
        C, gens = resolution_b1(seq), list(seq.generators().all)
        rep, starts = meters_started(monkeypatch, lambda: verify_exactness(C, gens))
        assert rep == EXACT
        assert starts == C.length

    def test_a_reducer_holds_no_run_state(self, monkeypatch):
        ring = curve_ring((1, 1))
        basis = [ring.var(0).packed, (ring.var(1) ** 2).packed]
        reducer, starts = meters_started(monkeypatch,
                                         lambda: module_reducer(basis, ring))
        assert starts == 0
        assert not reducer.top_reduce((ring.var(0) * ring.var(1)).packed)
        for attr in ("meter", "pairs", "rank", "syzygies"):
            assert not hasattr(reducer, attr), attr
