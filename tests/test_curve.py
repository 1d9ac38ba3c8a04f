"""Sequence validation, semigroup membership, matrices, and the generator set."""

import itertools
import math

import pytest

from arithcurve import (
    QQ,
    FirstTermTooSmall,
    GcdNotOne,
    Limits,
    PrimeField,
    ResourceLimitExceeded,
    expected_generator_count,
    validate_sequence,
)


def _reachable(limit: int, parts: tuple[int, ...]) -> bytearray:
    """Table whose entry v is 1 iff v <= limit is a non-negative combination
    of `parts`: the O(limit * len(parts)) reference for membership."""
    reachable = bytearray(limit + 1)
    reachable[0] = 1
    for v in range(1, limit + 1):
        for p in parts:
            if p <= v and reachable[v - p]:
                reachable[v] = 1
                break
    return reachable


def _representable(target: int, parts: tuple[int, ...]) -> bool:
    """Exact reachability of `target` as a non-negative combination of `parts`."""
    return bool(_reachable(target, parts)[target])


class TestValidation:
    def test_basic_valid_sequence(self):
        seq = validate_sequence(5, 1, 4)
        assert (seq.a, seq.b) == (1, 1)
        assert seq.terms == (5, 6, 7, 8, 9)

    def test_gcd_failure(self):
        with pytest.raises(GcdNotOne, match="gcd"):
            validate_sequence(4, 2, 2)

    def test_first_term_too_small(self):
        # m0 = 3 <= n = 4 forces the quotient a to vanish
        with pytest.raises(FirstTermTooSmall):
            validate_sequence(3, 1, 4)

    def test_zero_difference_rejected_via_gcd(self):
        with pytest.raises(GcdNotOne):
            validate_sequence(5, 0, 3)

    def test_zero_difference_with_unit_first_term(self):
        with pytest.raises(FirstTermTooSmall):
            validate_sequence(1, 0, 3)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            validate_sequence(0, 1, 4)
        with pytest.raises(ValueError):
            validate_sequence(5, -1, 4)
        with pytest.raises(ValueError):
            validate_sequence(5, 1, 1)

    def test_b_equals_n_decomposition(self):
        seq = validate_sequence(8, 1, 4)
        assert (seq.a, seq.b) == (1, 4)

    def test_validation_grid(self):
        """Every cell with gcd 1 and m0 > n validates; m0 = a*n + b holds."""
        for n in range(2, 7):
            for a in range(1, 4):
                for b in range(1, n + 1):
                    for d in range(1, 5):
                        m0 = a * n + b
                        if math.gcd(m0, d) != 1:
                            with pytest.raises(GcdNotOne):
                                validate_sequence(m0, d, n)
                            continue
                        seq = validate_sequence(m0, d, n)
                        assert seq.a == a and seq.b == b

    def test_minimality_matches_representability(self):
        """Condition (iii) checked term by term agrees with m0 > n under gcd 1."""
        count = 0
        for n in range(2, 8):
            for m0 in range(1, 50):
                for d in range(30):
                    terms = tuple(m0 + i * d for i in range(n + 1))
                    if math.gcd(*terms) != 1:
                        continue
                    count += 1
                    minimal = not any(
                        _representable(t, terms[:j] + terms[j + 1 :])
                        for j, t in enumerate(terms)
                    )
                    if minimal:
                        validate_sequence(m0, d, n)
                    else:
                        with pytest.raises(FirstTermTooSmall):
                            validate_sequence(m0, d, n)
        assert count == 5412

    def test_huge_first_term_validates_quickly(self):
        assert validate_sequence(10**12 + 1, 1, 4).b == 1

    def test_gcd_message_of_a_long_sequence_is_short(self):
        """Up to 16 terms the message lists them all; a longer sequence is
        shown by its first two terms and its last, so a gcd failure at
        n = 10^8 builds none of its terms."""
        with pytest.raises(GcdNotOne) as err:
            validate_sequence(2, 2, 10**8)
        assert str(err.value) == "gcd(2, 4, ..., 200000002) = 2 != 1"
        with pytest.raises(GcdNotOne) as err:
            validate_sequence(2, 2, 15)
        assert str(err.value) == f"gcd{tuple(range(2, 33, 2))} = 2 != 1"
        with pytest.raises(GcdNotOne) as err:
            validate_sequence(2, 2, 16)
        assert str(err.value) == "gcd(2, 4, ..., 34) = 2 != 1"


class TestSemigroup:
    def test_zero_in_semigroup(self):
        assert validate_sequence(5, 1, 4).semigroup_contains(0)

    def test_sum_of_terms(self):
        seq = validate_sequence(5, 1, 4)
        assert seq.semigroup_contains(seq.terms[0] + seq.terms[3])

    def test_small_gaps(self):
        seq = validate_sequence(5, 1, 4)
        for x in (1, 2, 3, 4):
            assert not seq.semigroup_contains(x)

    def test_negative_not_member(self):
        assert not validate_sequence(5, 1, 4).semigroup_contains(-3)

    def test_membership_matches_reachability(self):
        """The closed form agrees with the DP on every x up to m0*(m0 + d)
        for n <= 6, m0 < 30, d <= 7.  The last m0 values of each table are
        members, so the range holds every gap."""
        count = gaps = 0
        for n in range(2, 7):
            for m0 in range(n + 1, 30):
                for d in range(1, 8):
                    if math.gcd(m0, d) != 1:
                        continue
                    seq = validate_sequence(m0, d, n)
                    table = _reachable(m0 * (m0 + d), seq.terms)
                    assert all(table[-m0:])
                    for x, member in enumerate(table):
                        assert seq.semigroup_contains(x) == bool(member), (seq, x)
                    count += len(table)
                    gaps += table.count(0)
        assert (count, gaps) == (242_415, 45_022)

    def test_huge_membership_answers_at_once(self):
        seq = validate_sequence(10**12 + 1, 3, 4)
        assert seq.semigroup_contains(10**30 + 7)
        assert seq.semigroup_contains(2 * seq.m0 + 3 * seq.d)
        assert not seq.semigroup_contains(2 * seq.m0 + 9 * seq.d)
        assert not seq.semigroup_contains(seq.m0 - 1)


class TestMatrices:
    def test_consecutive_matrix_columns(self):
        seq = validate_sequence(5, 1, 4)
        A = seq.matrix_a()
        R = A.ring
        assert (A.rows, A.cols) == (2, 4)
        for j in range(4):
            assert A.entry(0, j) == R.var(j)
            assert A.entry(1, j) == R.var(j + 1)

    def test_power_matrix_b1(self):
        seq = validate_sequence(5, 1, 4)
        B = seq.matrix_b()
        R = B.ring
        assert (B.rows, B.cols) == (2, 5)
        assert B.entry(0, 0) == R.var(4)
        assert B.entry(1, 0) == R.var(0) ** 2
        assert [B.entry(0, j) for j in range(1, 5)] == [R.var(j) for j in range(4)]
        assert [B.entry(1, j) for j in range(1, 5)] == [R.var(j) for j in range(1, 5)]

    def test_power_matrix_bn_principal(self):
        seq = validate_sequence(8, 1, 4)
        B = seq.matrix_b()
        R = B.ring
        assert (B.rows, B.cols) == (2, 2)
        # single minor generates the same ideal as X0^(a+d+1) - Xn^(a+1)
        minor = B.minor2(0, 1)
        assert minor == R.var(4) ** 2 - R.var(0) ** 3
        assert -minor == R.var(0) ** 3 - R.var(4) ** 2

    def test_power_matrix_gor4(self):
        seq = validate_sequence(6, 1, 4)
        B = seq.matrix_b()
        R = B.ring
        assert (B.rows, B.cols) == (2, 4)
        assert [B.entry(0, j) for j in range(4)] == [
            R.var(4), R.var(0), R.var(1), R.var(2)
        ]
        assert [B.entry(1, j) for j in range(4)] == [
            R.var(0) ** 2, R.var(2), R.var(3), R.var(4)
        ]

    def test_column_degree_step_is_d_for_consecutive_matrix(self):
        seq = validate_sequence(9, 2, 4)
        A = seq.matrix_a()
        for j in range(A.cols):
            assert (
                A.entry(1, j).weighted_degree() - A.entry(0, j).weighted_degree()
                == seq.d
            )


class TestGenerators:
    def test_count_514(self):
        seq = validate_sequence(5, 1, 4)
        g = seq.generators()
        assert len(g) == 10
        R = seq.ring()
        assert R.var(0) * R.var(2) - R.var(1) ** 2 in g.quadratics
        assert R.var(1) * R.var(4) - R.var(0) ** 3 in g.powers

    def test_count_bn(self):
        seq = validate_sequence(8, 1, 4)
        g = seq.generators()
        assert len(g) == 7
        R = seq.ring()
        assert g.powers == (R.var(4) ** 2 - R.var(0) ** 3,)

    def test_count_gor4(self):
        assert len(validate_sequence(6, 1, 4).generators()) == 9

    def test_count_past_the_basis_cap_raises_before_building(self, monkeypatch):
        """The count is compared with `max_basis` first: over it, no matrix
        is built; at it, the generators are."""
        seq = validate_sequence(8, 1, 4)
        assert len(seq.generators(limits=Limits(max_basis=7))) == 7

        def unreachable(*args):
            raise AssertionError("built past the cap")

        monkeypatch.setattr(type(seq), "matrix_b", unreachable)
        with pytest.raises(ResourceLimitExceeded, match=(
                "^generators: 7 minimal generators exceed the basis size cap 6$")):
            seq.generators(limits=Limits(max_basis=6))
        with pytest.raises(ResourceLimitExceeded, match="500500 minimal generators"):
            validate_sequence(1001, 1, 1000).generators()

    def test_count_formula_and_vanishing_on_grid(self):
        for n in range(2, 7):
            for a in range(1, 4):
                for b in range(1, n + 1):
                    for d in range(1, 5):
                        if math.gcd(a * n + b, d) != 1:
                            continue
                        seq = validate_sequence(a * n + b, d, n)
                        gens = seq.generators()
                        assert len(gens) == expected_generator_count(n, b)
                        for p in gens.all:
                            assert p.is_homogeneous
                            assert seq.vanishes(p)

    def test_degrees_match_formulas(self):
        seq = validate_sequence(5, 1, 4)
        g = seq.generators()
        quad_degrees = [
            2 * seq.m0 + (i + j + 1) * seq.d
            for i in range(seq.n)
            for j in range(i + 1, seq.n)
        ]
        power_degrees = [
            (seq.a + 1 + seq.d) * seq.m0 + (j - 2) * seq.d
            for j in range(2, seq.n + 3 - seq.b)
        ]
        assert [p.weighted_degree() for p in g.quadratics] == quad_degrees
        assert [p.weighted_degree() for p in g.powers] == power_degrees
        assert sorted(g.degrees()) == [12, 13, 14, 14, 15, 15, 16, 16, 17, 18]

    def test_generators_are_homogeneous_binomials_vanishing(self):
        for m0, d, n in [(5, 1, 4), (8, 1, 4), (6, 1, 4), (7, 1, 3), (13, 2, 5)]:
            seq = validate_sequence(m0, d, n)
            for p in seq.generators().all:
                assert len(p.terms) == 2
                assert p.is_homogeneous
                assert seq.vanishes(p)

    def test_generators_equal_matrix_minors(self):
        """Cross-check of the packed binomials against the independent minor
        route, term for term, on every valid (m0, d, n) with 2 <= n <= 7,
        n < m0 <= 4n + 2 and 0 <= d <= 4, over QQ, GF(7) and GF(32003);
        `power_binomial` builds each power alone."""
        cases = 0
        fields = (QQ, PrimeField(7), PrimeField(32003))
        for n in range(2, 8):
            grid = itertools.product(range(n + 1, 4 * n + 3), range(5), fields)
            for m0, d, field in grid:
                if math.gcd(m0, d) != 1:
                    continue
                seq = validate_sequence(m0, d, n)
                g = seq.generators(field)
                A, B = seq.matrix_a(field), seq.matrix_b(field)
                expected_quads = [
                    A.minor2(i, j) for i in range(n) for j in range(i + 1, n)
                ]
                expected_powers = [B.minor2(0, j) for j in range(1, B.cols)]
                assert [p.packed for p in g.quadratics] == [p.packed for p in expected_quads]
                assert [p.packed for p in g.powers] == [p.packed for p in expected_powers]
                assert all(p.ring is A.ring for p in g.all)
                assert [seq.power_binomial(j, field) for j in range(2, n + 3 - seq.b)] == list(g.powers)
                cases += 1
        assert cases == 3 * 245

    def test_power_binomial_index_range(self):
        seq = validate_sequence(6, 1, 4)  # b = 2: p[2] .. p[4]
        assert seq.power_binomial(4) == seq.generators().powers[-1]
        for j in (1, 5):
            with pytest.raises(IndexError):
                seq.power_binomial(j)

    def test_stable_labels(self):
        seq = validate_sequence(5, 1, 4)
        labels = seq.generators().labels()
        assert labels[0] == "q[0,1]"
        assert labels[-1] == "p[5]"
        assert len(labels) == 10


class TestPhi:
    def test_vanishing_binomial(self):
        seq = validate_sequence(5, 1, 4)
        R = seq.ring()
        assert seq.phi_image(R.var(0) * R.var(2) - R.var(1) ** 2) == {}

    def test_single_variable_image(self):
        seq = validate_sequence(5, 1, 4)
        img = seq.phi_image(seq.ring().var(0))
        assert img == {5: QQ_one()}

    def test_non_member_polynomial(self):
        seq = validate_sequence(5, 1, 4)
        R = seq.ring()
        img = seq.phi_image(R.var(0) + R.var(1))
        assert set(img) == {5, 6}


def QQ_one():
    from arithcurve.ring import QQ

    return QQ.of(1)
