"""Minor complexes, mapping cones, and the three complex verifiers."""

from math import comb

import pytest

from arithcurve import (
    GradedComplex,
    InhomogeneousColumns,
    InhomogeneousMultiplier,
    NonMonomialEntry,
    PolyMatrix,
    WrongCase,
    mapping_cone,
    minor_complex,
    resolution_b1,
    resolution_bn,
    validate_sequence,
    verify_complex,
)
from arithcurve.ring import curve_ring


def consecutive_matrix(m):
    """2 x m matrix of consecutive variable pairs over weights 1..m+1."""
    R = curve_ring(tuple(range(1, m + 2)))
    return PolyMatrix.from_rows(
        R, [[R.var(j) for j in range(m)], [R.var(j + 1) for j in range(m)]]
    )


def edited(d, changes):
    """The differential d with the entries at the keys of `changes` replaced."""
    return PolyMatrix(d.ring, d.rows, d.cols, {**d.nonzero, **changes})


class TestMinorComplex:
    def test_ranks_formula_up_to_seven_columns(self):
        for m in range(2, 8):
            C = minor_complex(consecutive_matrix(m))
            assert C.betti() == (1,) + tuple(s * comb(m, s + 1) for s in range(1, m))

    def test_ranks_for_consecutive_matrix_n4(self):
        seq = validate_sequence(5, 1, 4)
        assert minor_complex(seq.matrix_a()).betti() == (1, 6, 8, 3)

    def test_ranks_for_power_matrix_b1_n4(self):
        seq = validate_sequence(5, 1, 4)
        assert minor_complex(seq.matrix_b()).betti() == (1, 10, 20, 15, 4)

    def test_two_columns_single_minor(self):
        seq = validate_sequence(4, 1, 2)
        A = seq.matrix_a()
        C = minor_complex(A)
        assert C.betti() == (1, 1)
        minor = A.minor2(0, 1)
        assert C.differential(1).entry(0, 0) == minor
        assert C.steps[1] == (minor.weighted_degree(),)

    def test_all_verifications_pass(self):
        for m0, d, n in [(5, 1, 4), (9, 2, 4), (7, 1, 3)]:
            C = resolution_b1(validate_sequence(m0, d, n))
            assert all(c["pass"] for c in verify_complex(C).values())

    def test_large_case_ranks_and_dd_zero(self):
        # (7, 2, 6): formula gives (1, 21, 70, 105, 84, 35, 6)
        seq = validate_sequence(7, 2, 6)
        C = resolution_b1(seq)
        assert C.betti() == (1, 21, 70, 105, 84, 35, 6)
        assert all(c["pass"] for c in verify_complex(C).values())

    def test_non_monomial_entry_rejected(self):
        R = curve_ring((1, 1, 1))
        M = PolyMatrix.from_rows(
            R,
            [[R.var(0) + R.var(1), R.var(1)], [R.var(1), R.var(2)]],
        )
        with pytest.raises(NonMonomialEntry):
            minor_complex(M)

    def test_inconstant_column_step_rejected(self):
        R = curve_ring((1, 2, 4))
        M = PolyMatrix.from_rows(
            R, [[R.var(0), R.var(0)], [R.var(1), R.var(2)]]
        )
        with pytest.raises(InhomogeneousColumns):
            minor_complex(M)

    def test_step1_shifts_match_generator_degrees(self):
        for m0, d, n in [(5, 1, 4), (9, 2, 4), (7, 1, 3)]:
            seq = validate_sequence(m0, d, n)
            C = resolution_b1(seq)
            assert sorted(C.steps[1]) == sorted(seq.generators().degrees())


class TestMappingCone:
    def test_cone_ranks_are_sums(self):
        seq = validate_sequence(8, 1, 4)
        E = minor_complex(seq.matrix_a())
        C = resolution_bn(seq)
        for s in range(C.length + 1):
            src = len(E.steps[s - 1]) if 1 <= s <= E.length + 1 else 0
            tgt = len(E.steps[s]) if s <= E.length else 0
            assert len(C.steps[s]) == src + tgt

    def test_betti_vector_n4(self):
        assert resolution_bn(validate_sequence(8, 1, 4)).betti() == (1, 7, 14, 11, 3)

    def test_betti_vector_n3(self):
        assert resolution_bn(validate_sequence(6, 1, 3)).betti() == (1, 4, 5, 2)
        assert resolution_bn(validate_sequence(9, 2, 3)).betti() == (1, 4, 5, 2)

    def test_betti_vector_n2_complete_intersection(self):
        assert resolution_bn(validate_sequence(4, 1, 2)).betti() == (1, 2, 1)

    def test_new_step1_generator_shift(self):
        seq = validate_sequence(8, 1, 4)
        C = resolution_bn(seq)
        assert (seq.a + seq.d + 1) * seq.m0 == 24
        assert 24 in C.steps[1]

    def test_step1_shifts(self):
        seq = validate_sequence(8, 1, 4)
        C = resolution_bn(seq)
        expected = sorted(
            [p.weighted_degree() for p in seq.generators().quadratics]
            + [(seq.a + seq.d + 1) * seq.m0]
        )
        assert sorted(C.steps[1]) == expected

    def test_verifications_pass(self):
        for m0, d, n in [(8, 1, 4), (6, 1, 3), (16, 3, 4), (4, 1, 2)]:
            checks = verify_complex(resolution_bn(validate_sequence(m0, d, n)))
            assert all(c["pass"] for c in checks.values())

    def test_zero_multiplier_gives_direct_sum(self):
        seq = validate_sequence(4, 1, 2)
        E = minor_complex(seq.matrix_a())  # length 1
        C = mapping_cone(E, E.differential(1).ring.zero)
        assert C.betti() == (1, 2, 1)
        d1 = C.differential(1)
        assert d1.entry(0, 0).is_zero()  # zero cross-block
        rep = verify_complex(C)
        assert rep["dd_zero"]["pass"] and rep["homogeneous"]["pass"]

    def test_inhomogeneous_multiplier_rejected(self):
        seq = validate_sequence(8, 1, 4)
        E = minor_complex(seq.matrix_a())
        R = seq.ring()
        with pytest.raises(InhomogeneousMultiplier):
            mapping_cone(E, R.var(0) + R.var(1))

    def test_wrong_case_errors(self):
        with pytest.raises(WrongCase):
            resolution_b1(validate_sequence(8, 1, 4))
        with pytest.raises(WrongCase):
            resolution_bn(validate_sequence(5, 1, 4))
        with pytest.raises(WrongCase):
            resolution_bn(validate_sequence(6, 1, 4))


@pytest.mark.parametrize("build, m0", [(resolution_b1, 9), (resolution_bn, 16)],
                         ids=["b1", "bn"])
def test_constructions_share_their_entries(build, m0):
    """Entries are immutable, so the constructions build each distinct entry
    (and its negative) a few times at most, not once per nonzero slot."""
    C = build(validate_sequence(m0, 1, 8))
    entries = [e for s in range(1, C.length + 1)
               for e in C.differential(s).nonzero.values()]
    assert len(entries) > 1000
    assert len({id(e) for e in entries}) <= 4 * len(set(entries))


class TestVerifier:
    def test_detects_constant_entry(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d1 = C.differential(1)
        tweaked = GradedComplex(
            C.steps, [edited(d1, {(0, 0): d1.ring.one})] + list(C.maps[1:])
        )
        assert verify_complex(tweaked)["minimal"] == {"pass": False,
                                                      "witness": [1, 0, 0]}

    def test_detects_sign_corruption(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d2 = C.differential(2)
        key = next(iter(d2.nonzero))
        tweaked = GradedComplex(
            C.steps, [C.maps[0], edited(d2, {key: -d2.nonzero[key]})] + list(C.maps[2:])
        )
        rep = verify_complex(tweaked)
        assert not rep["dd_zero"]["pass"]
        assert rep["dd_zero"]["witness"][0] == 2

    def test_detects_inhomogeneous_entry(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d2 = C.differential(2)
        key = next(iter(d2.nonzero))
        broken = edited(d2, {key: d2.nonzero[key] + d2.ring.var(0) ** 7})
        tweaked = GradedComplex(C.steps, [C.maps[0], broken] + list(C.maps[2:]))
        assert not verify_complex(tweaked)["homogeneous"]["pass"]

    def test_first_witness_of_each_failing_check(self):
        C = resolution_b1(validate_sequence(5, 1, 4))
        d1, d2 = C.differential(1), C.differential(2)
        key = list(d2.nonzero)[5]
        tweaked = GradedComplex(
            C.steps,
            [edited(d1, {(0, 3): d1.ring.one}), edited(d2, {key: -d2.nonzero[key]})]
            + list(C.maps[2:]),
        )
        assert verify_complex(tweaked) == {
            "dd_zero": {"pass": False, "witness": [2, 0, 4]},
            "homogeneous": {"pass": False, "witness": [1, 0, 3]},
            "minimal": {"pass": False, "witness": [1, 0, 3]},
        }

    def test_cone_witnesses_in_row_major_order(self):
        """Witnesses run row by row across the cone's blocks of d_2 =
        [[-d_E, 0], [multiplier * I, d_E]]: (1, 6) and (1, 7) in the d_E
        block come before (2, 1) on the multiplier diagonal."""
        C = resolution_bn(validate_sequence(8, 1, 4))
        d1, d2 = C.differential(1), C.differential(2)
        R = d2.ring
        multiplier = R.var(4) ** 2 - R.var(0) ** 3
        assert (d2.rows, d2.cols) == (7, 14)
        assert d2.entry(2, 1) == multiplier and d2.entry(1, 7) == R.var(3)
        broken = edited(d2, {(2, 1): R.one, (1, 7): R.one,
                             (1, 6): d2.entry(1, 6) + R.var(0) ** 5})
        tweaked = GradedComplex(C.steps, [d1, broken] + list(C.maps[2:]))
        assert {name: c["witness"] for name, c in verify_complex(tweaked).items()} == {
            "dd_zero": [2, 0, 1], "homogeneous": [2, 1, 6], "minimal": [2, 1, 7],
        }
