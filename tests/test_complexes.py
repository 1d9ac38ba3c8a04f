"""Minor complexes, mapping cones, and the three complex verifiers."""

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
    minor_complex_rank,
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


class TestMinorComplex:
    def test_ranks_formula_up_to_seven_columns(self):
        for m in range(2, 8):
            C = minor_complex(consecutive_matrix(m))
            assert C.betti() == tuple(minor_complex_rank(m, s) for s in range(m))

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
        assert C.shifts(1) == (minor.weighted_degree(),)

    def test_all_verifications_pass(self):
        for m0, d, n in [(5, 1, 4), (9, 2, 4), (7, 1, 3)]:
            C = resolution_b1(validate_sequence(m0, d, n))
            rep = verify_complex(C)
            assert rep.dd_zero and rep.homogeneous and rep.minimal

    def test_large_case_ranks_and_dd_zero(self):
        # (7, 2, 6): formula gives (1, 21, 70, 105, 84, 35, 6)
        seq = validate_sequence(7, 2, 6)
        C = resolution_b1(seq)
        assert C.betti() == (1, 21, 70, 105, 84, 35, 6)
        rep = verify_complex(C)
        assert rep.all_ok

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
            assert sorted(C.shifts(1)) == sorted(seq.generators().degrees())


class TestMappingCone:
    def test_cone_ranks_are_sums(self):
        seq = validate_sequence(8, 1, 4)
        E = minor_complex(seq.matrix_a())
        C = resolution_bn(seq)
        for s in range(C.length + 1):
            src = len(E.shifts(s - 1)) if 1 <= s <= E.length + 1 else 0
            tgt = len(E.shifts(s)) if s <= E.length else 0
            assert len(C.shifts(s)) == src + tgt

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
        assert 24 in C.shifts(1)

    def test_step1_shifts(self):
        seq = validate_sequence(8, 1, 4)
        C = resolution_bn(seq)
        expected = sorted(
            [p.weighted_degree() for p in seq.generators().quadratics]
            + [(seq.a + seq.d + 1) * seq.m0]
        )
        assert sorted(C.shifts(1)) == expected

    def test_verifications_pass(self):
        for m0, d, n in [(8, 1, 4), (6, 1, 3), (16, 3, 4), (4, 1, 2)]:
            rep = verify_complex(resolution_bn(validate_sequence(m0, d, n)))
            assert rep.dd_zero and rep.homogeneous and rep.minimal

    def test_zero_multiplier_gives_direct_sum(self):
        seq = validate_sequence(4, 1, 2)
        E = minor_complex(seq.matrix_a())  # length 1
        C = mapping_cone(E, E.differential(1).ring.zero)
        assert C.betti() == (1, 2, 1)
        d1 = C.differential(1)
        assert d1.entry(0, 0).is_zero()  # zero cross-block
        rep = verify_complex(C)
        assert rep.dd_zero and rep.homogeneous

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


class TestVerifier:
    def test_detects_constant_entry(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d1 = C.differential(1)
        broken = list(d1.entries)
        broken[0] = d1.ring.one
        tweaked = GradedComplex(
            C.steps, [d1.with_entries(broken)] + list(C.maps[1:])
        )
        rep = verify_complex(tweaked)
        assert not rep.minimal
        assert rep.witness["minimal"] == (1, 0, 0)

    def test_detects_sign_corruption(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d2 = C.differential(2)
        broken = list(d2.entries)
        idx = next(i for i, e in enumerate(broken) if not e.is_zero())
        broken[idx] = -broken[idx]
        tweaked = GradedComplex(
            C.steps, [C.maps[0], d2.with_entries(broken)] + list(C.maps[2:])
        )
        rep = verify_complex(tweaked)
        assert not rep.dd_zero
        assert rep.witness["dd_zero"][0] == 2

    def test_detects_inhomogeneous_entry(self):
        seq = validate_sequence(5, 1, 4)
        C = resolution_b1(seq)
        d2 = C.differential(2)
        broken = list(d2.entries)
        idx = next(i for i, e in enumerate(broken) if not e.is_zero())
        broken[idx] = broken[idx] + d2.ring.var(0) ** 7
        tweaked = GradedComplex(
            C.steps, [C.maps[0], d2.with_entries(broken)] + list(C.maps[2:])
        )
        assert not verify_complex(tweaked).homogeneous

    def test_first_witness_of_each_failing_check(self):
        C = resolution_b1(validate_sequence(5, 1, 4))
        d1, d2 = C.differential(1), C.differential(2)
        broken1 = list(d1.entries)
        broken1[3] = d1.ring.one
        broken2 = list(d2.entries)
        idx = [i for i, e in enumerate(broken2) if not e.is_zero()][5]
        broken2[idx] = -broken2[idx]
        tweaked = GradedComplex(
            C.steps,
            [d1.with_entries(broken1), d2.with_entries(broken2)] + list(C.maps[2:]),
        )
        rep = verify_complex(tweaked)
        assert (rep.dd_zero, rep.homogeneous, rep.minimal) == (False, False, False)
        assert rep.witness == {
            "dd_zero": (2, 0, 4), "homogeneous": (1, 0, 3), "minimal": (1, 0, 3),
        }
