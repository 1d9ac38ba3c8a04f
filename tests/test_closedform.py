"""Closed-form Betti numbers, shift tables, parity, and the table cross-checks."""

import pytest

from arithcurve import (
    BettiTable,
    WrongCase,
    betti_b1,
    betti_bn,
    gor4_symmetry_point,
    resolution_b1,
    resolution_bn,
    shift_table_b1,
    shift_table_bn,
    shifts_gor4,
    validate_sequence,
)
from references import alt_shift_table_b1, alt_shift_table_bn, compare_shift_tables


class TestBettiFormulas:
    def test_b1_values(self):
        assert betti_b1(4) == (1, 10, 20, 15, 4)
        assert betti_b1(2) == (1, 3, 2)
        assert betti_b1(3) == (1, 6, 8, 3)
        assert betti_b1(6) == (1, 21, 70, 105, 84, 35, 6)

    def test_bn_values(self):
        assert betti_bn(4) == (1, 7, 14, 11, 3)
        assert betti_bn(3) == (1, 4, 5, 2)
        assert betti_bn(2) == (1, 2, 1)

    def test_alternating_sum_vanishes(self):
        for n in range(2, 8):
            assert sum((-1) ** s * v for s, v in enumerate(betti_b1(n))) == 0
            assert sum((-1) ** s * v for s, v in enumerate(betti_bn(n))) == 0

    def test_formulas_match_constructions(self):
        for m0, d, n in [(5, 1, 4), (7, 1, 3), (9, 2, 4), (7, 2, 6)]:
            assert resolution_b1(validate_sequence(m0, d, n)).betti() == betti_b1(n)
        for m0, d, n in [(8, 1, 4), (6, 1, 3), (4, 1, 2)]:
            assert resolution_bn(validate_sequence(m0, d, n)).betti() == betti_bn(n)

    def test_betti_independent_of_a_and_d(self):
        import math

        for n in (3, 4):
            for a in (1, 2, 3):
                for d in (1, 2, 3):
                    if math.gcd(a * n + 1, d) == 1:
                        seq = validate_sequence(a * n + 1, d, n)
                        assert resolution_b1(seq).betti() == betti_b1(n)
                    if math.gcd(a * n + n, d) == 1:
                        seq = validate_sequence(a * n + n, d, n)
                        assert resolution_bn(seq).betti() == betti_bn(n)


class TestGor4Table:
    def test_row_sizes(self):
        for a in (1, 2):
            for d in (1, 2, 3):
                assert shifts_gor4(a, d).betti() == (1, 9, 16, 9, 1)

    def test_a1_d1_rows_frozen(self):
        t = shifts_gor4(1, 1)
        assert t.rows[1] == (14, 15, 16, 16, 17, 18, 18, 19, 20)
        assert t.rows[2] == (22, 23, 23, 24, 24, 25, 25, 25,
                             26, 26, 26, 27, 27, 28, 28, 29)
        assert t.rows[3] == (31, 32, 33, 33, 34, 35, 35, 36, 37)
        assert t.rows[4] == (51,)
        assert gor4_symmetry_point(1, 1) == 51

    def test_palindromic_symmetry(self):
        for a in (1, 2, 3):
            for d in (0, 1, 2, 3):
                t = shifts_gor4(a, d)
                assert t.is_palindromic(gor4_symmetry_point(a, d))

    def test_step1_matches_generator_degrees(self):
        for m0, d in [(6, 1), (10, 1), (10, 3)]:
            seq = validate_sequence(m0, d, 4)
            assert seq.b == 2
            t = shifts_gor4(seq.a, seq.d)
            assert sorted(seq.generators().degrees()) == list(t.rows[1])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shifts_gor4(0, 1)
        with pytest.raises(ValueError):
            shifts_gor4(1, -1)


class TestParity:
    def test_odd_for_odd_difference(self):
        assert sum(validate_sequence(6, 1, 4).generators().degrees()) % 2 == 1
        assert sum(validate_sequence(10, 3, 4).generators().degrees()) % 2 == 1

    def test_even_difference_formula(self):
        # direct evaluation of the 9 degree formulas for even d (the degree
        # list is independent of sequence validity)
        for a, d in [(1, 2), (2, 2), (1, 4)]:
            m0 = 4 * a + 2
            quads = [2 * m0 + (i + j + 1) * d for i in range(4) for j in range(i + 1, 4)]
            powers = [(a + 1 + d) * m0 + k * d for k in range(3)]
            assert sum(quads + powers) % 2 == 0


class TestShiftTables:
    def test_b1_table_matches_construction(self):
        for m0, d, n in [(5, 1, 4), (9, 2, 4), (7, 1, 3)]:
            seq = validate_sequence(m0, d, n)
            table = shift_table_b1(seq)
            built = BettiTable.from_complex(resolution_b1(seq))
            assert table.same_shifts(built)

    def test_bn_table_matches_construction(self):
        for m0, d, n in [(8, 1, 4), (6, 1, 3), (16, 3, 4), (4, 1, 2)]:
            seq = validate_sequence(m0, d, n)
            table = shift_table_bn(seq)
            built = BettiTable.from_complex(resolution_bn(seq))
            assert table.same_shifts(built)

    def test_b1_514_step1_frozen(self):
        seq = validate_sequence(5, 1, 4)
        t = shift_table_b1(seq)
        assert t.rows[1] == (12, 13, 14, 14, 15, 15, 16, 16, 17, 18)
        assert t.rows[4] == (36, 37, 38, 39)

    def test_wrong_case(self):
        with pytest.raises(WrongCase):
            shift_table_b1(validate_sequence(8, 1, 4))
        with pytest.raises(WrongCase):
            shift_table_bn(validate_sequence(5, 1, 4))


class TestAltTranscriptions:
    """The nested-summation form agrees under the aligned reading; the
    face-value reading miscounts exactly the generic middle steps."""

    def test_aligned_reading_agrees(self):
        for m0, d, n in [(5, 1, 4), (9, 2, 4), (7, 1, 3), (13, 1, 6)]:
            seq = validate_sequence(m0, d, n)
            assert alt_shift_table_b1(seq, aligned=True).same_shifts(shift_table_b1(seq))
        for m0, d, n in [(8, 1, 4), (6, 1, 3), (4, 1, 2), (16, 3, 4)]:
            seq = validate_sequence(m0, d, n)
            assert alt_shift_table_bn(seq, aligned=True).same_shifts(shift_table_bn(seq))

    def test_face_value_reading_miscounts_middle_steps(self):
        seq = validate_sequence(5, 1, 4)
        diffs = compare_shift_tables(
            alt_shift_table_b1(seq, aligned=False), shift_table_b1(seq)
        )
        assert [s for s, _, _ in diffs] == [2]
        seq = validate_sequence(8, 1, 4)
        diffs = compare_shift_tables(
            alt_shift_table_bn(seq, aligned=False), shift_table_bn(seq)
        )
        assert [s for s, _, _ in diffs] == [2]

    def test_face_value_reading_fine_for_small_n(self):
        # with no generic middle step there is nothing to misread
        seq = validate_sequence(7, 1, 3)
        assert alt_shift_table_b1(seq, aligned=False).same_shifts(shift_table_b1(seq))
        seq = validate_sequence(6, 1, 3)
        assert alt_shift_table_bn(seq, aligned=False).same_shifts(shift_table_bn(seq))


class TestBettiTableType:
    def test_json_round_trip(self):
        t = shifts_gor4(2, 3)
        obj = t.to_json_obj()
        back = BettiTable.from_json_obj(obj)
        assert back.same_shifts(t)
        assert back.betti() == t.betti()

    def test_compare_tables_reports_differences(self):
        t1 = BettiTable.from_rows({0: [0], 1: [3, 4]})
        t2 = BettiTable.from_rows({0: [0], 1: [3, 5]})
        assert compare_shift_tables(t1, t2) == [(1, (4,), (5,))]
        assert compare_shift_tables(t1, t1) == []
