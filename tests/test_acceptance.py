"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Shared oracle resolutions are computed once per session.

Two grid entries are mathematically impossible as stated and are handled
explicitly rather than silently skipped (see the assertions and printed
notes): the b=n instance (12,3,4) and half of the Gorenstein (a,d) grid give
sequences whose terms share a common factor, so they are rejected by
validation, and the constructions provably do not apply to them.  The b=n
criterion runs its d=3 leg on (16,3,4), the nearest valid instance.
"""

import math
import time

import pytest

from arithcurve import (
    BettiTable,
    GcdNotOne,
    betti_b1,
    betti_bn,
    expected_generator_count,
    gor4_symmetry_point,
    ideal_equal,
    minimal_resolution,
    resolution_b1,
    resolution_bn,
    shift_table_b1,
    shift_table_bn,
    shifts_gor4,
    toric_ideal,
    validate_sequence,
    verify_complex,
    verify_exactness,
)
from arithcurve.ring import PrimeField
from references import (
    all_minors2,
    alt_shift_table_b1,
    alt_shift_table_bn,
    colon_check,
    compare_shift_tables,
)


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


B1_INSTANCES = [(5, 1, 4), (9, 2, 4), (7, 1, 3)]
BN_INSTANCES = [(8, 1, 4), (16, 3, 4), (6, 1, 3)]  # (16,3,4) replaces (12,3,4)
GOR4_GRID = [(a, d) for a in (1, 2) for d in (1, 2, 3)]


@pytest.fixture(scope="module")
def oracle_tables():
    """Oracle minimal resolutions, computed once per instance over Q."""
    cache: dict = {}

    def get(m0, d, n) -> BettiTable:
        key = (m0, d, n)
        if key not in cache:
            seq = validate_sequence(*key)
            complex_ = minimal_resolution(list(seq.generators().all))
            cache[key] = BettiTable.from_complex(complex_)
        return cache[key]

    return get


def test_criterion_01_generator_count():
    t0 = time.perf_counter()
    cells = 0
    for n in range(2, 7):
        for a in range(1, 4):
            for b in range(1, n + 1):
                for d in range(1, 5):
                    m0 = a * n + b
                    if math.gcd(m0, d) != 1:
                        continue
                    seq = validate_sequence(m0, d, n)
                    assert len(seq.generators()) == expected_generator_count(n, b)
                    cells += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"generator count C(n,2)+n-b+1 on {cells} valid cells in {elapsed:.2f}s")


def test_criterion_02_ideal_identity():
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    for n in range(2, 5):
        for a in range(1, 3):
            for b in range(1, n + 1):
                for d in range(1, 3):
                    m0 = a * n + b
                    if math.gcd(m0, d) != 1:
                        continue
                    seq = validate_sequence(m0, d, n)
                    t1 = time.perf_counter()
                    both = all_minors2(seq.matrix_a()) + all_minors2(seq.matrix_b())
                    assert ideal_equal(both, toric_ideal(seq)), (m0, d, n)
                    worst = max(worst, time.perf_counter() - t1)
                    cells += 1
    elapsed = time.perf_counter() - t0
    report(2, worst < 60.0,
           f"minor-ideal sum equals the kernel on {cells} cells "
           f"(worst {worst:.2f}s, total {elapsed:.2f}s)")


def _check_resolution(seq, complex_, expected_betti, oracle_tables):
    checks = verify_complex(complex_)
    assert all(c["pass"] for c in checks.values()), checks
    assert complex_.betti() == expected_betti
    exact = verify_exactness(complex_, list(seq.generators().all))
    assert exact["exactness"]["pass"], exact
    oracle = oracle_tables(seq.m0, seq.d, seq.n)
    built = BettiTable.from_complex(complex_)
    assert oracle.same_shifts(built)


def test_criterion_03_b1_resolutions(oracle_tables):
    worst = 0.0
    for m0, d, n in B1_INSTANCES:
        t0 = time.perf_counter()
        seq = validate_sequence(m0, d, n)
        _check_resolution(seq, resolution_b1(seq), betti_b1(n), oracle_tables)
        worst = max(worst, time.perf_counter() - t0)
    report(3, worst < 300.0,
           f"b=1 complexes verified + exact + oracle-matched on "
           f"{B1_INSTANCES} (worst {worst:.2f}s)")


def test_criterion_04_bn_resolutions(oracle_tables):
    with pytest.raises(GcdNotOne):
        validate_sequence(12, 3, 4)  # terms share the factor 3; see module docstring
    print("[acceptance] note: (12,3,4) rejected (gcd 3); running (16,3,4) instead")
    worst = 0.0
    for m0, d, n in BN_INSTANCES:
        t0 = time.perf_counter()
        seq = validate_sequence(m0, d, n)
        _check_resolution(seq, resolution_bn(seq), betti_bn(n), oracle_tables)
        worst = max(worst, time.perf_counter() - t0)
    report(4, worst < 300.0,
           f"b=n cones verified + exact + oracle-matched on "
           f"{BN_INSTANCES} (worst {worst:.2f}s)")


def test_criterion_05_gorenstein_tables(oracle_tables):
    worst = 0.0
    checked, rejected = [], []
    for a, d in GOR4_GRID:
        m0 = 4 * a + 2
        t0 = time.perf_counter()
        if math.gcd(m0, d) != 1:
            with pytest.raises(GcdNotOne):
                validate_sequence(m0, d, 4)
            rejected.append((a, d))
            continue
        seq = validate_sequence(m0, d, 4)
        oracle = oracle_tables(m0, d, 4)
        assert oracle.betti() == (1, 9, 16, 9, 1)
        assert oracle.same_shifts(shifts_gor4(a, d))
        checked.append((a, d))
        worst = max(worst, time.perf_counter() - t0)
    print(f"[acceptance] note: gcd>1 cells {rejected} rejected by validation; "
          f"the closed-form table is stated beyond its hypotheses there")
    report(5, bool(checked) and worst < 600.0,
           f"oracle tables equal the closed form on valid cells {checked} "
           f"(worst {worst:.2f}s)")


def test_criterion_06_gorenstein_symmetry():
    for a, d in GOR4_GRID:
        table = shifts_gor4(a, d)
        assert table.is_palindromic(gor4_symmetry_point(a, d)), (a, d)
    report(6, True,
           f"all {len(GOR4_GRID)} tables palindromic about q(q+2d+9)+9d")


def test_criterion_07_degree_sum_parity():
    for m0, d in [(6, 1), (10, 1), (10, 3)]:
        seq = validate_sequence(m0, d, 4)
        assert sum(seq.generators().degrees()) % 2 == 1
    # direct evaluation of the 9 degree formulas for every odd-d grid cell,
    # including those whose sequences fail validation
    for a in (1, 2):
        for d in (1, 3):
            m0 = 4 * a + 2
            degs = [2 * m0 + (i + j + 1) * d for i in range(4) for j in range(i + 1, 4)]
            degs += [(a + 1 + d) * m0 + k * d for k in range(3)]
            assert len(degs) == 9 and sum(degs) % 2 == 1, (a, d)
    report(7, True, "sum of the 9 generator degrees is odd for d in {1,3}")


def test_criterion_08_colon_ideal():
    t0 = time.perf_counter()
    for m0, d, n in [(8, 1, 4), (6, 1, 3)]:
        seq = validate_sequence(m0, d, n)
        minors = all_minors2(seq.matrix_a())
        psi = seq.generators().powers[0]
        assert colon_check(minors, psi), (m0, d, n)
    elapsed = time.perf_counter() - t0
    report(8, elapsed < 60.0,
           f"colon by the power binomial fixes the pair-minor ideal "
           f"({elapsed:.2f}s)")


def test_criterion_09_conjecture_scan():
    t0 = time.perf_counter()
    field = PrimeField(32003)
    vectors: dict[int, dict] = {}
    skipped = []
    for b in range(1, 5):
        for a in (1, 2):
            for d in (1, 2, 3):
                m0 = 4 * a + b
                if math.gcd(m0, d) != 1:
                    skipped.append((b, a, d))
                    continue
                seq = validate_sequence(m0, d, 4)
                betti = minimal_resolution(list(seq.generators(field).all)).betti()
                vectors.setdefault(b, {})[(a, d)] = betti
    uniform = True
    lines = []
    for b, cells in sorted(vectors.items()):
        distinct = set(cells.values())
        if len(distinct) == 1:
            lines.append(f"b={b}: uniform {next(iter(distinct))}")
        else:
            uniform = False
            lines.append(f"b={b}: NON-UNIFORM {cells}")
    elapsed = time.perf_counter() - t0
    for line in lines:
        print(f"[acceptance] scan {line}")
    print(f"[acceptance] scan skipped invalid cells (b,a,d): {skipped}")
    # a non-uniform vector would be a reportable finding, not a crash; it is
    # still a FAIL for this suite since the proven cases are in the grid
    report(9, uniform and elapsed < 1800.0,
           f"Betti vectors uniform per residue class over F_32003 "
           f"({sum(len(c) for c in vectors.values())} cells, {elapsed:.1f}s)")


def test_criterion_10_shift_text_cross_check(oracle_tables):
    logged = []
    for m0, d, n in B1_INSTANCES:
        seq = validate_sequence(m0, d, n)
        basis_table = shift_table_b1(seq)
        assert basis_table.same_shifts(oracle_tables(m0, d, n))
        assert alt_shift_table_b1(seq, aligned=True).same_shifts(basis_table)
        diffs = compare_shift_tables(
            alt_shift_table_b1(seq, aligned=False), basis_table
        )
        for step, extra, missing in diffs:
            logged.append(
                f"(b=1 {m0},{d},{n}) step {step}: face-value reading has "
                f"{list(extra)} and lacks {list(missing)}"
            )
    for m0, d, n in BN_INSTANCES:
        seq = validate_sequence(m0, d, n)
        basis_table = shift_table_bn(seq)
        assert basis_table.same_shifts(oracle_tables(m0, d, n))
        assert alt_shift_table_bn(seq, aligned=True).same_shifts(basis_table)
        diffs = compare_shift_tables(
            alt_shift_table_bn(seq, aligned=False), basis_table
        )
        for step, extra, missing in diffs:
            logged.append(
                f"(b=n {m0},{d},{n}) step {step}: face-value reading has "
                f"{list(extra)} and lacks {list(missing)}"
            )
    for line in logged:
        print(f"[acceptance] shift-text log: {line}")
    report(10, True,
           f"basis-degree shifts agree with the oracle everywhere; "
           f"{len(logged)} face-value summand discrepancies logged")
