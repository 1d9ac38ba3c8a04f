"""Polynomial matrices: minors, products, homogeneity of minors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithcurve import PolyMatrix, validate_sequence
from arithcurve.ring import QQ, PolyRing, PrimeField, curve_ring


def identity(ring, n):
    return PolyMatrix(ring, n, n, {(i, i): ring.one for i in range(n)})


@pytest.fixture
def seq514():
    return validate_sequence(5, 1, 4)


def test_minor_of_consecutive_pair_matrix(seq514):
    A = seq514.matrix_a()
    R = A.ring
    assert A.minor2(0, 1) == R.var(0) * R.var(2) - R.var(1) ** 2


def test_minor_of_power_column_matrix(seq514):
    B = seq514.matrix_b()
    R = B.ring
    # columns (X4, X0^2) and (X0, X1)
    assert B.minor2(0, 1) == R.var(1) * R.var(4) - R.var(0) ** 3


def test_minor_of_equal_columns_is_zero(seq514):
    A = seq514.matrix_a()
    M = PolyMatrix.from_rows(A.ring, [[A.entry(0, 0)] * 2, [A.entry(1, 0)] * 2])
    assert M.minor2(0, 1).is_zero()


def test_minor_shape_and_range_errors(seq514):
    A = seq514.matrix_a()
    with pytest.raises(IndexError):
        A.minor2(0, 4)
    three_rows = PolyMatrix.from_rows(A.ring, [[A.ring.one] * 2] * 3)
    with pytest.raises(ValueError):
        three_rows.minor2(0, 1)


def test_identity_product(seq514):
    A = seq514.matrix_a()
    I2 = identity(A.ring, 2)
    assert I2.mul(A) == A


def test_dot_product_shape():
    R = curve_ring((1, 1))
    row = PolyMatrix.from_rows(R, [[R.var(0), R.var(1)]])
    col = PolyMatrix.from_rows(R, [[R.var(1)], [R.var(0)]])
    prod = row.mul(col)
    assert (prod.rows, prod.cols) == (1, 1)
    assert prod.entry(0, 0) == 2 * (R.var(0) * R.var(1))


def test_product_shape_mismatch():
    R = curve_ring((1, 1))
    m = identity(R, 2)
    bad = PolyMatrix.from_rows(R, [[R.one, R.one, R.one]])
    with pytest.raises(ValueError):
        m.mul(bad)


def test_product_over_different_rings_rejected():
    """Packed terms read in another ring's layout are other monomials."""
    m = identity(curve_ring((1, 1)), 2)
    with pytest.raises(ValueError, match="different rings"):
        m.mul(identity(curve_ring((1, 2)), 2))
    with pytest.raises(ValueError, match="different rings"):
        m.mul(identity(curve_ring((1, 1), PrimeField(7)), 2))


def test_all_minors_count(seq514):
    B = seq514.matrix_b()
    assert len(B.all_minors2()) == 10


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=5),
    st.integers(0, 4),
)
def test_minors_homogeneous_when_column_step_constant(cols, step):
    """2-row monomial matrices with constant bottom-top degree difference have
    homogeneous 2x2 minors."""
    R = PolyRing(("X0", "X1"), (1, 2))
    matrix_cols = []
    for e0, e1 in cols:
        top = (e0, e1)
        top_deg = e0 + 2 * e1
        # bottom monomial with degree top_deg + step (pad with X0's)
        bottom = (top_deg + step, 0)
        matrix_cols.append((R.monomial(top), R.monomial(bottom)))
    M = PolyMatrix.from_rows(
        R, [[c[0] for c in matrix_cols], [c[1] for c in matrix_cols]]
    )
    for minor in M.all_minors2():
        assert minor.is_zero() or minor.weighted_degree() is not None


R2 = curve_ring((1, 1))
# monomial entries, most of them zero
sparse_entry = st.builds(
    lambda c, a, b: R2.monomial((a, b), c),
    st.sampled_from([0, 0, 0, 1, -1, 2]), st.integers(0, 2), st.integers(0, 2),
)


def dense_rows(rows, cols):
    row = st.lists(sparse_entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_sparse_storage_and_product(data, r, k, c):
    a_rows = data.draw(dense_rows(r, k))
    b_rows = data.draw(dense_rows(k, c))
    A = PolyMatrix.from_rows(R2, a_rows)
    B = PolyMatrix.from_rows(R2, b_rows)

    # the dense input comes back through every accessor
    assert list(A.dense_rows()) == [list(row) for row in a_rows]
    assert PolyMatrix.from_rows(R2, list(A.dense_rows())) == A
    assert list(A.dense_rows(str)) == [[str(e) for e in row] for row in a_rows]
    for i in range(r):
        for j in range(k):
            assert A.entry(i, j) == a_rows[i][j]
    for j in range(k):
        assert A.column(j) == tuple(row[j] for row in a_rows)
    # only the nonzero inputs are stored, in row-major order
    assert list(A.nonzero.items()) == [
        ((i, j), e) for i, row in enumerate(a_rows) for j, e in enumerate(row)
        if not e.is_zero()
    ]

    naive = [[sum((A.entry(i, m) * B.entry(m, j) for m in range(k)), R2.zero)
              for j in range(c)] for i in range(r)]
    prod = A.mul(B)
    assert (prod.rows, prod.cols) == (r, c)
    assert list(prod.dense_rows()) == naive
    assert set(prod.nonzero) == {
        (i, j) for i in range(r) for j in range(c) if not naive[i][j].is_zero()
    }

    # [A | A] times [B ; -B] cancels to zero and stores nothing
    doubled = PolyMatrix.from_rows(R2, [row + row for row in a_rows])
    opposed = PolyMatrix.from_rows(R2, b_rows + [[-e for e in row] for row in b_rows])
    cancelled = doubled.mul(opposed)
    assert (cancelled.rows, cancelled.cols) == (r, c)
    assert not cancelled.nonzero


def test_constructor_rejects_bad_keys_and_counts():
    R = curve_ring((1, 1))
    with pytest.raises(IndexError):
        PolyMatrix(R, 2, 2, {(2, 0): R.one})
    with pytest.raises(ValueError):
        PolyMatrix.from_rows(R, [[R.one, R.one], [R.one]])


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "fp:32003"])
@pytest.mark.parametrize("seed", range(4))
def test_product_matches_dense_reference(field, seed):
    """Seeded sparse matrices with multi-term entries against the product
    summed slot by slot with `Polynomial.__mul__` and `__add__`.  Column 0
    of B is B[0][0] and its negation in the last row, beside a copy of A's
    column 0, so column 0 of the product cancels to zero in every row."""
    rng = random.Random(seed)
    R = curve_ring((2, 3, 5), field=field)

    def entry():
        if rng.random() < 0.4:
            return R.zero
        return R.from_dict({
            tuple(rng.randrange(3) for _ in range(3)):
                field.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))})

    r, k, c = rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 5)
    a_rows = [[entry() for _ in range(k)] for _ in range(r)]
    a_rows = [row + [row[0]] for row in a_rows]
    a_rows[0][0] = a_rows[0][k] = R.var(1) + R.var(0)
    b_rows = [[entry() for _ in range(c)] for _ in range(k)]
    b_rows[0][0] = R.var(2) - R.var(0, 2)
    for row in b_rows[1:]:
        row[0] = R.zero
    b_rows.append([-b_rows[0][0]] + [entry() for _ in range(c - 1)])
    A = PolyMatrix.from_rows(R, a_rows)
    B = PolyMatrix.from_rows(R, b_rows)

    naive = [[sum((a_rows[i][m] * b_rows[m][j] for m in range(k + 1)), R.zero)
              for j in range(c)] for i in range(r)]
    prod = A.mul(B)
    assert (prod.rows, prod.cols) == (r, c)
    assert list(prod.dense_rows()) == naive
    assert list(prod.nonzero) == [
        (i, j) for i in range(r) for j in range(c) if not naive[i][j].is_zero()]
    assert all(j != 0 for _, j in prod.nonzero)
