"""Sparse matrices of polynomials: products, 2x2 minors, block assembly.

A matrix stores only its nonzero entries, keyed by (row, col) in row-major
order.  The constructor takes a map of entries in any order and drops its
zeros, so a caller may pass only the nonzero ones; `from_rows` takes dense
rows.
`dense_rows()` is the row reader for output: it yields each row, zeros
included, from one pass over those keys, as entries or as their strings."""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence

from .ring import Polynomial, PolyRing


class PolyMatrix:
    """Immutable rows x cols matrix.  `nonzero` maps (row, col) to each
    nonzero entry, its keys in row-major order; callers must not modify it."""

    __slots__ = ("ring", "rows", "cols", "nonzero")

    def __init__(self, ring: PolyRing, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Polynomial]):
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) out of range for {rows}x{cols}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.nonzero = {key: e for key, e in sorted(entries.items()) if not e.is_zero()}

    @classmethod
    def from_rows(cls, ring: PolyRing, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(ring, len(rows), ncols,
                   {(i, j): e for i, r in enumerate(rows) for j, e in enumerate(r)})

    def dense_rows(self, convert: Optional[Callable] = None) -> Iterator[list]:
        """Each row in order as a list, zeros included: of the entries, or
        with `convert` of convert(entry), the zeros sharing one convert(0)."""
        zero = self.ring.zero
        nonzero = iter(self.nonzero.items())
        if convert is not None:
            nonzero = ((key, convert(e)) for key, e in nonzero)
            zero = convert(zero)
        end = ((self.rows, 0), zero)  # past the last row
        (k, j), e = next(nonzero, end)
        for i in range(self.rows):
            row = [zero] * self.cols
            while k == i:
                row[j] = e
                (k, j), e = next(nonzero, end)
            yield row

    def entry(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.nonzero.get((i, j), self.ring.zero)

    def column(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.nonzero == self.nonzero
        )

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Exact product over the nonzero entries of both factors.

        Each entry product e * f is range-checked once, against the top
        degree of e plus that of f (MonomialOutOfRange before any term is
        added, exactly when one of its term products would not fit, as in
        `ring._add_into`), and its terms are added by the field's
        `add_into` into one map {packed monomial: coefficient}, which is
        sorted once; an entry whose terms all cancel builds no polynomial.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValueError("matrices over different rings")
        top_degree, add_into, cap = ring.top_degree, ring.field.add_into, ring.degree_cap
        right_by_row = {}
        for (k, j), f in other.nonzero.items():
            right_by_row.setdefault(k, []).append((j, f.packed, top_degree(f.packed)))
        acc = {}
        for (i, k), e in self.nonzero.items():
            right = right_by_row.get(k)
            if right is None:
                continue
            e = e.packed
            top_e = top_degree(e)
            for j, f, top_f in right:
                if top_e + top_f >= cap:
                    ring.check_degree(top_e + top_f)
                terms = acc.setdefault((i, j), {})
                for m, c in e:
                    add_into(terms, f, m, c)
        return PolyMatrix(ring, self.rows, other.cols, {
            key: Polynomial(ring, tuple(sorted(terms.items(), reverse=True)))
            for key, terms in acc.items() if terms})

    def minor2(self, c1: int, c2: int) -> Polynomial:
        """2x2 minor from columns c1 < c2 of a 2-row matrix: both products
        go into one map {packed monomial: coefficient} by the field's
        `add_into`, the second negated, and the map is sorted once.  Each
        product is range-checked once, as in `mul`."""
        if self.rows != 2:
            raise ValueError("minor2 requires a matrix with exactly 2 rows")
        if not 0 <= c1 < c2 < self.cols:
            raise IndexError(f"columns ({c1},{c2}) out of range for width {self.cols}")
        ring, entry = self.ring, self.nonzero.get
        neg, add_into, top_degree = ring.field.neg, ring.field.add_into, ring.top_degree
        acc = {}
        for p, q, negate in ((entry((0, c1)), entry((1, c2)), False),
                             (entry((0, c2)), entry((1, c1)), True)):
            if p is None or q is None:
                continue
            p, q = p.packed, q.packed
            top = top_degree(p) + top_degree(q)
            if top >= ring.degree_cap:
                ring.check_degree(top)
            for m, c in p:
                add_into(acc, q, m, neg(c) if negate else c)
        return Polynomial(ring, tuple(sorted(acc.items(), reverse=True)))

    def __str__(self):
        rows = ["[" + ", ".join(row) + "]" for row in self.dense_rows(str)]
        return "[" + ",\n ".join(rows) + "]"

    def __repr__(self):
        return f"<PolyMatrix {self.rows}x{self.cols}>"
