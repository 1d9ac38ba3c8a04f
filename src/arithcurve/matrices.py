"""Sparse matrices of polynomials: products, 2x2 minors, block assembly.

A matrix stores only its nonzero entries, keyed by (row, col) in row-major
order.  The constructor takes a map of entries in any order and drops its
zeros, so a caller may pass only the nonzero ones; `from_rows` takes dense
rows.
`dense_rows()` is the row reader for output: it yields each row, zeros
included, from one pass over those keys, as entries or as their strings."""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence

from .ring import Polynomial, PolyRing, _add_into


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

        Every term product of an entry is added into one map {packed
        monomial: coefficient} by the ring's kernel, which is sorted once.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValueError("matrices over different rings")
        right_by_row = {}
        for (k, j), f in other.nonzero.items():
            right_by_row.setdefault(k, []).append((j, f.packed, ring.top_degree(f.packed)))
        acc = {}
        for (i, k), e in self.nonzero.items():
            for j, f, top in right_by_row.get(k, ()):
                terms = acc.setdefault((i, j), {})
                for m, c in e.packed:
                    _add_into(terms, f, top, m, c, ring)
        return PolyMatrix(ring, self.rows, other.cols, {
            key: Polynomial(ring, tuple(sorted(terms.items(), reverse=True)))
            for key, terms in acc.items()})

    def minor2(self, c1: int, c2: int) -> Polynomial:
        """2x2 minor from columns c1 < c2 of a 2-row matrix."""
        if self.rows != 2:
            raise ValueError("minor2 requires a matrix with exactly 2 rows")
        if not 0 <= c1 < c2 < self.cols:
            raise IndexError(f"columns ({c1},{c2}) out of range for width {self.cols}")
        return self.entry(0, c1) * self.entry(1, c2) - self.entry(0, c2) * self.entry(1, c1)

    def all_minors2(self) -> list:
        """Every 2x2 minor of a 2-row matrix, columns in lexicographic order."""
        return [
            self.minor2(c1, c2)
            for c1 in range(self.cols)
            for c2 in range(c1 + 1, self.cols)
        ]

    def __str__(self):
        rows = ["[" + ", ".join(row) + "]" for row in self.dense_rows(str)]
        return "[" + ",\n ".join(rows) + "]"

    def __repr__(self):
        return f"<PolyMatrix {self.rows}x{self.cols}>"
