"""Dense matrices of polynomials: products, 2x2 minors, block assembly."""

from __future__ import annotations

from typing import Callable, Sequence

from .ring import Polynomial, PolyRing


class PolyMatrix:
    """Immutable rows x cols matrix stored row-major."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: PolyRing, rows: int, cols: int, entries: Sequence[Polynomial]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, ring: PolyRing, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(ring, nrows, ncols, flat)

    @classmethod
    def build(cls, ring: PolyRing, rows: int, cols: int,
              fill: Callable[[int, int], Polynomial]) -> "PolyMatrix":
        return cls(ring, rows, cols, [fill(i, j) for i in range(rows) for j in range(cols)])

    @classmethod
    def identity(cls, ring: PolyRing, n: int) -> "PolyMatrix":
        return cls.build(ring, n, n, lambda i, j: ring.one if i == j else ring.zero)

    def entry(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Exact product; iterates only over nonzero entries."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        acc = [ring.zero] * (self.rows * other.cols)
        left_by_col = [[] for _ in range(self.cols)]
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                e = self.entries[base + k]
                if not e.is_zero():
                    left_by_col[k].append((i, e))
        for k in range(self.cols):
            if not left_by_col[k]:
                continue
            rbase = k * other.cols
            for j in range(other.cols):
                f = other.entries[rbase + j]
                if f.is_zero():
                    continue
                for i, e in left_by_col[k]:
                    acc[i * other.cols + j] = acc[i * other.cols + j] + e * f
        return PolyMatrix(ring, self.rows, other.cols, acc)

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

    def with_entries(self, entries: Sequence[Polynomial]) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.rows, self.cols, entries)

    def __str__(self):
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(str(e) for e in self.row(i)) + "]")
        return "[" + ",\n ".join(rows) + "]"

    def __repr__(self):
        return f"<PolyMatrix {self.rows}x{self.cols}>"
