"""Graded free complexes: the length-(m-1) minor complex of a 2 x m monomial
matrix, mapping cones, and the construction of the two resolved cases.

Basis bookkeeping for the minor complex of a 2 x m matrix M whose columns all
satisfy deg(bottom) - deg(top) = c:

  step 0      R, one generator of shift 0
  step s >= 1 basis elements (cols, v1), standing for the wedge of the
              columns in cols tensor lambda0^v0 lambda1^v1 with
              v0 = s - 1 - v1: cols a strictly increasing (s+1)-subset of
              the column indices 0..m-1; rank s * C(m, s+1);
              shift = sum of top-entry degrees over cols + (v1 + 1) * c

The differential removes one column from the wedge with sign (-1)^j on the
j-th wedge position (counted from 0): a v0-decrement multiplies by the top
entry of the removed column, a v1-decrement by the bottom entry.  Step 1
sends the pair (c1, c2) to the 2x2 minor of those columns.

Basis elements are ordered (columns lexicographic, then v1 ascending) so
every matrix is reproducible bit-for-bit.
"""

from __future__ import annotations

from itertools import combinations

from .curve import ArithmeticSequence
from .matrices import PolyMatrix
from .ring import QQ, Polynomial


class ComplexError(ValueError):
    pass


class NonMonomialEntry(ComplexError):
    pass


class InhomogeneousColumns(ComplexError):
    """Column degree difference bottom - top is not constant across columns."""


class InhomogeneousMultiplier(ComplexError):
    pass


class WrongCase(ValueError):
    """The requested construction does not apply to this sequence."""


class GradedComplex:
    """Complex of graded free modules: steps[s] holds the generator shifts of
    step s, and maps[s-1] sends step s to step s-1.

    `_nonzero_product` and `_off_degree` read whether it is a graded complex
    once each: `verify_complex` reports them and `oracle.verify_exactness`
    reads them, so a `--verify` run multiplies the differentials once."""

    def __init__(self, steps, maps):
        self.steps = tuple(tuple(shifts) for shifts in steps)
        self.maps = tuple(maps)
        if len(self.maps) != len(self.steps) - 1:
            raise ValueError("need one differential per pair of adjacent steps")
        for s, mat in enumerate(self.maps, start=1):
            if mat.rows != len(self.steps[s - 1]) or mat.cols != len(self.steps[s]):
                raise ValueError(f"differential {s} has the wrong shape")
        self._product_witness: tuple | None = None
        self._degree_witness: tuple | None = None

    def _nonzero_product(self) -> tuple:
        """(s, row, col) of the first nonzero entry of d_{s-1} * d_s, s = 2,
        3, ..., each product row-major, or () when every product is zero;
        computed once."""
        if self._product_witness is None:
            products = ((s, self.differential(s - 1).mul(self.differential(s)))
                        for s in range(2, self.length + 1))
            self._product_witness = _first_entry(products, lambda s, i, j, e: True)
        return self._product_witness

    def _off_degree(self) -> tuple:
        """(s, row, col) of the first entry of d_s, s = 1, 2, ..., that is
        not homogeneous of degree steps[s][col] - steps[s-1][row], or ();
        computed once."""
        if self._degree_witness is None:
            steps = self.steps
            self._degree_witness = _first_entry(
                self._differentials(),
                lambda s, i, j, e: e.weighted_degree() != steps[s][j] - steps[s - 1][i])
        return self._degree_witness

    def _differentials(self):
        return ((s, self.differential(s)) for s in range(1, self.length + 1))

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def differential(self, s: int) -> PolyMatrix:
        if not 1 <= s <= self.length:
            raise IndexError(f"no differential at step {s}")
        return self.maps[s - 1]

    def betti(self) -> tuple[int, ...]:
        return tuple(len(shifts) for shifts in self.steps)

    def __repr__(self):
        return f"<GradedComplex: ranks {self.betti()}>"


def _monomial_degree(p: Polynomial) -> int:
    if p.is_zero() or not p.is_monomial():
        raise NonMonomialEntry(f"entry {p} is not a monomial")
    return p.weighted_degree()


def minor_complex(M: PolyMatrix) -> GradedComplex:
    """Free complex resolving R modulo the 2x2 minors of a 2 x m matrix.

    Entries must be monomials and every column must have the same degree
    difference bottom - top; both are checked.
    """
    if M.rows != 2:
        raise ComplexError("a 2-row matrix is required")
    m = M.cols
    if m < 2:
        raise ComplexError("at least two columns are required")
    ring = M.ring
    top_deg = [_monomial_degree(M.entry(0, c)) for c in range(m)]
    bottom_deg = [_monomial_degree(M.entry(1, c)) for c in range(m)]
    diffs = {bottom_deg[c] - top_deg[c] for c in range(m)}
    if len(diffs) != 1:
        raise InhomogeneousColumns(
            f"column degree differences {sorted(diffs)} are not constant"
        )
    c_diff = diffs.pop()

    # the basis of step s >= 1 as (cols, v1); v0 = s - 1 - v1
    bases = [[]] + [  # step 0 is R itself
        [(cols, v1) for cols in combinations(range(m), s + 1) for v1 in range(s)]
        for s in range(1, m)
    ]
    steps = [(0,)] + [
        tuple(sum(top_deg[c] for c in cols) + (v1 + 1) * c_diff for cols, v1 in basis)
        for basis in bases[1:]
    ]

    # step 1: the pair (c1, c2) goes to the corresponding 2x2 minor
    maps = [PolyMatrix(ring, 1, len(bases[1]),
                       {(0, j): M.minor2(*cols) for j, (cols, _) in enumerate(bases[1])})]
    # signed[row][c] = (entry, -entry), built once: entries are immutable,
    # so every differential shares them
    signed = [[(e, -e) for e in (M.entry(row, c) for c in range(m))] for row in (0, 1)]
    for s in range(2, m):
        target_index = {key: i for i, key in enumerate(bases[s - 1])}
        entries = {}
        for j, (cols, v1) in enumerate(bases[s]):
            v0 = s - 1 - v1
            for pos, c in enumerate(cols):
                rest = cols[:pos] + cols[pos + 1 :]
                for row, tgt_v1, live in ((0, v1, v0 >= 1), (1, v1 - 1, v1 >= 1)):
                    if live:
                        entries[target_index[rest, tgt_v1], j] = signed[row][c][pos % 2]
        maps.append(PolyMatrix(ring, len(target_index), len(bases[s]), entries))
    return GradedComplex(steps, maps)


def mapping_cone(E: GradedComplex, multiplier: Polynomial) -> GradedComplex:
    """Cone of multiplication by `multiplier` on the complex E.

    Step s is (shifted E step s-1) + (E step s); the differential is
    [[-d_E, 0], [multiplier * I, d_E]] in that block order, which squares
    to zero because multiplication by a ring element commutes with the
    differentials.  The shifted block's shifts are raised by deg(multiplier).
    """
    ring = E.maps[0].ring if E.maps else multiplier.ring
    if multiplier.is_zero():
        bump = 0
    else:
        bump = multiplier.weighted_degree()
        if bump is None:
            raise InhomogeneousMultiplier(f"{multiplier} is not homogeneous")

    def part(s: int) -> tuple[int, ...]:
        return E.steps[s] if 0 <= s <= E.length else ()

    L = E.length + 1  # cone has one extra step
    steps = [tuple(x + bump for x in part(s - 1)) + part(s) for s in range(L + 1)]

    maps = []
    for s in range(1, L + 1):
        src_rows, src_cols = len(part(s - 2)), len(part(s - 1))
        # multiplier * identity block (below the shifted columns)
        entries = {(src_rows + j, j): multiplier for j in range(src_cols)}
        # -d_E block (top left)
        if 1 <= s - 1 <= E.length:
            inner = E.differential(s - 1).nonzero
            # each distinct entry is negated once and the result shared
            negated = {e: -e for e in set(inner.values())}
            entries.update((key, negated[e]) for key, e in inner.items())
        # d_E block (bottom right)
        if s <= E.length:
            entries.update(((src_rows + i, src_cols + j), e)
                           for (i, j), e in E.differential(s).nonzero.items())
        maps.append(PolyMatrix(ring, len(steps[s - 1]), len(steps[s]), entries))
    return GradedComplex(steps, maps)


def resolution_b1(seq: ArithmeticSequence, field=QQ) -> GradedComplex:
    """Minimal graded free resolution when m0 = 1 mod n: the minor complex of
    the power-column matrix (which then contains all consecutive pairs)."""
    if seq.b != 1:
        raise WrongCase(f"b = {seq.b}, construction requires b = 1")
    return minor_complex(seq.matrix_b(field))


def resolution_bn(seq: ArithmeticSequence, field=QQ) -> GradedComplex:
    """Minimal graded free resolution when m0 = 0 mod n: cone over the minor
    complex of the consecutive-pair matrix, along the extra power binomial."""
    if seq.b != seq.n:
        raise WrongCase(f"b = {seq.b}, construction requires b = n = {seq.n}")
    E = minor_complex(seq.matrix_a(field))
    return mapping_cone(E, seq.power_binomial(2, field))


def _first_entry(mats, accept) -> tuple:
    """(step, row, col) of the first nonzero entry e with accept(step, row,
    col, e) over (step, matrix) pairs in order, each matrix row-major, or ()."""
    for s, d in mats:
        for (i, j), e in d.nonzero.items():
            if accept(s, i, j, e):
                return (s, i, j)
    return ()


def verify_complex(C: GradedComplex) -> dict:
    """Check d.d = 0, graded homogeneity of every entry, and minimality.

    Returns the check entries that `resolve --verify` prints: {"dd_zero" |
    "homogeneous" | "minimal": {"pass": bool, "witness": [step, row, col]
    of the first failing entry, or []}}.  The first two are C's own cached
    reads, which `oracle.verify_exactness` reads too.
    """
    found = {
        "dd_zero": C._nonzero_product(),
        "homogeneous": C._off_degree(),
        "minimal": _first_entry(C._differentials(), lambda s, i, j, e: e.is_constant()),
    }
    return {name: {"pass": not w, "witness": list(w)} for name, w in found.items()}
