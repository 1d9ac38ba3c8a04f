"""Arithmetic sequences, their validation, and the curve ideal's generators.

A sequence m0, m0+d, ..., m0+n*d qualifies when (i) the terms have gcd 1,
(ii) they increase strictly, and (iii) no term is a non-negative integer
combination of the others, i.e. the terms generate their numerical semigroup
minimally.  Write m0 = a*n + b with b in [1, n].  Given (i), condition (iii)
holds exactly when a >= 1, that is m0 > n, so validation checks no more.  A
relation m_j = m_{i_1} + ... + m_{i_k} with k >= 2 reads
(k-1)*m0 = (j - i_1 - ... - i_k)*d, and gcd(m0, d) = 1 makes m0 divide a
positive number at most n; conversely m_{m0} = (d+1)*m0 when m0 <= n.

The defining ideal of the curve X_i = t^{m_i} is generated by two families of
homogeneous binomials (weights deg X_i = m_i):

  quadratics  X_i*X_{j+1} - X_j*X_{i+1}          for 0 <= i < j <= n-1
  powers      X_{b+j-2}*X_n^a - X_{j-2}*X_0^{a+d}  for 2 <= j <= n+2-b

which are exactly the 2x2 minors of the consecutive-pair matrix (matrix_a)
and the first-column 2x2 minors of the power-column matrix (matrix_b).
`generators()` packs each binomial straight from the exponents of its two
terms, with coefficients 1 and -1, and the tests check it against those
minors.  Indexing is stable: quadratics in lexicographic (i, j) order,
powers by ascending j, `all` = quadratics followed by powers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .groebner import DEFAULT_LIMITS, Limits, ResourceLimitExceeded
from .matrices import PolyMatrix
from .ring import QQ, Polynomial, PolyRing, curve_ring, packed_bits


class SequenceError(ValueError):
    """Input fails one of the defining conditions."""


class GcdNotOne(SequenceError):
    pass


# a gcd failure's message lists at most this many terms; a longer sequence
# is shown by its first two terms and its last, so that the message costs
# O(1) however large n is
_LISTED_TERMS = 16


class FirstTermTooSmall(SequenceError):
    """m0 <= n, so the quotient of m0 by n vanishes and minimality fails."""


@dataclass(frozen=True)
class ArithmeticSequence:
    """Validated sequence with the derived decomposition m0 = a*n + b."""

    m0: int
    d: int
    n: int
    a: int
    b: int
    terms: tuple[int, ...]

    @classmethod
    def validate(cls, m0: int, d: int, n: int) -> "ArithmeticSequence":
        if m0 < 1:
            raise SequenceError("m0 must be a positive integer")
        if d < 0:
            raise SequenceError("common difference d must be non-negative")
        if n < 2:
            raise SequenceError("n must be at least 2")
        # every degree the commands print lies below the curve ring's
        # degree_cap; one that Python cannot convert to text would fail
        # mid-output, after a long run.  With no limit (0), Python's default
        # bounds them all the same: wider packed fields can run out of
        # memory before any cap applies
        limit = sys.get_int_max_str_digits()
        bound = limit or sys.int_info.default_max_str_digits
        bits = packed_bits((m0 + n * d,))
        if bits * math.log10(2) > bound:
            raise SequenceError(
                f"the terms are too large: degrees may reach 2^{bits}, past "
                f"the {bound} decimal digits Python converts to text "
                + ("(sys.set_int_max_str_digits)" if limit else
                   "by default (sys.int_info.default_max_str_digits)"))
        # the gcd of the terms m0 + i*d is gcd(m0, d), so both checks are
        # O(1); the n + 1 terms are built only for the result
        g = math.gcd(m0, d)
        if g != 1:
            if n < _LISTED_TERMS:
                shown = ", ".join(str(m0 + i * d) for i in range(n + 1))
            else:
                shown = f"{m0}, {m0 + d}, ..., {m0 + n * d}"
            raise GcdNotOne(f"gcd({shown}) = {g} != 1")
        b = m0 % n or n
        a = (m0 - b) // n
        if a < 1:
            raise FirstTermTooSmall(
                f"m0 = {m0} <= n = {n}: writing m0 = a*n + b with b in [1,n] "
                f"gives a = 0, and the terms cannot generate minimally"
            )
        terms = tuple(m0 + i * d for i in range(n + 1))
        return cls(m0=m0, d=d, n=n, a=a, b=b, terms=terms)

    # -- ring and parametrization -----------------------------------------

    def ring(self, field=QQ) -> PolyRing:
        return curve_ring(self.terms, field=field)

    def phi_image(self, p: Polynomial) -> dict[int, object]:
        """Image of p under X_i -> t^{m_i}, as {t-exponent: coefficient}."""
        field = p.ring.field
        out: dict[int, object] = {}
        for exps, coeff in p.terms:
            e = sum(x * m for x, m in zip(exps, self.terms))
            s = field.add(out[e], coeff) if e in out else coeff
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def vanishes(self, p: Polynomial) -> bool:
        """True iff p lies in the kernel of the parametrization map."""
        return not self.phi_image(p)

    # -- the two matrices ---------------------------------------------------

    def matrix_a(self, field=QQ) -> PolyMatrix:
        """2 x n matrix whose column j (0-based) is (X_j, X_{j+1})."""
        R = self.ring(field)
        top = [R.var(j) for j in range(self.n)]
        bottom = [R.var(j + 1) for j in range(self.n)]
        return PolyMatrix.from_rows(R, [top, bottom])

    def matrix_b(self, field=QQ) -> PolyMatrix:
        """2 x (n-b+2) matrix: first column (X_n^a, X_0^{a+d}), then (X_{j-1}, X_{b+j-1})."""
        R = self.ring(field)
        n, a, b, d = self.n, self.a, self.b, self.d
        top = [R.var(n, a)] + [R.var(j - 1) for j in range(1, n - b + 2)]
        bottom = [R.var(0, a + d)] + [R.var(b + j - 1) for j in range(1, n - b + 2)]
        return PolyMatrix.from_rows(R, [top, bottom])

    def generators(self, field=QQ,
                   limits: Limits = DEFAULT_LIMITS) -> "GeneratorSet":
        """Minimal binomial generating set of the curve ideal.

        ResourceLimitExceeded, before anything is built, when there are
        more generators than `limits.max_basis`: the oracle's resolution
        and its x0 test each store every generator in one run's basis, so
        neither could finish under that cap, and at large n building the
        generators alone takes minutes or all memory.
        """
        count = expected_generator_count(self.n, self.b)
        if not count <= limits.max_basis:
            raise ResourceLimitExceeded(
                f"generators: {count} minimal generators exceed the basis "
                f"size cap {limits.max_basis}")
        R, n = self.ring(field), self.n
        col = R._cols
        return GeneratorSet(
            sequence=self,
            quadratics=tuple([_binomial(R, col[i] + col[j + 1], col[j] + col[i + 1])
                              for i in range(n) for j in range(i + 1, n)]),
            powers=tuple([self._power(R, j) for j in range(2, n + 3 - self.b)]),
        )

    def power_binomial(self, j: int, field=QQ) -> Polynomial:
        """The power binomial p[j], X_{b+j-2}*X_n^a - X_{j-2}*X_0^{a+d} for
        2 <= j <= n+2-b, alone: `generators().powers[j - 2]`."""
        if not 2 <= j <= self.n + 2 - self.b:
            raise IndexError(f"power index {j} out of range 2..{self.n + 2 - self.b}")
        return self._power(self.ring(field), j)

    def _power(self, R: PolyRing, j: int) -> Polynomial:
        """p[j] in the curve ring R, packed as a sum of R's packing columns."""
        col, n, a, b = R._cols, self.n, self.a, self.b
        return _binomial(R, a * col[n] + col[b + j - 2],
                         (a + self.d) * col[0] + col[j - 2])

    def __str__(self):
        return f"({self.m0}, {self.d}, {self.n})"


def _binomial(R: PolyRing, plus: int, minus: int) -> Polynomial:
    """X^plus - X^minus for distinct packed monomials, its terms sorted.

    The generators' packed monomials are sums of packing columns with no
    range check: the largest degree of any term, (a+1)*m_n (of p[n+2-b]; a
    quadratic's is at most 2*m_n), is at most m_n^2, as a < m0, and so lies
    below the curve ring's degree_cap (`packed_bits`)."""
    terms = ((plus, 1), (minus, R.field.neg(1)))
    return Polynomial(R, terms if plus > minus else terms[::-1])


def validate_sequence(m0: int, d: int, n: int) -> ArithmeticSequence:
    return ArithmeticSequence.validate(m0, d, n)


@dataclass(frozen=True)
class GeneratorSet:
    sequence: ArithmeticSequence
    quadratics: tuple[Polynomial, ...]
    powers: tuple[Polynomial, ...]

    @property
    def all(self) -> tuple[Polynomial, ...]:
        return self.quadratics + self.powers

    def __len__(self) -> int:
        return len(self.quadratics) + len(self.powers)

    def degrees(self) -> list[int]:
        return [p.weighted_degree() for p in self.all]

    def labels(self) -> list[str]:
        n = self.sequence.n
        out = [
            f"q[{i},{j}]" for i in range(n) for j in range(i + 1, n)
        ]
        out += [f"p[{j}]" for j in range(2, self.sequence.n + 2 - self.sequence.b + 1)]
        return out


def expected_generator_count(n: int, b: int) -> int:
    """C(n,2) + n - b + 1, the size of the minimal generating set."""
    return math.comb(n, 2) + n - b + 1
