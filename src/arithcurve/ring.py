"""Exact coefficient fields and sparse multivariate polynomials with a weighted grading.

A monomial is an exponent tuple (one non-negative int per variable).  A
polynomial stores its terms as a tuple of (exponents, coefficient) pairs,
sorted strictly decreasing under the ring's monomial order, with no zero
coefficients and no duplicate monomials.  All values are immutable; every
operation returns a new normalized polynomial, so sharing across threads is
safe.

Coefficients are exact: reduced rationals (gmpy2.mpq when available,
fractions.Fraction otherwise) or residues in [0, p) for a prime field.
Integers are arbitrary precision throughout, so weighted degrees and
coefficients cannot overflow.
"""

from __future__ import annotations

from typing import Sequence

try:  # optional speedup; mpq is API-compatible with Fraction for our usage
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rational


class Rationals:
    """The field of exact rationals (values reduced, positive denominator)."""

    char = 0

    def of(self, value):
        if isinstance(value, float):
            raise TypeError("rational field does not accept floats")
        return _rational(value)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / _rational(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


# Miller-Rabin with the first 12 primes as bases is exact below this bound
# (Sorenson & Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < _MR_EXACT_BOUND; ValueError above it."""
    if p >= _MR_EXACT_BOUND:
        raise ValueError(
            f"{p} is too large: primality is only decided below {_MR_EXACT_BOUND}"
        )
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def of(self, value):
        p = self.p
        if isinstance(value, int):
            return value % p
        # rational input: num * den^-1 mod p, defined only when p does not
        # divide the denominator
        num, den = value.numerator, value.denominator
        if den % p == 0:
            raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
        return (int(num) * pow(int(den), -1, p)) % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = Rationals()


def weighted_degree_of(exps: Sequence[int], weights: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(exps, weights))


class WeightedGrevlex:
    """Weighted-degree order with a graded-reverse-lex tie break.

    key() returns a tuple that compares the same way the monomials do, so it
    can be fed to sort()/max() directly.  The key is additive under monomial
    multiplication, which makes the order multiplicative; weighted degree is
    bounded below, which makes it a well-order on each degree slice.
    """

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(int(w) for w in weights)

    def key(self, exps: Sequence[int]):
        return (
            weighted_degree_of(exps, self.weights),
            sum(exps),
            tuple(-e for e in reversed(exps)),
        )

    def __repr__(self):
        return f"WeightedGrevlex{self.weights}"

    def __eq__(self, other):
        return isinstance(other, WeightedGrevlex) and other.weights == self.weights

    def __hash__(self):
        return hash(("WeightedGrevlex", self.weights))


class EliminationOrder:
    """Block order: the first `head` variables dominate everything after them.

    Any monomial containing an eliminated variable is larger than every
    monomial free of them, so the t-free elements of a reduced Groebner basis
    generate the elimination ideal.  The head block is compared by total
    degree then reverse lex; the tail by WeightedGrevlex on `tail_weights`.
    """

    def __init__(self, head: int, tail_weights: Sequence[int]):
        self.head = head
        self.tail = WeightedGrevlex(tail_weights)

    def key(self, exps: Sequence[int]):
        h = exps[: self.head]
        return (
            sum(h),
            tuple(-e for e in reversed(h)),
            self.tail.key(exps[self.head :]),
        )

    def __repr__(self):
        return f"EliminationOrder(head={self.head}, tail={self.tail.weights})"

    def __eq__(self, other):
        return (
            isinstance(other, EliminationOrder)
            and other.head == self.head
            and other.tail == self.tail
        )

    def __hash__(self):
        return hash(("EliminationOrder", self.head, self.tail.weights))


class PolyRing:
    """A polynomial ring with named variables, weights, field and order."""

    def __init__(self, names: Sequence[str], weights: Sequence[int], field=QQ, order=None):
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        self.field = field
        self.order = order if order is not None else WeightedGrevlex(self.weights)
        self.nvars = len(self.names)
        self.zero = Polynomial(self, ())
        one = field.of(1)
        self.one = Polynomial(self, (((0,) * self.nvars, one),))

    def var(self, i: int, power: int = 1) -> Polynomial:
        exps = [0] * self.nvars
        exps[i] = power
        return self.monomial(tuple(exps))

    def monomial(self, exps: Sequence[int], coeff=1) -> Polynomial:
        c = self.field.of(coeff)
        if c == 0:
            return self.zero
        return Polynomial(self, ((tuple(exps), c),))

    def constant(self, value) -> Polynomial:
        return self.monomial((0,) * self.nvars, value)

    def from_dict(self, data: dict) -> Polynomial:
        terms = [(m, c) for m, c in data.items() if c != 0]
        terms.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.names == self.names
            and other.weights == self.weights
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; weights={self.weights}; {self.field})"


class Polynomial:
    """Immutable sparse polynomial; terms sorted decreasing under the ring order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def weighted_degree(self):
        """Common weighted degree of all terms, or None if inhomogeneous.

        Raises ValueError on the zero polynomial (degree undefined).
        """
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        w = self.ring.weights
        degs = {weighted_degree_of(m, w) for m, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_homogeneous(self) -> bool:
        return not self.terms or self.weighted_degree() is not None

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._compatible(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        field = self.ring.field
        data = dict(self.terms)
        for m, c in other.terms:
            if m in data:
                s = field.add(data[m], c)
                if s == 0:
                    del data[m]
                else:
                    data[m] = s
            else:
                data[m] = c
        return self.ring.from_dict(data)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((m, neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._compatible(other)
            if not self.terms or not other.terms:
                return self.ring.zero
            field = self.ring.field
            data = {}
            for ma, ca in self.terms:
                for mb, cb in other.terms:
                    m = tuple(x + y for x, y in zip(ma, mb))
                    prod = field.mul(ca, cb)
                    if m in data:
                        s = field.add(data[m], prod)
                        if s == 0:
                            del data[m]
                        else:
                            data[m] = s
                    else:
                        data[m] = prod
            return self.ring.from_dict(data)
        # scalar multiplication
        c = self.ring.field.of(other)
        return self.scale(c)

    __rmul__ = __mul__

    def scale(self, coeff) -> "Polynomial":
        """Multiply by a field element (already in the coefficient domain)."""
        if coeff == 0:
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(self.ring, tuple((m, mul(c, coeff)) for m, c in self.terms))

    def mul_term(self, exps, coeff) -> "Polynomial":
        """Multiply by coeff * X^exps; preserves sortedness, so no re-sort."""
        if coeff == 0:
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(
            self.ring,
            tuple(
                (tuple(a + b for a, b in zip(m, exps)), mul(c, coeff))
                for m, c in self.terms
            ),
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one
        for _ in range(k):
            result = result * self
        return result

    def monic(self) -> "Polynomial":
        lc = self.leading_coeff()
        one = self.ring.field.of(1)
        if lc == one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- conversions --------------------------------------------------------

    def change_ring(self, new_ring: PolyRing) -> "Polynomial":
        """Map into a ring with the same variables (possibly new field/order)."""
        if new_ring.nvars != self.ring.nvars:
            raise ValueError("variable count mismatch")
        of = new_ring.field.of
        data = {}
        for m, c in self.terms:
            v = of(c)
            if v != 0:
                data[m] = v
        return new_ring.from_dict(data)

    # -- equality / hashing / printing --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def _term_str(self, exps, coeff) -> str:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(self.ring.names, exps)
            if e
        ]
        body = "*".join(factors)
        if not body:
            return str(coeff)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.terms):
            s = self._term_str(m, c)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}")
        return "".join(parts)

    def __repr__(self):
        return f"<{self}>"


def monomial_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff X^a divides X^b."""
    return all(x <= y for x, y in zip(a, b))

def monomial_div(b: Sequence[int], a: Sequence[int]):
    """Exponent vector of X^b / X^a."""
    return tuple(y - x for x, y in zip(a, b))

def monomial_lcm(a: Sequence[int], b: Sequence[int]):
    return tuple(max(x, y) for x, y in zip(a, b))


def curve_ring(weights: Sequence[int], field=QQ) -> PolyRing:
    """Ring k[X0..Xn] with deg(Xi) = weights[i], weighted grevlex order."""
    names = tuple(f"X{i}" for i in range(len(weights)))
    return PolyRing(names, weights, field=field)


def elimination_ring(weights: Sequence[int], field=QQ) -> PolyRing:
    """Ring k[t, X0..Xn] with t first and greatest (block elimination order).

    t carries weight 1 so that Xi - t^{weights[i]} is homogeneous and every
    computation in this ring stays weighted-graded.
    """
    names = ("t",) + tuple(f"X{i}" for i in range(len(weights)))
    full_weights = (1,) + tuple(int(w) for w in weights)
    order = EliminationOrder(1, weights)
    return PolyRing(names, full_weights, field=field, order=order)


def drop_first_variable(p: Polynomial, target: PolyRing) -> Polynomial:
    """Project a polynomial not involving the first variable onto `target`."""
    data = {}
    of = target.field.of
    for m, c in p.terms:
        if m[0] != 0:
            raise ValueError("polynomial involves the eliminated variable")
        data[m[1:]] = of(c)
    return target.from_dict(data)
