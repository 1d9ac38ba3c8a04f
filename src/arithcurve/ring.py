"""Exact coefficient fields and sparse multivariate polynomials with a weighted grading.

At the API boundary a monomial X^e is its exponent tuple e (one non-negative
int per variable).  Inside a polynomial it is one packed int: a row of
fields of equal width, each holding a non-negative linear form of e below a
guard bit.  The fields are

  - the linear forms of the monomial order (`order.forms()`), most
    significant first, so comparing packed ints compares monomials in the
    ring's order;
  - then each exponent and the weighted degree, unless a form already holds
    them.

The packing is linear: packed(1) = 0, the packed product of two monomials is
the sum of their ints and a quotient is the difference.  X^a divides X^b
exactly when b - a borrows from no field, that is when it leaves every guard
bit clear, because the exponents are fields and every other form has
non-negative coefficients.  The coefficients of every form are bounded by the
positive ring weights, so no field exceeds the weighted degree, and a
monomial fits when its weighted degree is below `degree_cap`, which grows with
the largest weight.  Creating a monomial outside that range, from a tuple or
as a product, raises MonomialOutOfRange; no field ever wraps into its
neighbour.

A polynomial stores its terms in `packed`, a tuple of (packed int,
coefficient) pairs sorted strictly decreasing, so decreasing under the ring's
order, with no zero coefficients and no duplicate monomials.  One kernel,
`_add_into` (acc += k * X^u * q), forms every product of polynomials: it
range-checks X^u against q's top degree (`PolyRing.top_degree`) and then
hands the loop to the field's `add_into`, which adds q's terms one by one
into acc, a map {packed monomial: coefficient}, deleting a coefficient
that cancels.  The engine makes the same range check inline, in
`_Engine._main_loop` and `_Reducer._reduce`, against the top degree it
stores with each basis element, and `PolyMatrix.mul` and `minor2` make it
once per entry product, against the sum of the two entries' top degrees;
both then call the field's `add_into` themselves, which stays the one
merge loop.  Each field inlines its own arithmetic there (`% p`, or the
int fast path and `_integral` of QQ), the same operations `add` and `mul`
perform.
`add_mul` copies a polynomial's terms into a map, adds into it and sorts
the map once; sums, differences, `mul_term` and products (one `add_mul` per
term of the shorter factor) go through it, and the Buchberger engine keeps
each vector it reduces in one such map from start to finish.  `terms`,
`leading_term`, `leading_monomial`, `from_dict`, `monomial` and `mul_term`
speak exponent tuples and decode or encode at the boundary; the engine works
on packed terms.  It reads the layout (`guard`, `_degree_shift`, `_mask`,
`degree_cap` and `position_unit`) once per run to do what `divides`,
`packed_degree` and `check_degree` do inline on its keys (it keys a term of
a module vector by its packed monomial and position).  Its pair criteria
take the lcms of exponent words, packed monomials masked to `word_fields`,
as field-wise maxima read off `word_guard`, test their divisibility against
it, and pack the lcm of each pair they queue field by field:
each exponent field times its packing column (`_exp_shifts`, `_cols`,
read once per run), with no exponent tuple.  `repacker` moves a packed
monomial into another ring's layout of the same variables, or of all but
the first, field by field in the same way; `change_ring` and
`drop_first_variable` go through it.
`order.key` is the tuple-based reference of the order.

Three orders are defined, each by its forms: `WeightedGrevlex`, the order
of `curve_ring`; `EliminationOrder`, which puts t first in
`elimination_ring`; and `WeightedRevlex`, weighted degree then reverse lex
with X0 the smallest variable, the order of `revlex_ring`, under which a
homogeneous polynomial whose lead involves X0 is divisible by X0 (the
x0-regularity test of `oracle.artinian_generators` and `artinian_table` reads
its leads, and `artinian_table` walks the standard monomials they leave).

All values are immutable; every operation returns a new normalized
polynomial, so sharing across threads is safe.

Coefficients are exact: rationals (an int when integral, otherwise a reduced
fractions.Fraction) or residues in [0, p) for a prime field.  Every stored
coefficient has that form from construction on: `monomial`, `one` and
`from_dict` take a user value through `PolyRing._coefficient`, and the kernel
keeps the form in every product, although `Rationals.of` returns a Fraction.
Integers are arbitrary precision throughout, so weighted degrees and
coefficients cannot overflow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul as _mul
from typing import Callable, Sequence


def _integral(r):
    """r as an int when it is a Fraction with denominator 1, else r itself."""
    if r.__class__ is Fraction and r.denominator == 1:
        return r.numerator
    return r


class Rationals:
    """The field of exact rationals.

    An integral value is an int and any other value a reduced Fraction with
    positive denominator; `add`, `mul` and `inv` return that form, and
    `add_into` writes it.  The two are interchangeable: n == Fraction(n),
    with equal hash and str, so a polynomial compares, hashes and prints
    alike whichever form its coefficients take.  `of` returns a Fraction, so
    user arithmetic on it (`QQ.of(1) / QQ.of(7)`) stays exact; a polynomial
    stores an integral value as an int from construction on
    (`PolyRing._coefficient`), and every product the kernel forms keeps it
    so, which keeps the binomial curve ideals off the slower Fraction
    arithmetic altogether.
    """

    char = 0

    def of(self, value):
        if isinstance(value, float):
            raise TypeError("rational field does not accept floats")
        return Fraction(value)

    def add(self, a, b):
        r = a + b
        return r if r.__class__ is int else _integral(r)

    def mul(self, a, b):
        r = a * b
        return r if r.__class__ is int else _integral(r)

    def neg(self, a):
        return -a

    def inv(self, a):
        # without a Fraction: the engine inverts every lead coefficient -1
        if a == 1 or a == -1:
            return _integral(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(1 / Fraction(a))

    def add_into(self, acc: dict, q: tuple, u: int, k):
        """The loop of `ring._add_into`: acc += k * X^u * q term by term, as
        `add` and `mul` would, with their int fast path and `_integral`
        inline so that integral results stay ints."""
        get = acc.get
        for m, c in q:
            m += u
            c = c * k
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            old = get(m)
            if old is None:
                acc[m] = c
                continue
            c = old + c
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            if c:
                acc[m] = c
            else:
                del acc[m]

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
        if isinstance(value, float):
            raise TypeError(f"{self!r} does not accept floats")
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

    def add_into(self, acc: dict, q: tuple, u: int, k):
        """The loop of `ring._add_into`: acc += k * X^u * q term by term, as
        `add` and `mul` would, with `% p` inline."""
        p = self.p
        get = acc.get
        for m, c in q:
            m += u
            old = get(m)
            if old is None:
                acc[m] = c * k % p
                continue
            c = (old + c * k) % p
            if c:
                acc[m] = c
            else:
                del acc[m]

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = Rationals()


class MonomialOutOfRange(OverflowError):
    """A monomial's weighted degree does not fit its ring's packed fields."""


def packed_bits(weights: Sequence[int]) -> int:
    """Width of each packed field, guard bit excluded, of a ring with these
    weights; its `degree_cap` is 2**packed_bits(weights)."""
    # the weighted degree bounds every field, so a degree below degree_cap
    # keeps every field below its guard bit.  The degrees of a curve's
    # resolution grow like the square of its largest weight (the b = 1
    # generators reach about m0^2 / n), with 16 bits spare.
    return 2 * max(weights, default=1).bit_length() + 16


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

    def forms(self) -> list[tuple]:
        """Linear forms whose lexicographic comparison is this order.

        Weighted degree, total degree, then the prefix sums e_0 + ... + e_{k-1}
        for k = n-1 down to 1: with the total degree tied, a larger prefix
        sum means a smaller last exponent, which is what the reverse-lex part
        of key() prefers; the last exponent compared, e_0, is then fixed.
        """
        n = len(self.weights)
        return [self.weights, (1,) * n] + [
            (1,) * k + (0,) * (n - k) for k in range(n - 1, 0, -1)
        ]

    def __repr__(self):
        return f"WeightedGrevlex{self.weights}"

    def __eq__(self, other):
        return isinstance(other, WeightedGrevlex) and other.weights == self.weights

    def __hash__(self):
        return hash(("WeightedGrevlex", self.weights))


class WeightedRevlex:
    """Weighted-degree order with a reverse-lex tie break in which X0 is the
    smallest variable: of two monomials of one weighted degree, the one
    with the smaller exponent of X0 is larger, then of X1, and so on.

    So a homogeneous polynomial whose lead involves X0 is divisible by X0,
    which WeightedGrevlex's total-degree tie break does not give: with
    weights (3, 4, 5), X0^3 leads X0^3 - X1*X2 there.
    """

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(int(w) for w in weights)

    def key(self, exps: Sequence[int]):
        return (weighted_degree_of(exps, self.weights), tuple(-e for e in exps))

    def forms(self) -> list[tuple]:
        """The weights, then for each k >= 1 the form w_k*e_k + w_{k+1}*e_{k+1}
        + ...: with the weighted degree and e_0..e_{k-2} tied, a larger form
        means a smaller e_{k-1}, which is what key() prefers; the last
        exponent is then fixed by the degree."""
        w, n = self.weights, len(self.weights)
        return [w] + [(0,) * k + w[k:] for k in range(1, n)]

    def __repr__(self):
        return f"WeightedRevlex{self.weights}"

    def __eq__(self, other):
        return isinstance(other, WeightedRevlex) and other.weights == self.weights

    def __hash__(self):
        return hash(("WeightedRevlex", self.weights))


class EliminationOrder:
    """Block order that eliminates the first variable, t: its exponent
    dominates, and ties are broken by WeightedGrevlex on `tail_weights`.

    Any monomial containing t is larger than every monomial free of it, so
    the t-free elements of a Groebner basis are a Groebner basis of the
    elimination ideal.
    """

    def __init__(self, tail_weights: Sequence[int]):
        self.tail = WeightedGrevlex(tail_weights)

    def key(self, exps: Sequence[int]):
        return (exps[0], self.tail.key(exps[1:]))

    def forms(self) -> list[tuple]:
        """t's exponent, then the tail's forms, each padded with zeros."""
        return [(1,) + (0,) * len(self.tail.weights)] + [
            (0,) + f for f in self.tail.forms()
        ]

    def __repr__(self):
        return f"EliminationOrder(tail={self.tail.weights})"

    def __eq__(self, other):
        return isinstance(other, EliminationOrder) and other.tail == self.tail

    def __hash__(self):
        return hash(("EliminationOrder", self.tail.weights))


class PolyRing:
    """A polynomial ring with named variables, weights, field and order.

    The ring also fixes the packing of its monomials (see the module
    docstring): `guard` holds every field's guard bit, `word_fields` and
    `word_guard` the exponent fields and their guard bits, and a monomial
    fits when its weighted degree is below `degree_cap`.
    """

    def __init__(self, names: Sequence[str], weights: Sequence[int], field=QQ, order=None):
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        self.field = field
        self.order = order if order is not None else WeightedGrevlex(self.weights)
        # hashed once: rings key the `repacker` cache and the ring caches
        self._hash = hash((self.names, self.weights, self.field, self.order))
        self.nvars = len(self.names)
        self._init_packing()
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((0, self._coefficient(1)),))

    def _init_packing(self):
        n = self.nvars
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows = []
        for row in [tuple(f) for f in self.order.forms()] + units + [self.weights]:
            if len(row) != n:
                raise ValueError(f"{self.order!r} does not order {n} variables")
            if any(c < 0 or c > w for c, w in zip(row, self.weights)):
                raise ValueError(f"{self.order!r} needs a form outside 0..weight")
            if row not in rows:
                rows.append(row)
        bits = packed_bits(self.weights)
        width = bits + 1
        shift = {row: width * (len(rows) - 1 - k) for k, row in enumerate(rows)}
        self.degree_cap = 1 << bits
        self.guard = sum(1 << (s + bits) for s in shift.values())
        # one bit above the top field's guard bit: the engine keys a term of
        # module position pos as m - pos * position_unit
        self.position_unit = 1 << (width * len(rows))
        self._mask = (1 << bits) - 1
        self._cols = tuple(sum(row[i] << s for row, s in shift.items()) for i in range(n))
        self._exp_shifts = tuple(shift[u] for u in units)
        self._degree_shift = shift[self.weights]
        # a monomial's exponent word is its packed int masked to the
        # exponent fields, whose guard bits are `word_guard`: one word
        # divides another exactly when their difference leaves those bits
        # clear, and a larger word is never a proper divisor of a smaller one
        self.word_fields = sum(self._mask << s for s in self._exp_shifts)
        self.word_guard = sum(1 << (s + bits) for s in self._exp_shifts)
        self._repackers: dict = {}  # (target, drop_first) -> `repacker`

    # -- packed monomials ---------------------------------------------------

    def encode(self, exps: Sequence[int]) -> int:
        """Packed int of X^exps; MonomialOutOfRange if its degree does not fit."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return self._pack(exps)

    def _pack(self, exps: Sequence[int]) -> int:
        """Packed int of valid exponents; MonomialOutOfRange if the degree
        does not fit."""
        self.check_degree(sum(map(_mul, exps, self.weights)))
        return sum(map(_mul, exps, self._cols))

    def decode(self, m: int) -> tuple:
        """Exponent tuple of a packed monomial."""
        mask = self._mask
        return tuple([(m >> s) & mask for s in self._exp_shifts])

    def check_degree(self, degree: int):
        if degree >= self.degree_cap:
            raise MonomialOutOfRange(
                f"weighted degree {degree} does not fit the packed monomials of "
                f"{self!r} (cap {self.degree_cap})"
            )

    def packed_degree(self, m: int) -> int:
        """Weighted degree of a packed monomial."""
        return (m >> self._degree_shift) & self._mask

    def divides(self, a: int, b: int) -> bool:
        """True iff packed X^a divides packed X^b: b - a borrows from no field."""
        return not (b - a) & self.guard

    def top_degree(self, terms: tuple) -> int:
        """Largest weighted degree of nonempty packed terms; the flat terms
        of a module vector qualify too, as a position leaves the degree
        field unchanged."""
        shift, mask = self._degree_shift, self._mask
        return max([m >> shift & mask for m, _ in terms])

    def repacker(self, target: "PolyRing",
                 drop_first: bool = False) -> Callable[[int], int]:
        """The map taking a packed monomial of this ring to the packed int of
        the same monomial in `target`, a ring of the same variables, or of
        all but the first with `drop_first`; built once per target and kept.

        It goes field to field, with no exponent tuple: each exponent field
        it reads adds that exponent times the target's packing column, and
        times the target's weight to the degree it range-checks against the
        target's `degree_cap` (MonomialOutOfRange past it).  With
        `drop_first`, ValueError on a monomial that involves the first
        variable.  It equals `target._pack(decode(m))`, or
        `target._pack(decode(m)[1:])`.
        """
        key = (target, drop_first)
        repack = self._repackers.get(key)
        if repack is not None:
            return repack
        shifts = self._exp_shifts[1:] if drop_first else self._exp_shifts
        if len(shifts) != target.nvars:
            raise ValueError("variable count mismatch")
        fields = tuple(zip(shifts, target._cols, target.weights))
        mask, cap, check = self._mask, target.degree_cap, target.check_degree
        first = self._exp_shifts[0]

        def repack(m: int) -> int:
            if drop_first and m >> first & mask:
                raise ValueError("monomial involves the eliminated variable")
            packed = degree = 0
            for s, col, w in fields:
                e = m >> s & mask
                packed += e * col
                degree += e * w
            if degree >= cap:
                check(degree)
            return packed

        self._repackers[key] = repack
        return repack

    # -- polynomials from exponent tuples -------------------------------------

    def var(self, i: int, power: int = 1) -> Polynomial:
        exps = [0] * self.nvars
        exps[i] = power
        return self.monomial(exps)

    def _coefficient(self, value):
        """The stored form of a user value: `field.of(value)`, made an int
        when it is integral (over GF(p) it already is one)."""
        return _integral(self.field.of(value))

    def monomial(self, exps: Sequence[int], coeff=1) -> Polynomial:
        c = self._coefficient(coeff)
        if not c:
            return self.zero
        return Polynomial(self, ((self.encode(exps), c),))

    def constant(self, value) -> Polynomial:
        return self.monomial((0,) * self.nvars, value)

    def from_dict(self, data: dict) -> Polynomial:
        """Polynomial from {exponent tuple: coefficient}; each coefficient
        is taken to its stored form (`_coefficient`) and the zeros dropped."""
        encode, coefficient = self.encode, self._coefficient
        terms = []
        for m, c in data.items():
            c = coefficient(c)
            if c:
                terms.append((encode(m), c))
        terms.sort(reverse=True)
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
        return self._hash

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; weights={self.weights}; {self.field})"


def _add_into(acc: dict, q: tuple, top: int, u: int, k, ring: PolyRing):
    """Add k * X^u * q into acc, a map {packed term: coefficient} with no
    zero coefficient; `top` is `ring.top_degree(q)` and q is nonempty.

    The kernel of `Polynomial.add_mul`: MonomialOutOfRange if X^u times
    q's highest-degree term would not fit, checked before anything is
    added.  The field's `add_into` then runs the loop; a coefficient that
    cancels is deleted, so acc stays free of zeros.  `_Engine._main_loop`
    and `_Reducer._reduce` make this range check inline, with the same
    message, and `PolyMatrix.mul` and `minor2` once per entry product; all
    of them call the field's `add_into` directly.
    """
    ring.check_degree(top + ring.packed_degree(u))
    ring.field.add_into(acc, q, u, k)


class Polynomial:
    """Immutable sparse polynomial; packed terms sorted decreasing."""

    __slots__ = ("ring", "packed", "_hash")

    def __init__(self, ring: PolyRing, packed: tuple):
        self.ring = ring
        self.packed = packed
        self._hash = None

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> tuple:
        """(exponent tuple, coefficient) pairs, decreasing under the ring order."""
        decode = self.ring.decode
        return tuple([(decode(m), c) for m, c in self.packed])

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not self.packed or (len(self.packed) == 1 and self.packed[0][0] == 0)

    def is_monomial(self) -> bool:
        return len(self.packed) == 1

    def leading_term(self):
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        m, c = self.packed[0]
        return self.ring.decode(m), c

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def weighted_degree(self):
        """Common weighted degree of all terms, or None if inhomogeneous.

        Raises ValueError on the zero polynomial (degree undefined).
        """
        if not self.packed:
            raise ValueError("zero polynomial has no degree")
        degree = self.ring.packed_degree
        degs = {degree(m) for m, _ in self.packed}
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_homogeneous(self) -> bool:
        return not self.packed or self.weighted_degree() is not None

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.add_mul(other, 0, 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.add_mul(other, 0, -1)

    def add_mul(self, q: "Polynomial", u: int, coeff) -> "Polynomial":
        """self + coeff * X^u * q for a packed monomial u.

        MonomialOutOfRange if a product would not fit.
        """
        self._compatible(q)
        if not q.packed or not coeff:
            return self
        ring = self.ring
        acc = dict(self.packed)
        _add_into(acc, q.packed, ring.top_degree(q.packed), u, coeff, ring)
        return Polynomial(ring, tuple(sorted(acc.items(), reverse=True)))

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple([(m, neg(c)) for m, c in self.packed]))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._compatible(other)
            short, long = ((self, other) if len(self.packed) <= len(other.packed)
                           else (other, self))
            product = self.ring.zero
            for m, c in short.packed:
                product = product.add_mul(long, m, c)
            return product
        # scalar multiplication
        return self.scale(self.ring._coefficient(other))

    __rmul__ = __mul__

    def scale(self, coeff) -> "Polynomial":
        """Multiply by a field element (already in the coefficient domain)."""
        if coeff == 0:
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(self.ring, tuple([(m, mul(c, coeff)) for m, c in self.packed]))

    def mul_term(self, exps, coeff) -> "Polynomial":
        """Multiply by coeff * X^exps; preserves sortedness, so no re-sort."""
        return self.ring.zero.add_mul(self, self.ring.encode(exps), coeff)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one
        for _ in range(k):
            result = result * self
        return result

    def monic(self) -> "Polynomial":
        return self.scale(self.ring.field.inv(self.leading_coeff()))

    # -- conversions --------------------------------------------------------

    def change_ring(self, new_ring: PolyRing) -> "Polynomial":
        """Map into a ring with the same variables (possibly new field/order).
        Each term is repacked (`PolyRing.repacker`) and the terms sorted
        once.  Over the same field the coefficients keep their form; over
        another each is taken to its stored form there (`_coefficient`)
        and the zeros dropped, as `from_dict` does."""
        if new_ring.nvars != self.ring.nvars:
            raise ValueError("variable count mismatch")
        repack = self.ring.repacker(new_ring)
        terms = [(repack(m), c) for m, c in self.packed]
        if new_ring.field != self.ring.field:
            coefficient = new_ring._coefficient
            terms = [(m, coefficient(c)) for m, c in terms]
            terms = [t for t in terms if t[1]]
        return Polynomial(new_ring, tuple(sorted(terms, reverse=True)))

    # -- equality / hashing / printing --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring is other.ring or self.ring == other.ring
        ) and self.packed == other.packed

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.packed))
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
        if not self.packed:
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


# the rings each constructor keeps, the least recently used dropped first:
# one command uses a few at a time (a scan cell three), and a ring takes
# about 2.3 KB, so a cache that dropped none grew with every scan cell
RING_CACHE_SIZE = 256


def curve_ring(weights: Sequence[int], field=QQ) -> PolyRing:
    """Ring k[X0..Xn] with deg(Xi) = weights[i], weighted grevlex order.
    One ring per (weights, field): equal arguments give the same object
    while it is cached (`RING_CACHE_SIZE`)."""
    return _curve_ring(tuple(int(w) for w in weights), field)


@lru_cache(maxsize=RING_CACHE_SIZE)
def _curve_ring(weights: tuple[int, ...], field) -> PolyRing:
    names = tuple(f"X{i}" for i in range(len(weights)))
    return PolyRing(names, weights, field=field)


def elimination_ring(weights: Sequence[int], field=QQ) -> PolyRing:
    """Ring k[t, X0..Xn] with t first and greatest (block elimination order).

    t carries weight 1 so that Xi - t^{weights[i]} is homogeneous and every
    computation in this ring stays weighted-graded.  Cached like `curve_ring`.
    """
    return _elimination_ring(tuple(int(w) for w in weights), field)


@lru_cache(maxsize=RING_CACHE_SIZE)
def _elimination_ring(weights: tuple[int, ...], field) -> PolyRing:
    names = ("t",) + tuple(f"X{i}" for i in range(len(weights)))
    order = EliminationOrder(weights)
    return PolyRing(names, (1,) + weights, field=field, order=order)


def revlex_ring(weights: Sequence[int], field=QQ) -> PolyRing:
    """Ring k[X0..Xn] of `curve_ring`, ordered by `WeightedRevlex`, so X0 is
    the smallest variable.  Cached like `curve_ring`."""
    return _revlex_ring(tuple(int(w) for w in weights), field)


@lru_cache(maxsize=RING_CACHE_SIZE)
def _revlex_ring(weights: tuple[int, ...], field) -> PolyRing:
    names = tuple(f"X{i}" for i in range(len(weights)))
    return PolyRing(names, weights, field=field, order=WeightedRevlex(weights))


def drop_first_variable(p: Polynomial, target: PolyRing) -> Polynomial:
    """Project a polynomial not involving the first variable onto `target`,
    a ring over the same field with that variable left out: each term is
    repacked without it (`PolyRing.repacker`), and the terms sorted once.
    ValueError if a term involves it."""
    repack = p.ring.repacker(target, drop_first=True)
    return Polynomial(target, tuple(sorted(
        [(repack(m), c) for m, c in p.packed], reverse=True)))
