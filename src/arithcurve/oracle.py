"""Independent ground truth for every construction in this package.

Everything here goes through the Buchberger engine only - no closed form, no
complex construction - so agreement between this module and the constructive
ones is a genuine two-route check.

  toric_ideal          kernel of X_i -> t^{m_i} by eliminating t with a block
                       order (t has weight 1, so pairs go degree by degree);
                       only the t-free elements of the elimination basis
                       are interreduced
  ideal_contains       an element the generators top-reduce to zero is a
                       member with no run; the others are top-reduced
                       against one unreduced Groebner basis of the
                       generators
  ideal_equal          ideal_contains in both directions
  artinian_generators  the generators' images modulo x0 in k[x1..xn] when
                       x0 is a nonzerodivisor modulo I, the generators
                       themselves otherwise: their resolution has R/I's
                       graded Betti table.  One basis run under the
                       reverse-lex order with x0 smallest decides it:
                       there in(I : x0) = in(I) : x0 (Bayer & Stillman
                       1987), so x0 is one exactly when no minimal lead
                       involves x0
  artinian_table       R/I's graded Betti table for the callers that read
                       only the table (`scan`'s cells and the oracle
                       entries of `resolve --verify` on the constructive
                       methods): from the same run, the Koszul homology of
                       A = R/(I, x0) over k[x1..xn], whose standard
                       monomials and products that run's basis gives, with
                       ranks by sparse elimination over the field; past
                       2^n standard monomials, or where x0 is no
                       nonzerodivisor, `minimal_resolution`'s table.
                       `resolve --method oracle` resolves over R, whose
                       matrices it prints and checks, and shares no code
                       with the Koszul kernel
  minimal_resolution   one loop: prune the candidates to minimal generators,
                       keep them as the next differential, take their
                       syzygies as the next candidates; the generators are
                       the first candidates, so each differential is minimal
                       and the ranks are the Betti numbers; one engine run
                       per step, shifted by the step's degrees, prunes and
                       then completes to the syzygies
  verify_exactness     the entries of d_1 go to ideal_contains first, which
                       makes no run when the generators reduce each to zero;
                       then one loop from step 0, whose syzygies are the
                       generators: every syzygy of d_s lies in the image of
                       d_{s+1}, which is the zero module past the last map;
                       one syzygy run per differential, on the engine's flat
                       columns, gives both its syzygies and a Groebner basis
                       of its image, which stay flat up to the reducer that
                       tests them; returns the `exactness` check entry that
                       `resolve --verify` prints, at the first failure
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Optional, Sequence

from .closedform import BettiTable
from .complexes import GradedComplex
from .curve import ArithmeticSequence
from .matrices import PolyMatrix
from .ring import (
    QQ,
    Polynomial,
    PolyRing,
    curve_ring,
    drop_first_variable,
    elimination_ring,
    revlex_ring,
)
from .groebner import (
    DEFAULT_LIMITS,
    Limits,
    ResourceLimitExceeded,
    _Engine,
    common_ring,
    groebner,  # unused here; the benchmark's tracer patches this name
    ideal_member,  # likewise
    interreduce,
    minimal_module_generators,
    module_groebner_basis,
    module_reducer,
    syzygies_and_basis,
    syzygy_generators,
)


def toric_ideal_of_weights(weights: Sequence[int], field=QQ,
                           limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced basis of the kernel of X_i -> t^{weights[i]} (weights >= 1).

    Takes raw weights so the engine can be self-tested on tiny inputs that are
    not valid curve sequences.
    """
    ext = elimination_ring(weights, field=field)
    gens = [(ext.var(i + 1) - ext.var(0, w)).packed for i, w in enumerate(weights)]
    # under the block order a lead free of t leaves the whole element free
    # of it, and the t-free elements of a Groebner basis are one of the
    # elimination ideal (the elimination theorem); a lead is t-free when its
    # t field is zero
    t_field, mask = ext._exp_shifts[0], ext._mask
    gb = [g for g in module_groebner_basis(gens, ext, 1, limits=limits)
          if not g[0][0] >> t_field & mask]
    target = curve_ring(weights, field=field)
    # t-free monomials compare under the block order as they do in the
    # target ring, so the reduced basis comes out monic and sorted
    return [drop_first_variable(g, target) for g in interreduce(gb, ext)]


def toric_ideal(seq: ArithmeticSequence, field=QQ,
                limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced basis of the defining ideal of the curve of `seq`."""
    return toric_ideal_of_weights(seq.terms, field=field, limits=limits)


def ideal_contains(gens: Sequence[Polynomial], polys: Sequence[Polynomial],
                   limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff every element of `polys` lies in the ideal of `gens`.

    Each element is first top-reduced by the generators themselves, which
    takes no run: a zero remainder is a standard representation by them,
    so an element they reduce to zero (zero itself, or a nonzero scalar
    multiple of a generator among others) is a member.  Only the elements
    they leave are tested, against one full Groebner basis of the nonzero
    generators.
    ValueError if the polynomials do not all share one ring.
    """
    ring = common_ring([*gens, *polys])
    if not polys:
        return True
    packed = [g.packed for g in gens if g.packed]
    by_gens = module_reducer(packed, ring)
    rest = [p for p in polys if by_gens.top_reduce(p.packed)]
    if not rest:
        return True
    reducer = module_reducer(module_groebner_basis(packed, ring, 1, limits=limits), ring)
    return not any(reducer.top_reduce(p.packed) for p in rest)


def ideal_equal(gens_a: Sequence[Polynomial], gens_b: Sequence[Polynomial],
                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Two-sided membership check between the generated ideals."""
    return (ideal_contains(gens_a, gens_b, limits=limits)
            and ideal_contains(gens_b, gens_a, limits=limits))


def _x0_regular_basis(gens: Sequence[Polynomial],
                      limits: Limits) -> Optional[tuple[PolyRing, list[tuple]]]:
    """(`revlex_ring` of the generators' ring, a Groebner basis of their
    ideal I there) when x0 is a nonzerodivisor modulo I; None when x0
    lies in I or divides zero modulo I, or when a generator is not
    homogeneous.  One rank-1 basis run decides it (`artinian_generators`
    has the argument)."""
    ring = common_ring(gens)
    if ring is None or not all(g.is_homogeneous for g in gens):
        return None
    revlex = revlex_ring(ring.weights, ring.field)
    gb = module_groebner_basis([g.change_ring(revlex).packed for g in gens
                                if g.packed], revlex, 1, limits=limits)
    leads = [v[0][0] for v in gb]  # at rank 1 a lead key is its packed monomial
    divides, x0 = revlex.divides, revlex.var(0).packed[0][0]
    if 0 in leads or any(divides(x0, m) and not any(divides(k, m - x0) for k in leads)
                         for m in leads):
        return None
    return revlex, gb


def _images_modulo_x0(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Each generator with every term that involves x0 dropped, in
    `curve_ring` of the other weights over the same field."""
    ring = gens[0].ring
    target = curve_ring(ring.weights[1:], ring.field)
    x0 = ring.var(0).packed[0][0]  # packed in R's own layout
    return [drop_first_variable(
                Polynomial(ring, tuple([t for t in g.packed
                                        if not ring.divides(x0, t[0])])),
                target)
            for g in gens]


def artinian_generators(gens: Sequence[Polynomial],
                        limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Generators whose minimal resolution has the graded Betti table of
    R/(gens): their images modulo x0 in k[x1..xn] when x0 is a
    nonzerodivisor modulo the ideal I of `gens`, and `gens` otherwise.

    x0 is a nonzerodivisor on R/I exactly when (I : x0) = I.  Under
    `WeightedRevlex`, the weighted reverse-lex order with x0 the smallest
    variable, a homogeneous I has in(I : x0) = in(I) : x0 (Bayer &
    Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
    1987; Eisenbud, Commutative Algebra, Prop. 15.12), so x0 is one
    exactly when no minimal lead of a Groebner basis of I involves x0.
    One rank-1 basis run in `revlex_ring` decides it: the basis is not
    interreduced, so a lead divisible by x0 rules x0 out only when its
    quotient by x0 is divisible by no lead.  A lead 1 (I = R) rules it out
    too, as x0 then lies in I.

    x0 is a nonzerodivisor on R as well, so a minimal graded free
    resolution F of R/I gives F (x) R/(x0), a minimal graded free
    resolution of R/(I, x0) over R/(x0) = k[x1..xn] with the same graded
    Betti table (Bruns & Herzog, Cohen-Macaulay Rings, Sec. 1.1).  Its
    ideal is generated by the generators of I with every term that
    involves x0 dropped, taken in `curve_ring` of the other weights over
    the same field.  Only the table carries over: the matrices of that
    resolution are not R's.

    No command calls this: `artinian_table` makes the same decision from
    the same run, and resolves these images only where its Koszul kernel
    would cost more than their resolution.

    `gens` comes back unchanged, to be resolved over R, when x0 lies in I
    or divides zero modulo I, or when a generator is not homogeneous.
    ValueError if they do not all share one ring.
    """
    if _x0_regular_basis(gens, limits) is None:
        return list(gens)
    return _images_modulo_x0(gens)


def artinian_table(gens: Sequence[Polynomial],
                   limits: Limits = DEFAULT_LIMITS) -> BettiTable:
    """The graded Betti table of R/(gens), read as the Koszul homology of
    A = R/(I, x0) with respect to x1..xn when that is cheap, and off
    `minimal_resolution` otherwise.

    When x0 is a nonzerodivisor modulo I (`artinian_generators`),
    beta_{i,D}(R/I) = beta_{i,D}(A) over k[x1..xn] = dim_k H_i(K(x1..xn;
    A))_D, as Koszul homology computes Tor against k (Bruns & Herzog,
    Cohen-Macaulay Rings, Sec. 1.1 and 1.6; Eisenbud, Commutative
    Algebra, Ch. 17).  The run that decides it gives A too: under the
    reverse-lex order with x0 smallest, in(I + (x0)) = in(I) + (x0) (Bayer
    & Stillman), and a homogeneous element whose lead avoids x0 keeps
    that lead when x0 is set to 0.  So the basis elements whose leads
    avoid x0, with x0 set to 0, are a Groebner basis of the image of I in
    k[x1..xn] under `WeightedRevlex` on the other weights, the order the
    run's own ring gives monomials free of x0.  A's k-basis is then its
    standard monomials, found by a breadth-first walk from 1 over those
    leads, and multiplication by x_j a normal form (`module_reducer`);
    `_koszul_table` takes the homology.

    The route is read off the input.  The kernel's cost grows with
    dim A * 2^n and the resolution's hardly with dim A, so the walk stops
    once it passes 2^n standard monomials, or `limits.max_basis` of them
    (which only n >= 17 can reach first), and such an A, an infinite one
    included, has the images modulo x0 resolved.  Where x0 is not a
    nonzerodivisor, or a generator is not homogeneous, `gens` are
    resolved over R.  ValueError if they do not all share one ring.
    """
    found = _x0_regular_basis(gens, limits)
    if found is None:
        return BettiTable.from_complex(minimal_resolution(gens, limits=limits))
    revlex, gb = found
    n = revlex.nvars - 1
    # A's ideal, kept in revlex: its monomials free of x0 are k[x1..xn]'s,
    # under the same order and with the same divisibility test
    first, mask = revlex._exp_shifts[0], revlex._mask
    basis = [tuple([t for t in v if not t[0] >> first & mask])
             for v in gb if not v[0][0] >> first & mask]
    leads = [v[0][0] for v in basis]
    guard, cap, check = revlex.guard, revlex.degree_cap, revlex.check_degree
    xs = list(zip(revlex._cols[1:], revlex.weights[1:]))  # x_j packed, deg x_j
    # standard monomials, breadth-first from 1; each one's quotient by any
    # variable it involves is standard too, so the walk finds them all
    standard, degrees, index = [0], [0], {0: 0}
    for u, e in zip(standard, degrees):
        for x, w in xs:
            if e + w >= cap:  # u * x would not fit the packed fields
                check(e + w)
            m = u + x
            if m in index:
                continue
            for k in leads:
                if not (m - k) & guard:  # a lead divides m
                    break
            else:
                index[m] = len(standard)
                standard.append(m)
                degrees.append(e + w)
        if len(standard) > 1 << n or not len(standard) <= limits.max_basis:
            return BettiTable.from_complex(
                minimal_resolution(_images_modulo_x0(gens), limits=limits))
    # x_j * u as ((index, coefficient), ...): itself when it is standard,
    # and otherwise its normal form, whose monomials all are
    reducer = module_reducer(basis, revlex)
    products = [[((index[u + x], 1),) if u + x in index else
                 tuple([(index[m], c) for m, c in reducer.normal_form(((u + x, 1),))])
                 for x, _ in xs]
                for u in standard]
    return _koszul_table(degrees, products, revlex.weights[1:], revlex.field, limits)


def _koszul_table(degrees: Sequence[int], products: Sequence[Sequence[tuple]],
                  weights: Sequence[int], field, limits: Limits) -> BettiTable:
    """The graded Betti table over S = k[x1..xn] (deg x_j = weights[j]) of
    a graded quotient A of S of finite dimension: beta_{i,D} =
    dim_k H_i(K(x1..xn; A))_D.

    A's k-basis is 0..len(degrees)-1, element u of degree degrees[u], and
    products[u][j] is x_j * u as ((v, c), ...).  K_i has the basis
    e_F (x) u for the i-subsets F of the variables, of degree deg u plus
    F's weights, and d(e_F (x) u) = sum_k (-1)^k e_{F - f_k} (x) x_{f_k} u
    for F = {f_0 < ... < f_{i-1}}.  The rank of each degree-D block of
    d_i comes from one sparse elimination in the field's own `add_into`,
    `mul`, `neg` and `inv`, the same code over every field, and
    beta_{i,D} = dim K_{i,D} - rank d_{i,D} - rank d_{i+1,D}.

    Each block's dimension is compared with `limits.max_basis` before the
    block is built, those of step i before its subsets are listed, and the
    deadline is read between blocks: either raises ResourceLimitExceeded,
    naming the Koszul phase.  The whole complex, dim A * 2^n, is compared
    with nothing, and only one step's subsets are held at a time.
    """
    n, size = len(weights), len(degrees)
    t0 = time.monotonic()
    by_degree: dict[int, list[int]] = {}
    for u, e in enumerate(degrees):
        by_degree.setdefault(e, []).append(u)
    # counts[i][w]: the number of i-subsets of the variables of weight w
    counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    for x in weights:
        for i in range(n, 0, -1):
            for w, c in counts[i - 1].items():
                counts[i][w + x] = counts[i].get(w + x, 0) + c
    dims: list[dict[int, int]] = [{} for _ in range(n + 1)]  # dim K_{i,D}
    for i, by_weight in enumerate(counts):
        for w, c in by_weight.items():
            for e, us in by_degree.items():
                dims[i][w + e] = dims[i].get(w + e, 0) + c * len(us)
    ranks: list[dict[int, int]] = [{} for _ in range(n + 2)]  # rank d_{i,D}
    neg, inv, mul, add_into = field.neg, field.inv, field.mul, field.add_into
    deadline = limits.deadline_s
    for i in range(1, n + 1):
        blocks = [D for D in dims[i] if D in dims[i - 1]]  # d_i is zero elsewhere
        for D in blocks:
            if not dims[i][D] <= limits.max_basis:
                raise ResourceLimitExceeded(
                    f"Koszul homology: {dims[i][D]} elements of step {i} in degree "
                    f"{D} exceed the basis size cap {limits.max_basis}")
        # the i-subsets F = {f_0 < ... < f_{i-1}} by weight, each as its faces
        # (f_k, the place of e_{F - f_k} in the row keys, whether k is odd):
        # the row of e_F' (x) v is keyed F' * size + v, F' a bit mask.  Each
        # F lies in the block of its weight, with the element 1 of A
        subsets: dict[int, list[tuple]] = {}
        for F in combinations(range(n), i):
            mask = sum([1 << j for j in F])
            subsets.setdefault(sum([weights[j] for j in F]), []).append(
                tuple([(j, (mask ^ 1 << j) * size, k & 1) for k, j in enumerate(F)]))
        for D in blocks:
            if deadline is not None and not time.monotonic() - t0 <= deadline:
                raise ResourceLimitExceeded(
                    f"Koszul homology: deadline of {deadline}s exceeded")
            pivots: dict[int, tuple] = {}  # lead key -> monic reduced image
            for w, by_faces in subsets.items():
                for u in by_degree.get(D - w, ()):
                    row = products[u]
                    for faces in by_faces:
                        acc = {at + v: neg(c) if odd else c
                               for j, at, odd in faces for v, c in row[j]}
                        while acc:
                            p = min(acc)
                            q = pivots.get(p)
                            if q is None:
                                k = inv(acc[p])
                                pivots[p] = tuple([(m, mul(c, k)) for m, c in acc.items()])
                                break
                            add_into(acc, q, 0, neg(acc[p]))
            ranks[i][D] = len(pivots)
    return BettiTable.from_rows({
        i: [D for D, count in dims[i].items()
            for _ in range(count - ranks[i].get(D, 0) - ranks[i + 1].get(D, 0))]
        for i in range(n + 1)})


# -- minimal free resolution ---------------------------------------------------


def minimal_resolution(gens: Sequence[Polynomial],
                       limits: Limits = DEFAULT_LIMITS) -> GradedComplex:
    """Minimal graded free resolution of R/(gens) by iterated syzygies.

    Every step is one pass of the same loop: the candidates are pruned to a
    minimal generating set (graded Nakayama), the kept ones become the
    columns of the next differential, and their syzygies are the next
    candidates.  Step 0 starts from the generators as 1-vectors over R(0),
    so each differential is minimal and the ranks are the Betti numbers.
    Both halves of a step are one syzygy run, shifted by the step's
    degrees: pruning inserts each kept candidate with its transcript and
    returns the degree it sorted it by, which is its shift at the next
    step, and `syzygy_generators` completes the run's pairs (the argument
    is in `minimal_module_generators`).

    No entry of a differential is a nonzero constant.  Suppose a syzygy of
    the columns of d_s had a nonzero constant in position i.  The relation
    it records would write column i of d_s (generator i when s = 1) in
    terms of the other columns, contradicting the minimality established at
    the previous step.  So every syzygy, and with it every kept column,
    already lies in m*F_s; `verify_complex` reports this as `minimal`.
    """
    ring = common_ring(gens)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    for g in gens:
        if g.weighted_degree() is None:
            raise ValueError(f"generator {g} is not homogeneous")
        if g.is_constant():
            raise ValueError("a constant generator gives the unit ideal")

    # the candidates for the next differential's columns, dropped once
    # pruned so that no step's raw syzygies outlive its pruning
    cols = [(g,) for g in gens]
    steps: list[tuple[int, ...]] = [(0,)]
    mats: list[PolyMatrix] = []
    max_steps = ring.nvars + 2
    while cols:
        engine = _Engine(ring, len(steps[-1]), want_syzygies=True,
                         limits=limits, shifts=steps[-1])
        kept = minimal_module_generators(cols, engine)
        del cols
        mats.append(PolyMatrix(ring, len(steps[-1]), len(kept),
                               {(i, j): p for j, (_, col) in enumerate(kept)
                                for i, p in enumerate(col) if p.packed}))
        steps.append(tuple(deg for deg, _ in kept))
        if len(mats) > max_steps:
            raise ResourceLimitExceeded(
                f"resolution did not terminate within {max_steps} steps"
            )
        cols = syzygy_generators(kept, engine)
    return GradedComplex(steps, mats)


# -- exactness ---------------------------------------------------------------


def _exactness(failure=None) -> dict:
    """The `exactness` check entry, failed at `failure` if one is given."""
    return {"exactness": {"pass": failure is None,
                          "witness": [] if failure is None else [failure]}}


def _flat_columns(mat: PolyMatrix) -> list[tuple]:
    """The columns of mat in the engine's flat form (`to_flat`), from one
    row-major pass over its nonzero entries: row i is position i, and the
    rows of a column arrive in order."""
    unit = mat.ring.position_unit
    cols: list[list] = [[] for _ in range(mat.cols)]
    for (i, j), e in mat.nonzero.items():
        at = i * unit
        cols[j] += [(m - at, c) for m, c in e.packed]
    return [tuple(c) for c in cols]


def verify_exactness(C: GradedComplex, gens: Sequence[Polynomial],
                     limits: Limits = DEFAULT_LIMITS) -> dict:
    """Machine check that C resolves R modulo the ideal of `gens`.

    (a) the entries of d_1 generate the same ideal as `gens`: the entries
        lie in the ideal of `gens` (`ideal_contains`, tested first), and
        `gens` lie in the image of d_1;
    (b) for each s < length, the syzygies of d_s lie in the image of d_{s+1};
    (c) the last differential has no nonzero syzygies (injectivity): this is
        (b) at s = length, with the zero module as the image.

    Returns {"exactness": {"pass": bool, "witness": []}} when all hold, and
    otherwise names the first failure in the witness, "image of the first
    differential" for (a) or "exactness at step s" for (b) and (c).  The
    check returns at its first failure, so no engine run is made after the
    verdict is fixed, and no cap can turn a failure into a resource limit.

    After (a)'s first inclusion, one loop checks every step from s = 0, as
    `minimal_resolution` builds them.  The pass at step s makes one run of
    `syzygies_and_basis` on d_{s+1}, top-reduces the syzygies of d_s by
    the run's Groebner basis of the image, and keeps the run's syzygies
    for the next pass, so only the runs of d_s and d_{s+1} are held at a
    time.  Step 0's syzygies are `gens`, the kernel of R -> R/I at rank 1,
    so its pass is (a)'s second inclusion.  The run is an unshifted syzygy
    run that prunes nothing, where a step of `minimal_resolution` shifts
    its run and prunes first, so on the oracle's own complex the two share
    only their pair criteria.  Its columns, syzygies and basis stay in the
    engine's flat form throughout.
    When `gens` top-reduce every entry of d_1 to zero, as in the `en`,
    `cone` and oracle complexes, (a)'s first inclusion makes no run.
    """
    if len(C.steps[0]) != 1:
        raise ValueError("step 0 must have rank 1")
    d1 = C.differential(1)
    ring = d1.ring
    if not ideal_contains(gens, list(d1.nonzero.values()), limits=limits):
        return _exactness("image of the first differential")
    syz = [g.packed for g in gens]
    for s in range(C.length + 1):
        rank = len(C.steps[s])  # d_{s+1}'s rows: C checks the shapes
        next_syz, gb = (syzygies_and_basis(_flat_columns(C.differential(s + 1)),
                                           ring, rank, limits=limits)
                        if s < C.length else ([], []))
        reducer = module_reducer(gb, ring)
        if any(reducer.top_reduce(v) for v in syz):
            return _exactness(f"exactness at step {s}" if s
                              else "image of the first differential")
        syz = next_syz
    return _exactness()
