"""Independent ground truth for every construction in this package.

Everything here goes through the Buchberger engine only - no closed form, no
complex construction - so agreement between this module and the constructive
ones is a genuine two-route check.

  toric_ideal          kernel of X_i -> t^{m_i} by eliminating t with a block
                       order (t has weight 1, so pairs go degree by degree)
                       from the weight chain X_i - t^{m_i - m_h} * X_h, X_h
                       the variable before X_i in weight order (1, of
                       weight 0, before the first), which generates the
                       ideal of the X_i - t^{m_i}; only the t-free elements
                       of the elimination basis are interreduced
  ideal_contains       an element the generators top-reduce to zero is a
                       member with no run; the others are top-reduced
                       against one unreduced Groebner basis of the
                       generators
  ideal_equal          ideal_contains in both directions
  artinian_table       R/I's graded Betti table for the callers that read
                       only the table (`scan`'s cells and the oracle
                       entries of `resolve --verify` on the constructive
                       methods): when one basis run under the reverse-lex
                       order with x0 smallest finds x0 a nonzerodivisor
                       (there in(I : x0) = in(I) : x0, Bayer & Stillman
                       1987) and A = R/(I, x0) finite, the Koszul homology
                       of A over k[x1..xn], reduced by a Morse matching
                       along x_n to 2^n * dim(A/x_nA) cells, with ranks by
                       sparse elimination over the field; otherwise
                       `minimal_resolution`'s table.  `resolve --method
                       oracle` resolves over R, whose matrices it prints
                       and checks, and shares no code with the kernel
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

    The kernel is J ∩ k[X] for J = (X_i - t^{w_i}), and by the elimination
    theorem any generating set of J gives it (Sturmfels, Groebner Bases and
    Convex Polytopes, 1996, Ch. 4).  The run starts from the weight chain:
    with the indices sorted by weight into c_0, ..., c_n (ties by index),
    X_{c_0} - t^{w_{c_0}} and X_{c_k} - t^{w_{c_k} - w_{c_{k-1}}} * X_{c_{k-1}}.
    Each chain binomial is (X_{c_k} - t^{w_{c_k}}) - t^{gap} * (X_{c_{k-1}} -
    t^{w_{c_{k-1}}}), so it lies in J, and by induction on k the chain gives
    back every X_i - t^{w_i}: the ideal is J.  Its leads t^{gap} * X have
    t-degree the gap (d on an arithmetic sequence) where the X_i - t^{w_i}
    have t^{w_i}, and the S-pair of two of them is a 2x2 minor of the
    consecutive-pair matrix, so the run stores fewer elements.  A repeated
    weight gives a gap of 0 and a t-free input.  The reduced basis is
    unique, so the result does not depend on the generating set.
    """
    ext = elimination_ring(weights, field=field)
    col, ws, minus_one = ext._cols, ext.weights[1:], field.neg(1)
    # each binomial packed from the ring's columns, its two terms sorted.
    # Both terms have weighted degree w_i, as X_i has, and w_i lies below
    # the ring's degree_cap (`packed_bits` of the weights), so no term
    # needs a range check
    gens, below, below_weight = [], 0, 0  # the chain's previous X, and its weight
    for i in sorted(range(len(ws)), key=ws.__getitem__):
        x, rest = col[i + 1], (ws[i] - below_weight) * col[0] + below
        gens.append(((x, 1), (rest, minus_one)) if x > rest
                    else ((rest, minus_one), (x, 1)))
        below, below_weight = x, ws[i]
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
    homogeneous.

    x0 is a nonzerodivisor on R/I exactly when (I : x0) = I.  Under
    `WeightedRevlex`, the weighted reverse-lex order with x0 the smallest
    variable, a homogeneous I has in(I : x0) = in(I) : x0 (Bayer &
    Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
    1987; Eisenbud, Commutative Algebra, Prop. 15.12), so x0 is one
    exactly when no minimal lead of a Groebner basis of I involves x0.
    One rank-1 basis run decides it: the basis is not interreduced, so a
    lead divisible by x0 rules x0 out only when its quotient by x0 is
    divisible by no lead.  A lead 1 (I = R) rules it out too.
    """
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


def artinian_table(gens: Sequence[Polynomial],
                   limits: Limits = DEFAULT_LIMITS) -> BettiTable:
    """The graded Betti table of R/(gens): the Koszul homology of
    A = R/(I, x0) over k[x1..xn] when x0 is a nonzerodivisor modulo I
    (`_x0_regular_basis`) and A is finite, and `minimal_resolution`'s
    table otherwise.

    x0 is a nonzerodivisor on R as well, so a minimal graded free
    resolution F of R/I gives F (x) R/(x0), one of A over R/(x0) =
    k[x1..xn] with the same graded Betti table (Bruns & Herzog,
    Cohen-Macaulay Rings, Sec. 1.1), and beta_{i,D}(A) =
    dim_k H_i(K(x1..xn; A))_D (Sec. 1.6; Eisenbud, Ch. 17).  The run that
    decides it gives A too: under that order in(I + (x0)) = in(I) + (x0)
    (Bayer & Stillman), and a homogeneous element whose lead avoids x0
    keeps that lead when x0 is set to 0.  So the basis elements whose
    leads avoid x0, with x0 set to 0, are a Groebner basis of A's ideal
    under `WeightedRevlex` on the other weights, the order the run's own
    ring gives monomials free of x0, and A is finite exactly when each
    x_j has a pure power among their leads.  ValueError if the generators
    do not all share one ring.
    """
    found = _x0_regular_basis(gens, limits)
    if found is not None:
        revlex, gb = found
        # A's ideal, kept in revlex: its monomials free of x0 are
        # k[x1..xn]'s, under the same order and with the same divisibility
        # test
        first, mask = revlex._exp_shifts[0], revlex._mask
        basis = [tuple([t for t in v if not t[0] >> first & mask])
                 for v in gb if not v[0][0] >> first & mask]
        # the variables with a pure-power lead; no lead is 1 here.  An empty
        # basis (the zero ideal, in k[x0] too) is left to the resolution
        powers = {e.index(max(e)) for e in map(revlex.decode, [v[0][0] for v in basis])
                  if max(e) == sum(e)}
        if basis and len(powers) == revlex.nvars - 1:
            return _koszul_table(revlex, basis, limits)
    return BettiTable.from_complex(minimal_resolution(gens, limits=limits))


def _koszul_table(ring: PolyRing, basis: Sequence[tuple], limits: Limits) -> BettiTable:
    """beta_{i,D} = dim_k H_i(K(x1..xn; A))_D for A = S/J finite, S =
    k[x1..xn] (deg x_j = ring.weights[j]) and `basis` a Groebner basis of
    J, flat at rank 1 in `ring`, free of x0.

    A's k-basis is the standard monomials, and x_j * u their normal form,
    computed once when a row first needs it.  K_i has the basis e_F (x) u
    for the i-subsets F = {f_0 < ... < f_{i-1}} of the variables, of
    degree deg u plus F's weights, and d(e_F (x) u) = sum_k (-1)^k
    e_{F - f_k} (x) x_{f_k} u.  Match e_G (x) x_n w with e_{G + n} (x) w
    for n not in G, when w and x_n w are both standard: n is last in G + n,
    so the matched coefficient is (-1)^|G|, a unit, and no cell is matched
    twice.  A gradient path goes up a pair only from a cell without n to
    one with n, whose other faces all hold n and so are critical or
    matched downwards: every path has at most one zig-zag, the matching is
    acyclic, and the Morse complex on the critical cells has the homology
    of K, degree by degree (Skoldberg, "Morse theory from an algebraic
    viewpoint", Trans. AMS 358, 2006, Thm 1; Joellenbeck & Welker, Mem.
    AMS 197, 2009, Ch. 2).  Its differential keeps a cell's critical
    faces, drops the faces matched downwards, and replaces each face
    e_G (x) x_n w matched upwards by -(-1)^|G| times the other faces of
    e_{G + n} (x) w.

    The critical cells are e_F (x) u with n not in F and u a foot, a
    standard monomial free of x_n, and with n in F and u a head, the top
    u * x_n^(e - 1) of a foot's x_n-chain, e the least x_n exponent among
    the leads whose x_n-free part divides u: 2^n * dim(A/x_nA) of them,
    n * 2^n on a curve whatever m0 is.  The feet come from a walk over
    x1..x_{n-1}; the rest of A is never walked.  Each degree-D block's
    rank comes from one sparse elimination in the field's own `add_into`,
    `mul`, `neg` and `inv`, the same code over every field, and
    beta_{i,D} = #critical_{i,D} - rank d_{i,D} - rank d_{i+1,D}.

    The feet and each block are compared with `limits.max_basis` before
    they are built, and the deadline is read between blocks: either raises
    ResourceLimitExceeded, naming the Koszul phase.  Only one step's
    subsets and one block's rows are held at a time.
    """
    n = ring.nvars - 1
    t0 = time.monotonic()
    xs = list(zip(ring._cols[1:], ring.weights[1:]))  # x_j packed, deg x_j
    xn, wn = xs[-1]
    guard, cap, check, field = ring.guard, ring.degree_cap, ring.check_degree, ring.field
    leads = [v[0][0] for v in basis]
    tops = [(k - p * xn, p) for k in leads for p in [ring.decode(k)[n]]]
    # the feet as (u, deg u), breadth-first from 1, and the head over each;
    # a foot's quotient by any variable it involves is standard too, so the
    # walk finds them all
    feet, foot, heads = [(0, 0)], {0: 0}, []
    for u, e in feet:
        p = min([p for k, p in tops if not (u - k) & guard]) - 1
        if e + p * wn >= cap:
            check(e + p * wn)
        heads.append((u + p * xn, e + p * wn))
        for x, w in xs[:-1]:
            if e + w >= cap:  # u * x would not fit the packed fields
                check(e + w)
            m = u + x
            if m in foot or any([not (m - k) & guard for k in leads]):
                continue
            if not len(feet) < limits.max_basis:
                raise ResourceLimitExceeded(
                    f"Koszul homology: the standard monomials free of x_{n} "
                    f"exceed the basis size cap {limits.max_basis}")
            foot[m] = len(feet)
            feet.append((m, e + w))
    head = {h: a for a, (h, _) in enumerate(heads)}
    # a step's cells by degree: F without n over the feet, F with n over
    # the heads
    by_degree: list[dict[int, list[int]]] = [{}, {}]
    for side, cells in enumerate((feet, heads)):
        for u, e in cells:
            by_degree[side].setdefault(e, []).append(u)

    # x_j * u, u of degree e, as its terms (index, c) that are heads, those
    # that are feet, and (v / x_n, c) for those x_n divides
    reducer, forms = module_reducer(basis, ring), {}

    def times(u: int, e: int, j: int) -> tuple:
        x, w = xs[j]
        if e + w >= cap:
            check(e + w)
        got = forms.get(u + x)
        if got is None:
            nf = reducer.normal_form(((u + x, 1),))
            got = forms[u + x] = (tuple([(head[v], c) for v, c in nf if v in head]),
                                  tuple([(foot[v], c) for v, c in nf if v in foot]),
                                  tuple([(v - xn, c) for v, c in nf if v not in foot]))
        return got

    size, top = len(feet), (1 << n - 1) * len(feet)  # top: x_n's bit in a row key
    one, minus = 1, field.neg(1)
    neg, inv, mul, add_into = field.neg, field.inv, field.mul, field.add_into
    critical = [{e: len(us) for e, us in by_degree[0].items()}]  # #critical_{i,D}
    ranks: list[dict[int, int]] = [{} for _ in range(n + 2)]  # rank d_{i,D}
    deadline = limits.deadline_s
    for i in range(1, n + 1):
        # the i-subsets F = {f_0 < ... < f_{i-1}} by whether they hold n and
        # by weight, each as its faces (f_k, the row key of e_{F - f_k} (x)
        # element 0, whether k is odd): a row key is F' * size + v, F' a bit
        # mask and v a foot's index when F' lacks n, a head's otherwise
        subsets: list[dict[int, list[tuple]]] = [{}, {}]
        for F in combinations(range(n), i):
            mask = sum([1 << j for j in F])
            subsets[F[-1] == n - 1].setdefault(sum([xs[j][1] for j in F]), []).append(
                tuple([(j, (mask ^ 1 << j) * size, k & 1) for k, j in enumerate(F)]))
        critical.append({})
        for side in (0, 1):
            for w, by_faces in subsets[side].items():
                for e, us in by_degree[side].items():
                    critical[i][w + e] = critical[i].get(w + e, 0) + len(by_faces) * len(us)
        for D in [D for D in critical[i] if D in critical[i - 1]]:  # d_i is 0 elsewhere
            if not critical[i][D] <= limits.max_basis:
                raise ResourceLimitExceeded(
                    f"Koszul homology: {critical[i][D]} elements of step {i} in degree "
                    f"{D} exceed the basis size cap {limits.max_basis}")
            if deadline is not None and not time.monotonic() - t0 <= deadline:
                raise ResourceLimitExceeded(
                    f"Koszul homology: deadline of {deadline}s exceeded")
            pivots: dict[int, tuple] = {}  # lead key -> monic reduced image
            for side in (0, 1):
                for w, by_faces in subsets[side].items():
                    e = D - w
                    for u in by_degree[side].get(e, ()):
                        for faces in by_faces:
                            acc: dict[int, object] = {}
                            for k, (j, at, odd) in enumerate(faces):
                                ups, downs, matched = times(u, e, j)
                                if side and k < i - 1:  # e_{F - f_k} holds n
                                    add_into(acc, ups, at, minus if odd else one)
                                    continue
                                add_into(acc, downs, at, minus if odd else one)
                                # e_{F - f_k} (x) x_n v is matched upwards: it
                                # becomes -(-1)^(i-1) (-1)^k c times the other
                                # faces of e_{F - f_k + n} (x) v, each with its
                                # sign there
                                step, ev = top - (1 << j) * size, e + xs[j][1] - wn
                                for v, c in matched:
                                    c = neg(c) if (i + k) & 1 else c
                                    for l, (g, at_g, odd_g) in enumerate(faces):
                                        if l != k:
                                            add_into(acc, times(v, ev, g)[0], at_g + step,
                                                     neg(c) if odd_g ^ (l > k) else c)
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
        i: [D for D, count in critical[i].items()
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
