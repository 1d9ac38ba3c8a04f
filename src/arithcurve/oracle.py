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
                       against an unreduced Groebner basis of the
                       generators, completed only up to the largest degree
                       among those others when everything is homogeneous
  ideal_equal          ideal_contains in both directions
  artinian_generators  the generators' images modulo x0 in k[x1..xn] when
                       x0 is a nonzerodivisor modulo I, the generators
                       themselves otherwise: their resolution has R/I's
                       graded Betti table, so the callers that read only
                       the table (`scan`'s cells and the oracle entries of
                       `resolve --verify` on the constructive methods)
                       resolve these; `resolve --method oracle` resolves
                       over R, whose matrices it prints and checks.  One
                       basis run under the reverse-lex order with x0
                       smallest decides it: there in(I : x0) = in(I) : x0
                       (Bayer & Stillman 1987), so x0 is one exactly when
                       no minimal lead involves x0
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

from typing import Sequence

from .complexes import GradedComplex
from .curve import ArithmeticSequence
from .matrices import PolyMatrix
from .ring import (
    QQ,
    Polynomial,
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
    they leave are tested against a basis of `gens`: when every generator
    and every one of those is homogeneous, the basis is completed only up
    to the largest degree D among those, which decides their membership
    (`module_groebner_basis`), and only from the generators of degree at
    most D, which generate the ideal's part of degree at most D (the
    weights are positive); otherwise it is completed in full.
    ValueError if the polynomials do not all share one ring.
    """
    ring = common_ring([*gens, *polys])
    if not polys:
        return True
    gens = [g for g in gens if g.packed]
    by_gens = module_reducer([g.packed for g in gens], ring)
    rest = [p for p in polys if by_gens.top_reduce(p.packed)]
    if not rest:
        return True
    degrees = [p.weighted_degree() for p in rest]
    gen_degrees = [g.weighted_degree() for g in gens]
    top = None if None in degrees or None in gen_degrees else max(degrees)
    gb = module_groebner_basis([g.packed for g, e in zip(gens, gen_degrees)
                                if top is None or e <= top],
                               ring, 1, limits=limits, degree=top)
    reducer = module_reducer(gb, ring)
    return not any(reducer.top_reduce(p.packed) for p in rest)


def ideal_equal(gens_a: Sequence[Polynomial], gens_b: Sequence[Polynomial],
                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Two-sided membership check between the generated ideals."""
    return (ideal_contains(gens_a, gens_b, limits=limits)
            and ideal_contains(gens_b, gens_a, limits=limits))


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

    `gens` comes back unchanged, to be resolved over R, when x0 lies in I
    or divides zero modulo I, or when a generator is not homogeneous.
    ValueError if they do not all share one ring.
    """
    ring = common_ring(gens)
    if ring is None or not all(g.is_homogeneous for g in gens):
        return list(gens)
    revlex = revlex_ring(ring.weights, ring.field)
    gb = module_groebner_basis([g.change_ring(revlex).packed for g in gens
                                if g.packed], revlex, 1, limits=limits)
    leads = [v[0][0] for v in gb]  # at rank 1 a lead key is its packed monomial
    divides, x0 = revlex.divides, revlex.var(0).packed[0][0]
    if 0 in leads or any(divides(x0, m) and not any(divides(k, m - x0) for k in leads)
                         for m in leads):
        return list(gens)
    target = curve_ring(ring.weights[1:], ring.field)
    x0 = ring.var(0).packed[0][0]  # packed in R's own layout
    return [drop_first_variable(
                Polynomial(ring, tuple([t for t in g.packed
                                        if not ring.divides(x0, t[0])])),
                target)
            for g in gens]


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
