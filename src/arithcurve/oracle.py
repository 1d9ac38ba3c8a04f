"""Independent ground truth for every construction in this package.

Everything here goes through the Buchberger engine only - no closed form, no
complex construction - so agreement between this module and the constructive
ones is a genuine two-route check.

  toric_ideal          kernel of X_i -> t^{m_i} by eliminating t with a block
                       order (t has weight 1, so pairs go degree by degree);
                       only the t-free elements of the elimination basis
                       are interreduced
  ideal_contains       a nonzero scalar multiple of a generator is a member
                       with no run; the other elements are top-reduced
                       against an unreduced Groebner basis of the
                       generators, completed only up to the largest degree
                       among them when everything is homogeneous
  ideal_equal          ideal_contains in both directions
  colon_check          (I : f) from the first coordinates of the syzygies of
                       [f, g_1, ..., g_k], compared back to I; f and the
                       quotient are tested by ideal_contains
  minimal_generators   graded greedy minimalization of a homogeneous set
  minimal_resolution   one loop: prune the candidates to minimal generators,
                       keep them as the next differential, take their
                       syzygies as the next candidates; the generators are
                       the first candidates, so each differential is minimal
                       and the ranks are the Betti numbers
  verify_exactness     image of d_1 generates the target ideal, and every
                       syzygy of d_s lies in the image of d_{s+1}, which is
                       the zero module past the last map; one syzygy run per
                       differential, on the engine's flat columns, gives both
                       its syzygies and a Groebner basis of its image, which
                       stay flat up to the reducer that tests them; the
                       entries of d_1 go to ideal_contains, which makes no
                       run when each is a generator up to a scalar; returns
                       the `exactness` check entry that `resolve --verify`
                       prints, at the first failure
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
)
from .groebner import (
    DEFAULT_LIMITS,
    Limits,
    ResourceLimitExceeded,
    _is_multiple,
    groebner,  # unused here; the benchmark's tracer patches this name
    ideal_member,  # likewise
    interreduce,
    minimal_module_generators,
    module_groebner_basis,
    module_reducer,
    syzygies_and_basis,
    syzygy_generators,
    v_degree,
)


def toric_ideal_of_weights(weights: Sequence[int], field=QQ,
                           limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced basis of the kernel of X_i -> t^{weights[i]} (weights >= 1).

    Takes raw weights so the engine can be self-tested on tiny inputs that are
    not valid curve sequences.
    """
    ext = elimination_ring(weights, field=field)
    gens = [(ext.var(i + 1) - ext.var(0, w),) for i, w in enumerate(weights)]
    # under the block order a lead free of t leaves the whole element free
    # of it, and the t-free elements of a Groebner basis are one of the
    # elimination ideal (the elimination theorem)
    gb = [g for g, in module_groebner_basis(gens, ext, limits=limits)
          if g.leading_monomial()[0] == 0]
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

    The zero elements, and the syntactic members (nonzero scalar multiples
    of a generator: the same packed monomials, coefficients proportional),
    need no run.  Only the rest are tested against a basis of `gens`: when
    every generator and every one of them is homogeneous, the basis is
    completed only up to the largest degree among them, which decides their
    membership (`module_groebner_basis`); otherwise it is completed in full.
    """
    # generators filed by their packed monomials; the zero one by none,
    # which no nonzero element has
    by_monomials: dict[tuple, list[tuple]] = {}
    for g in gens:
        by_monomials.setdefault(tuple([m for m, _ in g.packed]), []).append(g.packed)
    polys = [p for p in polys if p.packed and not any(
        _is_multiple(p.packed, g, p.ring)
        for g in by_monomials.get(tuple([m for m, _ in p.packed]), ()))]
    if not polys:
        return True
    ring = polys[0].ring
    degrees = [p.weighted_degree() for p in polys]
    homogeneous = None not in degrees and all(g.is_homogeneous for g in gens)
    gb = module_groebner_basis([(g,) for g in gens], ring, limits=limits,
                               degree=max(degrees) if homogeneous else None)
    reducer = module_reducer([g.packed for g, in gb], ring, 1)
    return not any(reducer.top_reduce(p.packed) for p in polys)


def ideal_equal(gens_a: Sequence[Polynomial], gens_b: Sequence[Polynomial],
                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Two-sided membership check between the generated ideals."""
    return (ideal_contains(gens_a, gens_b, limits=limits)
            and ideal_contains(gens_b, gens_a, limits=limits))


def colon_ideal(gens: Sequence[Polynomial], f: Polynomial,
                limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Generators of (I : f), read off the syzygies of [f, g_1, ..., g_k]."""
    ring = f.ring
    vectors = [(f,)] + [(g,) for g in gens]
    syz = syzygy_generators(vectors, ring, limits=limits)
    out = [s[0] for s in syz if not s[0].is_zero()]
    return out


def colon_check(gens: Sequence[Polynomial], f: Polynomial,
                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Is (I : f) = I?  Requires f not in I; raises ValueError otherwise.

    Both memberships are decided by `ideal_contains` after the syzygy run
    of `colon_ideal`, so on homogeneous input each basis of I is completed
    only up to the degree it tests, and the quotient's generators that are
    generators of I up to a scalar make no run.
    """
    quotient = colon_ideal(gens, f, limits=limits)
    if ideal_contains(gens, [f], limits=limits):
        raise ValueError("multiplier lies in the ideal; colon comparison undefined")
    # (I : f) always contains I, so only the forward inclusion needs work
    return ideal_contains(gens, quotient, limits=limits)


def minimal_generators(gens: Sequence[Polynomial],
                       limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Subset of a homogeneous generating set that generates minimally.

    Candidates are processed by increasing degree, keeping those not already
    in the ideal of the kept ones (graded Nakayama).
    """
    ring = gens[0].ring
    kept = minimal_module_generators([(g,) for g in gens], ring, limits=limits)
    return [v[0] for v in kept]


# -- minimal free resolution ---------------------------------------------------


def minimal_resolution(gens: Sequence[Polynomial],
                       limits: Limits = DEFAULT_LIMITS) -> GradedComplex:
    """Minimal graded free resolution of R/(gens) by iterated syzygies.

    Every step is one pass of the same loop: the candidates are pruned to a
    minimal generating set (graded Nakayama), the kept ones become the
    columns of the next differential, and their syzygies are the next
    candidates.  Step 0 starts from the generators as 1-vectors over R(0),
    so each differential is minimal and the ranks are the Betti numbers.

    No entry of a differential is a nonzero constant.  Suppose a syzygy of
    the columns of d_s had a nonzero constant in position i.  The relation
    it records would write column i of d_s (generator i when s = 1) in
    terms of the other columns, contradicting the minimality established at
    the previous step.  So every syzygy, and with it every kept column,
    already lies in m*F_s; `verify_complex` reports this as `minimal`.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if g.weighted_degree() is None:
            raise ValueError(f"generator {g} is not homogeneous")
        if g.is_constant():
            raise ValueError("a constant generator gives the unit ideal")

    # the candidates for the next differential's columns, pruned in place so
    # that no step's raw syzygies outlive its pruning
    cols = [(g,) for g in gens]
    steps: list[tuple[int, ...]] = [(0,)]
    mats: list[PolyMatrix] = []
    max_steps = ring.nvars + 2
    while True:
        cols = minimal_module_generators(cols, ring, shifts=steps[-1], limits=limits)
        if not cols:
            break
        mats.append(PolyMatrix(ring, len(steps[-1]), len(cols),
                               {(i, j): p for j, col in enumerate(cols)
                                for i, p in enumerate(col)}))
        steps.append(tuple(v_degree(col, steps[-1]) for col in cols))
        if len(mats) > max_steps:
            raise ResourceLimitExceeded(
                f"resolution did not terminate within {max_steps} steps"
            )
        cols = syzygy_generators(cols, ring, limits=limits)
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
        cols[j] += [(m - at, c) for m, c in e.packed] if i else e.packed
    return [tuple(c) for c in cols]


def verify_exactness(C: GradedComplex, gens: Sequence[Polynomial],
                     limits: Limits = DEFAULT_LIMITS) -> dict:
    """Machine check that C resolves R modulo the ideal of `gens`.

    (a) the entries of d_1 generate the same ideal as `gens`: `gens` lie in
        the image of d_1, decided against the basis of d_1's own run, and
        the entries lie in the ideal of `gens` (`ideal_contains`);
    (b) for each s < length, the syzygies of d_s lie in the image of d_{s+1};
    (c) the last differential has no nonzero syzygies (injectivity): this is
        (b) at s = length, with the zero module as the image.

    Returns {"exactness": {"pass": bool, "witness": []}} when all hold, and
    otherwise names the first failure in the witness, "image of the first
    differential" for (a) or "exactness at step s" for (b) and (c).  The
    check returns at its first failure, so no engine run is made after the
    verdict is fixed, and no cap can turn a failure into a resource limit.

    One run of `syzygies_and_basis` per differential gives the syzygies of
    d_s and a Groebner basis of the image of d_s, which (a) (s = 1) or step
    s - 1 reduces by; only the runs of d_s and d_{s+1} are held at a time.
    The run is the syzygy run of `minimal_resolution`, so on the oracle's
    own complex this check shares its pair criteria with the resolution
    it checks.  Its columns, syzygies and basis stay in the engine's flat
    form throughout.  When every entry of d_1 is a generator up to a
    scalar, as in the `en`, `cone` and oracle complexes, (a)'s second
    inclusion makes no run (`ideal_contains`).
    """
    if len(C.steps[0]) != 1:
        raise ValueError("step 0 must have rank 1")
    d1 = C.differential(1)
    ring = d1.ring
    syz, image = syzygies_and_basis(_flat_columns(d1), ring, 1, limits=limits)
    # d_1 has one row, so its image is the ideal of its entries; the zero
    # ones add nothing to it
    image_reducer = module_reducer(image, ring, 1)
    if (any(image_reducer.top_reduce(g.packed) for g in gens)
            or not ideal_contains(gens, list(d1.nonzero.values()), limits=limits)):
        return _exactness("image of the first differential")
    for s in range(1, C.length + 1):
        rank = C.differential(s).cols  # d_{s+1}'s rows: C checks the shapes
        next_syz, gb = (syzygies_and_basis(_flat_columns(C.differential(s + 1)),
                                           ring, rank, limits=limits)
                        if s < C.length else ([], []))
        reducer = module_reducer(gb, ring, rank)
        if any(reducer.top_reduce(v) for v in syz):
            return _exactness(f"exactness at step {s}")
        syz = next_syz
    return _exactness()

