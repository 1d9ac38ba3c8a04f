"""Per-layer tracing from the benchmark's own files.

The tracer patches each public function at the name its caller looks up
(modules bind with `from .groebner import ...`, so the oracle's `groebner` is
`arithcurve.oracle.groebner`, not `arithcurve.groebner.groebner`).  Each call
becomes a span with its name, start, end, parent span and operation id.
Spans stay in memory until the run ends.  A layer's time is the summed
duration of its outermost spans; a self time is a span's duration minus its
children's.

S-pairs are read from the meters that `Limits.start()` hands to every
engine run; that method is wrapped only while tracing.

`ring.*` and `coeff.*` come from a separate cProfile pass, because the
profiler slows the program about fourfold.
"""

from __future__ import annotations

import contextlib
import fractions
import time
from typing import Callable, Optional

STEPS = range(6)  # resolution steps s0 (generator minimalization) .. s5

# span name -> function of (args, result) giving the span's counts
_COUNTERS: dict[str, Callable] = {
    "groebner.syzygy": lambda args, res: {"inputs": len(args[0]), "raw": len(res)},
    "groebner.prune": lambda args, res: {
        "candidates": sum(1 for v in args[0] if not all(p.is_zero() for p in v)),
        "kept": len(res),
    },
    "groebner.gb": lambda args, res: {"basis": len(res)},
}

# (module, attribute, span name) of each call site the tracer wraps
PATCHES = (
    ("arithcurve.cli", "_scan_cell", "cli.scan_cell"),
    ("arithcurve.cli", "minimal_resolution", "oracle.minimal_resolution"),
    ("arithcurve.cli", "verify_exactness", "oracle.verify_exactness"),
    ("arithcurve.cli", "verify_complex", "complexes.verify_complex"),
    ("arithcurve.cli", "resolution_b1", "complexes.construct"),
    ("arithcurve.cli", "resolution_bn", "complexes.construct"),
    ("arithcurve.cli", "shifts_gor4", "closedform"),
    ("arithcurve.cli", "gor4_symmetry_point", "closedform"),
    ("arithcurve.oracle", "toric_ideal", "oracle.toric_ideal"),
    ("arithcurve.oracle", "ideal_equal", "oracle.ideal_equal"),
    ("arithcurve.oracle", "syzygy_generators", "groebner.syzygy"),
    ("arithcurve.oracle", "minimal_module_generators", "groebner.prune"),
    ("arithcurve.oracle", "groebner", "groebner.gb"),
    ("arithcurve.oracle", "module_groebner_basis", "groebner.module_gb"),
    ("arithcurve.oracle", "ideal_member", "groebner.reduce"),
    ("arithcurve.groebner", "reduce_poly", "groebner.reduce"),
)

# span name -> metric of the layer's inclusive time
LAYER_TIMES = {
    "groebner.prune": "groebner.prune_s",
    "groebner.syzygy": "groebner.syzygy_s",
    "groebner.gb": "groebner.gb_s",
    "groebner.module_gb": "groebner.module_gb_s",
    "groebner.reduce": "groebner.reduce_s",
    "oracle.minimal_resolution": "oracle.minimal_resolution_s",
    "oracle.verify_exactness": "oracle.verify_exactness_s",
    "oracle.toric_ideal": "oracle.toric_ideal_s",
    "oracle.ideal_equal": "oracle.ideal_equal_s",
    "curve.validate": "curve.validate_s",
    "curve.generators": "curve.generators_s",
    "complexes.construct": "complexes.construct_s",
    "complexes.verify_complex": "complexes.verify_complex_s",
    "closedform": "closedform_s",
}

# metric -> span-name prefix whose self time it sums
SELF_TIMES = {"oracle.self_s": "oracle.", "cli.self_s": "cli."}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "step")

    def __init__(self, name: str, parent: Optional[int], op):
        self.name = name
        self.parent = parent
        self.op = op
        self.counts: dict = {}
        self.step: Optional[int] = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.meters: list[tuple[object, Optional[int]]] = []  # (meter, span)
        self._open: list[int] = []
        self.op = None

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else None, self.op))
        self._open.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def operation(self, name: str, op_id):
        """Root span of one operation."""
        self.op = op_id
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self.op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's call sites for the duration of the block."""
        import importlib

        from arithcurve.curve import ArithmeticSequence
        from arithcurve.groebner import Limits

        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            patch(module, attr, self.wrap(span_name, getattr(module, attr)))

        validate = ArithmeticSequence.__dict__["validate"].__func__
        patch(ArithmeticSequence, "validate",
              classmethod(self.wrap("curve.validate", validate)))
        patch(ArithmeticSequence, "generators",
              self.wrap("curve.generators", ArithmeticSequence.generators))

        # module normal forms in verify_exactness run through the reducer
        # that module_reducer returns
        oracle = importlib.import_module("arithcurve.oracle")
        make_reducer = oracle.module_reducer

        def module_reducer(*args, **kwargs):
            reducer = make_reducer(*args, **kwargs)
            reducer.top_reduce = self.wrap("groebner.reduce", reducer.top_reduce)
            return reducer

        patch(oracle, "module_reducer", module_reducer)

        start = Limits.start

        def metered_start(limits):
            meter = start(limits)
            self.meters.append((meter, self._open[-1] if self._open else None))
            return meter

        patch(Limits, "start", metered_start)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- derived metrics ------------------------------------------------------

    def _assign_steps(self, children: dict[int, list[int]]):
        """Number the syzygy and pruning calls of each minimal_resolution:
        step k is the k-th syzygy call and the pruning that follows it; the
        pruning of the generators is step 0."""
        for idx, span in enumerate(self.spans):
            if span.name != "oracle.minimal_resolution":
                continue
            step = 0
            for child in children.get(idx, ()):
                c = self.spans[child]
                if c.name == "groebner.syzygy":
                    step += 1
                if c.name in ("groebner.syzygy", "groebner.prune"):
                    c.step = step

    def metrics(self) -> tuple[dict, dict]:
        """(times in seconds, counts) of the layers, over the whole pass."""
        children: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(idx)
        self._assign_steps(children)

        times = {metric: 0.0 for metric in LAYER_TIMES.values()}
        times.update({metric: 0.0 for metric in SELF_TIMES})
        counts = {"groebner.prune.candidates": 0, "groebner.prune.kept": 0,
                  "groebner.syzygy.calls": 0, "groebner.syzygy.inputs": 0,
                  "groebner.syzygy.raw": 0, "groebner.gb.basis": 0,
                  "groebner.spairs": 0}
        for k in STEPS:
            times[f"groebner.prune_s.s{k}"] = 0.0
            for name in ("prune.candidates", "prune.kept", "spairs"):
                counts[f"groebner.{name}.s{k}"] = 0

        for idx, span in enumerate(self.spans):
            metric = LAYER_TIMES.get(span.name)
            if metric is not None and not self._inside(idx, span.name):
                times[metric] += span.duration
            for metric, prefix in SELF_TIMES.items():
                if span.name.startswith(prefix):
                    times[metric] += span.duration - sum(
                        self.spans[c].duration for c in children.get(idx, ()))
            # a span whose call raised has no counts
            per_step = span.name == "groebner.prune" and span.step in STEPS
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
                if per_step:
                    counts[f"{span.name}.{key}.s{span.step}"] += value
            if per_step:
                times[f"groebner.prune_s.s{span.step}"] += span.duration
            if span.name == "groebner.syzygy":
                counts["groebner.syzygy.calls"] += 1

        for meter, owner in self.meters:
            counts["groebner.spairs"] += meter.spairs
            step = self.spans[owner].step if owner is not None else None
            if step in STEPS:
                counts[f"groebner.spairs.s{step}"] += meter.spairs

        for suffix in [""] + [f".s{k}" for k in STEPS]:
            cand = counts[f"groebner.prune.candidates{suffix}"]
            counts[f"groebner.prune.kept_ratio{suffix}"] = (
                counts[f"groebner.prune.kept{suffix}"] / cand if cand else 0.0)
        return times, counts

    def _inside(self, idx: int, name: str) -> bool:
        """True if a span of the same name encloses span idx."""
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self, t0: float) -> list[dict]:
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "op": s.op, "counts": s.counts}
            for s in self.spans
        ]


# -- profiled pass -----------------------------------------------------------


def _ring_functions() -> dict[str, tuple]:
    """Counter name -> cProfile keys (file, first line, name) of its functions."""
    from arithcurve import ring

    def key(fn):
        code = fn.__code__
        return (code.co_filename, code.co_firstlineno, code.co_name)

    return {
        "ring.add.calls": (key(ring.Polynomial.__add__),),
        "ring.sub.calls": (key(ring.Polynomial.__sub__),),
        "ring.neg.calls": (key(ring.Polynomial.__neg__),),
        "ring.mul_term.calls": (key(ring.Polynomial.mul_term),),
        "ring.mul.calls": (key(ring.Polynomial.__mul__),),
        "ring.ring_eq.calls": (key(ring.PolyRing.__eq__),),
        "ring.order_key.calls": (key(ring.WeightedGrevlex.key),
                                 key(ring.EliminationOrder.key)),
    }


def profile_summary(stats: dict) -> dict:
    """Counts and self times from the `stats` of a cProfile.Profile.

    ring.* covers arithcurve/ring.py (polynomials, monomial orders, field
    arithmetic), coeff.* the `fractions` module behind QQ coefficients.
    """
    from arithcurve import ring

    out = {name: sum(stats[k][1] for k in keys if k in stats)
           for name, keys in _ring_functions().items()}
    total = ring_self = coeff_self = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        total += tottime
        if filename == ring.__file__:
            ring_self += tottime
        elif filename == fractions.__file__:
            coeff_self += tottime
    out["ring.self_s"] = ring_self
    out["coeff.self_s"] = coeff_self
    out["profiled_s"] = total
    return out
