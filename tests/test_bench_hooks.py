"""The benchmark's tracing hooks still find what they wrap in the program.

`bench/spans.py` patches functions at the names callers look them up by and
counts calls to ring functions by their code objects.  A refactor that
renames or removes one of them would break `bench/run.py --trace 1`; these
tests catch that in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

from arithcurve import ring

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_call_sites_resolve():
    spans = load_spans()
    for module_name, attr, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    with spans.Tracer().installed():  # applies and undoes every patch
        pass


def test_profiled_ring_functions_exist():
    spans = load_spans()
    names = {
        "ring.add.calls": [(ring.Polynomial, "__add__")],
        "ring.sub.calls": [(ring.Polynomial, "__sub__")],
        "ring.neg.calls": [(ring.Polynomial, "__neg__")],
        "ring.mul_term.calls": [(ring.Polynomial, "mul_term")],
        "ring.mul.calls": [(ring.Polynomial, "__mul__")],
        "ring.ring_eq.calls": [(ring.PolyRing, "__eq__")],
        "ring.order_key.calls": [(ring.WeightedGrevlex, "key"),
                                 (ring.EliminationOrder, "key")],
    }
    counters = spans._ring_functions()
    assert set(counters) == set(names)
    for counter, functions in names.items():
        assert len(counters[counter]) == len(functions)
        for owner, attr in functions:
            code = owner.__dict__[attr].__code__
            assert code.co_filename == ring.__file__, f"{owner.__name__}.{attr}"
            assert (code.co_filename, code.co_firstlineno, code.co_name) in counters[counter]


def test_verify_exactness_reduces_through_module_reducer(monkeypatch):
    """`groebner.reduce_s` times the membership tests of verify_exactness by
    wrapping `top_reduce` on each object `oracle.module_reducer` returns, so
    those tests must go through that attribute."""
    from arithcurve import oracle, resolution_b1, validate_sequence

    calls = 0
    make_reducer = oracle.module_reducer

    def module_reducer(*args, **kwargs):
        reducer = make_reducer(*args, **kwargs)
        top_reduce = reducer.top_reduce

        def counted(*a, **kw):
            nonlocal calls
            calls += 1
            return top_reduce(*a, **kw)

        reducer.top_reduce = counted
        return reducer

    monkeypatch.setattr(oracle, "module_reducer", module_reducer)
    seq = validate_sequence(5, 1, 4)
    report = oracle.verify_exactness(resolution_b1(seq), list(seq.generators().all))
    assert report["exactness"]["pass"]
    assert calls >= 1


def test_traced_resolve_counts_engine_work(capsys):
    """`bench/run.py --trace 1` reads its counters from the arguments and
    results of the calls it wraps: candidates from pruning's vectors, kept
    columns as the length of its result (one entry per kept column, the
    ranks 10 + 20 + 15 + 4 of the oracle's differentials), and syzygy
    inputs as the length of the kept list passed on.  An engine refactor
    that changes their types or shapes moves these counts.  The oracle
    method resolves over the full ring, so its pruning sees the 10
    generators and the 46 raw syzygies of its steps, and the S-pairs of
    its runs and of the exactness check's, which runs on the complex
    modulo x_4, come to 123.  (The oracle
    entries of `--verify` on the other methods read `artinian_table`,
    which prunes nothing.)"""
    from arithcurve import cli

    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed(), tracer.operation("resolve", 0):
        assert cli.main(["resolve", "5", "1", "4", "--method", "oracle",
                         "--verify", "--json"]) == 0
    capsys.readouterr()
    _, counts = tracer.metrics()
    expected = {"groebner.prune.candidates": 56, "groebner.prune.kept": 49,
                "groebner.syzygy.inputs": 49, "groebner.syzygy.raw": 46,
                "groebner.spairs": 123, "groebner.syzygy.calls": 4}
    assert {counter: counts[counter] for counter in expected} == expected


def test_traced_toric_identity_times_the_basis_runs():
    """The toric workload's spans wrap `oracle.toric_ideal`, `ideal_equal`
    and `module_groebner_basis`; a traced identity must still hold and time
    and count its basis runs."""
    from arithcurve import oracle, validate_sequence

    spans = load_spans()
    tracer = spans.Tracer()
    seq = validate_sequence(7, 2, 4)
    with tracer.installed(), tracer.operation("toric", 0):
        basis = oracle.toric_ideal(seq)
        assert oracle.ideal_equal(basis, list(seq.generators().all)) is True
    times, counts = tracer.metrics()
    assert times["groebner.module_gb_s"] > 0
    assert times["oracle.toric_ideal_s"] > 0
    assert counts["groebner.spairs"] > 0
