"""Benchmark of arithcurve's construction and oracle routes.

    python3 bench/run.py --workload verify-n4 --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop with one client in this single-threaded
process: the next operation starts when the previous one has finished.  A
pass runs every case of the workload once, in an order drawn from --seed;
the measured phase runs the number of whole passes that took --seconds when
the benchmark was written, so every run does the same work.  Every
result is checked (see workloads.py); a wrong answer, an exception, a
non-zero exit or an operation over the budget counts as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
one untraced, one traced and one profiled pass (--seconds is not used).
--workload all runs every workload, each in a fresh process, one at a time.
The last line of stdout is one JSON object; the lines before it are the
report.  Exit code 1 means an output check failed, 2 that the program under
test was not found.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import fractions
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# per-operation wall-clock budget, enforced here rather than through
# Limits.deadline_s, which bounds each engine run separately and is polled
# only every 64 S-pairs; the slowest operation of the listed workloads takes
# about 6 s
OP_BUDGET_S = 60.0
# traced and profiled passes run several times slower
TRACED_BUDGET_S = 5 * OP_BUDGET_S
# no operation runs past --seconds + OVERRUN_S, or past TRACE_S in a traced
# run, so a run ends in bounded time however slow the program gets
OVERRUN_S = 40.0
TRACE_S = 150.0
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# Host contention on the shared 2-core machine the benchmark was written on
# changed its speed by up to 1.5x for minutes at a time, more than the
# bounds.  End-to-end times are therefore scaled to a fixed machine speed:
# an interval is multiplied by REFERENCE_S / r, where r is the mean duration
# of reference() timed just before and just after it.
REFERENCE_S = 0.045
REFERENCE_TERMS = [((i % 5, i % 3, i % 7, i % 2, i % 4),
                    fractions.Fraction(i % 11 + 1, i % 13 + 1)) for i in range(40)]

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
                    "op_s.tail": "s", "peak_rss_mb": "MB"}


class OpBudgetExceeded(BaseException):
    """Raised by SIGALRM inside an operation; BaseException so that the
    program's own handlers do not swallow it."""


def _on_alarm(signum, frame):
    raise OpBudgetExceeded()


def reference() -> float:
    """Seconds taken by a fixed computation of the kind the program does
    (dicts of exponent tuples, sorting by an order key, Fraction arithmetic),
    written with the standard library only, so no change to the program
    changes it."""
    shift = (1, 0, 2, 0, 1)
    t0 = time.perf_counter()
    for _ in range(180):
        acc = {}
        for exps, coeff in REFERENCE_TERMS:
            key = tuple(a + b for a, b in zip(exps, shift))
            acc[key] = acc.get(key, 0) + coeff * coeff
        sorted(acc, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    return time.perf_counter() - t0


class Scaled:
    """Intervals scaled to the reference speed, with a reference run
    between consecutive intervals."""

    def __init__(self):
        self.last = reference()

    def __call__(self, seconds: float) -> float:
        now = reference()
        scaled = seconds * REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return scaled


class Outcome:
    __slots__ = ("case", "status", "latency", "reason", "profile", "segment",
                 "scale")

    def __init__(self, case, status, latency, reason=None, profile=None):
        self.case = case
        self.status = status  # ok, rejected, wrong, error or limit
        self.latency = latency
        self.reason = reason
        self.profile = profile
        self.segment = latency
        self.scale = 1.0

    @property
    def is_op(self) -> bool:
        """Scan cells that validation rejects are checked but are not operations."""
        return self.status != "rejected"


def run_one(workload, case, prepared, budget, tracer=None, op_id=None,
            profile=False) -> Outcome:
    import workloads

    call = workloads.operation(workload, case, prepared)
    prof = cProfile.Profile() if profile else None
    root = "op.toric" if workload.kind == "toric" else "cli.main"
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        with tracer.operation(root, op_id) if tracer else contextlib.nullcontext():
            result = prof.runcall(call) if prof else call()
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpBudgetExceeded:
        return Outcome(case, "limit", time.perf_counter() - t0, f"over {budget} s")
    except (Exception, SystemExit) as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(case, "error", time.perf_counter() - t0, repr(exc))
    summary = None
    if prof is not None:
        import spans

        prof.create_stats()
        summary = spans.profile_summary(prof.stats)
    try:
        reason = workloads.check(workload, case, result)
    except (ValueError, LookupError, TypeError) as exc:  # output of the wrong shape
        reason = f"unreadable result: {exc!r}"
    if reason is not None:
        return Outcome(case, "wrong", latency, reason)
    return Outcome(case, "rejected" if case.rejected else "ok", latency, None, summary)


def run_pass(workload, cases, prepared, budget, deadline, tracer=None,
             profile=False, scale=None) -> list[Outcome]:
    """Run the cases in order; no operation runs past `deadline`.  Each
    outcome records its `segment`, the whole time spent on the case with the
    checks, and with `scale` the factor to the reference speed."""
    out = []
    for i, case in enumerate(cases):
        start = time.perf_counter()
        if start >= deadline:
            break
        o = run_one(workload, case, prepared, min(budget, deadline - start),
                    tracer, i, profile)
        o.segment = time.perf_counter() - start
        if scale is not None:
            o.scale = scale(o.segment) / o.segment
        out.append(o)
    return out


def measure_setup(name: str, seed: int) -> float:
    """Seconds from the start of a fresh process to the end of set-up."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        child.stdout.close()
        child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {child.returncode})")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest percentile (nearest rank) with at least TAIL_BEYOND samples
    beyond it, and that percentile; the maximum (100) if there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    p = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    p = min(p, 99)
    if p < 1:
        return xs[-1], 100
    rank = -(-p * n // 100)
    return xs[rank - 1], p


def failures(outcomes) -> list[Outcome]:
    return [o for o in outcomes if o.status not in ("ok", "rejected")]


def report_failures(outcomes):
    for o in failures(outcomes):
        print(f"  {o.status}: {o.case} ({o.reason})", file=sys.stderr)


def end_to_end(workload, order, prepared, args) -> dict:
    scale = Scaled()
    setup_raw = [measure_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
    setup = [scale(t) for t in setup_raw]
    passes = workload.passes(args.seconds)
    end = time.perf_counter() + args.seconds + OVERRUN_S
    outcomes = []
    for _ in range(passes):
        outcomes += run_pass(workload, order, prepared, OP_BUDGET_S, end, scale=scale)
    ops = [o for o in outcomes if o.is_op]
    done = [o for o in ops if o.status == "ok"]
    failed = failures(ops)
    wall = sum(o.segment * o.scale for o in outcomes)
    latencies = [o.latency * o.scale for o in done]
    tail_value, tail_p = tail(latencies) if done else (0.0, 100)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done) / wall,
        "op_s.p50": statistics.median(latencies) if done else 0.0,
        "op_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_wall = sum(o.segment for o in outcomes)
    raw_p50 = statistics.median(o.latency for o in done) if done else 0.0
    rejected = sum(1 for o in outcomes if o.status == "rejected")
    print(f"workload {workload.name}, seed {args.seed}: {passes} passes of "
          f"{len(order)} cases; {len(ops)} operations, {len(failed)} failed; "
          f"{rejected} expected rejections checked")
    print(f"  unscaled: {raw_wall:.3f} s measured, ops_per_s "
          f"{len(done) / raw_wall:.6g}, op_s.p50 {raw_p50:.6g} s, setup_s "
          f"{statistics.median(setup_raw):.6g} s; reference speed factor "
          f"{raw_wall / wall:.4f}")
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{len(done)} operations / {wall:.3f} s",
        "op_s.p50": f"n={len(done)}",
        "op_s.tail": f"p{tail_p}, n={len(done)}",
        "peak_rss_mb": "ru_maxrss, n=1",
    }
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<4} ({notes[name]})")
    print(f"  {'fail_frac':<12} {len(failed) / max(len(ops), 1):12.6g} {'':<4} "
          f"({len(failed)}/{len(ops)} operations)")
    report_failures(outcomes)
    return {
        "correct": not any(o.status in ("wrong", "error") for o in outcomes),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


def per_layer(workload, order, prepared, args) -> dict:
    import spans

    end = time.perf_counter() + TRACE_S
    untraced = run_pass(workload, order, prepared, OP_BUDGET_S, end)
    # only what completed untraced is traced, so the passes do the same work
    cases = [o.case for o in untraced if o.status in ("ok", "rejected")]
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        traced = run_pass(workload, cases, prepared, TRACED_BUDGET_S, end, tracer)
    profiler_tracer = spans.Tracer()
    with profiler_tracer.installed():
        profiled = run_pass(workload, cases, prepared, TRACED_BUDGET_S, end,
                            profiler_tracer, profile=True)
    # repeat the cheapest operation under the profiler: its counts must match
    ok = [o for o in untraced if o.status == "ok"]
    cheapest = min(ok, key=lambda o: o.latency).case if ok else None
    repeat = (run_pass(workload, [cheapest], prepared, TRACED_BUDGET_S, end,
                       profile=True) if cheapest else [])

    times, counts = tracer.metrics()
    _, counts_again = profiler_tracer.metrics()
    ring = {}
    for o in profiled:
        for key, value in (o.profile or {}).items():
            ring[key] = ring.get(key, 0) + value
    first = next((o.profile for o in profiled if o.case == cheapest), None)
    second = repeat[0].profile if repeat else None
    mismatched = sorted(k for k in counts if counts[k] != counts_again[k])
    if first is not None and second is not None:
        mismatched += sorted(k for k in first
                             if k.endswith(".calls") and first[k] != second[k])
    untraced_s = sum(o.latency for o in untraced if o.status in ("ok", "rejected"))
    traced_s = sum(o.latency for o in traced)

    metrics = dict(times)
    metrics.update(counts)
    profiled_s = ring.pop("profiled_s", 0.0)
    metrics.update(ring)
    metrics["ring.share"] = ring.get("ring.self_s", 0.0) / profiled_s if profiled_s else 0.0
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.counts_repeat"] = 0 if mismatched else 1

    print(f"workload {workload.name}, seed {args.seed}, traced: {len(cases)} cases; "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"profiled {sum(o.latency for o in profiled):.3f} s")
    if mismatched:
        print(f"WARNING: counts differ between traced runs: {mismatched}",
              file=sys.stderr)
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:14.6g} {unit_of(name)}")
    spans_dir = BENCH / "results"
    spans_dir.mkdir(exist_ok=True)
    with open(spans_dir / f"spans-{workload.name}-seed{args.seed}.json", "w") as fh:
        json.dump(tracer.dump(t0), fh)

    everything = untraced + traced + profiled + repeat
    report_failures(everything)
    ops = [o for o in everything if o.is_op]
    return {
        "correct": not any(o.status in ("wrong", "error") for o in everything),
        "attempted": len(ops),
        "failed": len(failures(ops)),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s.s" in name:
        return "s"
    if "ratio" in name or name.endswith("share"):
        return "ratio"
    if name == "trace.counts_repeat":
        return "bool"
    return "count"


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    import workloads

    worst = 0
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:  # the child failed before printing its result
            results[name] = None
            print(lines[-1])
        worst = max(worst, child.returncode)
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "arithcurve" / "__init__.py").is_file():
        print(f"arithcurve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    order = workload.order(args.seed)
    prepared = workloads.setup(workload)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        result = per_layer(workload, order, prepared, args)
    else:
        result = end_to_end(workload, order, prepared, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
