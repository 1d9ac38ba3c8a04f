"""Command-line interface: construct, verify, compare, and scan.

Commands
  gens M0 D N      list the minimal generators with their degrees
  resolve M0 D N   build the resolution (or closed-form table) and report it
  verify M0 D N    alias for resolve --verify
  scan             Betti vectors over an (a, d) grid, uniformity per class b

Exit codes: 0 success, 2 invalid input, 3 verification failure,
4 resource limit.  JSON goes to stdout, diagnostics to stderr.  Identical
invocations produce byte-identical JSON; wall-clock timings are only included
under --timing for that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional

from .closedform import (
    BettiTable,
    gor4_symmetry_point,
    shifts_gor4,
)
from .complexes import (
    GradedComplex,
    WrongCase,
    resolution_b1,
    resolution_bn,
    verify_complex,
)
from .curve import ArithmeticSequence, SequenceError
from .groebner import Limits, ResourceLimitExceeded
from .oracle import minimal_resolution, verify_exactness
from .ring import QQ, PrimeField

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

SCAN_DEFAULT_PRIME = 32003


def parse_field(text: str):
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown field {text!r}; use q or fp:<prime>")


def parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: LO exceeds HI")
    return lo, hi


def _is_positive(value, kinds) -> bool:
    """A positive number of the given types; rejects booleans and NaN."""
    return not isinstance(value, bool) and isinstance(value, kinds) and value > 0


def _parse_cell_timeout(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if not _is_positive(value, float):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def load_limits(path: str) -> Limits:
    """Resource caps from a JSON object whose keys are fields of Limits.

    Integer caps must be positive integers and deadline_s a positive number;
    anything else is a usage error (exit 2) that names the key.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError(f"{path!r} must hold a JSON object")
    defaults = {f.name: f.default for f in fields(Limits)}
    for key, value in data.items():
        if key not in defaults:
            raise argparse.ArgumentTypeError(
                f"unknown key {key!r}; allowed: {', '.join(defaults)}"
            )
        integral = isinstance(defaults[key], int)
        kinds = int if integral else (int, float)
        if not _is_positive(value, kinds):
            kind = "integer" if integral else "number"
            raise argparse.ArgumentTypeError(
                f"key {key!r} must be a positive {kind}, got {json.dumps(value)}"
            )
    return Limits(**data)


@dataclass
class RunReport:
    sequence: dict
    method: str
    betti: BettiTable
    checks: dict
    timing_ms: Optional[dict]

    def to_json_obj(self, include_timing: bool = False) -> dict:
        return {
            "sequence": self.sequence,
            "method": self.method,
            "betti": self.betti.to_json_obj(),
            "checks": self.checks,
            "timing_ms": self.timing_ms if include_timing else None,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunReport":
        return cls(
            sequence=obj["sequence"],
            method=obj["method"],
            betti=BettiTable.from_json_obj(obj["betti"]),
            checks=obj["checks"],
            timing_ms=obj.get("timing_ms"),
        )


def sequence_info(seq: ArithmeticSequence) -> dict:
    return {
        "m0": seq.m0,
        "d": seq.d,
        "n": seq.n,
        "a": seq.a,
        "b": seq.b,
        "terms": list(seq.terms),
    }


# --method value -> (method, whether it applies to a sequence, what it
# requires); auto takes the first row that applies
METHODS = {
    "en": ("b1-en", lambda seq: seq.b == 1, "b = 1, got b = {b}"),
    "cone": ("bn-cone", lambda seq: seq.b == seq.n, "b = n, got b = {b}, n = {n}"),
    "closedform": ("gor4-closedform", lambda seq: seq.b == 2 and seq.n == 4,
                   "b = 2 and n = 4, got b = {b}, n = {n}"),
    "oracle": ("oracle", lambda seq: True, ""),
}


def pick_method(seq: ArithmeticSequence, requested: str) -> str:
    if requested == "auto":
        return next(method for method, applies, _ in METHODS.values() if applies(seq))
    method, applies, requirement = METHODS[requested]
    if not applies(seq):
        raise WrongCase(f"method {requested} requires "
                        + requirement.format(b=seq.b, n=seq.n))
    return method


def build_report(seq: ArithmeticSequence, method: str, field, verify: bool,
                 limits: Limits) -> tuple[RunReport, Optional[GradedComplex]]:
    timing: dict[str, float] = {}
    checks: dict[str, dict] = {}
    complex_: Optional[GradedComplex] = None
    phase = "construct"
    try:
        gens = list(seq.generators(field).all) if verify or method == "oracle" else []
        t0 = time.perf_counter()
        if method == "b1-en":
            complex_ = resolution_b1(seq, field)
        elif method == "bn-cone":
            complex_ = resolution_bn(seq, field)
        elif method == "oracle":
            complex_ = minimal_resolution(gens, limits=limits)
        if complex_ is None:  # gor4-closedform
            betti = shifts_gor4(seq.a, seq.d)
        else:
            betti = BettiTable.from_complex(complex_)
        timing["construct"] = (time.perf_counter() - t0) * 1000.0

        if verify:
            phase = "verify"
            t0 = time.perf_counter()
            if complex_ is not None:
                rep = verify_complex(complex_)
                for name in ("dd_zero", "homogeneous", "minimal"):
                    checks[name] = {"pass": getattr(rep, name),
                                    "witness": list(rep.witness.get(name, []))}
                exact = verify_exactness(complex_, gens, limits=limits)
                checks["exactness"] = {
                    "pass": exact.all_ok,
                    "witness": [] if exact.all_ok else [exact.first_failure()],
                }
            if method != "oracle":
                oracle_table = BettiTable.from_complex(
                    minimal_resolution(gens, limits=limits)
                )
                checks["oracle_betti_match"] = {
                    "pass": oracle_table.betti() == betti.betti(),
                    "witness": [list(oracle_table.betti()), list(betti.betti())],
                }
                checks["oracle_shift_match"] = {
                    "pass": oracle_table.same_shifts(betti),
                    "witness": [],
                }
            if method == "gor4-closedform":
                total = gor4_symmetry_point(seq.a, seq.d)
                checks["palindromic"] = {"pass": betti.is_palindromic(total),
                                         "witness": [total]}
            timing["verify"] = (time.perf_counter() - t0) * 1000.0
    except MemoryError:
        # a construction stores each differential densely, so a large n can
        # exhaust memory before any cap applies; report it like a cap
        raise ResourceLimitExceeded(f"out of memory in {phase}") from None

    report = RunReport(
        sequence=sequence_info(seq),
        method=method,
        betti=betti,
        checks=checks,
        timing_ms={k: round(v, 3) for k, v in timing.items()},
    )
    return report, complex_


def emit_matrices_obj(complex_: GradedComplex) -> list:
    out = []
    for s in range(1, complex_.length + 1):
        d = complex_.differential(s)
        out.append({
            "step": s,
            "rows": d.rows,
            "cols": d.cols,
            "entries": [str(e) for e in d.entries],
        })
    return out


# -- commands -----------------------------------------------------------------


def cmd_gens(args) -> int:
    try:
        seq = ArithmeticSequence.validate(args.m0, args.d, args.n)
    except (SequenceError, ValueError) as exc:
        print(f"invalid sequence: {exc}", file=sys.stderr)
        return EXIT_INVALID
    gens = seq.generators(args.field)
    labels = gens.labels()
    polys = gens.all
    if args.json:
        obj = {
            "sequence": sequence_info(seq),
            "count": len(polys),
            "generators": [
                {"label": lbl, "degree": p.weighted_degree(), "poly": str(p)}
                for lbl, p in zip(labels, polys)
            ],
        }
        print(json.dumps(obj, indent=2))
    else:
        print(f"sequence {seq}: a={seq.a} b={seq.b}, terms {list(seq.terms)}")
        print(f"{len(polys)} minimal generators:")
        for lbl, p in zip(labels, polys):
            print(f"  {lbl:10s} deg {p.weighted_degree():4d}  {p}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    try:
        seq = ArithmeticSequence.validate(args.m0, args.d, args.n)
    except (SequenceError, ValueError) as exc:
        print(f"invalid sequence: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        method = pick_method(seq, args.method)
    except WrongCase as exc:
        print(f"invalid method: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        report, complex_ = build_report(seq, method, args.field, args.verify,
                                        args.limits)
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE

    if args.json:
        obj = report.to_json_obj(include_timing=args.timing)
        if args.emit_matrices and complex_ is not None:
            obj["matrices"] = emit_matrices_obj(complex_)
        print(json.dumps(obj, indent=2))
    else:
        print(f"sequence {seq}: a={seq.a} b={seq.b}, terms {list(seq.terms)}")
        print(f"method: {method}")
        print(f"betti:  {' '.join(str(x) for x in report.betti.betti())}")
        for s in range(1, report.betti.length + 1):
            shifts = " ".join(str(x) for x in report.betti.rows[s])
            print(f"  step {s} shifts: {shifts}")
        for name, res in report.checks.items():
            mark = "PASS" if res["pass"] else f"FAIL {res['witness']}"
            print(f"check {name}: {mark}")
        if args.timing:
            for phase, ms in report.timing_ms.items():
                print(f"timing {phase}: {ms} ms")
        if args.emit_matrices and complex_ is not None:
            for entry in emit_matrices_obj(complex_):
                print(f"differential {entry['step']} ({entry['rows']}x{entry['cols']}):")
                for i in range(entry["rows"]):
                    row = entry["entries"][i * entry["cols"]:(i + 1) * entry["cols"]]
                    print("  [" + ", ".join(row) + "]")

    if args.verify and not all(c["pass"] for c in report.checks.values()):
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _scan_cell(payload: tuple) -> dict:
    """One (b, a, d) cell; module-level so process pools can pickle it."""
    n, b, a, d, field, limits = payload
    m0 = a * n + b
    cell = {"b": b, "a": a, "d": d, "m0": m0}
    try:
        seq = ArithmeticSequence.validate(m0, d, n)
    except (SequenceError, ValueError) as exc:
        cell["status"] = "invalid"
        cell["reason"] = str(exc)
        return cell
    try:
        complex_ = minimal_resolution(list(seq.generators(field).all), limits=limits)
    except ResourceLimitExceeded as exc:
        cell["status"] = "resource-limit"
        cell["reason"] = str(exc)
        return cell
    cell["status"] = "ok"
    cell["betti"] = list(complex_.betti())
    return cell


def cmd_scan(args) -> int:
    n = args.n
    problems = [msg for bad, msg in (
        (n < 2, f"--n must be at least 2, got {n}"),
        (args.b is not None and not 1 <= args.b <= n,
         f"--b must lie in 1..{n}, got {args.b}"),
        (args.jobs < 1, f"--jobs must be at least 1, got {args.jobs}"),
        (args.a_range is None or args.d_range is None,
         "scan needs --a LO..HI and --d LO..HI"),
    ) if bad]
    if problems:
        print(problems[0], file=sys.stderr)
        return EXIT_INVALID
    b_values = [args.b] if args.b is not None else list(range(1, n + 1))
    a_lo, a_hi = args.a_range
    d_lo, d_hi = args.d_range
    limits = args.limits
    if args.cell_timeout is not None:
        limits = replace(limits, deadline_s=args.cell_timeout)
    payloads = [
        (n, b, a, d, args.field, limits)
        for b in b_values
        for a in range(a_lo, a_hi + 1)
        for d in range(d_lo, d_hi + 1)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cells = list(pool.map(_scan_cell, payloads))
    else:
        cells = [_scan_cell(p) for p in payloads]
    # assembly is ordered by construction of `payloads`, not completion order

    summaries = []
    for b in b_values:
        ok = [c for c in cells if c["b"] == b and c["status"] == "ok"]
        summary = {"b": b, "cells_ok": len(ok),
                   "cells_invalid": sum(1 for c in cells
                                        if c["b"] == b and c["status"] == "invalid"),
                   "cells_limited": sum(1 for c in cells
                                        if c["b"] == b and c["status"] == "resource-limit")}
        if ok:
            first = ok[0]["betti"]
            clash = next((c for c in ok if c["betti"] != first), None)
            if clash is None:
                summary["uniform"] = True
                summary["betti"] = first
            else:
                summary["uniform"] = False
                summary["first"] = {"a": ok[0]["a"], "d": ok[0]["d"], "betti": first}
                summary["counterexample"] = {
                    "a": clash["a"], "d": clash["d"], "betti": clash["betti"],
                }
        summaries.append(summary)

    obj = {"n": n, "field": "q" if args.field is QQ else f"fp:{args.field.p}",
           "cells": cells, "summary": summaries}
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        print(f"scan n={n}, field {obj['field']}")
        for c in cells:
            if c["status"] == "ok":
                print(f"  b={c['b']} a={c['a']} d={c['d']} m0={c['m0']}: "
                      f"betti {c['betti']}")
            else:
                print(f"  b={c['b']} a={c['a']} d={c['d']} m0={c['m0']}: "
                      f"{c['status']} ({c['reason']})")
        for s in summaries:
            if "uniform" not in s and s["cells_limited"]:
                print(f"b={s['b']}: no completed cells "
                      f"({s['cells_limited']} resource-limit)")
            elif "uniform" not in s:
                print(f"b={s['b']}: no valid cells")
            elif s["uniform"]:
                print(f"b={s['b']}: uniform, betti {s['betti']}")
            else:
                print(f"b={s['b']}: NOT uniform: {s['first']} vs {s['counterexample']}")
    if any(c["status"] == "resource-limit" for c in cells):
        return EXIT_RESOURCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcurve",
        description="Defining ideals and minimal graded free resolutions of "
                    "monomial curves given by arithmetic sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seq_args(p):
        p.add_argument("m0", type=int, help="first term")
        p.add_argument("d", type=int, help="common difference")
        p.add_argument("n", type=int, help="number of steps (n+1 terms)")

    p_gens = sub.add_parser("gens", help="list the minimal generators")
    add_seq_args(p_gens)
    p_gens.add_argument("--json", action="store_true")
    p_gens.add_argument("--field", type=parse_field, default=QQ)
    p_gens.set_defaults(func=cmd_gens)

    for name, force_verify in (("resolve", False), ("verify", True)):
        p_res = sub.add_parser(
            name,
            help="construct and optionally verify the resolution"
            if name == "resolve"
            else "resolve with every check enabled",
        )
        add_seq_args(p_res)
        p_res.add_argument("--method", choices=["auto", *METHODS], default="auto")
        p_res.add_argument("--json", action="store_true")
        p_res.add_argument("--field", type=parse_field, default=QQ)
        p_res.add_argument("--emit-matrices", action="store_true")
        p_res.add_argument("--timing", action="store_true",
                           help="include wall-clock timings (breaks byte-stability)")
        p_res.add_argument("--config", dest="limits", type=load_limits,
                           default=Limits(), metavar="FILE",
                           help="JSON file overriding resource caps")
        if force_verify:
            p_res.set_defaults(verify=True)
        else:
            p_res.add_argument("--verify", action="store_true")
        p_res.set_defaults(func=cmd_resolve)

    p_scan = sub.add_parser("scan", help="Betti vectors over an (a, d) grid")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--b", type=int, default=None,
                        help="restrict to one residue class (default: all)")
    p_scan.add_argument("--a", dest="a_range", type=parse_range, default=None,
                        metavar="LO..HI")
    p_scan.add_argument("--d", dest="d_range", type=parse_range, default=None,
                        metavar="LO..HI")
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--field", type=parse_field,
                        default=PrimeField(SCAN_DEFAULT_PRIME))
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--cell-timeout", type=_parse_cell_timeout, default=None,
                        help="wall-clock budget in seconds (positive) for each "
                             "engine run of a cell")
    p_scan.add_argument("--config", dest="limits", type=load_limits,
                        default=Limits(), metavar="FILE",
                        help="JSON file overriding resource caps")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitExceeded as exc:  # safety net for uncaught limits
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
