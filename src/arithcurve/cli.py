"""Command-line interface: construct, verify, compare, and scan.

Commands
  gens M0 D N      list the minimal generators with their degrees
  resolve M0 D N   build the resolution (or closed-form table) and report it
  scan             Betti vectors over an (a, d) grid, uniformity per class b

Exit codes: 0 success, 1 stdout closed early, 2 invalid input,
3 verification failure, 4 resource limit.  The parser rejects bad options;
commands raise an invalid sequence or method or a resource limit, and
`main` turns each into its one stderr line and exit code.  JSON goes to stdout as it is encoded, diagnostics to
stderr.  Identical invocations produce byte-identical JSON; wall-clock
timings are only included under --timing for that reason.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from functools import cache
from itertools import chain, groupby, islice
from operator import itemgetter
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
from .oracle import artinian_table, minimal_resolution, verify_exactness
from .ring import QQ, PrimeField

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

SCAN_DEFAULT_PRIME = 32003
# the most (b, a, d) cells one scan runs: a million take about 100 minutes
# at n = 4, and their records and payloads alone about 580 MB
SCAN_MAX_CELLS = 1_000_000


def parse_int(text: str, invalid: Optional[str] = None) -> int:
    """An argparse type: int(text).  A text that is no integer is the error
    `invalid` (by default argparse's own for an int); an integer longer than
    Python parses (`sys.get_int_max_str_digits()`) is too large, and the
    error gives its length, not its digits."""
    try:
        return int(text)
    except ValueError:  # int() would name the error "invalid literal"
        # int()'s own syntax, digits grouped by single underscores: such a
        # text fails only past Python's parsing limit
        syntax = re.fullmatch(r"\s*[+-]?(\d+(?:_\d+)*)\s*", text)
        if syntax:
            digits = len(syntax[1].replace("_", ""))
            raise argparse.ArgumentTypeError(
                f"too large ({digits} digits; Python parses at most "
                f"{sys.get_int_max_str_digits()})") from None
        raise argparse.ArgumentTypeError(
            invalid or f"invalid int value: {text!r}") from None


def parse_field(text: str):
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        modulus = parse_int(text[3:], f"invalid field {text!r}: the modulus "
                                      f"is not an integer")
        try:
            return PrimeField(modulus)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown field {text!r}; use q or fp:<prime>")


def parse_range(text: str) -> tuple[int, int]:
    """An argparse type: LO..HI, or N for N..N, as the pair (LO, HI)."""
    bounds = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = (parse_int(t, f"invalid range {text!r}: a bound is not an integer")
              for t in bounds)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: LO exceeds HI")
    return lo, hi


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = parse_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


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
        # a bool is an int, and NaN > 0 is false
        if isinstance(value, bool) or not isinstance(value, kinds) or not value > 0:
            kind = "integer" if integral else "number"
            raise argparse.ArgumentTypeError(
                f"key {key!r} must be a positive {kind}, got {json.dumps(value)}"
            )
    return Limits(**data)


def write_json(obj) -> None:
    """obj as indented JSON and a newline, written as it is encoded.

    Chunks go out joined in batches: the whole text of a large report would
    not fit in memory, and one write per chunk (per matrix entry) is slow.
    """
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := list(islice(chunks, 1 << 16)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def sequence_line(info: dict) -> str:
    """The text header of a sequence's JSON object (`asdict` of it)."""
    return (f"sequence ({info['m0']}, {info['d']}, {info['n']}): "
            f"a={info['a']} b={info['b']}, terms {list(info['terms'])}")


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
                 limits: Limits) -> tuple[dict, Optional[GradedComplex]]:
    """The JSON report of one run and the complex it built, if any."""
    timing: dict[str, float] = {}
    checks: dict[str, dict] = {}
    complex_: Optional[GradedComplex] = None
    phase = "construct"
    try:
        gens = (list(seq.generators(field, limits).all)
                if verify or method == "oracle" else [])
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
                checks.update(verify_complex(complex_))
                checks.update(verify_exactness(complex_, gens, limits=limits))
            if method != "oracle":
                # only the table is compared, so the oracle may read it
                # from the Koszul homology of R/(I, x0) (`artinian_table`)
                oracle_table = artinian_table(gens, limits)
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
        # step s of the b = 1 construction has s * C(n + 1, s + 1) columns, so
        # a large n can exhaust memory before any cap applies; report it like a cap
        raise ResourceLimitExceeded(f"out of memory in {phase}") from None

    report = {
        "sequence": asdict(seq),
        "method": method,
        "betti": betti.to_json_obj(),
        "checks": checks,
        "timing_ms": {k: round(v, 3) for k, v in timing.items()},
    }
    return report, complex_


class _RowMajor(list):
    """A matrix's entry strings, row-major and zeros included, as a list
    that holds none of them.  `write_json`'s `iterencode` runs json's
    Python encoder, which reads a list's length and iterates it; each
    iteration here builds one row of strings at a time."""

    def __init__(self, matrix):
        super().__init__()
        self.matrix = matrix

    def __len__(self):
        return self.matrix.rows * self.matrix.cols

    def __iter__(self):
        return chain.from_iterable(self.matrix.dense_rows(str))


def emit_matrices_obj(complex_: GradedComplex) -> list:
    """Per differential, its JSON object; `write_json` holds one row of its
    entry strings at a time."""
    return [{"step": s, "rows": d.rows, "cols": d.cols, "entries": _RowMajor(d)}
            for s, d in enumerate(complex_.maps, 1)]


# -- commands -----------------------------------------------------------------


def cmd_gens(args) -> int:
    seq = ArithmeticSequence.validate(args.m0, args.d, args.n)
    gens = seq.generators(args.field, args.limits)
    obj = {
        "sequence": asdict(seq),
        "count": len(gens.all),
        "generators": [
            {"label": lbl, "degree": p.weighted_degree(), "poly": str(p)}
            for lbl, p in zip(gens.labels(), gens.all)
        ],
    }
    if args.json:
        write_json(obj)
    else:
        print(sequence_line(obj["sequence"]))
        print(f"{obj['count']} minimal generators:")
        for g in obj["generators"]:
            print(f"  {g['label']:10s} deg {g['degree']:4d}  {g['poly']}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    seq = ArithmeticSequence.validate(args.m0, args.d, args.n)
    method = pick_method(seq, args.method)
    report, complex_ = build_report(seq, method, args.field, args.verify,
                                    args.limits)
    if not args.timing:
        report["timing_ms"] = None

    if args.json:
        if args.emit_matrices and complex_ is not None:
            report["matrices"] = emit_matrices_obj(complex_)
        write_json(report)
    else:
        print(sequence_line(report["sequence"]))
        print(f"method: {report['method']}")
        betti = report["betti"]  # one row per step, from step 0
        print(f"betti:  {' '.join(str(len(row['shifts'])) for row in betti)}")
        for row in betti[1:]:
            shifts = " ".join(str(x) for x in row["shifts"])
            print(f"  step {row['step']} shifts: {shifts}")
        for name, res in report["checks"].items():
            mark = "PASS" if res["pass"] else f"FAIL {res['witness']}"
            print(f"check {name}: {mark}")
        if args.timing:
            for phase, ms in report["timing_ms"].items():
                print(f"timing {phase}: {ms} ms")
        if args.emit_matrices and complex_ is not None:
            for s in range(1, complex_.length + 1):
                d = complex_.differential(s)
                print(f"differential {s} ({d.rows}x{d.cols}):")
                for row in d.dense_rows(str):
                    print("  [" + ", ".join(row) + "]")

    if args.verify and not all(c["pass"] for c in report["checks"].values()):
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
    except SequenceError as exc:
        return {**cell, "status": "invalid", "reason": str(exc)}
    try:
        # only the Betti vector is read, so the cell may read it from the
        # Koszul homology of R/(I, x0) (`artinian_table`)
        betti = artinian_table(list(seq.generators(field, limits).all), limits).betti()
    except ResourceLimitExceeded as exc:
        return {**cell, "status": "resource-limit", "reason": str(exc)}
    except MemoryError:
        # one cell's failure, like a cap: the finished cells are still reported
        return {**cell, "status": "resource-limit", "reason": "out of memory"}
    return {**cell, "status": "ok", "betti": list(betti)}


def cmd_scan(args) -> int:
    n = args.n
    # the usage checks the parser cannot make, as they depend on --n: the
    # range of --b, that every cell's m0 = a*n + b, which is printed,
    # converts to text (m0 is linear in a and b, so its largest magnitude,
    # the longest text, lies at a pair of bounds), and the number of cells
    if args.b is not None and not 1 <= args.b <= n:
        print(f"--b must lie in 1..{n}, got {args.b}", file=sys.stderr)
        return EXIT_INVALID
    # the classes as bounds: --n alone may give more than fit in memory
    b_lo, b_hi = (args.b, args.b) if args.b is not None else (1, n)
    try:
        str(max(abs(a * n + b) for a in args.a_range for b in (b_lo, b_hi)))
    except ValueError:  # past Python's int-to-text limit
        print(f"--a is too large: m0 = a*n + b would pass the "
              f"{sys.get_int_max_str_digits()} decimal digits Python converts "
              f"to text (sys.set_int_max_str_digits)", file=sys.stderr)
        return EXIT_INVALID
    a_lo, a_hi = args.a_range
    d_lo, d_hi = args.d_range
    # counted before any cell exists; the count itself may not print
    if (b_hi - b_lo + 1) * (a_hi - a_lo + 1) * (d_hi - d_lo + 1) > SCAN_MAX_CELLS:
        grid = "--a and --d" if args.b is not None else "--n, --a and --d"
        print(f"{grid} give more than {SCAN_MAX_CELLS:,} scan cells", file=sys.stderr)
        return EXIT_INVALID
    payloads = [
        (n, b, a, d, args.field, args.limits)
        for b in range(b_lo, b_hi + 1)
        for a in range(a_lo, a_hi + 1)
        for d in range(d_lo, d_hi + 1)
    ]
    # a fork pool starts all its workers at the first submit, so it asks
    # for no more than there are cells or cores
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which no other
        # command or serial scan needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                cells = list(pool.map(_scan_cell, payloads))
        except BrokenProcessPool:  # a worker exited abruptly, say by SIGKILL
            raise ResourceLimitExceeded(
                "a scan worker process died (killed, or out of memory)") from None
    else:
        cells = [_scan_cell(p) for p in payloads]
    # assembly is ordered by construction of `payloads`, not completion order

    summaries = []
    for b, group in groupby(cells, key=itemgetter("b")):  # cells are b-major
        group = list(group)
        ok = [c for c in group if c["status"] == "ok"]
        status = Counter(c["status"] for c in group)
        summary = {"b": b, "cells_ok": len(ok), "cells_invalid": status["invalid"],
                   "cells_limited": status["resource-limit"]}
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
        write_json(obj)
    else:
        print(f"scan n={n}, field {obj['field']}")
        for c in cells:
            outcome = (f"betti {c['betti']}" if c["status"] == "ok"
                       else f"{c['status']} ({c['reason']})")
            print(f"  b={c['b']} a={c['a']} d={c['d']} m0={c['m0']}: {outcome}")
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing mutates none of it, and
    building it costs several times a parse."""
    parser = argparse.ArgumentParser(
        prog="arithcurve",
        description="Defining ideals and minimal graded free resolutions of "
                    "monomial curves given by arithmetic sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seq_args(p):
        p.add_argument("m0", type=parse_int, help="first term")
        p.add_argument("d", type=parse_int, help="common difference")
        p.add_argument("n", type=parse_int, help="number of steps (n+1 terms)")

    def add_config_arg(p):
        p.add_argument("--config", dest="limits", type=load_limits,
                       default=Limits(), metavar="FILE",
                       help="JSON file overriding resource caps")

    p_gens = sub.add_parser("gens", help="list the minimal generators")
    add_seq_args(p_gens)
    p_gens.add_argument("--json", action="store_true")
    p_gens.add_argument("--field", type=parse_field, default=QQ)
    add_config_arg(p_gens)
    p_gens.set_defaults(func=cmd_gens)

    p_res = sub.add_parser("resolve",
                           help="construct and optionally verify the resolution")
    add_seq_args(p_res)
    p_res.add_argument("--method", choices=["auto", *METHODS], default="auto")
    p_res.add_argument("--json", action="store_true")
    p_res.add_argument("--field", type=parse_field, default=QQ)
    p_res.add_argument("--emit-matrices", action="store_true")
    p_res.add_argument("--timing", action="store_true",
                       help="include wall-clock timings (breaks byte-stability)")
    add_config_arg(p_res)
    p_res.add_argument("--verify", action="store_true")
    p_res.set_defaults(func=cmd_resolve)

    p_scan = sub.add_parser("scan", help="Betti vectors over an (a, d) grid")
    p_scan.add_argument("--n", type=_int_at_least(2), required=True)
    p_scan.add_argument("--b", type=parse_int, default=None,
                        help="restrict to one residue class (default: all)")
    p_scan.add_argument("--a", dest="a_range", type=parse_range, required=True,
                        metavar="LO..HI")
    p_scan.add_argument("--d", dest="d_range", type=parse_range, required=True,
                        metavar="LO..HI")
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--field", type=parse_field,
                        default=PrimeField(SCAN_DEFAULT_PRIME))
    p_scan.add_argument("--jobs", type=_int_at_least(1), default=1)
    add_config_arg(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SequenceError as exc:
        print(f"invalid sequence: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except WrongCase as exc:
        print(f"invalid method: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # stdout was closed early (say, piped into head); point it at devnull
        # so that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
