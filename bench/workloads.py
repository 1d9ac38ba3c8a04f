"""Workloads of the benchmark: case pools, seeded order, operations and checks.

An operation is one `resolve` call, one `ok` scan cell, or one toric identity
check.  The program is reached only through public entry points:
`arithcurve.cli.main(argv)` with stdout captured and parsed, and the library
functions of `arithcurve.oracle`.  Each result is checked against values that
do not come from the route being timed: the closed forms of
`arithcurve.closedform`, the parametrization map `ArithmeticSequence.vanishes`,
and one Betti vector pinned from the first version of the code.

Nothing here imports `arithcurve` at module level, so the set-up time the
benchmark reports includes that import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

SCAN_FIELD = "fp:32003"

# b = 3, n = 4 has no closed form; the scan must find this vector in every
# cell of the class (value pinned from the first version of the code)
B3_N4_BETTI = [1, 8, 12, 7, 2]


@dataclass(frozen=True)
class Case:
    """One input of a workload: a sequence (m0, d, n) and a field."""

    m0: int
    d: int
    n: int
    field: str = "q"

    @property
    def b(self) -> int:
        return self.m0 % self.n or self.n

    @property
    def a(self) -> int:
        return (self.m0 - self.b) // self.n

    @property
    def rejected(self) -> bool:
        """Validation must reject the sequence.

        Decided without the program's validator: for m0 > n the terms are a
        minimal generating set exactly when gcd(m0, d) = 1.
        """
        return self.m0 <= self.n or math.gcd(self.m0, self.d) != 1

    def __str__(self) -> str:
        return f"{self.m0} {self.d} {self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "scan", "resolve" or "toric"
    pool: tuple[Case, ...]
    # seconds one pass took when the benchmark was written (2 cores,
    # Python 3.11); a run makes ceil(--seconds / pass_s) passes, so every
    # run of every commit does the same work
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.pass_s))

    def order(self, seed: int) -> list[Case]:
        """The pool in the order of one pass: listed order for seed 0,
        a seeded permutation otherwise.

        Every pass runs the whole pool, so each run does the same work
        whatever the seed; only the order changes.
        """
        cases = list(self.pool)
        if seed:
            random.Random(seed).shuffle(cases)
        return cases


def _scan_grid(n: int, a_values, d_values) -> tuple[Case, ...]:
    return tuple(
        Case(a * n + b, d, n, SCAN_FIELD)
        for b in range(1, n + 1)
        for a in a_values
        for d in d_values
    )


WORKLOADS = {
    w.name: w
    for w in (
        # scan --n 4 --a 1..2 --d 1..3: 17 ok cells, 7 rejected by validation
        Workload("scan-n4", "scan", _scan_grid(4, (1, 2), (1, 2, 3)), 12.2),
        Workload("verify-n4", "resolve", (
            Case(5, 1, 4), Case(9, 2, 4),     # b = 1
            Case(8, 1, 4), Case(16, 3, 4),    # b = n
            Case(6, 1, 4),                    # b = 2: Gorenstein closed form
        ), 3.9),
        Workload("toric-n4", "toric", (
            Case(5, 1, 4), Case(7, 1, 4), Case(9, 2, 4), Case(13, 2, 4),
            Case(16, 3, 4),
        ), 7.0),
        # 11 1 5 does not finish within the operation budget at the first
        # version of the code and is recorded as a limit
        Workload("oracle-n5", "resolve", (
            Case(10, 1, 5, SCAN_FIELD), Case(11, 1, 5, SCAN_FIELD),
        ), 50.0),
    )
}


# -- set-up ---------------------------------------------------------------


def setup(workload: Workload) -> dict:
    """Import the package, validate every sequence of the workload and build
    its generators, which fills the ring cache.  Returns what the toric
    operations reuse: {case: (sequence, generators)}."""
    import arithcurve.cli
    from arithcurve.curve import ArithmeticSequence, SequenceError

    prepared = {}
    for case in workload.pool:
        try:
            seq = ArithmeticSequence.validate(case.m0, case.d, case.n)
        except SequenceError:
            continue
        field = arithcurve.cli.parse_field(case.field)
        prepared[case] = (seq, list(seq.generators(field).all))
    return prepared


# -- operations -------------------------------------------------------------


def _cli(argv: list[str]):
    from arithcurve import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def operation(workload: Workload, case: Case, prepared: dict) -> Callable[[], object]:
    """The program call of one operation, as a thunk; its result goes to check()."""
    if workload.kind == "scan":
        argv = ["scan", "--n", str(case.n), "--b", str(case.b), "--a", str(case.a),
                "--d", str(case.d), "--field", case.field, "--json", "--jobs", "1"]
        return lambda: _cli(argv)
    if workload.kind == "resolve":
        argv = ["resolve", str(case.m0), str(case.d), str(case.n), "--verify",
                "--field", case.field, "--json"]
        return lambda: _cli(argv)
    seq, gens = prepared[case]

    def toric():
        from arithcurve import oracle

        basis = oracle.toric_ideal(seq)
        return basis, oracle.ideal_equal(basis, gens)

    return toric


# -- checks -----------------------------------------------------------------


def _expected_table(seq):
    """Closed-form shift table of the sequence's class, or None."""
    from arithcurve import closedform

    if seq.b == 1:
        return closedform.shift_table_b1(seq)
    if seq.b == seq.n:
        return closedform.shift_table_bn(seq)
    if (seq.b, seq.n) == (2, 4):
        return closedform.shifts_gor4(seq.a, seq.d)
    return None


def _expected_betti(case: Case) -> Optional[list[int]]:
    from arithcurve.curve import ArithmeticSequence

    table = _expected_table(ArithmeticSequence.validate(case.m0, case.d, case.n))
    if table is not None:
        return list(table.betti())
    if (case.b, case.n) == (3, 4):
        return B3_N4_BETTI
    return None


def check(workload: Workload, case: Case, result) -> Optional[str]:
    """None if the operation's result is right, else what is wrong."""
    from arithcurve.curve import ArithmeticSequence

    if workload.kind == "toric":
        basis, equal = result
        if not basis:
            return "empty toric basis"
        seq = ArithmeticSequence.validate(case.m0, case.d, case.n)
        if not all(seq.vanishes(p) for p in basis):
            return "a toric basis element does not vanish on the curve"
        if not equal:
            return "toric ideal differs from the ideal of the generators"
        return None

    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    obj = json.loads(out)
    if workload.kind == "scan":
        cell = obj["cells"][0]
        if case.rejected:
            return None if cell["status"] == "invalid" else f"expected rejection, got {cell}"
        if cell["status"] != "ok":
            return f"cell status {cell['status']}"
        expected = _expected_betti(case)
        if expected is None or cell["betti"] != expected:
            return f"betti {cell['betti']}, expected {expected}"
        return None

    seq_info = obj["sequence"]
    if (seq_info["m0"], seq_info["d"], seq_info["n"]) != (case.m0, case.d, case.n):
        return f"report for another sequence: {seq_info}"
    failed = [name for name, res in obj["checks"].items() if not res["pass"]]
    if failed or not obj["checks"]:
        return f"checks failed: {failed or 'none reported'}"
    table = _expected_table(ArithmeticSequence.validate(case.m0, case.d, case.n))
    if table is None or obj["betti"] != table.to_json_obj():
        return "shift table differs from the closed form"
    return None
