"""CLI surface: commands, JSON schema, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arithcurve import cli, shift_table_b1, shift_table_bn, validate_sequence
from arithcurve.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    build_parser,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


# the pid of the process that runs the tests, not of a scan worker
TEST_PID = os.getpid()
REAL_SCAN_CELL = cli._scan_cell


def _scan_cell_dies_at_a2(payload):
    """`cli._scan_cell`, except that a worker process exits abruptly with
    137, as one the OOM killer ends, at a = 2; never in this process."""
    if payload[2] == 2 and os.getpid() != TEST_PID:
        os._exit(137)
    return REAL_SCAN_CELL(payload)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGens:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "5", "1", "4")
        assert code == EXIT_OK
        assert "10 minimal generators" in out
        for deg in (12, 13, 14, 15, 16, 17, 18):
            assert f"deg   {deg}" in out

    def test_invalid_input_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "gens", "4", "2", "2")
        assert code == EXIT_INVALID
        assert "gcd" in err

    def test_json_count(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "6", "1", "4", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["count"] == 9
        assert obj["sequence"]["b"] == 2
        assert len(obj["generators"]) == 9
        assert obj["generators"][0]["label"] == "q[0,1]"

    def test_generators_past_the_basis_cap_rejected_up_front(self, capsys):
        """C(1000, 2) + 1000 = 500,500 generators exceed the default basis
        cap of 100,000: the count is compared before any is built, where
        building them ran out of memory under a 3 GB address-space limit."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gens", "1001", "1", "1000")
        assert time.perf_counter() - start < 5
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == ("resource limit: generators: 500500 minimal generators "
                       "exceed the basis size cap 100000\n")

    def test_basis_cap_from_config(self, capsys, tmp_path):
        """8 1 4 has 7 generators: a basis cap of 7 lists them, one of 6
        refuses them."""
        code, out, _ = run_cli(capsys, "gens", "8", "1", "4", "--config",
                               write_config(tmp_path, {"max_basis": 7}))
        assert code == EXIT_OK
        assert "7 minimal generators" in out
        code, out, err = run_cli(capsys, "gens", "8", "1", "4", "--config",
                                 write_config(tmp_path, {"max_basis": 6}))
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "7 minimal generators exceed the basis size cap 6" in err


class TestResolve:
    def test_b1_with_verification(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "5", "1", "4", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "b1-en"
        assert [len(r["shifts"]) for r in obj["betti"]] == [1, 10, 20, 15, 4]
        assert all(c["pass"] for c in obj["checks"].values())
        assert obj["timing_ms"] is None

    def test_bn_with_verification(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "8", "1", "4", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "bn-cone"
        assert [len(r["shifts"]) for r in obj["betti"]] == [1, 7, 14, 11, 3]
        assert all(c["pass"] for c in obj["checks"].values())

    def test_gor4_closedform_vs_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "6", "1", "4", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "gor4-closedform"
        assert [len(r["shifts"]) for r in obj["betti"]] == [1, 9, 16, 9, 1]
        assert obj["checks"]["oracle_shift_match"]["pass"]
        assert obj["checks"]["palindromic"]["pass"]

    def test_oracle_method_for_middle_b(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "7", "1", "4", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "oracle"
        assert [len(r["shifts"]) for r in obj["betti"]] == [1, 8, 12, 7, 2]

    def test_json_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "resolve", "5", "1", "4", "--verify", "--json")
        _, second, _ = run_cli(capsys, "resolve", "5", "1", "4", "--verify", "--json")
        assert first == second

    @pytest.mark.parametrize("argv,line", [
        (("8", "1", "4", "--method", "en"),
         "invalid method: method en requires b = 1, got b = 4"),
        (("5", "1", "4", "--method", "cone"),
         "invalid method: method cone requires b = n, got b = 1, n = 4"),
        (("7", "1", "4", "--method", "closedform"),
         "invalid method: method closedform requires b = 2 and n = 4, "
         "got b = 3, n = 4"),
    ], ids=["en", "cone", "closedform"])
    def test_forced_method_mismatch(self, capsys, argv, line):
        code, out, err = run_cli(capsys, "resolve", *argv)
        assert code == EXIT_INVALID
        assert (out, err) == ("", line + "\n")

    @pytest.mark.parametrize("verify", [False, True])
    def test_timing_only_under_flag(self, capsys, verify):
        argv = ("resolve", "5", "1", "4", *(("--verify",) if verify else ()))
        phases = ["construct", "verify"] if verify else ["construct"]
        _, out, _ = run_cli(capsys, *argv, "--json", "--timing")
        timing = json.loads(out)["timing_ms"]
        assert list(timing) == phases
        assert all(isinstance(ms, float) and ms >= 0 for ms in timing.values())
        _, out, _ = run_cli(capsys, *argv, "--json")
        assert json.loads(out)["timing_ms"] is None
        _, out, _ = run_cli(capsys, *argv, "--timing")
        printed = [line.split(":")[0] for line in out.splitlines()
                   if line.startswith("timing ")]
        assert printed == [f"timing {phase}" for phase in phases]
        _, out, _ = run_cli(capsys, *argv)
        assert "timing" not in out

    def test_emit_matrices(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolve", "4", "1", "2", "--json", "--emit-matrices"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        mats = obj["matrices"]
        assert [m["step"] for m in mats] == [1, 2]
        assert mats[0]["rows"] == 1 and mats[0]["cols"] == 2
        assert all(isinstance(e, str) for m in mats for e in m["entries"])

    def test_verify_flag_checks_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "6", "1", "3", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["checks"]["exactness"]["pass"]

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        import arithcurve.cli as cli_mod

        checks = {"dd_zero": {"pass": True, "witness": []},
                  "homogeneous": {"pass": True, "witness": []},
                  "minimal": {"pass": False, "witness": [1, 0, 0]}}
        monkeypatch.setattr(cli_mod, "verify_complex", lambda C: checks)
        code, out, err = run_cli(capsys, "resolve", "5", "1", "4", "--verify")
        assert code == EXIT_VERIFY
        assert "check minimal: FAIL [1, 0, 0]" in out
        assert "verification failed" in err

    def test_oracle_verify_checks_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "7", "2", "4", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "oracle"
        assert obj["checks"]["exactness"] == {"pass": True, "witness": []}

    def test_oracle_exactness_failure_exit_code(self, capsys, monkeypatch):
        import arithcurve.cli as cli_mod

        failed = {"exactness": {"pass": False, "witness": ["exactness at step 2"]}}
        monkeypatch.setattr(cli_mod, "verify_exactness", lambda C, gens, limits: failed)
        code, out, err = run_cli(capsys, "resolve", "7", "2", "4", "--verify")
        assert code == EXIT_VERIFY
        assert "check exactness: FAIL ['exactness at step 2']" in out
        assert "verification failed" in err

    @pytest.mark.parametrize("target, phase", [
        ("resolution_b1", "construct"), ("verify_exactness", "verify"),
    ])
    def test_out_of_memory_exit_code(self, capsys, monkeypatch, target, phase):
        import arithcurve.cli as cli_mod

        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_mod, target, exhaust)
        code, out, err = run_cli(capsys, "resolve", "5", "1", "4", "--verify")
        assert code == EXIT_RESOURCE
        assert (out, err) == ("", f"resource limit: out of memory in {phase}\n")

    def test_prime_field_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolve", "5", "1", "4", "--field", "fp:32003", "--json"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert [len(r["shifts"]) for r in obj["betti"]] == [1, 10, 20, 15, 4]


    def test_huge_first_term_construction(self, capsys):
        """Exponents near 2.5e19 and degrees near 2.5e39: the packed monomial
        fields are sized from the ring's weights, not fixed at 64 bits."""
        m0 = 10**20 + 1
        code, out, _ = run_cli(capsys, "resolve", str(m0), "1", "4", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["betti"] == shift_table_b1(validate_sequence(m0, 1, 4)).to_json_obj()

    @pytest.mark.parametrize("command", ["gens", "resolve"])
    def test_terms_past_the_text_limit_rejected_up_front(self, capsys,
                                                          int_text_limit, command):
        """m0 = 10^3000 + 1 gives degrees near 10^6000, more digits than
        Python converts to text: one line and the invalid-input exit, with
        nothing on stdout, not a traceback after part of the output."""
        code, out, err = run_cli(capsys, command, str(10**3000 + 1), "1", "4")
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("invalid sequence: the terms are too large")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gens", "resolve"])
    def test_terms_past_the_default_text_limit_rejected_with_no_limit(
            self, capsys, command):
        """With Python's int-to-text limit off (0), its default of 4300
        digits still bounds the degrees: m0 = 10^3000 + 1 is invalid input,
        and the message names that bound."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run_cli(capsys, command, str(10**3000 + 1), "1", "4")
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == ("invalid sequence: the terms are too large: degrees may "
                       f"reach 2^19948, past the {sys.int_info.default_max_str_digits} "
                       "decimal digits Python converts to text by default "
                       "(sys.int_info.default_max_str_digits)\n")

    @pytest.mark.parametrize("command,b,flags", [
        ("gens", 1, ()),
        ("resolve", 1, ()),
        ("resolve", 1, ("--verify", "--field", "fp:32003")),
        ("resolve", 1, ("--verify",)),
        ("resolve", 4, ("--verify",)),
    ], ids=["gens", "resolve", "verify-b1-fp", "verify-b1", "verify-bn"])
    def test_terms_within_the_text_limit_accepted(self, capsys, int_text_limit,
                                                  command, b, flags):
        """m0 = 10^2000 + b: degrees near 10^4000 still print, and --verify
        passes every check of both routes, for b = 1 and b = n = 4."""
        m0 = 10**2000 + b
        code, out, _ = run_cli(capsys, command, str(m0), "1", "4", "--json", *flags)
        assert code == EXIT_OK
        obj = json.loads(out)
        if command == "resolve":
            table = shift_table_b1 if b == 1 else shift_table_bn
            assert obj["betti"] == table(validate_sequence(m0, 1, 4)).to_json_obj()
        if flags:
            assert obj["checks"] and all(c["pass"] for c in obj["checks"].values())


@pytest.fixture
def int_text_limit():
    """Python's default limit on int-to-text conversion, 4300 digits, in
    place of whatever the environment sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


# under a deadline of 1e-9 s, which is checked before every S-pair, every
# cell of this grid stops at its first pair
TIMED_OUT_SCAN = ("scan", "--n", "4", "--a", "1..2", "--d", "1..1")


def write_config(tmp_path, data) -> str:
    cfg = tmp_path / "caps.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


class TestScan:
    def test_uniform_b1_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "4", "--b", "1", "--a", "1..2", "--d", "1..2",
            "--json",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        summary = obj["summary"][0]
        assert summary["uniform"] is True
        assert summary["betti"] == [1, 10, 20, 15, 4]

    def test_invalid_cells_listed(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "4", "--b", "2", "--a", "1..1", "--d", "1..3",
            "--json",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        statuses = {(c["a"], c["d"]): c["status"] for c in obj["cells"]}
        assert statuses[(1, 1)] == "ok"
        assert statuses[(1, 2)] == "invalid"
        assert statuses[(1, 3)] == "invalid"
        assert obj["summary"][0]["cells_invalid"] == 2

    def test_terms_past_the_text_limit_make_invalid_cells(self, capsys,
                                                          int_text_limit):
        a = 10**3000
        code, out, _ = run_cli(capsys, "scan", "--n", "4", "--a", f"{a}..{a}",
                               "--d", "1..1", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert [c["status"] for c in obj["cells"]] == ["invalid"] * 4
        assert all("too large" in c["reason"] for c in obj["cells"])

    @pytest.mark.parametrize("form", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("a_range", [f"{10**4299 - 1}..{10**4299}",
                                         f"-{10**4299 + 1}..-{10**4299}"],
                             ids=["high", "low"])
    def test_unprintable_m0_rejects_a(self, capsys, int_text_limit, form, a_range):
        """|m0| = |a*10 + 1| reaches 10^4300, 4,301 digits, which Python
        will not print, at one bound of --a only (the other gives 4,300
        digits): a usage error naming --a, with empty stdout."""
        code, out, err = run_cli(capsys, "scan", "--n", "10", "--b", "1",
                                 f"--a={a_range}", "--d", "1..1", *form)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("--a ") and err.count("\n") == 1

    def test_printable_m0_of_the_largest_length_scans(self, capsys, int_text_limit):
        """a = 10^4298 gives m0 = 10^4299 + b, 4,300 digits, which prints: the
        cells are scanned, and invalid as their terms are too large."""
        a = 10**4298
        code, out, _ = run_cli(capsys, "scan", "--n", "10", "--a", f"{a}..{a}",
                               "--d", "1..1")
        assert code == EXIT_OK
        assert f"  b=10 a={a} d=1 m0={a * 10 + 10}: invalid (" in out
        assert out.count(": invalid (") == 10

    def test_grid_past_the_cell_cap_rejected_up_front(self, capsys, int_text_limit):
        """--a=-10^4299..1 gives about 10^4299 cells, each with a printable
        m0: the cells are counted before any is built, so the scan exits 2
        at once with one stderr line naming --a, and prints nothing."""
        start = time.monotonic()
        code, out, err = run_cli(capsys, "scan", "--n", "10", "--b", "1",
                                 f"--a=-{10**4299}..1", "--d", "1..1")
        assert time.monotonic() - start < 5
        assert (code, out) == (EXIT_INVALID, "")
        assert "--a" in err and err.count("\n") == 1

    def test_classes_past_the_cell_cap_rejected_up_front(self, capsys):
        """--n 10^15 gives 10^15 classes b of one cell each: they are
        counted from their bounds before any is listed, so the scan exits 2
        at once with one stderr line, and prints nothing."""
        start = time.monotonic()
        code, out, err = run_cli(capsys, "scan", "--n", str(10**15),
                                 "--a", "1..1", "--d", "1..1")
        assert time.monotonic() - start < 5
        assert (code, out) == (EXIT_INVALID, "")
        assert "--n" in err and err.count("\n") == 1

    def test_many_classes_summarise_in_one_pass(self, capsys):
        """20,000 classes b of one invalid cell each (m0 = b <= n): the
        summaries take one pass over the cells, not one per class."""
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "scan", "--n", "20000", "--a", "0..0",
                               "--d", "1..1", "--json")
        assert time.monotonic() - start < 5
        assert code == EXIT_OK
        summary = json.loads(out)["summary"]
        assert [s["b"] for s in summary] == list(range(1, 20001))
        assert all(s["cells_invalid"] == 1 and s["cells_ok"] == 0 for s in summary)

    def test_single_value_ranges(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3", "--b", "3", "--a", "1..1", "--d", "1..1",
            "--json",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["summary"][0]["betti"] == [1, 4, 5, 2]

    def test_resource_limited_cells_reported(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "4", "--b", "1", "--a", "1..1", "--d", "1..1",
            "--json", "--config", write_config(tmp_path, {"max_spairs": 1}),
        )
        assert code == EXIT_RESOURCE
        obj = json.loads(out)
        assert obj["cells"][0]["status"] == "resource-limit"

    def test_generators_past_the_basis_cap_make_a_limited_cell(self, capsys):
        """At n = 1001 the cell's 501,501 generators exceed the default
        basis cap: the cell is a resource limit, reported at once."""
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "scan", "--n", "1001", "--b", "1",
                               "--a", "1..1", "--d", "1..1", "--json")
        assert time.perf_counter() - start < 5
        assert code == EXIT_RESOURCE
        [cell] = json.loads(out)["cells"]
        assert cell["status"] == "resource-limit"
        assert cell["reason"] == ("generators: 501501 minimal generators exceed "
                                  "the basis size cap 100000")

    def test_byte_identical_json(self, capsys):
        args = ("scan", "--n", "3", "--a", "1..1", "--d", "1..2", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_valid_deadline_keeps_json(self, capsys, tmp_path):
        args = ("scan", "--n", "3", "--a", "1..1", "--d", "1..2", "--json")
        _, plain, _ = run_cli(capsys, *args)
        code, timed, _ = run_cli(capsys, *args, "--config",
                                 write_config(tmp_path, {"deadline_s": 60}))
        assert code == EXIT_OK
        assert timed == plain

    def test_deadline_checked_on_first_pair(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *TIMED_OUT_SCAN, "--json", "--config",
                               write_config(tmp_path, {"deadline_s": 1e-9}))
        assert code == EXIT_RESOURCE
        cells = json.loads(out)["cells"]
        assert len(cells) == 8
        assert all(c["status"] == "resource-limit" for c in cells)

    def test_text_summary_names_limited_cells(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *TIMED_OUT_SCAN, "--config",
                               write_config(tmp_path, {"deadline_s": 1e-9}))
        assert code == EXIT_RESOURCE
        for b in range(1, 5):
            assert f"b={b}: no completed cells (2 resource-limit)" in out
        assert "no valid cells" not in out
        code, out, _ = run_cli(capsys, "scan", "--n", "4", "--b", "2",
                               "--a", "1..1", "--d", "2..3")
        assert code == EXIT_OK
        assert "b=2: no valid cells" in out

    @pytest.mark.parametrize("argv,flag", [
        (("--n", "1", "--a", "1..1", "--d", "1..1"), "--n"),
        (("--n", "4", "--b", "7", "--a", "1..1", "--d", "1..1"), "--b"),
        (("--n", "4", "--b", "0", "--a", "1..1", "--d", "1..1"), "--b"),
        (("--n", "4", "--a", "2..1", "--d", "1..1"), "--a"),
        (("--n", "4", "--a", "1..1", "--d", "3..1"), "--d"),
        (("--n", "4", "--a", "1..1", "--d", "1..1", "--jobs", "0"), "--jobs"),
        (("--n", "x", "--a", "1..1", "--d", "1..1"), "--n"),
        (("--n", "4", "--a", "1..1", "--d", "1..1", "--jobs", "x"), "--jobs"),
        (("--n", "4", "--a", "1..1"), "--d"),
        (("--n", "4", "--a", "x..2", "--d", "1..1"), "--a"),
        (("--n", "4", "--a", "1..250001", "--d", "1..1"), "--a"),
    ])
    def test_invalid_scan_input_rejected(self, capsys, argv, flag):
        try:
            code = main(["scan", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert flag in captured.err
        assert captured.out == ""

    def test_non_uniform_class_reported(self, capsys, monkeypatch):
        """A cell whose Betti vector differs from the first one's is the
        counterexample, in JSON and as the text summary line; exit 0."""
        scan_cell = cli._scan_cell

        def altered(payload):
            cell = scan_cell(payload)
            if cell["a"] == 2:
                cell["betti"][-1] += 1
            return cell

        monkeypatch.setattr(cli, "_scan_cell", altered)
        args = ("scan", "--n", "3", "--b", "1", "--a", "1..2", "--d", "1..1")
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["summary"] == [{
            "b": 1, "cells_ok": 2, "cells_invalid": 0, "cells_limited": 0,
            "uniform": False,
            "first": {"a": 1, "d": 1, "betti": [1, 6, 8, 3]},
            "counterexample": {"a": 2, "d": 1, "betti": [1, 6, 8, 4]},
        }]
        code, out, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "b=1: NOT uniform: {'a': 1, 'd': 1, 'betti': [1, 6, 8, 3]} "
            "vs {'a': 2, 'd': 1, 'betti': [1, 6, 8, 4]}")

    def test_out_of_memory_cell_reported(self, capsys, monkeypatch):
        """A cell that runs out of memory is that cell's resource limit: the
        finished cells are still printed, and the scan exits with 4."""
        table = cli.artinian_table

        def exhaust_at_m0_7(gens, limits):
            # the cell's table comes from the curve's generators, in the
            # ring whose first weight is m0 = 7 (4 in the other cell)
            if gens[0].ring.weights[0] == 7:
                raise MemoryError
            return table(gens, limits)

        monkeypatch.setattr(cli, "artinian_table", exhaust_at_m0_7)
        args = ("scan", "--n", "3", "--b", "1", "--a", "1..2", "--d", "1..1")
        code, out, err = run_cli(capsys, *args, "--json")
        assert (code, err) == (EXIT_RESOURCE, "")
        obj = json.loads(out)
        assert [c["status"] for c in obj["cells"]] == ["ok", "resource-limit"]
        assert obj["cells"][1]["reason"] == "out of memory"
        assert obj["summary"][0]["cells_limited"] == 1
        code, out, _ = run_cli(capsys, *args)
        assert code == EXIT_RESOURCE
        assert "b=1 a=2 d=1 m0=7: resource-limit (out of memory)" in out

    def test_parallel_matches_serial(self, capsys):
        args = ("scan", "--n", "3", "--b", "1", "--a", "1..2", "--d", "1..2", "--json")
        _, serial, _ = run_cli(capsys, *args)
        _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
        assert serial == parallel

    def test_jobs_capped_by_cells_and_cores(self, capsys, monkeypatch):
        """--jobs N asks the pool for min(N, cells, cores) workers and runs
        serially when that is 1.  The pool is a fake that records its size
        and maps in this process, so no worker is ever started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        args = ("scan", "--n", "3", "--b", "1", "--a", "1..2", "--d", "1..2", "--json")
        _, serial, _ = run_cli(capsys, *args)  # 4 cells
        for cores, jobs, expected in ((8, "1000", [4]), (3, "1000", [3]), (8, "2", [2]),
                                      (1, "1000", []), (None, "1000", [])):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
            sizes.clear()
            code, out, _ = run_cli(capsys, *args, "--jobs", jobs)
            assert (code, out, sizes) == (EXIT_OK, serial, expected)

    def test_dead_worker_is_a_resource_limit(self, capsys, monkeypatch):
        """A scan worker that dies mid-scan breaks the pool; the scan exits
        4 with one stderr line and prints no cell, not a traceback with
        exit 1, which means stdout closed early.  Two cores are faked so
        that the pool runs on one core too."""
        monkeypatch.setattr(cli, "_scan_cell", _scan_cell_dies_at_a2)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--b", "1",
                                 "--a", "1..2", "--d", "1..1", "--jobs", "2")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == ("resource limit: a scan worker process died "
                       "(killed, or out of memory)\n")


# (config, text the error message must contain)
BAD_CONFIGS = [
    ({"max_spair": 1}, "'max_spair'"),
    ({"max_spairs": "10"}, "'max_spairs'"),
    ({"max_basis": True}, "'max_basis'"),
    ({"max_support": 2.5}, "'max_support'"),
    ({"max_spairs": 0}, "'max_spairs'"),
    ({"deadline_s": -1}, "'deadline_s'"),
    ({"deadline_s": None}, "'deadline_s'"),
    ([1], "JSON object"),
    ({"deadline_s": 0}, "'deadline_s'"),
    ({"deadline_s": float("nan")}, "'deadline_s'"),  # json writes NaN
]


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ("resolve", "7", "1", "4", "--method", "oracle"),
        ("scan", "--n", "3", "--a", "1..1", "--d", "1..1"),
    ])
    @pytest.mark.parametrize("data,needle", BAD_CONFIGS)
    def test_invalid_config_rejected(self, capsys, tmp_path, argv, data, needle):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", write_config(tmp_path, data)])
        assert exc.value.code == EXIT_INVALID
        assert needle in capsys.readouterr().err

    def test_valid_config_applies(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "resolve", "7", "1", "4", "--method", "oracle", "--config",
            write_config(tmp_path, {"max_spairs": 1, "deadline_s": 30}),
        )
        assert code == EXIT_RESOURCE
        assert "S-pair budget 1" in err

    @pytest.mark.parametrize("field", ["fp:abc", "fp:"])
    def test_non_integer_modulus_rejected(self, capsys, field):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "5", "1", "4", "--field", field])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_INVALID
        assert "--field" in err and "not an integer" in err
        assert "invalid literal" not in err

    def test_modulus_past_the_parsing_limit_rejected(self, capsys, int_text_limit):
        """An integer int() refuses for its length is too large, not a
        non-integer."""
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "5", "1", "4", "--field", "fp:" + "7" * 5000])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_INVALID
        assert "--field" in err and "too large (5000 digits" in err
        assert "not an integer" not in err

    @pytest.mark.parametrize("flag,argv", [
        ("m0", ("gens", "{big}", "1", "4")),
        ("d", ("resolve", "5", "{big}", "4")),
        ("n", ("resolve", "5", "1", "-{big}")),
        ("--n", ("scan", "--n", "{big}", "--a", "1..1", "--d", "1..1")),
        ("--b", ("scan", "--n", "4", "--b", "{big}", "--a", "1..1", "--d", "1..1")),
        ("--jobs", ("scan", "--n", "4", "--a", "1..1", "--d", "1..1", "--jobs",
                    "{big}")),
        ("--a", ("scan", "--n", "4", "--a", "1..{big}", "--d", "1..1")),
        ("--a", ("scan", "--n", "4", "--a=-{big}..1", "--d", "1..1")),
        ("--d", ("scan", "--n", "4", "--a", "1..1", "--d", "{big}")),
        ("--d", ("scan", "--n", "4", "--a", "1..1", "--d", "1..{grouped}")),
    ])
    def test_integers_past_the_parsing_limit_rejected(self, capsys, int_text_limit,
                                                      flag, argv):
        """Every integer argument reports one that int() refuses for its
        length (4,400 digits, also grouped by underscores) as too large, by
        its length and without echoing its digits."""
        big, grouped = "1" * 4400, "_".join(["1" * 11] * 400)
        with pytest.raises(SystemExit) as exc:
            main([a.format(big=big, grouped=grouped) for a in argv])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_INVALID
        assert f"argument {flag}: too large (4400 digits" in err
        assert "1" * 100 not in err

    @pytest.mark.parametrize("argv,message", [
        (("gens", "x", "1", "4"), "argument m0: invalid int value: 'x'"),
        (("scan", "--n", "4", "--b", "2.5", "--a", "1..1", "--d", "1..1"),
         "argument --b: invalid int value: '2.5'"),
        (("scan", "--n", "four", "--a", "1..1", "--d", "1..1"),
         "argument --n: invalid int value: 'four'"),
        (("scan", "--n", "4", "--a", "1..x", "--d", "1..1"),
         "argument --a: invalid range '1..x': a bound is not an integer"),
        (("resolve", "5", "1", "4", "--field", "fp:+-7"),
         "argument --field: invalid field 'fp:+-7': the modulus is not an integer"),
        (("scan", "--n", "4", "--a", "1..1", "--d", "1__2"),
         "argument --d: invalid range '1__2': a bound is not an integer"),
    ])
    def test_non_integers_keep_their_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_INVALID
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_oversized_prime_field_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "5", "1", "4", "--field", f"fp:{2**89 - 1}"])
        assert exc.value.code == EXIT_INVALID
        assert "too large" in capsys.readouterr().err


# sha256 of stdout: Betti tables, checks and emitted matrices stay
# byte-identical across refactors
GOLDEN = [
    (("resolve", "5", "1", "4", "--verify", "--json", "--emit-matrices"),
     "b4eb30fe665e645877b314d5a8c80eb998d613dc365413bd48d8fa1a40896102"),
    (("resolve", "8", "1", "4", "--verify", "--json", "--emit-matrices"),
     "c86a613039c3dd0dd92c63f3fa76ad7661dd053dc57a9ddefc78948106b74b67"),
    (("resolve", "6", "1", "4", "--verify", "--json", "--emit-matrices"),
     "59c59bd5187db17765a8159392b17a6d3e397013feffd26fb6da47d768f99cbc"),
    (("resolve", "16", "3", "4", "--verify", "--json", "--emit-matrices"),
     "f508137b7f1d63351b08fb441f6618e234f3204f95d015a1c54fba294066a433"),
    (("resolve", "7", "1", "4", "--json", "--emit-matrices"),
     "31300457ec057520b39ab82a9fde46e54bc251208991d284e34ce54f0bf37a7a"),
    (("resolve", "7", "2", "4", "--json", "--emit-matrices"),
     "e40294c362de7c8de7fe1e8b962f4e98a9f693563e0469012fe43ddd5f762292"),
    (("resolve", "7", "2", "4", "--method", "oracle", "--verify", "--json",
      "--emit-matrices"),
     "89152158257bae77cfc8af859532fdb6b2c2ddeb2cb550c97bfdf808a03a2a96"),
    (("resolve", "11", "1", "5", "--method", "oracle", "--verify",
      "--field", "fp:32003", "--json"),
     "9e04046752b84a3914be41ea107cb178b28c1b8f0342ddd5eb3c4bd825e21cae"),
    # oracle matrices at n = 5, and over QQ outside b = 3
    (("resolve", "11", "1", "5", "--method", "oracle", "--field", "fp:32003",
      "--json", "--emit-matrices"),
     "cea783409c0d908ecdef5c47e4a2871ee7bf1726e9cb8bb33302f039d8f70c89"),
    (("resolve", "9", "2", "4", "--method", "oracle", "--verify", "--json",
      "--emit-matrices"),
     "bcd527941ce5e1b0ab639e932bdab6334cf2f2271c92442e9d66a3552d27d9c6"),
    (("scan", "--n", "4", "--a", "1..2", "--d", "1..3", "--json"),
     "585cd71fb2610cfd28541eb7e8525d22646ed96458b879a362406d65261c58e9"),
    # the same digest through pickled cells in worker processes
    (("scan", "--n", "4", "--a", "1..2", "--d", "1..3", "--json", "--jobs", "2"),
     "585cd71fb2610cfd28541eb7e8525d22646ed96458b879a362406d65261c58e9"),
    (("gens", "5", "1", "4", "--json"),
     "0ed33d195e9a5be29bba18b80b6a306fbda2c39acc80faae35d7b765d7622a34"),
    (("gens", "6", "1", "4", "--json"),
     "a2d07137d66e34314733eb9330e8f9cb0cbd77a529d6f3e017a46b3f0f50e177"),
    (("gens", "9", "2", "5", "--json", "--field", "fp:32003"),
     "36a8b59c513cf9a08ba5b36ad01ad7b2a19d293c9b3c6f72c97fe5b7e0ad91b8"),
    # text-mode matrices, printed row by row: minor complex, mapping cone,
    # oracle
    (("resolve", "5", "1", "4", "--verify", "--emit-matrices"),
     "6d3897df049bc7eb958d4f38aa2de87c5f38b1cc99b2a08a415830f3826ee8d2"),
    (("resolve", "8", "1", "4", "--emit-matrices"),
     "a9373a93b8401c8290d243b1f0eb2dcf98afa0a741ec9e3503c0607c734ae352"),
    (("resolve", "7", "2", "4", "--emit-matrices"),
     "c26d0982a20915b5f8c4ae7dec19cf2bf5b5088df153be8aa8298fddc7288cd5"),
    # text output of each command
    (("gens", "5", "1", "4"),
     "0c007782eaac46f13cad3e6176c24caa515a60e1cfc81fe1033f38892c35975b"),
    (("scan", "--n", "4", "--a", "1..2", "--d", "1..3"),
     "f070c39a00d3394ddf7dd854321a6bd1e034550de67f55a118432f0356e82bf2"),
    (("resolve", "8", "1", "4", "--verify"),
     "5a2fd4c8d924f6ec18e4fb980d0a1296306090179089fdb89ba69645004ac33d"),
]

# (argv, the one line on stderr) of inputs that fail validation: exit 2
INVALID_SEQUENCES = [
    (("gens", "4", "2", "2"), "invalid sequence: gcd(4, 6, 8) = 2 != 1"),
    (("resolve", "0", "1", "4"), "invalid sequence: m0 must be a positive integer"),
    (("resolve", "5", "-1", "4"),
     "invalid sequence: common difference d must be non-negative"),
    (("resolve", "5", "1", "1", "--json"), "invalid sequence: n must be at least 2"),
]


def child_python(*args, **kwargs):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            **kwargs)


class TestProcess:
    """Behaviour that only shows in a process of its own."""

    @pytest.mark.parametrize("flags,first_line", [
        ((), "sequence (9, 1, 8)"),
        (("--json",), "{"),
    ], ids=["text", "json"])
    def test_closed_stdout_exits_quietly(self, flags, first_line):
        # megabytes of matrices, far more than a pipe buffer holds: JSON
        # breaks off inside a streamed differential
        with child_python("-m", "arithcurve.cli", "resolve", "9", "1", "8",
                          "--emit-matrices", *flags) as child:
            assert child.stdout.readline().startswith(first_line)
            child.stdout.close()
            err = child.stderr.read()
        assert child.returncode == EXIT_CLOSED_STDOUT == 1
        assert err == ""

    def test_serial_commands_load_no_process_pool(self):
        """Only a scan with 2 or more workers imports the process pool and
        with it multiprocessing."""
        script = (
            "import contextlib, io, sys\n"
            "from arithcurve.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['resolve', '5', '1', '4', '--verify', '--json']),\n"
            "             main(['scan', '--n', '4', '--b', '1', '--a', '1', '--d', '1',\n"
            "                   '--jobs', '1'])]\n"
            "print(codes, sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, out, err) == (EXIT_OK, "[0, 0] []\n", "")

    def test_b1_construction_at_n11_fits_in_512_mib(self):
        script = (
            "import resource, sys\n"
            "limit = 512 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from arithcurve.cli import main\n"
            "sys.exit(main(['resolve', '12', '1', '11', '--json']))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, err) == (EXIT_OK, "")
        expected = shift_table_b1(validate_sequence(12, 1, 11)).to_json_obj()
        assert json.loads(out)["betti"] == expected

    def test_json_matrices_at_n9_fit_in_64_mib(self):
        """JSON is written as it is encoded, not joined into one string
        first, and each differential's entry strings are built only when
        the encoder reaches them; the dense entry lists of `10 1 9` hold
        about 2.9 M slots in all."""
        argv = ["resolve", "10", "1", "9", "--json", "--emit-matrices"]
        script = (
            "import resource, sys\n"
            "limit = 64 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from arithcurve.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, err) == (EXIT_OK, "")
        with child_python("-m", "arithcurve.cli", *argv) as child:
            unlimited, _ = child.communicate()
        assert child.returncode == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == hashlib.sha256(unlimited.encode()).hexdigest()

    def test_json_matrices_hold_one_row_at_n10_in_56_mib(self):
        """JSON entry strings are built one row at a time as the encoder
        reaches them: the largest differential of the mapping cone of
        `20 1 10` is 1,638 x 2,058, 3.6 M slots, and its entry list alone
        needed 70 MiB.  Stdout goes to the null device, so the limit bounds
        the encoding, not the text."""
        argv = ["resolve", "20", "1", "10", "--json", "--emit-matrices"]
        script = (
            "import os, resource, sys\n"
            "limit = 56 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            "from arithcurve.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, out, err) == (EXIT_OK, "", "")

    def test_first_term_check_precedes_the_terms_in_256_mib(self):
        """m0 <= n is rejected before the n + 1 terms are built: with
        n = 10^8 the terms alone would need several GB."""
        script = (
            "import resource, sys\n"
            "limit = 256 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from arithcurve.cli import main\n"
            "sys.exit(main(['gens', '5', '1', '100000000']))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, out) == (EXIT_INVALID, "")
        assert err == (
            "invalid sequence: m0 = 5 <= n = 100000000: writing m0 = a*n + b "
            "with b in [1,n] gives a = 0, and the terms cannot generate minimally\n"
        )

    def test_gcd_check_precedes_the_terms_in_256_mib(self):
        """A gcd failure's message shows a long sequence by its first two
        terms and its last, so with n = 10^8 it is rejected like any
        invalid input, although the terms would need several GB."""
        script = (
            "import resource, sys\n"
            "limit = 256 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from arithcurve.cli import main\n"
            "sys.exit(main(['gens', '2', '2', '100000000']))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, out) == (EXIT_INVALID, "")
        assert err == "invalid sequence: gcd(2, 4, ..., 200000002) = 2 != 1\n"

    @pytest.mark.parametrize("argv", [["gens", "100000001", "1", "100000000"]],
                             ids=["valid"])
    def test_out_of_memory_exits_as_a_limit_in_256_mib(self, argv):
        """The n + 1 terms of a valid sequence do not fit: one line and the
        resource exit, not a traceback."""
        script = (
            "import resource, sys\n"
            "limit = 256 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from arithcurve.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        with child_python("-c", script) as child:
            out, err = child.communicate()
        assert (child.returncode, out, err) == (
            EXIT_RESOURCE, "", "resource limit: out of memory\n")


class TestGolden:
    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=lambda v: " ".join(v)
                             if isinstance(v, tuple) else v[:12])
    def test_stdout_byte_identical(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,line", INVALID_SEQUENCES,
                             ids=[" ".join(argv) for argv, _ in INVALID_SEQUENCES])
    def test_invalid_sequence_exit(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (EXIT_INVALID, "", line + "\n")


def test_removed_spellings_rejected(capsys):
    """`verify` is `resolve --verify`, and a scan's deadline is set only
    by `--config`'s deadline_s."""
    for argv in (["verify", "6", "1", "3"],
                 ["scan", "--n", "3", "--a", "1..1", "--d", "1..1",
                  "--cell-timeout", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID


def test_parser_built_once(capsys):
    build_parser.cache_clear()
    run_cli(capsys, "gens", "5", "1", "4")
    run_cli(capsys, "scan", "--n", "3", "--a", "1..1", "--d", "1..1")
    assert build_parser.cache_info().misses == 1


class TestReadme:
    """The README's CLI examples and flag list follow the parser."""

    def test_cli_examples_parse(self):
        block = README.read_text().split("## CLI", 1)[1].split("```")[1]
        lines = [line.split("#", 1)[0] for line in block.splitlines()
                 if line.startswith("arithcurve ")]
        assert lines
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_library_sketch_runs(self):
        block = README.read_text().split("## Library sketch", 1)[1].split("```")[1]
        code = block.removeprefix("python\n")
        assert code != block
        exec(compile(code, "README.md", "exec"), {})

    def test_method_list_matches_parser(self):
        listed = re.search(r"`--method ([a-z|]+)`", README.read_text()).group(1)
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        method = sub.choices["resolve"]._option_string_actions["--method"]
        assert listed.split("|") == list(method.choices)
