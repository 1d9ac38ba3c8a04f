"""CLI surface: commands, JSON schema, determinism, exit codes."""

import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from arithcurve import shift_table_b1, validate_sequence
from arithcurve.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    RunReport,
    build_parser,
    main,
)

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_report_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "resolve", "8", "1", "4", "--verify", "--json")
        obj = json.loads(out)
        report = RunReport.from_json_obj(obj)
        assert report.to_json_obj() == obj

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

    def test_verify_alias(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "6", "1", "3", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["checks"]["exactness"]["pass"]

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        import arithcurve.cli as cli_mod

        class FakeReport:
            dd_zero = True
            homogeneous = True
            minimal = False
            witness = {"minimal": (1, 0, 0)}

        monkeypatch.setattr(cli_mod, "verify_complex", lambda C: FakeReport())
        code, _, err = run_cli(capsys, "resolve", "5", "1", "4", "--verify")
        assert code == EXIT_VERIFY
        assert "verification failed" in err

    def test_oracle_verify_checks_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "7", "2", "4", "--verify", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["method"] == "oracle"
        assert obj["checks"]["exactness"] == {"pass": True, "witness": []}

    def test_oracle_exactness_failure_exit_code(self, capsys, monkeypatch):
        import arithcurve.cli as cli_mod

        class FakeExactness:
            all_ok = False

            def first_failure(self):
                return "exactness at step 2"

        monkeypatch.setattr(cli_mod, "verify_exactness",
                            lambda C, gens, limits: FakeExactness())
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


# every cell of this grid runs engine passes with fewer than 64 S-pairs
TIMED_OUT_SCAN = ("scan", "--n", "4", "--a", "1..2", "--d", "1..1",
                  "--cell-timeout", "1e-9")


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

    def test_single_value_ranges(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3", "--b", "3", "--a", "1..1", "--d", "1..1",
            "--json",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["summary"][0]["betti"] == [1, 4, 5, 2]

    def test_resource_limited_cells_reported(self, capsys, tmp_path):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"max_spairs": 1}))
        code, out, _ = run_cli(
            capsys, "scan", "--n", "4", "--b", "1", "--a", "1..1", "--d", "1..1",
            "--json", "--config", str(cfg),
        )
        assert code == EXIT_RESOURCE
        obj = json.loads(out)
        assert obj["cells"][0]["status"] == "resource-limit"

    def test_byte_identical_json(self, capsys):
        args = ("scan", "--n", "3", "--a", "1..1", "--d", "1..2", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_invalid_cell_timeout_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--n", "3", "--a", "1..1", "--d", "1..1",
                  "--cell-timeout", value])
        assert exc.value.code == EXIT_INVALID
        assert "--cell-timeout" in capsys.readouterr().err

    def test_valid_cell_timeout_keeps_json(self, capsys):
        args = ("scan", "--n", "3", "--a", "1..1", "--d", "1..2", "--json")
        _, plain, _ = run_cli(capsys, *args)
        code, timed, _ = run_cli(capsys, *args, "--cell-timeout", "60")
        assert code == EXIT_OK
        assert timed == plain

    def test_deadline_checked_on_first_pair(self, capsys):
        code, out, _ = run_cli(capsys, *TIMED_OUT_SCAN, "--json")
        assert code == EXIT_RESOURCE
        cells = json.loads(out)["cells"]
        assert len(cells) == 8
        assert all(c["status"] == "resource-limit" for c in cells)

    def test_text_summary_names_limited_cells(self, capsys):
        code, out, _ = run_cli(capsys, *TIMED_OUT_SCAN)
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

    def test_parallel_matches_serial(self, capsys):
        args = ("scan", "--n", "3", "--b", "1", "--a", "1..2", "--d", "1..2", "--json")
        _, serial, _ = run_cli(capsys, *args)
        _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
        assert serial == parallel


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
]


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ("resolve", "7", "1", "4", "--method", "oracle"),
        ("scan", "--n", "3", "--a", "1..1", "--d", "1..1"),
    ])
    @pytest.mark.parametrize("data,needle", BAD_CONFIGS)
    def test_invalid_config_rejected(self, capsys, tmp_path, argv, data, needle):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == EXIT_INVALID
        assert needle in capsys.readouterr().err

    def test_valid_config_applies(self, capsys, tmp_path):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"max_spairs": 1, "deadline_s": 30}))
        code, _, err = run_cli(
            capsys, "resolve", "7", "1", "4", "--method", "oracle",
            "--config", str(cfg),
        )
        assert code == EXIT_RESOURCE
        assert "S-pair budget 1" in err

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
     "4efae63003f6cf84cb1045c3f4a45b018d02eac4e86443339318287cd816d061"),
    (("resolve", "7", "2", "4", "--json", "--emit-matrices"),
     "e7cb03191ff7968c5a0b7e1ee5ce6a40c815d1d6f81a76544e3737f054a8a5ab"),
    (("resolve", "7", "2", "4", "--method", "oracle", "--verify", "--json",
      "--emit-matrices"),
     "95ec0f20b9a9b0f6d1e30be0c7c1077ed3b8a3106c856e1640331e1f3337165b"),
    (("resolve", "11", "1", "5", "--method", "oracle", "--verify",
      "--field", "fp:32003", "--json"),
     "9e04046752b84a3914be41ea107cb178b28c1b8f0342ddd5eb3c4bd825e21cae"),
    # oracle matrices at n = 5, and over QQ outside b = 3
    (("resolve", "11", "1", "5", "--method", "oracle", "--field", "fp:32003",
      "--json", "--emit-matrices"),
     "03bd85fad7568fbe83330996f4224ab5a5320cbea7f6eeb84839e8a5e8f2cdc9"),
    (("resolve", "9", "2", "4", "--method", "oracle", "--verify", "--json",
      "--emit-matrices"),
     "c8a171fc274341d00aecc73e2341ad39a202d709e8c154c4d42fc18201f30649"),
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
]


class TestGolden:
    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=lambda v: " ".join(v)
                             if isinstance(v, tuple) else v[:12])
    def test_stdout_byte_identical(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_method_list_matches_parser(self):
        listed = re.search(r"`--method ([a-z|]+)`", README.read_text()).group(1)
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("resolve", "verify"):
            method = sub.choices[command]._option_string_actions["--method"]
            assert listed.split("|") == list(method.choices)
