"""Every benchmark workload runs one operation through `bench/workloads.py`.

The workloads reach the program through its public entry points (the CLI,
`parse_field`, the closed forms, `ArithmeticSequence.vanishes`,
`toric_ideal`); a change that breaks one of them fails here, in the tier-1
suite, instead of in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are defined
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", NAMES)
def test_first_operation_passes_its_check(workloads, name):
    workload = workloads.WORKLOADS[name]
    prepared = workloads.setup(workload)
    case = workload.pool[0]
    result = workloads.operation(workload, case, prepared)()
    assert workloads.check(workload, case, result) is None
