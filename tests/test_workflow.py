"""The CI workflow's inline Python imports names that exist.

Several steps of `.github/workflows/tests.yml` run `python -c` scripts that
import from `arithcurve` and from the test references (`tests/references.py`,
on `PYTHONPATH=tests`).  Tier-1 never runs those steps, so a name moved or
removed would otherwise break only CI.
"""

import importlib
import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# `from M import a, b` on one line, or `from M import (a, b, ...)` over several
IMPORT = re.compile(r"^\s*from (arithcurve|references) import "
                    r"(?:\(([^)]*)\)|([^\n]+))$", re.MULTILINE)


def workflow_imports() -> list[tuple[str, str, int]]:
    """(module, name, offset in the workflow) for every name imported."""
    text = WORKFLOW.read_text()
    out = []
    for match in IMPORT.finditer(text):
        names = match[2] if match[2] is not None else match[3]
        out += [(match[1], name.strip(), match.start())
                for name in names.split(",") if name.strip()]
    return out


def test_imported_names_resolve():
    found = workflow_imports()
    assert {module for module, _, _ in found} == {"arithcurve", "references"}
    for module, name, _ in found:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_reference_imports_run_on_the_tests_path():
    """A script that imports from `references` is started with
    `PYTHONPATH=tests`, the only way it finds the module."""
    text = WORKFLOW.read_text()
    for module, name, at in workflow_imports():
        if module == "references":
            start = text.rindex("python -c", 0, at)
            line = text[text.rindex("\n", 0, start) + 1:start]
            assert "PYTHONPATH=tests" in line, name
