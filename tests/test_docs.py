"""README's modelling assumptions name the tests that hold them and the
code they rest on; each test must be defined under tests/ and each
`module.name` in that ncft module (`dg` meaning diagnostics)."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
SRC = os.path.join(ROOT, "src", "ncft")


def _assumption_spans() -> list:
    """The backticked spans of README's "Modelling assumptions" section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Modelling assumptions", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([^`]+)`", section)


def _assumption_tests() -> list:
    """(file, name) of every test the "Modelling assumptions" section of
    README names, in order; a bare name belongs to the file named last."""
    out, current = [], None
    for span in _assumption_spans():
        hit = re.fullmatch(r"(?:tests/(test_\w+\.py)::)?(test_\w+)", span)
        if hit:
            current = hit.group(1) or current
            out.append((current, hit.group(2)))
    return out


def test_readme_assumptions_name_defined_tests():
    named = _assumption_tests()
    assert len(named) >= 10
    missing = []
    for path, name in named:
        with open(os.path.join(TESTS, path), encoding="utf-8") as fh:
            if not re.search(rf"^def {name}\(", fh.read(), re.M):
                missing.append(f"tests/{path}::{name}")
    assert not missing, missing


def test_readme_assumptions_name_defined_code():
    named = []
    for span in _assumption_spans():
        hit = re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", span)
        if hit:
            module = "diagnostics" if hit.group(1) == "dg" else hit.group(1)
            if os.path.exists(os.path.join(SRC, module + ".py")):
                named.append((module, hit.group(2)))
    assert len(named) >= 4
    missing = []
    for module, name in named:
        with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
            if not re.search(rf"^(?:def|class) {name}\b", fh.read(), re.M):
                missing.append(f"{module}.{name}")
    assert not missing, missing
