"""README's modelling assumptions name the tests that hold them; each name
must be a test defined under tests/."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")


def _assumption_tests() -> list:
    """(file, name) of every test the "Modelling assumptions" section of
    README names, in order; a bare name belongs to the file named last."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Modelling assumptions", 1)[1].split("\n## ", 1)[0]
    out, current = [], None
    for span in re.findall(r"`([^`]+)`", section):
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
