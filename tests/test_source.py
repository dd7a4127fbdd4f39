"""Rules on the package's own source, read with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperoct"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_is_found():
    assert {"exactla.py", "verify.py", "lyndon.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    """``python -O`` strips assert, so no runtime guard may be one: the
    package refuses with a typed HyperoctError instead."""
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exactness_is_decided_in_exactla(path):
    """Only exactla takes a float inverse (``np.linalg``), and verify reads
    no private exactla name."""
    bad = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "linalg" and path.name != "exactla.py":
            bad.append(node.lineno)
        if path.name == "verify.py" and node.attr.startswith("_") and getattr(node.value, "id", None) == "exactla":
            bad.append(node.lineno)
    assert not bad, f"{path.name} at lines {bad}"
