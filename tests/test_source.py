"""Rules on the package's own source, read with ``ast`` or run in a fresh
interpreter."""

import ast
import os
import subprocess
import sys
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


# np.unique without one of these takes numpy's hash path, which first asks
# np.ma.is_masked and so imports numpy.ma; these set operations call it
UNIQUE_RETURNS = {"return_counts", "return_index", "return_inverse"}
SET_OPERATIONS = {"setdiff1d", "in1d", "union1d"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hash_path_unique(path):
    bad = []
    for node in ast.walk(parse(path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if getattr(node.func.value, "id", None) != "np":
            continue
        if node.func.attr in SET_OPERATIONS:
            bad.append(node.lineno)
        if node.func.attr == "unique" and not UNIQUE_RETURNS & {k.arg for k in node.keywords}:
            bad.append(node.lineno)
    assert not bad, f"{path.name} at lines {bad}"


def test_chains_and_operators_leave_numpy_ma_out():
    code = (
        "import sys\n"
        "from hyperoct import CONCAT, Decoration, ShuffleSpec, SignedWord, apply_operator, riffle_operator\n"
        "from hyperoct import stationary_is_unique, transition_matrix\n"
        "from hyperoct.verify import chain_spectrum_certificate\n"
        "for flavor in ('rotation', 'flip'):\n"
        "    for a, sign in ((2, '+'), (3, '-')):\n"
        "        tm = transition_matrix(ShuffleSpec(3, a, sign, flavor))\n"
        "        assert chain_spectrum_certificate(tm.spec, tm)['ok'] and stationary_is_unique(tm)\n"
        "apply_operator(riffle_operator(3, '+', Decoration.TBAR, 3), SignedWord([2, -1, 3]), CONCAT)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
