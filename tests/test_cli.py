import hashlib
import json
import subprocess
import sys

import pytest

from hyperoct.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_table(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--n", "3", "--a", "2", "--flavor", "flip", "--sign", "plus"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    table = {row["eigenvalue"]: row["multiplicity"] for row in data["spectrum"]}
    assert table == {"1": 1, "1/2": 6, "1/4": 8, "0": 33}
    assert data["total_states"] == 48


def test_spectrum_trivial(capsys):
    code, out, _ = run_cli(["spectrum", "--n", "1", "--a", "1", "--flavor", "flip"], capsys)
    assert code == 0
    data = json.loads(out)
    assert {r["eigenvalue"]: r["multiplicity"] for r in data["spectrum"]} == {"1": 2}
    assert data["total_states"] == 2


def test_spectrum_op_beta_table(capsys):
    code, out, _ = run_cli(["spectrum", "--op", "1b,2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["eigenvalues"]) == 10  # double-partitions of 3
    table = {
        (tuple(map(tuple, row["double_partition"]))): row["eigenvalue"]
        for row in data["eigenvalues"]
    }
    assert table[((1, 1, 1), ())] == "3"
    assert table[((), (1, 1, 1))] == "-3"


def test_eigenvector_paper_example(capsys):
    code, out, _ = run_cli(
        [
            "eigenvector",
            "--word",
            "-4 3 5 -1 6 -7 -2",
            "--a",
            "3",
            "--sign",
            "plus",
            "--flavor",
            "rotation",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalue"] == "3"
    assert data["lyndon_factors"] == [[-4], [3, 5], [-1, 6, -7, -2]]


def test_eigenvector_decreasing_word(capsys):
    code, out, _ = run_cli(
        ["eigenvector", "--word", "3 2 1", "--a", "2", "--sign", "plus",
         "--flavor", "flip", "--verify"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert data["eigenvalue"] == "8"
    assert data["verified"] is True


def test_eigenvector_outside_basis(capsys):
    code, out, err = run_cli(
        ["eigenvector", "--word", "-1 2", "--a", "2", "--sign", "plus",
         "--flavor", "rotation"],
        capsys,
    )
    assert code == 2
    assert "even" in err


def test_eigenbasis(capsys):
    code, out, _ = run_cli(
        ["eigenbasis", "--n", "2", "--a", "2", "--sign", "plus", "--flavor", "flip"],
        capsys,
    )
    data = json.loads(out)
    assert data["count"] == 8
    from collections import Counter

    assert Counter(r["eigenvalue"] for r in data["eigenvectors"]) == {
        "4": 1, "2": 2, "0": 5
    }


def test_matrix_and_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "K1.json", tmp_path / "K2.json"
    for f in (f1, f2):
        code, _, _ = run_cli(
            ["matrix", "--n", "2", "--a", "2", "--sign", "minus",
             "--flavor", "rotation", "--out", str(f)],
            capsys,
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    data = json.loads(f1.read_text())
    assert len(data["states"]) == 8
    assert all(len(row) == 8 for row in data["entries"])
    total = sum(
        eval(e.replace("/", "*1.0/")) if "/" in e else float(e)
        for e in data["entries"][0]
    )
    assert abs(total - 1.0) < 1e-12


def test_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "--n", "3", "--a", "2", "--flavor", "flip", "--steps", "2",
            "--trials", "5000", "--seed", "7", "--stat", "descents"]
    f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
    run_cli(args + ["--out", str(f1)], capsys)
    run_cli(args + ["--out", str(f2)], capsys)
    assert f1.read_bytes() == f2.read_bytes()
    data = json.loads(f1.read_text())
    assert len(data["means"]) == 2
    assert data["expected"] == ["1/2", "3/4"]


def test_compose_verify(capsys):
    code, out, _ = run_cli(
        ["compose", "--left", "1b,3", "--right", "2,2b", "--algebra", "commutative",
         "--verify"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert all(entry["comp"] for entry in data["operator"])


def test_stationary(capsys):
    code, out, _ = run_cli(
        ["stationary", "--n", "2", "--a", "2", "--sign", "plus", "--flavor", "flip"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert data["stationary"] == "1/8"
    assert data["unique"] is True


def test_verify_suite_filter(capsys):
    code, out, _ = run_cli(["verify", "--suite", "stirling", "--n-max", "3"], capsys)
    assert code == 0
    assert "spectral.stirling_recursion" in out
    assert "lyndon." not in out


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperoct.cli", "spectrum", "--n", "2", "--a", "2",
         "--flavor", "rotation"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_bad_usage(capsys):
    code, out, err = run_cli(["spectrum", "--op", "2b,2", "--n", "3"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["eigenvector", "--word", "-4 3 5 -1 6 -7 -2", "--a", "2", "--sign", "minus", "--flavor", "flip", "--vector", "--verify"],
            "cd08180ef8097ce92b7150a7f832829c318bb03e2da70a54f7abc6be39972d45",
        ),
        (
            ["eigenbasis", "--n", "3", "--a", "3", "--sign", "minus", "--flavor", "rotation", "--vectors"],
            "889a23d1ed5993e78229ebc0e061dd87686ebd50c792c537b6116eb31acc7d33",
        ),
        (
            ["compose", "--left", "1t,2,1", "--right", "2t,2", "--algebra", "cocommutative", "--verify"],
            "c37b1d5b792150b2ba0df986140394f97ce6a731b3dbff3cfabfceefa1647910",
        ),
    ],
)
def test_output_bytes_are_stable(args, digest, capsys):
    """SHA-256 of stdout as printed while coefficients were all Fractions:
    keeping integral coefficients as ints changes no byte."""
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
