import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from hyperoct import cli
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


SPECTRUM_N3 = ["spectrum", "--n", "3", "--a", "2"]


@pytest.mark.parametrize("flags", [["--flavor", "flip", "--sign", "minus"], ["--flavor", "rotation"]])
def test_spectrum_certify(flags, capsys):
    code, plain, _ = run_cli(SPECTRUM_N3 + flags, capsys)
    code, out, _ = run_cli(SPECTRUM_N3 + flags + ["--certify"], capsys)
    assert code == 0
    data = json.loads(out)
    cert = data.pop("certificate")
    assert data == json.loads(plain)  # the spectrum itself is unchanged
    assert cert["ok"] is True and cert["size"] == 48
    assert [b["k"] for b in cert["blocks"]] == [0, 1, 2, 3] and [b["weight"] for b in cert["blocks"]] == [1, 3, 3, 1]
    counts = Counter()
    for b in cert["blocks"]:
        for value, m in b["multiplicities"].items():
            counts[value] += b["weight"] * m
    table = {r["eigenvalue"]: r["multiplicity"] for r in data["spectrum"]}
    if flags[1] == "flip":
        assert cert["method"] == "full-eigenbasis" and counts == table
        assert "annihilation_power" not in cert and "zero_rank" not in cert
    else:
        assert cert["method"] == "partial-eigenbasis+annihilation"
        assert cert["annihilation_power"] == 3 and cert["zero_rank"] == table.pop("0") == 33
        assert counts == table
        assert [b.get("zero_rank") for b in cert["blocks"]] == [None, 6, 3, 6]
    assert not any(isinstance(v, list) for b in cert["blocks"] for v in b.values())


def test_spectrum_certify_exits_1_when_not_ok(monkeypatch, capsys):
    real = cli.chain_spectrum_certificate
    monkeypatch.setattr(cli, "chain_spectrum_certificate", lambda spec: {**real(spec), "ok": False})
    code, out, _ = run_cli(SPECTRUM_N3 + ["--flavor", "flip", "--certify"], capsys)
    assert code == 1 and json.loads(out)["certificate"]["ok"] is False


def test_spectrum_certify_refuses_an_operator(capsys):
    code, out, err = run_cli(["spectrum", "--op", "1b,2", "--certify"], capsys)
    assert code == 2 and out == "" and "--certify" in err


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
    assert "even number of barred letters" in err
    assert out == ""


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


@pytest.mark.parametrize(
    "args, json_digest, csv_digest",
    [
        (
            ["--n", "3", "--a", "3", "--sign", "minus", "--flavor", "flip"],
            "b2591f438eb34e6fb8f5954b19b8a99bc4086fd442614d53f667505af6cd847d",
            "d59430c28d032c5f2008b380052b1bd17860a5b9a209e3ae8a01bb7c6bc4fbd6",
        ),
        (
            ["--n", "4", "--a", "2", "--sign", "plus", "--flavor", "rotation"],
            "eb2380ff8446079bb011b99d75f7e924eb7bd6b35ab47d0777ad9d03de9a6ec9",
            "cb61cbe54d590e49ef60d719135dac22de65a59cd7ea5fb6b44182a4cab0c2d9",
        ),
    ],
    ids=["n3-a3-minus-flip", "n4-a2-plus-rotation"],
)
def test_matrix_bytes_are_pinned(args, json_digest, csv_digest, tmp_path, capsys):
    """SHA-256 of the --out and --csv files as written from an int64 dense
    matrix: the narrow dtype of the counts changes no byte."""
    out, csv = tmp_path / "K.json", tmp_path / "K.csv"
    code, _, _ = run_cli(["matrix", *args, "--out", str(out), "--csv", str(csv)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest


def test_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "--n", "3", "--a", "2", "--flavor", "flip", "--steps", "2",
            "--trials", "5000", "--seed", "7"]
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


def test_compose_verify_degree_6_is_quick(capsys):
    # 46,080 signed permutations: the identity is checked on one word, so
    # no 46,080² matrix is built
    start = time.perf_counter()
    code, out, _ = run_cli(["compose", "--left", "2b,1,3", "--right", "1,3b,2", "--verify"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["verified"] is True
    assert elapsed < 1.0


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


def test_verify_suites_come_from_the_registry(capsys):
    """--suite offers 'all' and then verify.SUITES in its order, and the
    top-level help carries the BLAS thread note."""
    from hyperoct import verify

    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert suite.choices == ["all", *verify.SUITES]
    assert list(verify.SUITES) == ["algebra", "descent", "composition", "spectral", "stirling", "lyndon", "markov"]
    assert "OPENBLAS_NUM_THREADS=1" in cli.build_parser().format_help()


# Every row name of `verify --suite all --n-max 3`, with its count.
VERIFY_ALL_N3_ROWS = {
    "algebra.bialgebra_compatibility": 1,
    "algebra.bracket_parity": 1,
    "algebra.invariant_projections": 1,
    "algebra.involutions": 1,
    "algebra.primitive_preservation": 1,
    "algebra.tau_hopf_morphism": 1,
    "algebra.tau_tilde_ambimorphism": 1,
    "descent.composition_law": 3,
    "descent.duality_transpose": 1,
    "descent.riffle_composition": 1,
    "descent.riffle_composition_counterexamples": 1,
    "descent.riffle_composition_sign_flips": 1,
    "descent.rows_stochastic": 1,
    "descent.zero_parts_trivial": 1,
    "lyndon.duval_vs_brute": 1,
    "lyndon.eigen_equations": 3,
    "lyndon.eigenbasis_independent": 3,
    "lyndon.eigenvalue_counts_match_table": 3,
    "lyndon.flip_onenegating_lemma": 1,
    "lyndon.full_word_basis": 1,
    "lyndon.rotation_onenegating_lemma": 1,
    "markov.descent_expectation_exact": 1,
    "markov.monte_carlo_descents": 1,
    "markov.right_eigenfunctions_via_duality": 1,
    "markov.rotation_descent_formula": 1,
    "markov.sampler_vs_exact_row": 1,
    "markov.stationary_uniform_unique": 1,
    "markov.subdominant_eigenfunctions": 20,
    "spectral.beta_type_a_reduction": 1,
    "spectral.chain_spectrum": 16,
    "spectral.multiplicity_identities": 1,
    "spectral.pbw_triangularity": 1,
    "spectral.riffle_spectrum_aggregation": 1,
    "spectral.stirling_minima_brute": 1,
    "spectral.stirling_recursion": 1,
    "spectral.stirling_signed_brute": 1,
    "spectral.table1_totals": 1,
}


def test_verify_all_n3(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(["verify", "--suite", "all", "--n-max", "3", "--out", str(out_path)], capsys)
    assert code == 0
    assert out.rstrip().endswith("79 checks, 0 failed")
    rows = json.loads(out_path.read_text())["checks"]
    assert len(rows) == 79
    assert [r for r in rows if r["status"] == "fail"] == []
    assert Counter(r["name"] for r in rows) == VERIFY_ALL_N3_ROWS
    # the SHA-256 of the file as the matrix route of the composition checks
    # wrote it: any change to a row's status, detail or params shows here
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "40b771de1d18b82b1249773e239b8180cf329d8a114379d690a864087310e357"
    )


def test_verify_all_n4_bytes_are_pinned(tmp_path, capsys):
    # n = 4 adds 8 chain certificates, two of them (even-a rotation) on the
    # annihilation route: their powers and zero ranks are in these bytes
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(["verify", "--suite", "all", "--n-max", "4", "--out", str(out_path)], capsys)
    assert code == 0 and out.rstrip().endswith("101 checks, 0 failed")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "e6b6ee36f9b6c4dfa0a18ee06297a854945c66ead318aa19940aaea817d7366f"
    )


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperoct.cli", "spectrum", "--n", "2", "--a", "2",
         "--flavor", "rotation"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_python_dash_m_hyperoct_runs_the_cli(capsys):
    args = ["spectrum", "--n", "3", "--a", "3", "--sign", "minus", "--flavor", "flip"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hyperoct", *args], capture_output=True, text=True, env=env)
    code, out, _ = run_cli(args, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out


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
        (
            ["simulate", "--n", "7", "--a", "2", "--sign", "plus", "--flavor", "flip", "--steps", "5",
             "--trials", "2000", "--seed", "11", "--start", "3 -1 7 2 -5 6 4"],
            "08ae79ba9cb6ad47c68c668887a09de1b28115911a89adc96c406a4b86ac9e9f",
        ),
        (
            ["simulate", "--n", "6", "--a", "3", "--sign", "minus", "--flavor", "rotation", "--steps", "4",
             "--trials", "1500", "--seed", "5"],
            "10d4b2d1849b837cb86fd82d8ea56ba99956184975ae7cbbdd360fa249295ff0",
        ),
    ],
)
def test_output_bytes_are_stable(args, digest, capsys):
    """SHA-256 of stdout as printed while coefficients were all Fractions:
    keeping integral coefficients as ints changes no byte.  The simulate
    digests pin the sampler's use of the random stream: they were taken
    from the argsort-and-scatter sampler on int64 decks, and the sampler
    that sorts each row of pile-label keys into its dealing order, on int16
    decks, prints the same bytes."""
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--n", "3", "--start", "1 2"], "start deck of 2 cards"),
        (["--n", "3", "--start", "1 1 2"], "not a signed permutation"),
        (["--n", "3", "--trials", "0"], "trials=0"),
        (["--n", "3", "--steps", "-1"], "steps=-1"),
        (["--n", "3", "--a", str(2**31 + 1)], "a <= 2^31"),
    ],
)
def test_simulate_refusals(extra, message, capsys):
    code, out, err = run_cli(["simulate", "--a", "2", "--flavor", "flip", "--seed", "1"] + extra, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum"],
        ["spectrum", "--a", "2"],
        ["spectrum", "--n", "0", "--a", "2"],
        ["spectrum", "--op", "2x,1"],
        ["spectrum", "--op", "b"],
        ["compose", "--left", "2,x", "--right", "2"],
        ["simulate", "--n", "3", "--a", "0", "--flavor", "flip", "--seed", "1"],
        ["stationary", "--n", "2", "--a", "0", "--flavor", "flip"],
        ["eigenvector", "--word", "2 1", "--a", "0", "--flavor", "flip"],
        ["eigenbasis", "--n", "2", "--a", "0", "--flavor", "flip"],
        ["eigenvector", "--word", "1.5 2", "--a", "2", "--flavor", "flip"],
        ["simulate", "--n", "3", "--a", "2", "--flavor", "flip", "--start", "1 x 3", "--seed", "1"],
        ["eigenbasis", "--n", "-1", "--a", "2", "--flavor", "flip"],
        ["verify", "--n-max", "0"],
        ["verify", "--n-max", "-3"],
    ],
)
def test_typed_refusals(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_stationary_refuses_a_large_deck_before_listing_the_law(monkeypatch, capsys):
    # the law of n = 6 would list 46,080 entries; transition_matrix refuses
    # n > 5 first, so the law is never built
    def listed(spec):
        raise AssertionError("stationary_distribution was called")

    monkeypatch.setattr(cli, "stationary_distribution", listed)
    code, out, err = run_cli(["stationary", "--n", "6", "--a", "2", "--flavor", "flip"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n <= 5" in err
