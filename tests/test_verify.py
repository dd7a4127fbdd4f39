import math
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import AlgebraElement, CodeOverflow, NotIntegral, ShuffleSpec, signed_permutations
from hyperoct import verify
from hyperoct.verify import _eigen_equations_hold, _int_vector, check_chain_spectra, check_subdominant
from conftest import W


def test_int_vector_refuses_fractions_and_foreign_words():
    states = signed_permutations(2)
    index = {w: i for i, w in enumerate(states)}
    x = AlgebraElement([(W("2 -1"), 3), (W("-1 -2"), -2**40)])
    v = _int_vector(x, index.__getitem__, len(states))
    assert v.tolist() == [-2**40, 0, 0, 0, 0, 0, 3, 0]
    with pytest.raises(NotIntegral):
        _int_vector(AlgebraElement([(W("1 2"), 1), (W("2 1"), Fraction(1, 2))]), index.__getitem__, len(states))
    with pytest.raises(KeyError, match="1 1"):
        _int_vector(AlgebraElement.from_word(W("1 1")), index.__getitem__, len(states))


def test_chain_spectra_n3():
    rows = check_chain_spectra(3)
    assert len(rows) == 16
    assert all(r.status == "pass" for r in rows), [r.detail for r in rows if r.status != "pass"]
    for r in rows:
        n = r.params["n"]
        assert r.params["method"] == "trace-powers"
        assert r.params["size"] == 2**n * math.factorial(n)
        assert r.params["moduli_count"] >= 1 and r.params["moduli_bits"] >= 20


def test_eigen_equations_hold_bounds_its_product():
    M = np.array([[2, 1], [0, 3]], dtype=np.int64)
    V = np.array([[1, -1], [0, 1]], dtype=np.int64)  # left eigenvectors for 2 and 3
    assert _eigen_equations_hold(V, np.array([2, 3]), M)
    assert not _eigen_equations_hold(V, np.array([2, 2]), M)
    # max|V| times the largest column abs-sum (4) must stay below 2^63
    assert _eigen_equations_hold(V * 2**60, np.array([2, 3]), M)
    with pytest.raises(CodeOverflow):
        _eigen_equations_hold(V * 2**61, np.array([2, 3]), M)


def test_chain_certificate_links_the_proved_matrix_to_the_chain(monkeypatch):
    spec = ShuffleSpec(4, 3, "+", "flip")
    tm = verify.transition_matrix(spec)
    rep = verify.chain_spectrum_certificate(spec, tm)
    assert rep["ok"] and rep["duality"] and rep["method"] == "full-eigenbasis"
    real = verify.operator_matrix

    def corrupted(T, states, algebra, table=None):
        M = real(T, states, algebra, table)
        M[5, 7] += 1
        return M

    monkeypatch.setattr(verify, "operator_matrix", corrupted)
    rep = verify.chain_spectrum_certificate(spec, tm)
    assert rep["duality"] is False and rep["ok"] is False


def test_subdominant_rows_carry_their_sizes():
    rows = check_subdominant(3)
    # one row per subdominant eigenvalue: 1/a for each of 16 chains, and
    # −1/3 as well for the 4 chains with a = 3 and sign −
    assert len(rows) == 20
    assert all(r.status == "pass" for r in rows)
    for r in rows:
        assert {"eigenvalue", "family_size", "expected_multiplicity"} <= set(r.params)
        assert r.params["family_size"] == r.params["expected_multiplicity"]
        assert abs(r.params["eigenvalue"]) == Fraction(1, r.params["a"])
