import math
from fractions import Fraction

import pytest

from hyperoct import AlgebraElement, NotIntegral, signed_permutations
from hyperoct.verify import _int_vector, check_chain_spectra
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
