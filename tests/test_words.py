import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperoct import (
    AlgebraElement,
    NotInAlphabet,
    SignedWord,
    all_words,
    distinct_letter_words,
    letter_key,
    signed_permutations,
    word_lex_key,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
words = st.lists(letters, max_size=6).map(SignedWord)


def test_alphabet_order():
    # 1bar < 1 < 2bar < 2 < ...
    assert letter_key(-1) < letter_key(1) < letter_key(-2) < letter_key(2)
    letters = [w[0] for w in all_words(1, 3)]
    assert letters == [-1, 1, -2, 2, -3, 3]
    assert sorted(letters, key=letter_key) == letters


def test_word_parse_format():
    w = SignedWord.parse("-4 3 5 -1 6 -7 -2")
    assert w == SignedWord((-4, 3, 5, -1, 6, -7, -2))
    assert str(w) == "-4 3 5 -1 6 -7 -2"
    assert SignedWord.parse("e") == SignedWord()
    assert str(SignedWord()) == "e"
    assert w.degree == 7
    with pytest.raises(NotInAlphabet):
        SignedWord((1, 0, 2))
    # numpy integers are read as ints; floats and strings are refused, not
    # truncated, by the constructor, by parse and by from_json
    w = SignedWord(np.array([3, -1], dtype=np.int64))
    assert w == SignedWord((3, -1)) and {type(c) for c in w} == {int}
    for bad in ([1.7, -2.2], [2.0], ["1"]):
        with pytest.raises(NotInAlphabet):
            SignedWord(bad)
    for text in ("1.5 2", "1 x 3"):
        with pytest.raises(NotInAlphabet):
            SignedWord.parse(text)
    with pytest.raises(NotInAlphabet):
        AlgebraElement.from_json([{"coeff": "1", "word": [1.9, 2]}])


@given(words)
def test_bar_flip_involutions(w):
    assert w.bar().bar() == w
    assert w.flip().flip() == w
    assert w.flip() == w.bar().reverse()


def test_element_normalization():
    x = AlgebraElement([((1, 2), 1), ((1, 2), -1), ((2, 1), Fraction(1, 2))])
    assert len(x) == 1
    assert x.coeff((2, 1)) == Fraction(1, 2)
    assert x.coeff((1, 2)) == 0
    assert AlgebraElement() == AlgebraElement.zero()
    assert not AlgebraElement.zero()


def test_integral_coefficients_are_ints():
    half = Fraction(1, 2)
    x = AlgebraElement([((1, 2), Fraction(4, 2)), ((2, 1), 3), ((-1, 2), half), ((-1, 2), half)])
    assert x.terms() == {SignedWord((1, 2)): 2, SignedWord((2, 1)): 3, SignedWord((-1, 2)): 1}
    for y in (x, x + x, x - 2 * x, -x, x * Fraction(6, 3)):
        assert {type(c) for _, c in y} == {int}
    halved = x / 2  # real division makes Fractions, and only there
    assert type(halved.coeff((1, 2))) is int
    assert type(halved.coeff((2, 1))) is Fraction and halved.coeff((2, 1)) == Fraction(3, 2)
    assert {type(c) for _, c in halved + halved} == {int} and halved * 2 == x
    assert [d["coeff"] for d in halved.to_json()] == ["1/2", "1", "3/2"]
    assert type(AlgebraElement.from_json(x.to_json()).coeff((2, 1))) is int


@given(st.lists(st.tuples(words, st.integers(-5, 5)), max_size=6))
def test_element_ring_axioms(pairs):
    x = AlgebraElement(pairs)
    assert x + AlgebraElement.zero() == x
    assert x - x == AlgebraElement.zero()
    assert 2 * x == x + x
    assert -1 * x == -x
    assert (x * Fraction(1, 2)) * 2 == x


def test_canonical_order_and_json():
    x = AlgebraElement([((2,), 1), ((-2,), 1), ((1,), Fraction(-1, 3))])
    items = [w for w, _ in x.canonical_items()]
    assert items == [SignedWord((1,)), SignedWord((-2,)), SignedWord((2,))]
    js = x.to_json()
    assert js == [
        {"coeff": "-1/3", "word": [1]},
        {"coeff": "1", "word": [-2]},
        {"coeff": "1", "word": [2]},
    ]
    assert AlgebraElement.from_json(js) == x


def test_state_enumeration():
    assert len(signed_permutations(3)) == 48
    assert len(set(signed_permutations(3))) == 48
    assert len(all_words(3, 2)) == 64
    states = signed_permutations(2)
    assert states == sorted(states, key=word_lex_key)
    assert states[0] == SignedWord((-1, -2))


def _recursive_distinct_letter_words(n, max_label):
    """Reference: each position takes the unused labels in alphabet order
    (the barred letter first), so the words come out already sorted."""
    out = []

    def rec(prefix: tuple, unused: tuple):
        if len(prefix) == n:
            out.append(SignedWord(prefix))
            return
        for i, v in enumerate(unused):
            rest = unused[:i] + unused[i + 1 :]
            rec(prefix + (-v,), rest)
            rec(prefix + (v,), rest)

    rec((), tuple(range(1, max_label + 1)))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_distinct_letter_words_match_sorted_brute(n):
    for max_label in range(n, min(n + 2, 5) + 1):
        brute = {
            SignedWord(s * v for s, v in zip(signs, labels))
            for labels in itertools.permutations(range(1, max_label + 1), n)
            for signs in itertools.product((-1, 1), repeat=n)
        }
        assert distinct_letter_words(n, max_label) == sorted(brute, key=word_lex_key)
    for max_label in {max(n - 1, 0), n, min(n + 1, 6)}:  # n − 1 labels make no word
        got = distinct_letter_words(n, max_label)
        assert got == _recursive_distinct_letter_words(n, max_label), max_label
        assert all(type(c) is int for w in got[:3] for c in w)
    assert signed_permutations(n) == distinct_letter_words(n, n)
