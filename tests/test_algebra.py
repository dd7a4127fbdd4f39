import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import (
    CONCAT,
    SHUFFLE,
    AlgebraElement,
    NotHomogeneous,
    SignedWord,
    SizeMismatch,
    all_words,
    concat_elements,
    concat_product,
    deconcatenate,
    deshuffle,
    is_primitive,
    lie_bracket,
    lyndon_words,
    project_invariant,
    shuffle_product,
    stdbrac,
    tau,
    tau_tilde,
)
from conftest import W, brute_deshuffle_pairs, brute_shuffle_two

# the worked 12-term product of 1 5bar, 3bar, 2bar
PAPER_12 = [
    "1 -5 -3 -2", "1 -5 -2 -3", "1 -2 -5 -3", "-2 1 -5 -3",
    "1 -3 -5 -2", "1 -3 -2 -5", "1 -2 -3 -5", "-2 1 -3 -5",
    "-3 1 -5 -2", "-3 1 -2 -5", "-3 -2 1 -5", "-2 -3 1 -5",
]


def test_shuffle_product_paper_example():
    out = shuffle_product([W("1 -5"), W("-3"), W("-2")])
    assert len(out) == 12
    assert out == AlgebraElement((W(t), 1) for t in PAPER_12)


def test_shuffle_product_unit_and_small():
    w = W("3 -1 6")
    assert shuffle_product([SignedWord(), w]) == AlgebraElement.from_word(w)
    # derived: 3 interleavings of (1 2) with (3)
    out = shuffle_product([W("1 2"), W("3")])
    assert out == AlgebraElement([(W("1 2 3"), 1), (W("1 3 2"), 1), (W("3 1 2"), 1)])


def test_shuffle_multiplicity_with_repeats():
    # 1 x 1 = 2*(11): interleavings counted with multiplicity
    out = shuffle_product([W("1"), W("1")])
    assert out == AlgebraElement([(W("1 1"), 2)])


@given(
    st.lists(st.integers(-3, 3).filter(bool), max_size=4),
    st.lists(st.integers(-3, 3).filter(bool), max_size=4),
)
@settings(max_examples=60)
def test_shuffle_matches_brute(u, v):
    got = shuffle_product([SignedWord(u), SignedWord(v)])
    want = {}
    for t in brute_shuffle_two(u, v):
        want[SignedWord(t)] = want.get(SignedWord(t), 0) + 1
    assert got == AlgebraElement(want)


def test_deconcatenate():
    assert deconcatenate(W("1 -5 -3 -2"), (2, 1, 1)) == (W("1 -5"), W("-3"), W("-2"))
    w = W("3 -1 6")
    assert deconcatenate(w, (3,)) == (w,)
    assert deconcatenate(w, (0, 3, 0)) == (SignedWord(), w, SignedWord())
    with pytest.raises(SizeMismatch):
        deconcatenate(w, (1, 1))
    with pytest.raises(SizeMismatch):  # sums to the degree, with a negative part
        deconcatenate(w, (-1, 4))


def test_concat_product():
    assert concat_product([W("1 -5"), W("-3 -2")]) == W("1 -5 -3 -2")
    assert concat_product([SignedWord(), W("3")]) == W("3")
    assert concat_product([W("3"), W("-1"), W("6")]) == W("3 -1 6")


def test_deshuffle_paper_example():
    got = deshuffle(W("3 -1 6"), (1, 2))
    assert got == [
        (W("3"), W("-1 6")),
        (W("-1"), W("3 6")),
        (W("6"), W("3 -1")),
    ]
    assert deshuffle(W("3 -1 6"), (3,)) == [(W("3 -1 6"),)]
    assert len(deshuffle(W("3 -1 6"), (1, 1, 1))) == 6
    with pytest.raises(SizeMismatch):
        deshuffle(W("3 -1 6"), (1, 1))
    for parts in ((-1, 4), (4, -1)):
        with pytest.raises(SizeMismatch):
            deshuffle(W("3 -1 6"), parts)


@given(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=5), st.data())
@settings(max_examples=60)
def test_deshuffle_matches_brute(letters, data):
    w = SignedWord(letters)
    i = data.draw(st.integers(0, len(w)))
    got = sorted(deshuffle(w, (i, len(w) - i)))
    want = sorted(
        (SignedWord(a), SignedWord(b)) for a, b in brute_deshuffle_pairs(w, i)
    )
    assert got == want


def test_involutions_paper_examples():
    assert tau(W("3 -1 6")) == W("-3 1 -6")
    assert tau_tilde(W("3 -1 6")) == W("-6 1 -3")
    assert tau(SignedWord()) == SignedWord()
    assert tau_tilde(W("3")) == W("-3")


def test_project_invariant():
    one = AlgebraElement.from_word(W("1"))
    assert project_invariant(one, "tau", "+") == AlgebraElement(
        [(W("1"), Fraction(1, 2)), (W("-1"), Fraction(1, 2))]
    )
    x = AlgebraElement([(W("1 2"), 1), (W("-1 -2"), 1)])  # tau-invariant
    assert project_invariant(x, "tau", "-") == AlgebraElement.zero()
    y = AlgebraElement([(W("2 -1"), 3), (W("1 2"), Fraction(1, 5))])
    for which in ("tau", "tau_tilde"):
        assert project_invariant(y, which, "+") + project_invariant(y, which, "-") == y


def test_project_invariant_refuses_an_unknown_involution():
    for which, sign in (("bogus", "+"), ("tau", "*")):
        with pytest.raises(ValueError, match=which if sign == "+" else "sign"):
            project_invariant(W("1"), which, sign)


def test_lie_bracket_paper_example():
    x = AlgebraElement([(W("6"), 1), (W("-6"), 1)])
    y = AlgebraElement([(W("7"), 1), (W("-7"), -1)])
    got = lie_bracket(x, y)
    want = AlgebraElement(
        [
            (W("6 7"), 1), (W("6 -7"), -1), (W("-6 7"), 1), (W("-6 -7"), -1),
            (W("7 6"), -1), (W("7 -6"), -1), (W("-7 6"), 1), (W("-7 -6"), 1),
        ]
    )
    assert got == want
    assert lie_bracket(x, x) == AlgebraElement.zero()
    assert lie_bracket(x, y) == -lie_bracket(y, x)


def test_is_primitive():
    i_minus = AlgebraElement([(W("1"), 1), (W("-1"), -1)])
    assert is_primitive(i_minus, CONCAT)
    assert is_primitive(i_minus, SHUFFLE)
    assert is_primitive(stdbrac(W("-1 6 -7 -2")), CONCAT)
    # the word 12 is not primitive in the concat algebra
    assert not is_primitive(AlgebraElement.from_word(W("1 2")), CONCAT)
    # the algebra is checked first, whatever the degree
    for x in (AlgebraElement.from_word(W("1")), AlgebraElement.zero(), W("1 2"), AlgebraElement.unit()):
        with pytest.raises(ValueError, match="bogus"):
            is_primitive(x, "bogus")


def component_nonzero(x, i, algebra):
    """Whether the (i, n−i) coproduct component of x is nonzero, computed
    pair by pair: deconcatenation on the shuffle algebra, and deshuffling
    on the concat algebra through the positions-first oracle."""
    acc = {}
    for w, c in x:
        pairs = [(w[:i], w[i:])] if algebra == SHUFFLE else brute_deshuffle_pairs(w, i)
        for u, v in pairs:
            acc[tuple(u), tuple(v)] = acc.get((tuple(u), tuple(v)), 0) + c
    return any(acc.values())


def reference_is_primitive(x, algebra):
    """The component-wise definition: every proper component vanishes."""
    if not x:
        return True
    n = x.degree()
    if n < 1:
        raise NotHomogeneous("primitivity needs degree >= 1")
    return not any(component_nonzero(x, i, algebra) for i in range(1, n))


def test_is_primitive_matches_the_component_wise_definition():
    # the 180 images of the primitive-preservation check
    xs = [sigma(stdbrac(u)) for d in range(1, 5) for u in lyndon_words(2, d) for sigma in (tau, tau_tilde)]
    assert len(xs) == 180
    # products of two brackets: nonzero components at the split i and its
    # mirror n − i only, for each 0 < i < n
    for n in range(2, 6):
        for i in range(1, n):
            u = SignedWord(range(1, i + 1))
            v = SignedWord(range(i + 1, n + 1))
            x = concat_elements(stdbrac(u), stdbrac(v))
            assert [k for k in range(1, n) if component_nonzero(x, k, CONCAT)] == sorted({i, n - i})
            xs.append(x)
    # repeated letters, labels past int64, Fraction coefficients, the zero
    # element, sums of primitive and non-primitive parts
    big = 2**70
    xs += [
        AlgebraElement.from_word(W("1 1")),
        AlgebraElement([(W("1 -1"), 1), (W("-1 1"), -1)]),
        stdbrac(W("1 1 2")),
        concat_elements(W("2"), W("2")) - AlgebraElement([(W("2 2"), 1)]),
        stdbrac(SignedWord((big, -big - 1))),
        stdbrac(SignedWord((big, big, big + 1))) * Fraction(3, 7),
        stdbrac(W("1 2")) * Fraction(1, 3) + AlgebraElement([(W("2 1"), Fraction(1, 3))]),
        AlgebraElement([(SignedWord((big,)), Fraction(5, 2)), (SignedWord((-big,)), -1)]),
        AlgebraElement.zero(),
    ]
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = AlgebraElement(
            (SignedWord(rng.choice((-2, -1, 1, 2)) for _ in range(n)), rng.randint(-2, 2))
            for _ in range(3)
        )
        xs += [x, x + stdbrac(rng.choice(list(lyndon_words(2, n))))]
    verdicts = {True: 0, False: 0}
    for x in xs:
        for algebra in (SHUFFLE, CONCAT):
            got = is_primitive(x, algebra)
            assert got == reference_is_primitive(x, algebra), (x, algebra)
            verdicts[got] += 1
    assert min(verdicts.values()) > 100  # both verdicts well exercised
    for algebra in (SHUFFLE, CONCAT):
        with pytest.raises(NotHomogeneous):
            is_primitive(AlgebraElement.unit(), algebra)
        with pytest.raises(NotHomogeneous):
            reference_is_primitive(AlgebraElement.unit(), algebra)


def test_tau_is_hopf_morphism_small():
    words = [w for n in range(4) for w in all_words(n, 2)]
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) > 3:
            continue
        assert tau(shuffle_product([u, v])) == shuffle_product([tau(u), tau(v)])
        uv = concat_product([u, v])
        assert tau(uv) == concat_product([tau(u), tau(v)])
        # tau_tilde: algebra morphism on shuffle, antimorphism on concat
        assert tau_tilde(shuffle_product([u, v])) == shuffle_product(
            [tau_tilde(u), tau_tilde(v)]
        )
        assert tau_tilde(uv) == concat_product([tau_tilde(v), tau_tilde(u)])
