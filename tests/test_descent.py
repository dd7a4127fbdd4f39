import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import (
    CONCAT,
    SHUFFLE,
    AlgebraElement,
    CodeOverflow,
    CompatibleMatrix,
    DecoratedComposition,
    Decoration,
    DescentOperator,
    FlavorMismatch,
    NotHomogeneous,
    SignedWord,
    SizeMismatch,
    apply_elementary,
    apply_operator,
    compatible_matrices,
    compose_law,
    compositions,
    decorated_compositions,
    operator_matrix,
    riffle_operator,
    signed_permutations,
    wcomp,
    wcomp_tilde,
)
from hyperoct.descent import elementary_action, image_table
from conftest import W

DC = DecoratedComposition


def test_composition_parse_and_flavor():
    D = DC.parse("2b,4,0,2b")
    assert D.undecorate() == (2, 4, 0, 2)
    assert D.flavor is Decoration.BAR
    assert D.decorated_indices() == (0, 3)
    assert str(D) == "2b,4,0,2b"
    Dt = DC.parse("2t,5")
    assert Dt.flavor is Decoration.TBAR
    with pytest.raises(FlavorMismatch):
        DC.parse("2b,2t")
    assert DC.parse("3").flavor is Decoration.PLAIN
    assert D.total == 8 and D.length == 4


def test_apply_elementary_paper_example():
    out = apply_elementary(DC.parse("1,2t"), W("3 -1 6"), SHUFFLE)
    assert out == AlgebraElement([(W("3 -6 1"), 1), (W("-6 3 1"), 1), (W("-6 1 3"), 1)])


def test_apply_elementary_identity_cases():
    w = W("2 -3 1")
    assert apply_elementary(DC.parse("3"), w, SHUFFLE) == AlgebraElement.from_word(w)
    assert apply_elementary(DC.parse("3"), w, CONCAT) == AlgebraElement.from_word(w)
    # decorated zero slot does nothing
    assert apply_elementary(DC.parse("0b,3"), w, SHUFFLE) == AlgebraElement.from_word(w)
    with pytest.raises(SizeMismatch):
        apply_elementary(DC.parse("1,1"), w, SHUFFLE)


def test_apply_operator_linear():
    w = W("1 2")
    T = DescentOperator.elementary(DC.parse("1,1b"))
    x = AlgebraElement([(w, Fraction(1, 2))])
    assert apply_operator(T, x, SHUFFLE) == apply_elementary(
        DC.parse("1,1b"), w, SHUFFLE
    ) * Fraction(1, 2)
    zero_op = DescentOperator({DC.parse("1,1b"): Fraction(0)}, 2)
    assert apply_operator(zero_op, x, SHUFFLE) == AlgebraElement.zero()
    with pytest.raises(NotHomogeneous):
        apply_operator(T, AlgebraElement.from_word(W("1")), SHUFFLE)


def test_riffle_operator_structure():
    T = riffle_operator(1, "+", Decoration.BAR, 4)
    assert list(T.terms) == [DC.parse("4")]
    T2 = riffle_operator(2, "-", Decoration.TBAR, 3)
    assert len(T2.terms) == 4  # compositions of 3 into 2 parts
    for D in T2.terms:
        assert D.parts[0][1] is Decoration.TBAR
        assert D.parts[1][1] is Decoration.PLAIN
    # row sums: each word has a^n images counted with multiplicity
    states = signed_permutations(3)
    M = operator_matrix(riffle_operator(2, "+", Decoration.BAR, 3), states, SHUFFLE)
    assert (M.sum(axis=1) == 2**3).all()


PAPER_FIVE_MATRICES = [
    ((0, 2), (1, 3), (1, 0)),
    ((1, 1), (0, 4), (1, 0)),
    ((1, 1), (1, 3), (0, 1)),
    ((2, 0), (0, 4), (0, 1)),
    ((0, 2), (2, 2), (0, 1)),
]


def test_compatible_matrices_paper_example():
    mats = compatible_matrices(DC.parse("2b,4b,1"), DC.parse("2b,5"))
    assert len(mats) == 5
    assert {M.sizes for M in mats} == set(PAPER_FIVE_MATRICES)
    # decorations: sign of entry = product of row/column signs
    M0 = next(M for M in mats if M.sizes == PAPER_FIVE_MATRICES[0])
    decs = [[d for _, d in row] for row in M0.entries()]
    B, P = Decoration.BAR, Decoration.PLAIN
    assert decs == [[P, B], [P, B], [B, P]]


def test_compatible_matrices_small():
    ident = compatible_matrices(DC.parse("4"), DC.parse("4"))
    assert len(ident) == 1 and ident[0].sizes == ((4,),)
    two = compatible_matrices(DC.parse("1,1"), DC.parse("1,1"))
    assert len(two) == 2  # derived: permutation matrices of size 2
    with pytest.raises(SizeMismatch):
        compatible_matrices(DC.parse("2"), DC.parse("3"))
    with pytest.raises(FlavorMismatch):
        compatible_matrices(DC.parse("2b"), DC.parse("2t"))


def test_wcomp_readouts():
    mats = compatible_matrices(DC.parse("2b,4b,1"), DC.parse("2b,5"))
    M0 = next(M for M in mats if M.sizes == PAPER_FIVE_MATRICES[0])
    assert str(wcomp(M0)) == "0,2b,1,3b,1b,0"
    assert wcomp(compatible_matrices(DC.parse("5"), DC.parse("5"))[0]) == DC.parse("5")
    assert wcomp(M0).total == DC.parse("2b,4b,1").total

    Dt = DC.parse("2t,4t,1")
    matst = compatible_matrices(Dt, DC.parse("2t,5"))
    M0t = next(M for M in matst if M.sizes == PAPER_FIVE_MATRICES[0])
    assert str(wcomp_tilde(Dt, M0t)) == "2t,0,3t,1,1t,0"
    # all rows undecorated: same as wcomp
    plain = compatible_matrices(DC.parse("1,2"), DC.parse("2,1"))
    for M in plain:
        assert wcomp_tilde(DC.parse("1,2"), M).undecorate() == wcomp(M).undecorate()


def _mat(D_or_T, states, algebra):
    T = D_or_T if isinstance(D_or_T, DescentOperator) else DescentOperator.elementary(D_or_T)
    return operator_matrix(T, states, algebra)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composition_law_exhaustive(n):
    states = signed_permutations(n)
    for flavor in (Decoration.BAR, Decoration.TBAR):
        Ds = list(decorated_compositions(n, flavor))
        for D, Dp in itertools.product(Ds, Ds):
            for algebra, kind in ((SHUFFLE, "commutative"), (CONCAT, "cocommutative")):
                lhs = _mat(Dp, states, algebra) @ _mat(D, states, algebra)
                rhs = _mat(compose_law(D, Dp, kind), states, algebra)
                assert (lhs == rhs).all(), (str(D), str(Dp), algebra)


def test_composition_law_with_zero_parts():
    states = signed_permutations(2)
    D = DC.parse("0b,2,0b")
    Dp = DC.parse("1b,0,1")
    for algebra, kind in ((SHUFFLE, "commutative"), (CONCAT, "cocommutative")):
        lhs = _mat(Dp, states, algebra) @ _mat(D, states, algebra)
        rhs = _mat(compose_law(D, Dp, kind), states, algebra)
        assert (lhs == rhs).all()


def test_duality_transpose():
    for n in (1, 2, 3):
        states = signed_permutations(n)
        for flavor in (Decoration.BAR, Decoration.TBAR):
            for D in decorated_compositions(n, flavor):
                A = _mat(D, states, SHUFFLE)
                B = _mat(D, states, CONCAT)
                assert (A == B.T).all(), str(D)


def test_operator_json():
    T = riffle_operator(2, "+", Decoration.TBAR, 2)
    js = T.to_json()
    assert js[0]["coeff"] == "1"
    assert {tuple(map(tuple, row["comp"])) for row in js} == {
        ((0, "plain"), (2, "tbar")),
        ((1, "plain"), (1, "tbar")),
        ((2, "plain"), (0, "tbar")),
    }


def test_compositions_enumeration():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(4, 3))) == 15
    assert len(list(decorated_compositions(3, Decoration.BAR))) == sum(
        2**l for l in (1, 2, 2, 3)
    )


# ---------------------------------------------------------------------------
# the image table against the literal loop, and the int64 edges of the array
# path of apply_operator


def _literal_operator_matrix(T, states, algebra):
    """Reference: every image of every state, looked up one word at a time."""
    index = {tuple(w): i for i, w in enumerate(states)}
    M = np.zeros((len(states), len(states)), dtype=np.int64)
    for D, c in T.terms.items():
        for i, w in enumerate(states):
            for out in elementary_action(D, w, algebra):
                M[i, index[out]] += int(c)
    return M


def _table_cases():
    for n in (1, 2, 3):
        for flavor in (Decoration.BAR, Decoration.TBAR):
            for D in decorated_compositions(n, flavor):
                yield DescentOperator.elementary(D), n
    for a in (1, 2, 3):
        for sign in "+-":
            for flavor in (Decoration.BAR, Decoration.TBAR):
                yield riffle_operator(a, sign, flavor, 4), 4


def test_operator_matrix_matches_literal_loop():
    states = {n: signed_permutations(n) for n in (1, 2, 3, 4)}
    cases = 0
    for T, n in _table_cases():
        for algebra in (SHUFFLE, CONCAT):
            want = _literal_operator_matrix(T, states[n], algebra)
            assert (operator_matrix(T, states[n], algebra) == want).all(), (T.to_json(), algebra)
            cases += 1
    assert cases == 2 * (2 * (2 + 6 + 18) + 12)


def test_image_table_layout_and_coefficients():
    T = DescentOperator({DC.parse("1b,1"): 3, DC.parse("2"): -2}, 2)
    states = signed_permutations(2)
    images, coeffs = image_table(T, states, SHUFFLE)
    assert images.dtype == np.int32 and images.shape == (8, 3)
    assert sorted(coeffs.tolist()) == [-2, 3, 3]
    for i, w in enumerate(states):
        got = AlgebraElement(
            (states[j], c) for j, c in zip(images[i].tolist(), coeffs.tolist())
        )
        assert got == apply_operator(T, w, SHUFFLE)
    assert (operator_matrix(T, states, SHUFFLE) == _literal_operator_matrix(T, states, SHUFFLE)).all()


def test_image_table_refusals():
    T = riffle_operator(2, "+", Decoration.BAR, 2)
    with pytest.raises(KeyError):  # 2 1 and its bars are not states
        operator_matrix(T, [W("1 2"), W("-1 2"), W("1 -2")], SHUFFLE)
    with pytest.raises(SizeMismatch):
        operator_matrix(T, [W("1 2"), W("1")], SHUFFLE)
    with pytest.raises(ValueError):
        operator_matrix(T * Fraction(1, 2), signed_permutations(2), SHUFFLE)
    with pytest.raises(ValueError):
        operator_matrix(T, [W("1 2"), W("1 2")], SHUFFLE)
    # (2m+1)^3 passes 2^63 - 1 at m = 2^20, not at m = 2^20 - 1
    T3 = riffle_operator(1, "+", Decoration.BAR, 3)
    with pytest.raises(CodeOverflow):
        operator_matrix(T3, [SignedWord((2**20, 1, 2))], SHUFFLE)
    assert operator_matrix(T3, [SignedWord((2**20 - 1, 1, 2))], SHUFFLE).tolist() == [[1]]


def test_apply_operator_huge_coefficients_exact():
    # 256 terms, each 2^53: the accumulator passes int64 (Σ|c_D|·#programs·Σ|c_w|)
    T8 = riffle_operator(3, "+", Decoration.BAR, 8)
    words8 = list(itertools.product((-1, 1), repeat=8))
    got = apply_operator(T8, AlgebraElement((w, 2**53) for w in words8), CONCAT)
    assert got.coeff(SignedWord((-1,) * 8)) == 59096234310355648512
    one = apply_operator(T8, AlgebraElement((w, 1) for w in words8), CONCAT)
    assert got == one * 2**53


def test_apply_operator_wide_labels_exact():
    # 216 terms with labels >= 2^20: the base-(2m+1) word code passes int64
    shift = 2**20
    rng = random.Random(5)
    letters = (-3, -2, -1, 1, 2, 3)
    small = AlgebraElement(
        (w, rng.choice((1, 2, 3, -1, -2))) for w in itertools.product(letters, repeat=3)
    )
    assert len(small) == 216

    def relabel(w):
        return tuple(c + shift if c > 0 else c - shift for c in w)

    T3 = riffle_operator(2, "-", Decoration.TBAR, 3)
    got = apply_operator(T3, small.map_words(relabel), CONCAT)
    assert got == apply_operator(T3, small, CONCAT).map_words(relabel)


@pytest.mark.parametrize("scale", [1, 2**40, 2**62, -(2**70)])
def test_array_path_matches_word_path(scale):
    # elements over 128 terms take the array path; below the int64 edge it
    # sums in int64, above it in Python integers
    rng = random.Random(scale % 1000)
    words = list(itertools.product((-2, -1, 1, 2), repeat=4))
    x = AlgebraElement((w, scale * rng.randint(-3, 3)) for w in words)
    assert len(x) > 128
    for algebra in (SHUFFLE, CONCAT):
        T = riffle_operator(3, "-", Decoration.TBAR, 4) + DescentOperator.elementary(DC.parse("2t,2")) * 5
        want = {}
        for D, cD in T.terms.items():
            for w, cw in x:
                for out in elementary_action(D, w, algebra):
                    want[out] = want.get(out, 0) + cD * cw
        assert apply_operator(T, x, algebra) == AlgebraElement(want)
