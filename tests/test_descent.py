import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import (
    CONCAT,
    SHUFFLE,
    AlgebraElement,
    BadCount,
    CodeOverflow,
    CompatibleMatrix,
    DecoratedComposition,
    Decoration,
    DescentOperator,
    FlavorMismatch,
    NotHomogeneous,
    SignedWord,
    SizeMismatch,
    all_words,
    apply_elementary,
    apply_operator,
    compatible_matrices,
    concat_elements,
    deconcatenate,
    deshuffle,
    eigenvector_matrix,
    project_invariant,
    shuffle_product,
    tau,
    tau_tilde,
    compose_law,
    compositions,
    decorated_compositions,
    operator_matrix,
    riffle_operator,
    signed_permutations,
    wcomp,
    wcomp_tilde,
)
from hyperoct import descent
from hyperoct.algebra import _position_splits
from hyperoct.descent import _deal, _dealing_order, _piles, _programs, decorated_pile, image_table
from hyperoct.spectral import operator_eigenvalues
from conftest import W, signed_eigenvector_matrix

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
    with pytest.raises(BadCount, match="n=-1"):
        riffle_operator(2, "+", Decoration.BAR, -1)
    # degree 0 keeps its one all-empty composition
    T = riffle_operator(2, "+", Decoration.BAR, 0)
    assert T.degree == 0 and T.terms == {DC.parse("0,0b"): 1}


def test_riffle_parts_are_decorated_by_the_one_pile_rule():
    for a in range(1, 7):
        for sign in "+-":
            for flavor in (Decoration.BAR, Decoration.TBAR):
                for D in riffle_operator(a, sign, flavor, 3).terms:
                    got = [d is flavor for _, d in D.parts]
                    assert got == [bool(decorated_pile(i, sign)) for i in range(a)], (a, sign, str(D))
                    assert (decorated_pile(np.arange(a), sign) == got).all()
    # sign '+' decorates the even-numbered piles, counted from 1
    assert [decorated_pile(i, "+") for i in range(4)] == [False, True, False, True]


def test_operator_coefficients_are_integers_until_a_division():
    ops = [riffle_operator(3, "-", Decoration.TBAR, 3), DescentOperator.elementary(DC.parse("1,2t"))]
    ops += [compose_law(D, Dp, kind) for D in decorated_compositions(2, Decoration.BAR)
            for Dp in decorated_compositions(2, Decoration.BAR) for kind in ("commutative", "cocommutative")]
    ops.append(ops[0] + ops[0] * 2)
    ops.append(DescentOperator({DC.parse("3"): Fraction(4, 2)}, 3))
    for T in ops:
        assert T.terms and all(type(c) is int for c in T.terms.values()), T.to_json()
    half = ops[0] * Fraction(1, 2)
    assert all(c == Fraction(1, 2) and type(c) is Fraction for c in half.terms.values())
    assert all(type(c) is int for c in (half * 2).terms.values())
    assert half.to_json()[0]["coeff"] == "1/2" and ops[0].to_json()[0]["coeff"] == "1"
    assert all(type(v) is int for v in operator_eigenvalues(ops[0]).values())
    assert set(operator_eigenvalues(half).values()) == {Fraction(v, 2) for v in operator_eigenvalues(ops[0]).values()}


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


def test_compose_law_refusals():
    # the refusals of compatible_matrices, in either order of the pair
    for kind in ("commutative", "cocommutative"):
        with pytest.raises(SizeMismatch):
            compose_law(DC.parse("2"), DC.parse("1,2b"), kind)
        with pytest.raises(FlavorMismatch):
            compose_law(DC.parse("1t,1"), DC.parse("2b"), kind)
    with pytest.raises(ValueError, match="unknown algebra kind"):
        compose_law(DC.parse("2"), DC.parse("2"), "graded")


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


def test_compatible_matrix_flavor_is_the_row_flavor_else_the_column_flavor():
    for rows, cols, flavor in (
        ("2b,1", "3", Decoration.BAR),
        ("3", "1,2t", Decoration.TBAR),
        ("1t,2", "2t,1", Decoration.TBAR),
        ("1,2", "2,1", Decoration.PLAIN),
    ):
        for M in compatible_matrices(DC.parse(rows), DC.parse(cols)):
            assert M.flavor is flavor
    # a tilde flavor from the columns alone still refuses the bar read-out, and back
    (M,) = compatible_matrices(DC.parse("3"), DC.parse("3t"))
    with pytest.raises(FlavorMismatch):
        wcomp(M)
    (M,) = compatible_matrices(DC.parse("3"), DC.parse("3b"))
    with pytest.raises(FlavorMismatch):
        wcomp_tilde(DC.parse("3"), M)


def _mat(D_or_T, states, algebra):
    T = D_or_T if isinstance(D_or_T, DescentOperator) else DescentOperator.elementary(D_or_T)
    return operator_matrix(T, states, algebra).astype(np.int64)  # its products must not wrap


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


def _reference_action(D, algebra):
    """w ↦ the words of m∘Δ_D(w), one per program and each with
    coefficient +1, read one row at a time from the per-split tables of
    ``_reference_programs``, not from the kernel's ``_programs``."""
    src, sign = (a.tolist() for a in _reference_programs(D, algebra))
    return lambda w: [tuple(g * w[i] for i, g in zip(row, signs)) for row, signs in zip(src, sign)]


def _literal_operator_matrix(T, states, algebra):
    """Reference: every image of every state, looked up one word at a time."""
    index = {tuple(w): i for i, w in enumerate(states)}
    M = np.zeros((len(states), len(states)), dtype=np.int64)
    for D, c in T.terms.items():
        action = _reference_action(D, algebra)
        for i, w in enumerate(states):
            for out in action(w):
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


def test_image_table_layout_and_coefficients(monkeypatch):
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
    zero = image_table(DescentOperator({}, 2), states, SHUFFLE)
    assert zero[0].shape == (8, 0) and len(zero[1]) == 0
    assert not operator_matrix(DescentOperator({}, 2), states, SHUFFLE).any()
    # slices of one and of two programs give the same table
    T4 = riffle_operator(3, "-", Decoration.TBAR, 4)
    want = image_table(T4, signed_permutations(4), CONCAT)
    for codes in (384, 768):
        monkeypatch.setattr(descent, "_TABLE_CODES", codes)
        got = image_table(T4, signed_permutations(4), CONCAT)
        assert got[0].flags.f_contiguous and np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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


# ---------------------------------------------------------------------------
# the direct-address state lookup against the binary search

LOOKUP_SPECS = [
    (a, sign, dec) for a in (2, 3) for sign in "+-" for dec in (Decoration.BAR, Decoration.TBAR)
]


def _both_lookups(monkeypatch, fn):
    """fn() with the direct-address lookup of ``StateBasis``, then with
    the binary search, which the bound forces for every basis."""
    try:
        direct = fn()
        monkeypatch.setattr(descent, "_DIRECT_CODES", 0)
        return direct, fn()
    finally:
        monkeypatch.undo()


def _raised(fn):
    with pytest.raises(KeyError) as info:
        fn()
    return info.value.args


def test_direct_lookup_matches_search_image_tables(monkeypatch):
    bases = [signed_permutations(n) for n in (1, 2, 3, 4)] + [all_words(3, 2)]
    for states in bases:
        n = len(states[0])
        lookups = _both_lookups(monkeypatch, lambda: descent.StateBasis(states, n).lookup)
        assert isinstance(lookups[0], np.ndarray) and isinstance(lookups[1], tuple)
        for a, sign, dec in LOOKUP_SPECS:
            T = riffle_operator(a, sign, dec, n)
            for algebra in (SHUFFLE, CONCAT):
                direct, search = _both_lookups(monkeypatch, lambda: image_table(T, states, algebra))
                assert direct[0].dtype == search[0].dtype == np.int32
                assert direct[0].flags.f_contiguous and search[0].flags.f_contiguous
                assert np.array_equal(direct[0], search[0]) and np.array_equal(direct[1], search[1])


def test_direct_lookup_matches_search_eigenvector_matrices(monkeypatch):
    builds = []
    for a, sign, dec in LOOKUP_SPECS:
        for states in [signed_permutations(n) for n in (1, 2, 3, 4)] + [all_words(3, 2)]:
            builds.append(functools.partial(signed_eigenvector_matrix, states, a, sign, dec))
        for n in (1, 2, 3, 4):
            plain = [SignedWord(p) for p in itertools.permutations(range(1, n + 1))]
            builds += [functools.partial(eigenvector_matrix, plain, k, a, sign, dec) for k in range(n + 1)]
    for build in builds:
        direct, search = _both_lookups(monkeypatch, build)
        assert np.array_equal(direct[0], search[0]) and direct[0].dtype == search[0].dtype
        assert np.array_equal(direct[1], search[1]) and direct[2] == search[2]


def test_direct_lookup_refusals_match_search(monkeypatch):
    T = riffle_operator(2, "+", Decoration.BAR, 2)
    states = [W("1 2"), W("-1 2"), W("1 -2")]  # 2 1 and its bars are not states
    direct, search = _both_lookups(
        monkeypatch, lambda: _raised(lambda: image_table(T, states, SHUFFLE))
    )
    assert direct == search and len(direct[0]) == 2 and direct[0] not in states
    # an eigenvector leaving the basis: that of 1 2 1 has other words
    basis = [W("1 2 1")]
    direct, search = _both_lookups(
        monkeypatch, lambda: _raised(lambda: signed_eigenvector_matrix(basis, 2, "+", Decoration.TBAR))
    )
    assert direct == search and len(direct[0]) == 3 and direct[0] not in basis


def test_state_index_refuses_codes_out_of_range(monkeypatch):
    # m = 3, n = 3: codes lie in [0, 343); a label m + 1 = 4 in the top
    # position codes past the range, a label -4 there codes below 0
    states = tuple(signed_permutations(3))
    m, n = 3, 3
    weights = np.array([1, 7, 49], dtype=np.int64)
    decks = np.array([[1, 2, 3], [1, 2, 4], [1, 2, -4]], dtype=np.int64)
    codes = (decks + m) @ weights
    assert codes[1] >= 7**3 and codes[2] < 0

    def refusals():
        basis = descent.StateBasis(states, n)
        assert (basis.m, basis.n) == (m, n)
        assert basis.index_codes(codes[:1]).tolist() == [states.index(W("1 2 3"))]
        return [_raised(lambda: basis.index_codes(codes[k:k + 1])) for k in (1, 2)] + [
            # the first word that is not a state is named, in flat order:
            # here the in-range non-state 1 1 1 before the code below 0
            _raised(lambda: basis.index_codes(np.array([[codes[0], 4 * 57], [codes[2], 0]]))),
            _raised(lambda: basis.index_codes(np.array([-1]))),
        ]

    direct, search = _both_lookups(monkeypatch, refusals)
    assert direct == search
    assert direct[2] == ((1, 1, 1),)


def test_direct_lookup_size_bound(monkeypatch):
    # 2m + 1 = 5 at n = 2: the direct array has 25 entries
    states = tuple(signed_permutations(2))
    T = riffle_operator(3, "-", Decoration.TBAR, 2)
    want = image_table(T, states, SHUFFLE)
    try:
        for bound, direct in ((25, True), (24, False)):
            monkeypatch.setattr(descent, "_DIRECT_CODES", bound)
            lookup = descent.StateBasis(states, 2).lookup
            assert isinstance(lookup, np.ndarray) is direct
            if direct:
                assert lookup.dtype == np.int32 and len(lookup) == 25 and not lookup.flags.writeable
                assert sorted(lookup[lookup >= 0].tolist()) == list(range(8))
            got = image_table(T, states, SHUFFLE)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            with pytest.raises(ValueError):  # a repeated state, on both sides
                descent.StateBasis(states + states[:1], 2)
    finally:
        monkeypatch.undo()


def test_apply_operator_keeps_integral_coefficients_int():
    T = riffle_operator(3, "-", Decoration.TBAR, 3)
    x = AlgebraElement([(W("1 -2 3"), 2), (W("3 1 2"), -1)])
    got = apply_operator(T, x, CONCAT)
    assert got and {type(c) for _, c in got} == {int}
    # a fractional scale that cancels gives ints; one that does not, Fractions
    rescaled = apply_operator(T * Fraction(1, 2), x * 2, CONCAT)
    assert rescaled == got and {type(c) for _, c in rescaled} == {int}
    halves = apply_operator(T, x * Fraction(1, 2), CONCAT)
    assert halves * 2 == got and Fraction in {type(c) for _, c in halves}


def test_apply_operator_huge_coefficients_exact():
    # 256 terms, each 2^53: the accumulator passes int64 (Σ|c_D|·#programs·Σ|c_w|)
    T8 = riffle_operator(3, "+", Decoration.BAR, 8)
    words8 = list(itertools.product((-1, 1), repeat=8))
    got = apply_operator(T8, AlgebraElement((w, 2**53) for w in words8), CONCAT)
    assert got.coeff(SignedWord((-1,) * 8)) == 59096234310355648512
    one = apply_operator(T8, AlgebraElement((w, 1) for w in words8), CONCAT)
    assert got == one * 2**53


def test_apply_operator_wide_labels_exact():
    # 216 terms with labels >= 2^20, whose base-(2m+1) word code would pass
    # int64 without replacing the labels by their ranks
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


def _kernel_cases(case):
    """(T, x) pairs for the kernel of apply_operator."""
    rng = random.Random(str(case))
    TBAR, BAR = Decoration.TBAR, Decoration.BAR

    def element(letters, n, terms, coeffs=(1, 2, 3, -1, -2, -3)):
        return AlgebraElement(
            (tuple(rng.choice(letters) for _ in range(n)), rng.choice(coeffs)) for _ in range(terms)
        )

    if isinstance(case, int):  # the 256 words over ±1, ±2 at a coefficient scale
        words = list(itertools.product((-2, -1, 1, 2), repeat=4))
        x = AlgebraElement((w, case * rng.randint(-3, 3)) for w in words)
        T = riffle_operator(3, "-", TBAR, 4) + DescentOperator.elementary(DC.parse("2t,2")) * 5
        return [(T, x)]
    if case == "fractional":
        x = project_invariant(element((-2, -1, 1, 2), 3, 40), "tau_tilde", "-")
        assert any(c.denominator == 2 for c in x.terms().values())
        T = riffle_operator(2, "+", TBAR, 3) * Fraction(1, 3)
        T = T + DescentOperator.elementary(DC.parse("1t,2")) * Fraction(-5, 2)
        return [(T, x), (T, x * Fraction(2, 7))]
    if case == "zero_operator":
        x = element((-2, -1, 1, 2), 3, 20)
        return [(DescentOperator({}, 3), x), (DescentOperator({DC.parse("1,2b"): 0}, 3), x)]
    if case == "degree0":
        x = AlgebraElement.unit() * 3
        T = DescentOperator({DC(()): 2, DC.parse("0"): -1, DC.parse("0b,0"): 5, DC.parse("0,0b,0"): 1}, 0)
        return [(T, x)]
    if case == "n1":
        x = element((-3, -1, 1, 2), 1, 6)
        return [(riffle_operator(3, "+", TBAR, 1), x), (riffle_operator(2, "-", BAR, 1), x)]
    if case == "a1":
        x = element((-3, -1, 1, 2), 4, 30)
        return [(riffle_operator(1, sign, dec, 4), x) for sign in "+-" for dec in (BAR, TBAR)]
    if case == "labels_2_20":
        x = element((-(2**20 + 3), -(2**20), 2**20 + 1, 2**21), 4, 40)
        return [(riffle_operator(2, "-", TBAR, 4), x), (riffle_operator(3, "+", BAR, 4), x)]
    if case == "labels_2_63":
        x = element((-(2**64 + 5), -(2**63), 3, 2**63, 2**70), 3, 30)
        return [(riffle_operator(2, "-", TBAR, 3), x), (riffle_operator(3, "+", BAR, 3), x)]
    if case == "degree40":  # 3^40 passes int64: the codes are Python integers
        x = element((-1, 1), 40, 3)
        T = DescentOperator.elementary(DC.parse("1,39b"))
        assert len(_programs(DC.parse("1,39b"), SHUFFLE)[0]) == 40
        return [(T, x)]
    if case == "riffle4":
        x = element((-3, -2, -1, 1, 2, 3), 4, 64)
        return [
            (riffle_operator(a, sign, dec, 4), x)
            for a in (1, 2, 3)
            for sign in "+-"
            for dec in (BAR, TBAR)
        ]
    raise ValueError(case)


@pytest.mark.parametrize(
    "case",
    [1, 2**40, 2**62, -(2**70)]
    + ["fractional", "zero_operator", "degree0", "n1", "a1", "labels_2_20", "labels_2_63", "degree40", "riffle4"],
)
def test_array_path_matches_word_path(case):
    # the kernel against the word-by-word accumulation of the reference
    # tables; the scales put the sums below and above the int64 edge
    for T, x in _kernel_cases(case):
        for algebra in (SHUFFLE, CONCAT):
            want = {}
            for D, cD in T.terms.items():
                action = _reference_action(D, algebra)
                for w, cw in x:
                    for out in action(w):
                        want[out] = want.get(out, 0) + cD * cw
            assert apply_operator(T, x, algebra) == AlgebraElement(want), (case, T.to_json(), algebra)


def _reference_image_codes(W, m, src, sign):
    """The gather kernel that preceded the W·C product: one pass over the
    N×P codes per position."""
    n = W.shape[1]
    powers = np.array([(2 * m + 1) ** k for k in range(n)], dtype=W.dtype)
    codes = np.full((len(W), len(src)), m * sum(powers.tolist()), dtype=W.dtype)
    scaled = sign.astype(W.dtype) * powers
    for k in range(n):
        term = W[:, src[:, k]]
        term *= scaled[:, k]
        codes += term
    return codes


def _reference_merge_codes(codes, sums):
    """The argsort merge that preceded the packed-key sort."""
    order = np.argsort(codes)
    codes, sums = codes[order], sums[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    sums = np.add.reduceat(sums, starts)
    keep = sums != 0
    return codes[starts][keep], sums[keep]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_image_codes_match_the_gather_reference(dtype):
    rng = np.random.default_rng(3)
    for D, m in ((DC.parse("2b,1,3"), 4), (DC.parse("1t,0,2,2t"), 2), (DC.parse("0"), 1)):
        W = rng.integers(-m, m + 1, size=(7, D.total)).astype(dtype)
        for algebra in (SHUFFLE, CONCAT):
            src, sign = _programs(D, algebra)
            got = descent._image_codes(W, m, src, sign)
            want = _reference_image_codes(W, m, src, sign)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all(), (str(D), algebra)


def _random_programs(rng, P, n):
    src = np.array([rng.permutation(n) for _ in range(P)], dtype=np.intp).reshape(P, n)
    return src, rng.choice([-1, 1], size=(P, n))


@pytest.mark.parametrize(
    "n,m,rows,dtype",
    [
        (5, 5, descent._BLAS_CODES // 8 - 1, np.int64),  # N·P just below the cut: numpy's int64 matmul
        (5, 5, descent._BLAS_CODES // 8, np.int64),  # at the cut: exactla.exact_product
        (5, 5, 700, np.int64),  # float64 tiles of 256 rows, the last one short
        (34, 1, 200, np.int64),  # 3^34 > 2^53, but every partial sum is below (3^34 − 1)/2 < 2^53: float64
        (35, 1, 200, np.int64),  # (3^35 − 1)/2 > 2^53: int64
        (5, 5, descent._BLAS_CODES // 8, object),
    ],
)
def test_image_codes_match_the_gather_reference_on_both_sides_of_the_cuts(monkeypatch, n, m, rows, dtype):
    assert (3**34 - 1) // 2 < 2**53 < (3**35 - 1) // 2
    rng = np.random.default_rng(n + rows)
    src, sign = _random_programs(rng, 8, n)
    W = rng.integers(-m, m + 1, size=(rows, n)).astype(dtype)
    W[0] = m  # the largest code and the largest partial sums
    calls = []
    product = descent.exact_product
    monkeypatch.setattr(descent, "exact_product", lambda X, Y: calls.append(1) or product(X, Y))
    got = descent._image_codes(W, m, src, sign)
    want = _reference_image_codes(W, m, src, sign)
    assert bool(calls) is (dtype is np.int64 and rows * 8 >= descent._BLAS_CODES)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def test_merge_codes_at_the_packed_key_bound():
    # 1000 codes: b = 10, so the packed keys fit exactly when limit ≤ 2^53;
    # the largest code, limit − 1, is present on both sides of the bound
    rng = np.random.default_rng(9)
    for limit in (2**53, 2**53 + 1, 2**62, 7):
        codes = rng.integers(0, limit, size=1000, dtype=np.int64)
        codes[::7] = limit - 1
        codes[1::7] = 0
        sums = rng.integers(-2, 3, size=1000)
        want = _reference_merge_codes(codes.copy(), sums.copy())
        got = descent._merge_codes(codes.copy(), sums.copy(), limit)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all(), limit
    # object codes and sums: the argsort path
    codes = np.array([2**70, 5, 2**70, 3, 5], dtype=object)
    sums = np.array([2**64, 1, -(2**64), 2, 2], dtype=object)
    got = descent._merge_codes(codes, sums, 2**71)
    assert got[0].tolist() == [3, 5] and got[1].tolist() == [2, 3]


def _merge_both(codes, sums, limit, monkeypatch):
    """(_merge_codes, whether it took the argsort path), against the reference."""
    want = _reference_merge_codes(codes.copy(), sums.copy())
    argsorts = []
    with monkeypatch.context() as mp:
        argsort = np.argsort
        mp.setattr(np, "argsort", lambda a, *args, **kw: argsorts.append(1) or argsort(a, *args, **kw))
        got = descent._merge_codes(codes.copy(), sums.copy(), limit)
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist(), limit
    return got, bool(argsorts)


def test_merge_codes_at_the_dense_cut(monkeypatch):
    # the dense accumulator runs while limit ≤ 4·len(codes), the largest
    # code limit − 1 present on both sides of the cut
    rng = np.random.default_rng(5)
    for size in (1, 4, 250, 1000):
        codes = rng.integers(0, 4 * size, size=size, dtype=np.int64)
        codes[::3] = 0
        codes[-1] = 4 * size - 1
        sums = rng.integers(-2, 3, size=size)
        assert not _merge_both(codes, sums, 4 * size, monkeypatch)[1]
        assert _merge_both(codes, sums, 4 * size + 1, monkeypatch)[1]


def test_merge_codes_edge_sums(monkeypatch):
    for limit in (16, 17):  # dense, then argsort
        # every sum cancels: the result is empty, and int64
        (codes, sums), _ = _merge_both(
            np.array([4, 4, 1, 1], dtype=np.int64), np.array([3, -3, -2, 2], dtype=np.int64), limit, monkeypatch
        )
        assert codes.dtype == sums.dtype == np.int64 and len(codes) == len(sums) == 0
        # Σ|sums| = 2^63 − 1, the largest L1 bound a caller proves for int64
        for s in (1, -1):
            sums = np.array([2**62, 2**62 - 2, 1, 0], dtype=np.int64) * s
            (codes, sums), _ = _merge_both(np.array([7, 7, 0, 2], dtype=np.int64), sums, limit, monkeypatch)
            assert codes.tolist() == [0, 7] and sums.tolist() == [s, s * (2**63 - 2)]
    # int64 codes with object sums take the argsort path at any limit
    codes = np.array([3, 1, 3, 0, 1], dtype=np.int64)
    sums = np.array([2**70, 5, -(2**70), 2**64, 1], dtype=object)
    (codes, sums), argsorted = _merge_both(codes, sums, 4, monkeypatch)
    assert argsorted and codes.tolist() == [0, 1] and sums.tolist() == [2**64, 6]


def _python_ranking(words, n):
    """The ranking by a set, a sort and a dict of the labels, which the
    numpy ranking of ``_ranked_words`` replaced."""
    labels = sorted({abs(c) for w in words for c in w})
    rank = {}
    for r, label in enumerate(labels, 1):
        rank[label], rank[-label] = r, -r
    return labels, [[rank[c] for c in w] for w in words]


@pytest.mark.parametrize("top", [3, 2**62, 2**63 - 1, 2**63, 2**70])
def test_ranked_words_match_the_python_ranking(top):
    # labels up to 2^63 − 1 rank in numpy, and past it (or at −2^63) in Python
    rng = random.Random(top)
    pool = [1, 2, top - 1, top] + [rng.randrange(1, top + 1) for _ in range(5)]
    words = [tuple(rng.choice(pool) * rng.choice((-1, 1)) for _ in range(5)) for _ in range(40)]
    words.append((1, -top, top, -1, 2))
    labels, W = descent._ranked_words(words, 5)
    want_labels, want_W = _python_ranking(words, 5)
    assert labels == want_labels and W.tolist() == want_W
    assert W.dtype == np.int64 and all(type(c) is int for c in labels)
    # an order-preserving relabelling past int64 keeps every rank
    shifted = [tuple(c + 2**70 if c > 0 else c - 2**70 for c in w) for w in words]
    labels70, W70 = descent._ranked_words(shifted, 5)
    assert labels70 == [c + 2**70 for c in labels] and W70.tolist() == W.tolist()


def test_ranked_words_edges():
    labels, W = descent._ranked_words([(-(2**63), 2**63 - 1)], 2)
    assert labels == [2**63 - 1, 2**63] and W.tolist() == [[-2, 1]]
    labels, W = descent._ranked_words([()], 0)
    assert labels == [] and W.shape == (1, 0)
    labels, W = descent._ranked_words([(1, -1) * 20], 40)  # 3^40 passes int64: object ranks
    assert labels == [1] and W.dtype == object and W.tolist() == [[1, -1] * 20]


@pytest.mark.parametrize("case", [2**53, 2**70, "fractional", "labels_2_20", "labels_2_63", "degree40", "riffle4"])
def test_apply_operator_matches_the_reference_kernels(case, monkeypatch):
    # 2^53 and 2^70 put the sums on both sides of int64; degree 40 codes
    # in Python integers, where (2R+1)^n passes 2^63
    for T, x in _kernel_cases(case):
        for algebra in (SHUFFLE, CONCAT):
            got = apply_operator(T, x, algebra)
            with monkeypatch.context() as mp:
                mp.setattr(descent, "_image_codes", _reference_image_codes)
                mp.setattr(descent, "_merge_codes", lambda codes, sums, limit: _reference_merge_codes(codes, sums))
                want = apply_operator(T, x, algebra)
            assert got == want, (case, algebra)


def _definition(D, w, algebra):
    """m∘Δ_D on the word w, from the Hopf structures of algebra.py: split,
    apply the involution to the decorated slots, multiply."""
    involution = {Decoration.PLAIN: lambda u: u, Decoration.BAR: tau, Decoration.TBAR: tau_tilde}
    decorations = [d for _, d in D.parts]
    if algebra == SHUFFLE:
        splits = [deconcatenate(w, D.undecorate())]
    else:
        splits = deshuffle(w, D.undecorate())
    out = AlgebraElement.zero()
    for blocks in splits:
        slots = [involution[d](u) for u, d in zip(blocks, decorations)]
        out = out + (shuffle_product(slots) if algebra == SHUFFLE else concat_elements(*slots))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_apply_elementary_matches_definition(n):
    # every decorated weak composition of n into at most 4 parts, zero parts
    # included, on a word with repeated labels and letters
    w = W("2 -1 2 1")[:n]
    Ds = {
        DC.from_sizes(sizes, [i for i in range(parts) if mask[i]], flavor)
        for parts in range(1, 5)
        for sizes in compositions(n, parts)
        for flavor in (Decoration.BAR, Decoration.TBAR)
        for mask in itertools.product((False, True), repeat=parts)
    }
    for D in Ds:
        for algebra in (SHUFFLE, CONCAT):
            assert apply_elementary(D, w, algebra) == _definition(D, w, algebra), (str(D), algebra)


def test_program_tables_are_read_only():
    D = DC.parse("1,2t")
    for algebra in (SHUFFLE, CONCAT):
        src, sign = _programs(D, algebra)
        assert src.shape == sign.shape == (3, 3)
        assert _programs(D, algebra)[0] is src
        with pytest.raises(ValueError):
            src[0, 0] = 1
        with pytest.raises(ValueError):
            sign[0] = -1


def test_empty_parts_share_one_program_table():
    bare = DC.parse("3t,2")
    padded = [DC.parse(text) for text in ("0,3t,2", "3t,0,2,0", "0,0,3t,0,2")]
    assert all(_piles(D) == bare for D in padded)
    w = W("3 -1 2 -5 4")
    for algebra in (SHUFFLE, CONCAT):
        table = _programs(_piles(bare), algebra)
        assert all(_programs(_piles(D), algebra) is table for D in padded)
        misses = _programs.cache_info().misses
        for D in padded:
            assert apply_elementary(D, w, algebra) == apply_elementary(bare, w, algebra)
            apply_operator(DescentOperator.elementary(D), w, algebra)
            image_table(DescentOperator.elementary(D), signed_permutations(5), algebra)
        assert _programs.cache_info().misses == misses


def _reference_programs(D, algebra):
    """The per-split program compiler that preceded the pile-label kernel:
    the concat algebra reads block i of each split as input positions, the
    shuffle algebra writes slot i of the deconcatenation to block i."""
    sizes = D.undecorate()
    n = D.total
    signs = [1 if d is Decoration.PLAIN else -1 for _, d in D.parts]
    flips = [d is Decoration.TBAR for _, d in D.parts]
    slots = []
    for start, s, flip in zip(itertools.accumulate(sizes, initial=0), sizes, flips):
        block = range(start, start + s)
        slots.append(block[::-1] if flip else block)
    concat_sign = [g for g, s in zip(signs, sizes) for _ in range(s)]
    src_rows, sign_rows = [], []
    for split in _position_splits(n, sizes):
        if algebra == CONCAT:
            src_rows.append(
                [p for chosen, flip in zip(split, flips) for p in (chosen[::-1] if flip else chosen)]
            )
            sign_rows.append(concat_sign)
        else:
            src = [0] * n
            sign = [0] * n
            for chosen, slot, g in zip(split, slots, signs):
                for p, q in zip(chosen, slot):
                    src[p] = q
                    sign[p] = g
            src_rows.append(src)
            sign_rows.append(sign)
    src = np.array(src_rows, dtype=np.intp).reshape(len(src_rows), n)
    sign = np.array(sign_rows, dtype=np.int64).reshape(len(sign_rows), n)
    return src, sign


def test_program_tables_match_the_per_split_reference():
    Ds = [D for n in range(6) for flavor in (Decoration.BAR, Decoration.TBAR)
          for D in decorated_compositions(n, flavor)]
    assert len(Ds) == 484
    # the riffle operators' weak compositions: empty piles included
    Ds += [D for a in (1, 2, 3, 4) for n in range(6) for sign in "+-"
           for flavor in (Decoration.BAR, Decoration.TBAR)
           for D in riffle_operator(a, sign, flavor, n).terms]
    for D in Ds:
        for algebra in (SHUFFLE, CONCAT):
            src, sign = _programs(_piles(D), algebra)
            want_src, want_sign = _reference_programs(D, algebra)
            assert src.dtype == want_src.dtype and sign.dtype == want_sign.dtype
            assert src.shape == want_src.shape and sign.shape == want_sign.shape, (str(D), algebra)
            assert (src == want_src).all() and (sign == want_sign).all(), (str(D), algebra)


def _reference_label_programs(labels, pile_sign, pile_flip):
    """The per-pile cumsum kernel that preceded the dealing order: pile i
    holds the next (count of label i) input positions, start_i to end_i − 1,
    and output position p, the (k+1)-th labelled i, takes start_i + k, or
    end_i − 1 − k when pile_flip[i], with sign pile_sign[i]."""
    src = np.zeros(labels.shape, dtype=np.intp)
    start = np.zeros((len(labels), 1), dtype=np.intp)
    for i, flip in enumerate(pile_flip):
        hit = labels == i
        rank = hit.cumsum(1)  # k + 1 at the positions of pile i
        end = start + rank[:, -1:]
        if flip:
            np.subtract(end, rank, out=rank)
        else:
            rank += start - 1
        rank *= hit
        src += rank
        start = end
    return src, pile_sign[labels]


def _dealt_programs(labels, pile_sign, pile_flip):
    """(src, sign) through the dealing order: the j-th card of the cut, w[j],
    is dealt to the j-th position of the order."""
    pile_flip = np.array(pile_flip, dtype=bool)
    piles, order = _dealing_order(labels, len(pile_sign), lambda p: pile_flip[p])
    n = labels.shape[1]
    return _deal(order, np.arange(n, dtype=np.intp)), _deal(order, pile_sign[piles])


def test_label_programs_deal_each_pile_in_order():
    # one row: piles 0, 1, 2 of sizes 2, 1, 3 read w = 0..5 as 01 | 2 | 345;
    # pile 1 is barred, pile 2 barred and dealt from its end
    labels = np.array([[2, 0, 2, 1, 0, 2]])
    for kernel in (_dealt_programs, _reference_label_programs):
        src, sign = kernel(labels, np.array([1, -1, -1]), [False, False, True])
        assert src.tolist() == [[5, 0, 4, 2, 1, 3]]
        assert sign.tolist() == [[-1, 1, -1, -1, 1, -1]]


@pytest.mark.parametrize(
    "a, n",
    [(a, n) for a in (1, 2, 3, 5, 12) for n in (1, 2, 5, 52)] + [(700, 52)],  # a > n leaves piles empty
)
def test_dealing_order_matches_the_per_pile_cumsum_reference(a, n):
    rng = np.random.default_rng(a * 100 + n)
    # a·n >= 2^15 widens the keys past int16
    assert (_dealing_order(np.zeros((1, n), dtype=np.int32), a)[1].dtype == np.int64) == (a * n >= 2**15)
    pile_sign = rng.choice([-1, 1], size=a)
    for R in (1, 500):
        labels = rng.integers(0, a, size=(R, n), dtype=np.int32)
        for pile_flip in ([False] * a, [i % 2 == 1 for i in range(a)], [True] * a):
            src, sign = _dealt_programs(labels, pile_sign, pile_flip)
            want_src, want_sign = _reference_label_programs(labels, pile_sign, pile_flip)
            assert src.dtype == want_src.dtype and (src == want_src).all(), (R, pile_flip[:2])
            assert (sign == want_sign).all()


# ---------------------------------------------------------------------------
# the dtype of operator_matrix: the narrowest that holds Σ_D |c_D|·#programs(D)

def _int64_operator_matrix(T, states, algebra):
    """Reference: the image table summed by np.add.at into an int64 matrix."""
    images, coeffs = image_table(T, states, algebra)
    M = np.zeros((len(images), len(images)), dtype=np.int64)
    np.add.at(M, (np.arange(len(images))[:, None], images), coeffs)
    return M


def _narrowest(bound):
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


@pytest.mark.parametrize("a, sign, dec", LOOKUP_SPECS)
def test_operator_matrix_is_the_int64_matrix_in_the_narrowest_dtype(a, sign, dec):
    for n in (1, 2, 3, 4):
        T = riffle_operator(a, sign, dec, n)
        states = signed_permutations(n)
        for algebra in (SHUFFLE, CONCAT):
            M = operator_matrix(T, states, algebra)
            assert M.dtype == _narrowest(a**n) == np.int8
            assert (M == _int64_operator_matrix(T, states, algebra)).all(), (n, algebra)


# n = 1: the programs of 1, 1,0 and 0,1 all keep the one letter, so the
# diagonal entries reach the bound Σ|c_D|·#programs(D) itself
@pytest.mark.parametrize(
    "coeffs, dtype",
    [
        ((100, 27, 0), np.int8),
        ((-100, 0, -28), np.int16),
        ((2**15 - 1, 0, 0), np.int16),
        ((2**14, -(2**14), 0), np.int32),
        ((2**31 - 2, 0, 1), np.int32),
        ((2**30, 2**30, 0), np.int64),
        ((2**62, 2**62 - 1, 0), np.int64),
    ],
)
def test_operator_matrix_dtype_edges(coeffs, dtype):
    T = DescentOperator(dict(zip((DC.parse("1"), DC.parse("1,0"), DC.parse("0,1")), coeffs)), 1)
    states = signed_permutations(1)
    for algebra in (SHUFFLE, CONCAT):
        M = operator_matrix(T, states, algebra)
        assert M.dtype == dtype
        assert M.tolist() == [[sum(coeffs), 0], [0, sum(coeffs)]]


@pytest.mark.parametrize("bound", [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31])
@pytest.mark.parametrize("a, sign, dec", [(3, "+", Decoration.BAR), (2, "-", Decoration.TBAR)])
def test_operator_matrix_dtype_edges_of_a_scaled_riffle(bound, a, sign, dec):
    # k·(a^2 programs) plus r·(the one program of 2): Σ|c_D|·#programs(D) = bound
    k, r = divmod(bound, a**2)
    T = k * riffle_operator(a, sign, dec, 2) + DescentOperator({DC.parse("2"): r}, 2)
    states = signed_permutations(2)
    for algebra in (SHUFFLE, CONCAT):
        M = operator_matrix(T, states, algebra)
        assert M.dtype == _narrowest(bound)
        assert (M == _int64_operator_matrix(T, states, algebra)).all()


def test_operator_matrix_refuses_entries_past_int64():
    states = signed_permutations(2)
    # Σ|c_D|·#programs = 2^62 + 2·2^62: the diagonal, 2^62 + 2^62, used to wrap to −2^63
    wrap = DescentOperator({DC.parse("2"): 2**62, DC.parse("1,1"): 2**62}, 2)
    edge = DescentOperator({DC.parse("2"): 1, DC.parse("1,1"): 2**62 - 1}, 2)  # 2^63 − 1
    huge = DescentOperator({DC.parse("2"): 2**63}, 2)
    for algebra in (SHUFFLE, CONCAT):
        for T in (wrap, huge, -1 * huge, 2**62 * riffle_operator(2, "+", Decoration.BAR, 2)):
            with pytest.raises(CodeOverflow):
                operator_matrix(T, states, algebra)
        M = operator_matrix(edge, states, algebra)
        assert M.dtype == np.int64 and (M == _int64_operator_matrix(edge, states, algebra)).all()
        assert int(M.max()) == 2**62
    with pytest.raises(CodeOverflow):  # not an untyped OverflowError
        image_table(huge, states, SHUFFLE)
    low = DescentOperator({DC.parse("2"): -(2**63)}, 2)
    assert image_table(low, states, SHUFFLE)[1].tolist() == [-(2**63)]
