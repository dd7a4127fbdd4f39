import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import (
    CONCAT,
    AlgebraElement,
    BadCount,
    CodeOverflow,
    Decoration,
    EmptyWord,
    NotLyndon,
    OutsideBasis,
    SignedWord,
    SingleLetter,
    all_words,
    apply_operator,
    build_eigenvector,
    classify_primitive,
    concat_elements,
    distinct_letter_words,
    eigenbasis,
    eigenvector_matrix,
    is_lyndon,
    is_primitive,
    letter_key,
    lie_bracket,
    lyndon_factorize,
    lyndon_words,
    primitive_dimensions,
    riffle_operator,
    shuffle_multiplicities,
    signed_permutations,
    standard_factorization,
    stdbrac,
    tau,
    tau_tilde,
)
from hyperoct import descent, lyndon
from hyperoct.lyndon import _combine
from hyperoct.words import word_lex_key
from hyperoct.verify import ALL_SPECS, _int_vector
from conftest import W, eigenvector_matrix_by_rows, signed_eigenvector_matrix

letters = st.integers(min_value=-3, max_value=3).filter(bool)
words = st.lists(letters, min_size=1, max_size=8).map(SignedWord)


def brute_is_lyndon(w):
    k = tuple(letter_key(c) for c in w)
    return all(k < k[i:] + k[:i] for i in range(1, len(k)))


def test_is_lyndon_paper_examples():
    assert is_lyndon(W("-1 6 -7 -2"))
    assert not is_lyndon(W("-5 3"))
    assert not is_lyndon(W("3 -5 3 -5"))
    assert is_lyndon(W("4"))
    assert is_lyndon(W("-4"))
    with pytest.raises(EmptyWord):
        is_lyndon(SignedWord())


def test_factorize_paper_example():
    got = lyndon_factorize(W("-4 3 5 -1 6 -7 -2"))
    assert got == (W("-4"), W("3 5"), W("-1 6 -7 -2"))


@given(words)
@settings(max_examples=150)
def test_factorize_properties(w):
    factors = lyndon_factorize(w)
    assert SignedWord(c for f in factors for c in f) == w
    assert all(is_lyndon(f) for f in factors)
    keys = [tuple(letter_key(c) for c in f) for f in factors]
    assert all(keys[i] >= keys[i + 1] for i in range(len(keys) - 1))
    if is_lyndon(w):
        assert factors == (w,)


def test_factors_start_at_left_to_right_minima():
    # distinct-letter words: factors begin exactly at left-to-right minima
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        labels = rng.sample(range(1, 8), n)
        w = SignedWord(rng.choice((-1, 1)) * v for v in labels)
        starts = []
        pos = 0
        for f in lyndon_factorize(w):
            starts.append(pos)
            pos += len(f)
        minima = [
            i
            for i in range(n)
            if all(letter_key(w[j]) > letter_key(w[i]) for j in range(i))
        ]
        assert starts == minima


def test_standard_factorization():
    assert standard_factorization(W("-1 6 -7 -2")) == (W("-1 6 -7"), W("-2"))
    assert standard_factorization(W("-1 6 -7")) == (W("-1"), W("6 -7"))
    assert standard_factorization(W("3 5")) == (W("3"), W("5"))
    with pytest.raises(SingleLetter):
        standard_factorization(W("3"))
    with pytest.raises(NotLyndon):
        standard_factorization(W("-5 3"))


@functools.cache
def reference_stdbrac(u):
    """The signed standard bracketing by the AlgebraElement recursion:
    i ↦ i+ī, ī ↦ i−ī, else [left, right] by ``lie_bracket``."""
    if len(u) == 1:
        c = abs(u[0])
        return AlgebraElement([((c,), 1), ((-c,), 1 if u[0] > 0 else -1)])
    left, right = standard_factorization(u)
    return lie_bracket(reference_stdbrac(left), reference_stdbrac(right))


STDBRAC_WORDS = [u for d in range(1, 5) for u in lyndon_words(3, d)] + [
    SignedWord((2**70,)),
    SignedWord((-(2**70),)),
    SignedWord((2**70, -(2**70) - 1)),
    SignedWord((-(2**70), 2**70, 2**70 + 5, -(2**70) - 1)),
]


def test_stdbrac_matches_the_reference_recursion():
    assert len(STDBRAC_WORDS) > 100
    for u in STDBRAC_WORDS:
        assert stdbrac(u) == reference_stdbrac(u), u


def test_stdbrac_on_python_integer_codes_and_coefficients(monkeypatch):
    # an increasing word of 17 labels codes past int64, but its bracketing
    # has 2^33 terms; forcing Python-integer codes runs the same path on
    # short words, and a lowered L1 bound forces Python-integer coefficients
    cases = [u for u in STDBRAC_WORDS[::5] if len(u) > 1] + [W("1 2 3 4 5")]
    real = lyndon._letter_brackets
    for name, value in (("_code_dtype", lambda m, n: object), ("_INT64_MAX", 1)):
        seeds = []  # (code dtype, coefficient dtype) of each assembly run
        monkeypatch.setattr(lyndon, "_letter_brackets", lambda *args: seeds.append(args[2:]) or real(*args))
        monkeypatch.setattr(lyndon, name, value)
        for u in cases:
            assert stdbrac(u) == reference_stdbrac(u), u
            assert seeds[-1] == ((object, np.int64) if name == "_code_dtype" else (np.int64, object)), u
        monkeypatch.undo()


def test_stdbrac_refusals():
    with pytest.raises(EmptyWord):
        stdbrac(SignedWord())
    with pytest.raises(NotLyndon):
        stdbrac(W("2 1"))


def test_stdbrac_base_cases():
    assert stdbrac(W("-1")) == AlgebraElement([(W("1"), 1), (W("-1"), -1)])
    assert stdbrac(W("1")) == AlgebraElement([(W("1"), 1), (W("-1"), 1)])


def test_stdbrac_two_letters():
    got = stdbrac(W("6 -7"))
    assert len(got) == 8
    assert set(got.terms().values()) <= {1, -1}
    # [6+6bar, 7-7bar]
    assert got.coeff(W("6 7")) == 1
    assert got.coeff(W("6 -7")) == -1
    assert got.coeff(W("7 6")) == -1
    assert got.coeff(W("-7 -6")) == 1


# the first eight monomials of each displayed group of stdbrac(1bar 6 7bar 2bar)
PAPER_STDBRAC_TERMS = {
    "1 6 7 2": 1, "1 6 -7 2": -1, "1 -6 7 2": 1, "1 -6 -7 2": -1,
    "1 7 6 2": -1, "1 7 -6 2": -1, "1 -7 6 2": 1, "1 -7 -6 2": 1,
    "-1 6 7 2": -1, "-1 6 -7 2": 1, "-1 -6 7 2": -1, "-1 -6 -7 2": 1,
    "-1 7 6 2": 1, "-1 7 -6 2": 1, "-1 -7 6 2": -1, "-1 -7 -6 2": -1,
    "6 7 1 2": -1, "6 -7 1 2": 1, "-6 7 1 2": -1, "-6 -7 1 2": 1,
    "7 6 1 2": 1, "7 -6 1 2": 1, "-7 6 1 2": -1, "-7 -6 1 2": -1,
    "6 7 -1 2": 1, "6 -7 -1 2": -1, "-6 7 -1 2": 1, "-6 -7 -1 2": -1,
    "7 6 -1 2": -1, "7 -6 -1 2": -1, "-7 6 -1 2": 1, "-7 -6 -1 2": 1,
    "1 6 7 -2": -1, "1 6 -7 -2": 1, "1 -6 7 -2": -1, "1 -6 -7 -2": 1,
    "2 1 6 7": -1, "2 1 6 -7": 1, "2 1 -6 7": -1, "2 1 -6 -7": 1,
    "-2 1 6 7": 1, "-2 1 6 -7": -1, "-2 1 -6 7": 1, "-2 1 -6 -7": -1,
}


def test_stdbrac_128_term_example():
    got = stdbrac(W("-1 6 -7 -2"))
    assert len(got) == 128
    assert set(got.terms().values()) == {1, -1}
    for text, coeff in PAPER_STDBRAC_TERMS.items():
        assert got.coeff(W(text)) == coeff, text
    assert is_primitive(got, CONCAT)


def test_classify_primitive_paper_examples():
    assert classify_primitive(W("3 5"), Decoration.BAR) == "invariant"
    assert classify_primitive(W("-1 6 -7 -2"), Decoration.BAR) == "negating"
    assert classify_primitive(W("-4"), Decoration.TBAR) == "negating"
    assert classify_primitive(W("-3 5"), Decoration.TBAR) == "invariant"
    assert classify_primitive(W("-4"), Decoration.BAR) == "negating"
    with pytest.raises(NotLyndon):
        classify_primitive(W("-5 3"), Decoration.BAR)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classification_matches_involution_action(d):
    for u in lyndon_words(2, d):
        b = stdbrac(u)
        assert is_primitive(b, CONCAT)
        for flavor, sigma in ((Decoration.BAR, tau), (Decoration.TBAR, tau_tilde)):
            want = 1 if classify_primitive(u, flavor) == "invariant" else -1
            assert sigma(b) == want * b, (u, flavor)


# ---------------------------------------------------------------------------
# the AlgebraElement eigenvector assembly, the reference of the coded one


def symmetrized_product(ps):
    """Sum over all k! orders of the concatenation product of the ps."""
    if not ps:
        return AlgebraElement.unit()
    acc = AlgebraElement.zero()
    for perm in itertools.permutations(ps):
        acc = acc + concat_elements(*perm)
    return acc


def _product(elts):
    return concat_elements(*elts) if elts else AlgebraElement.unit()


def reference_eigenvector(w, a, sign, flavor, tilde_plus_format="left"):
    """The eigenvector of w and its eigenvalue, assembled from the
    bracketings of its Lyndon factors as AlgebraElements.  For the flip
    flavor with odd a and sign '+', "right" puts the negating product on
    the right of the symmetrized one, an equivalent eigenvector."""
    if not w:
        raise EmptyWord("no eigenvector for the empty word")
    ps, qs = [], []
    for u in lyndon_factorize(w):
        (ps if classify_primitive(u, flavor) == "invariant" else qs).append(reference_stdbrac(u))
    k, kbar = len(ps), len(qs)
    sym = symmetrized_product(ps)
    even = a % 2 == 0
    if flavor is Decoration.TBAR:
        if even:
            if sign == "+":
                vec = concat_elements(sym, _product(qs)) if kbar else sym
            else:
                vec = concat_elements(_product(qs), sym) if kbar else sym
            return vec, a**k if kbar == 0 else 0
        if sign == "+":
            if tilde_plus_format == "left":
                vec = concat_elements(_product(qs), sym) if kbar else sym
            else:
                vec = concat_elements(sym, _product(qs)) if kbar else sym
            return vec, a**k
        # odd a, sign '-': ascending product left of sym plus descending right
        # of sym (the ascending/ascending form is not an eigenvector)
        if kbar:
            vec = concat_elements(_product(qs), sym) + concat_elements(sym, _product(qs[::-1]))
        else:
            vec = sym
        return vec, (-1) ** kbar * a**k
    if even:
        if kbar:
            raise OutsideBasis(f"{w} has rotation-negating Lyndon factors")
        return sym, a**k
    acc = AlgebraElement.zero()
    for mask in itertools.product((0, 1), repeat=kbar):
        left = _product([q for q, side in zip(qs, mask) if side == 0])
        right = _product([q for q, side in zip(qs, mask) if side == 1][::-1])
        acc = acc + concat_elements(left, sym, right)
    return acc, a**k if sign == "+" else (-1) ** kbar * a**k


def test_symmetrized_product():
    p = stdbrac(W("1"))
    assert symmetrized_product([p]) == p
    q = stdbrac(W("2"))
    assert symmetrized_product([p, q]) == concat_elements(p, q) + concat_elements(q, p)
    # every signed permutation word of {1,2,3} has coefficient 1
    sym = symmetrized_product([stdbrac(W(str(i))) for i in (1, 2, 3)])
    for w in signed_permutations(3):
        assert sym.coeff(w) == 1


def test_build_eigenvector_rotation_paper_example():
    w = W("-4 3 5 -1 6 -7 -2")
    vec, value = build_eigenvector(w, 3, "+", Decoration.BAR)
    assert value == 3
    p1 = reference_stdbrac(W("3 5"))
    q1 = reference_stdbrac(W("-4"))
    q2 = reference_stdbrac(W("-1 6 -7 -2"))
    want = (
        concat_elements(q1, q2, p1)
        + concat_elements(q1, p1, q2)
        + concat_elements(q2, p1, q1)
        + concat_elements(p1, q2, q1)
    )
    assert vec == want


def test_build_eigenvector_flip_example_eigenvalue():
    # the governing theorem gives (-1)^kbar * a^k = -9 here (k = 2, kbar = 1)
    w = W("-4 -3 5 -1 6 -7 -2")
    vec, value = build_eigenvector(w, 3, "-", Decoration.TBAR)
    assert value == -9
    T = riffle_operator(3, "-", Decoration.TBAR, 7)
    assert apply_operator(T, vec, CONCAT) == value * vec


def test_build_eigenvector_flip_even_zero():
    w = W("-4 -3 5 -1 6 -7 -2")
    vec, value = build_eigenvector(w, 2, "+", Decoration.TBAR)
    assert value == 0
    T = riffle_operator(2, "+", Decoration.TBAR, 7)
    assert apply_operator(T, vec, CONCAT) == AlgebraElement.zero()


def test_all_singleton_factor_eigenvector():
    # the decreasing word n..1 factorizes into n single positive letters,
    # so every operator assigns it the symmetrized product at eigenvalue a^n
    # (the increasing word 1..n is itself Lyndon: one factor, eigenvalue a)
    for flavor in (Decoration.BAR, Decoration.TBAR):
        for a, sign in ((2, "+"), (3, "-")):
            vec, value = build_eigenvector(W("3 2 1"), a, sign, flavor)
            assert value == a**3
            assert vec == symmetrized_product([stdbrac(W(str(i))) for i in (3, 2, 1)])
            _, one_factor = build_eigenvector(W("1 2 3"), a, sign, flavor)
            assert one_factor == a


def test_outside_basis():
    with pytest.raises(OutsideBasis):
        build_eigenvector(W("-1 2"), 2, "+", Decoration.BAR)


def test_degree_one_eigenbasis():
    got = eigenbasis(1, 1, 2, "+", Decoration.TBAR)
    vecs = {str(vec) for _, vec, _ in got}
    assert len(got) == 2
    assert {v for _, v, _ in got} == {
        AlgebraElement([(W("1"), 1), (W("-1"), 1)]),
        AlgebraElement([(W("1"), 1), (W("-1"), -1)]),
    }


def test_eigenbasis_n2_flip_counts():
    got = eigenbasis(2, 2, 2, "+", Decoration.TBAR)
    # only the 8 signed permutations of {1, 2}
    assert len(got) == 8
    from collections import Counter

    counts = Counter(v for _, _, v in got)
    assert counts == {4: 1, 2: 2, 0: 5}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigen_equations_all_configs(n):
    states = signed_permutations(n)
    for a in (2, 3):
        for sign in ("+", "-"):
            for flavor in (Decoration.BAR, Decoration.TBAR):
                T = riffle_operator(a, sign, flavor, n)
                emitted = eigenbasis(n, n, a, sign, flavor)
                for w, vec, mu in emitted:
                    assert apply_operator(T, vec, CONCAT) == mu * vec


def test_tilde_plus_alternate_format():
    w = W("-1 2 -3")
    left, lval = build_eigenvector(w, 3, "+", Decoration.TBAR)
    assert (left, lval) == reference_eigenvector(w, 3, "+", Decoration.TBAR, "left")
    right, rval = reference_eigenvector(w, 3, "+", Decoration.TBAR, "right")
    assert lval == rval
    T = riffle_operator(3, "+", Decoration.TBAR, 3)
    assert apply_operator(T, left, CONCAT) == lval * left
    assert apply_operator(T, right, CONCAT) == rval * right


def _assert_matches_reference_eigenvector(w, a, sign, flavor):
    try:
        want = reference_eigenvector(w, a, sign, flavor)
    except OutsideBasis:
        with pytest.raises(OutsideBasis):
            build_eigenvector(w, a, sign, flavor)
        return
    vec, mu = build_eigenvector(w, a, sign, flavor)
    assert (vec, mu) == want, (w, a, sign, flavor)
    assert all(type(c) is int for _, c in vec)


REFERENCE_WORDS = [w for d in range(1, 5) for w in all_words(d, 3)]  # n = 1 and repeated letters


@pytest.mark.parametrize("a, sign, flavor", ALL_SPECS)
def test_build_eigenvector_matches_the_reference(a, sign, flavor):
    rng = random.Random(f"{a}{sign}{flavor}")
    sampled = [
        SignedWord(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(d)) for d in (6, 7) for _ in range(4)
    ]
    for w in REFERENCE_WORDS + sampled:
        _assert_matches_reference_eigenvector(w, a, sign, FLAVOR[flavor])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("flavor", [Decoration.BAR, Decoration.TBAR])
def test_build_eigenvector_matches_the_reference_a1(sign, flavor):
    for w in REFERENCE_WORDS[:258]:  # degree <= 3
        _assert_matches_reference_eigenvector(w, 1, sign, flavor)


def test_build_eigenvector_codes_past_int64():
    # labels 1..14 at degree 14: (2·14+1)^14 passes 2^63, so the codes are
    # Python integers; the 14 negating singleton factors give 2^14 terms
    w = SignedWord(range(-14, 0))
    vec, mu = build_eigenvector(w, 3, "+", Decoration.TBAR)
    assert len(vec) == 2**14 and mu == 1
    assert (vec, mu) == reference_eigenvector(w, 3, "+", Decoration.TBAR)


def test_combine_past_the_int64_coefficient_bound():
    # 2·(2^40 + 3)^2 passes 2^63: int64 factors are refused before the
    # orders are read, and object factors are combined in Python integers
    codes, coeffs = np.array([0, 1]), np.array([2**40, -3])
    orders = [(1, (0, 1)), (-1, (1, 0))]
    with pytest.raises(CodeOverflow):
        _combine([(codes, coeffs, 1)] * 2, iter(orders), 2, 3)
    got = _combine([(codes, coeffs.astype(object), 1)] * 2, orders, 2, 3)
    want = {}
    for sign, (i, j) in orders:
        for ci, ki in zip(codes.tolist(), coeffs.tolist()):
            for cj, kj in zip(codes.tolist(), coeffs.tolist()):
                want[ci + 3 * cj] = want.get(ci + 3 * cj, 0) + sign * ki * kj
    want = {c: k for c, k in want.items() if k}
    assert dict(zip(got[0].tolist(), got[1].tolist())) == want and got[2] == 2
    assert got[1].dtype == object


def test_build_eigenvector_retries_past_a_lowered_int64_bound(monkeypatch):
    # with the L1 bound lowered to 1 every int64 assembly is refused, as
    # eigenvector_matrix (which has no retry) shows; build_eigenvector must
    # rebuild the same vector in Python integers
    cases = [(w, a, sign, flavor) for w in (W("2 -1 3"), W("-3 1 -2 1")) for a, sign, flavor in ALL_SPECS]
    want = {}
    for w, a, sign, flavor in cases:
        try:
            want[w, a, sign, flavor] = build_eigenvector(w, a, sign, FLAVOR[flavor])
        except OutsideBasis:
            pass
    assert len(want) > len(cases) // 2
    monkeypatch.setattr(lyndon, "_INT64_MAX", 1)
    with pytest.raises(CodeOverflow):
        eigenvector_matrix([W("1 2"), W("2 1")], 1, 3, "+", Decoration.TBAR)
    for (w, a, sign, flavor), (vec, mu) in want.items():
        got = build_eigenvector(w, a, sign, FLAVOR[flavor])
        assert got == (vec, mu), (w, a, sign, flavor)
        assert all(type(c) is int for _, c in got[0])


def test_primitive_dimensions_identity():
    # sum of b_i + bbar_i over classes equals the Lyndon word count
    for flavor in (Decoration.BAR, Decoration.TBAR):
        b, bb = primitive_dimensions(2, 4, flavor)
        for d in range(1, 5):
            assert b[d - 1] + bb[d - 1] == len(lyndon_words(2, d))


# ---------------------------------------------------------------------------
# the signed eigenvector rows against the eigenbasis reference, and the
# block rows of eigenvector_matrix against the signed rows

FLAVOR = {"rotation": Decoration.BAR, "flip": Decoration.TBAR}


def _reference_matrix(states, n, N, a, sign, flavor, include_repeats=False):
    index = {w: i for i, w in enumerate(states)}
    got = []
    for w in all_words(n, N) if include_repeats else distinct_letter_words(n, N):
        try:
            got.append((w, *reference_eigenvector(w, a, sign, flavor)))
        except OutsideBasis:
            continue
    assert all(type(c) is int for _, vec, _ in got for _, c in vec)
    rows = [_int_vector(vec, index.__getitem__, len(states)) for _, vec, _ in got]
    V = np.array(rows, dtype=np.int64).reshape(len(rows), len(states))
    return V, [mu for _, _, mu in got], tuple(w for w, _, _ in got)


def _assert_matches_reference(states, n, N, a, sign, flavor, include_repeats=False):
    V, mu, words = signed_eigenvector_matrix(states, a, sign, flavor)
    want_V, want_mu, want_words = _reference_matrix(states, n, N, a, sign, flavor, include_repeats)
    assert V.dtype == np.int64 and mu.dtype == np.int64
    assert words == want_words  # the same refused words
    assert mu.tolist() == want_mu
    assert (V == want_V).all()
    return V, mu, words


def plain_permutations(n):
    return [SignedWord(p) for p in itertools.permutations(range(1, n + 1))]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a, sign, flavor", ALL_SPECS)
def test_eigenvector_matrix_matches_eigenbasis(n, a, sign, flavor):
    _assert_matches_reference(signed_permutations(n), n, n, a, sign, FLAVOR[flavor])


@pytest.mark.parametrize(
    "a, sign, flavor", [(2, "+", "rotation"), (3, "-", "rotation"), (2, "-", "flip"), (3, "+", "flip")]
)
def test_eigenvector_matrix_matches_eigenbasis_n4(a, sign, flavor):
    """One spec per route of the n = 4 chain certificate."""
    _assert_matches_reference(signed_permutations(4), 4, 4, a, sign, FLAVOR[flavor])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a, sign, flavor", ALL_SPECS + ((1, "+", "flip"), (1, "-", "rotation"), (4, "-", "flip")))
def test_block_rows_lift_to_the_signed_rows(n, a, sign, flavor):
    """The signed row of every w is y ↦ C_w(|y|)·χ_bar(w)(y), for C_w the
    assembly of w on the plain-letter seed and χ_S(y) = −1 to the number
    of labels of S that y bars; the block rows are the C_w of the words
    that bar exactly the labels <= k."""
    states = signed_permutations(n)
    V, mu, words = signed_eigenvector_matrix(states, a, sign, FLAVOR[flavor])
    plain = descent.StateBasis(plain_permutations(n), n)
    memo = lyndon._plain_letters(range(1, n + 1), n)
    rows = {}
    for w, row, m in zip(words, V.tolist(), mu.tolist()):
        (codes, coeffs, _), value = lyndon._eigenvector_codes(w, a, sign, FLAVOR[flavor], n, memo)
        C = np.zeros(len(plain), dtype=np.int64)
        C[plain.index_codes(codes)] = coeffs
        bars = {-c for c in w if c < 0}
        lift = [int(C[plain.index_words(np.abs([y]))[0]]) * (-1) ** sum(-c in bars for c in y) for y in states]
        assert row == lift and m == value, w
        rows[w] = (C.tolist(), m)
    for k in range(n + 1):
        U, mu_k, words_k = eigenvector_matrix(plain, k, a, sign, FLAVOR[flavor])
        assert set(words_k) == {w for w in words if {-c for c in w if c < 0} == set(range(1, k + 1))}
        for w, row, m in zip(words_k, U.tolist(), mu_k.tolist()):
            assert rows[w] == (row, m), w


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("flavor", [Decoration.BAR, Decoration.TBAR])
def test_eigenvector_matrix_a1_and_repeated_letters(sign, flavor):
    V, mu, _ = _assert_matches_reference(signed_permutations(2), 2, 2, 1, sign, flavor)
    assert set(np.abs(mu).tolist()) == {1}
    for k in range(3):
        U, mu_k, _ = eigenvector_matrix(plain_permutations(2), k, 1, sign, flavor)
        assert set(np.abs(mu_k).tolist()) <= {1}
    # repeated letters: equal codes from different summands merge
    for a in (2, 3):
        _assert_matches_reference(all_words(3, 1), 3, 1, a, sign, flavor, include_repeats=True)


def test_eigenvector_matrix_wide_labels():
    # label 2 moved to 2^20: an increasing relabeling keeps the rows, and
    # only the labels that occur get a letter bracketing; the block rows
    # bar the labels <= k, so k = 2^20 bars both letters
    def relabel(w):
        return SignedWord(c if abs(c) == 1 else c // 2 * 2**20 for c in w)

    plain, states = plain_permutations(2), signed_permutations(2)
    for a, sign, flavor in ALL_SPECS:
        for k, wide_k in ((0, 0), (1, 1), (2, 2**20)):
            U, mu, words = eigenvector_matrix(plain, k, a, sign, FLAVOR[flavor])
            wide = eigenvector_matrix([relabel(w) for w in plain], wide_k, a, sign, FLAVOR[flavor])
            assert (wide[0] == U).all() and (wide[1] == mu).all() and wide[2] == tuple(map(relabel, words))
        V, mu, words = signed_eigenvector_matrix(states, a, sign, FLAVOR[flavor])
        wide = signed_eigenvector_matrix([relabel(w) for w in states], a, sign, FLAVOR[flavor])
        assert (wide[0] == V).all() and (wide[1] == mu).all() and wide[2] == tuple(map(relabel, words))


def test_eigenvector_matrix_skips_even_rotation_rows():
    kept = [
        w for w in signed_permutations(3)
        if all(classify_primitive(u, Decoration.BAR) == "invariant" for u in lyndon_factorize(w))
    ]
    for k in range(4):
        U, mu, words = eigenvector_matrix(plain_permutations(3), k, 2, "+", Decoration.BAR)
        want = [w for w in kept if {-c for c in w if c < 0} == set(range(1, k + 1))]
        assert sorted(words) == sorted(want) and U.shape == (len(want), 6) and len(mu) == len(want)
        assert len(want) == (6, 0, 3, 0)[k]  # an odd number of bars leaves a negating factor
    # n = 1: 1̄ is negating under rotation, 1 is invariant
    (U0, mu0, words0), (U1, mu1, words1) = (eigenvector_matrix([W("1")], k, 2, "-", Decoration.BAR) for k in (0, 1))
    assert words0 == (W("1"),) and U0.tolist() == [[1]] and mu0.tolist() == [2]
    assert words1 == () and U1.shape == (0, 1)


def test_eigenvector_matrix_and_eigenbasis_refuse_a_block_outside_their_words():
    with pytest.raises(BadCount, match="n=-1"):
        eigenbasis(-1, 2, 2, "+", Decoration.BAR)
    plain = plain_permutations(3)
    for k in (-1, 4, 2.5):
        with pytest.raises(BadCount, match="k must be 0 or a label"):
            eigenvector_matrix(plain, k, 2, "+", Decoration.BAR)
    # k names the largest barred label: 2 is no block of the labels 1, 7, 9
    wide = [SignedWord(p) for p in itertools.permutations((1, 7, 9))]
    with pytest.raises(BadCount):
        eigenvector_matrix(wide, 2, 3, "+", Decoration.BAR)
    _, _, words = eigenvector_matrix(wide, 7, 3, "+", Decoration.BAR)
    assert len(words) == 6 and all({-c for c in w if c < 0} == {1, 7} for w in words)


def test_eigenvector_matrix_refusals():
    # (2m+1)^3 passes 2^63 - 1 at m = 2^20
    with pytest.raises(CodeOverflow):
        eigenvector_matrix([SignedWord((2**20, 1, 2))], 0, 3, "+", Decoration.TBAR)
    # 20 equal invariant factors: the symmetrized product's L1 bound is
    # 20!·2^20 > 2^63, refused before its 20! orders are enumerated
    with pytest.raises(CodeOverflow):
        signed_eigenvector_matrix([SignedWord((1,) * 20)], 3, "+", Decoration.BAR)
    # the block rows read plain words with distinct letters only
    for states in ([SignedWord((1,) * 20)], [W("1 -2")], [W("2 1"), W("1 1")]):
        with pytest.raises(ValueError, match="plain words with distinct letters"):
            eigenvector_matrix(states, 0, 3, "+", Decoration.BAR)
    # C_w of 1 2 has the word 2 1, which is not a state here
    with pytest.raises(KeyError):
        eigenvector_matrix([W("1 2")], 0, 3, "+", Decoration.TBAR)
    with pytest.raises(BadCount):
        eigenvector_matrix([W("1 2")], 0, 0, "+", Decoration.TBAR)
    U, mu, words = eigenvector_matrix([], 0, 3, "+", Decoration.TBAR)
    assert U.shape == (0, 0) and words == ()


def test_eigenvector_matrix_shares_one_memo_per_labels(monkeypatch):
    """One plain-seed memo per (labels, m), shared in any order across
    degrees, k and specs, and by a relabelled basis, gives the rows of a
    fresh memo per call."""
    relabelled = [SignedWord(p) for p in itertools.permutations((2, 5, 7))]
    cases = [(plain_permutations(n), k, spec) for n in (1, 2, 3, 4) for k in range(n + 1) for spec in ALL_SPECS]
    cases += [(relabelled, k, spec) for k in (0, 2, 5, 7) for spec in ALL_SPECS]

    def run(case):
        states, k, (a, sign, flavor) = case
        return eigenvector_matrix(states, k, a, sign, FLAVOR[flavor])

    shared = lyndon._plain_letters
    with monkeypatch.context() as m:
        m.setattr(lyndon, "_plain_letters", shared.__wrapped__)  # a fresh memo per call
        fresh = [run(case) for case in cases]
    shared.cache_clear()
    order = list(range(len(cases)))
    random.Random(25).shuffle(order)
    for i in order:
        U, mu, words = run(cases[i])
        want_U, want_mu, want_words = fresh[i]
        assert U.shape == want_U.shape and (U == want_U).all(), cases[i]
        assert mu.tolist() == want_mu.tolist() and words == want_words, cases[i]
    info = shared.cache_info()
    assert info.maxsize is not None and info.currsize == 5 and info.misses == 5


# ---------------------------------------------------------------------------
# the int-key Duval scan and the shape-grouped block rows against their
# references


def duval_by_tuple_keys(w):
    """Duval's scan on ``word_lex_key`` tuples: the reference of the
    int-key ``lyndon_factorize``."""
    k = word_lex_key(w)
    factors, start = [], 0
    while start < len(k):
        i, j = start, start + 1
        while j < len(k) and k[i] <= k[j]:
            i = start if k[i] < k[j] else i + 1
            j += 1
        while start <= i:
            factors.append(SignedWord(w[start : start + j - i]))
            start += j - i
    return tuple(factors)


def test_lyndon_factorize_matches_the_tuple_key_scan():
    words = [w for d in range(1, 7) for w in all_words(d, 3)]
    assert len(words) == sum(6**d for d in range(1, 7))
    for w in words:
        got = lyndon_factorize(w)
        assert got == duval_by_tuple_keys(w), w
        assert all(type(u) is SignedWord for u in got)


def _assert_rows_match(states, k, a, sign, flavor):
    try:
        want = eigenvector_matrix_by_rows(states, k, a, sign, flavor)
    except (CodeOverflow, KeyError) as exc:
        with pytest.raises(type(exc)) as info:
            eigenvector_matrix(states, k, a, sign, flavor)
        assert info.value.args == exc.args, (k, a, sign, flavor)
        return
    U, mu, words = eigenvector_matrix(states, k, a, sign, flavor)
    assert U.dtype == want[0].dtype == np.int64 and mu.dtype == np.int64
    assert U.shape == want[0].shape and (U == want[0]).all(), (k, a, sign, flavor)
    assert mu.tolist() == want[1].tolist() and words == want[2], (k, a, sign, flavor)


BLOCK_SPECS = [(a, sign, flavor) for a in range(1, 6) for sign in "+-" for flavor in (Decoration.BAR, Decoration.TBAR)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_eigenvector_matrix_matches_the_rows_built_one_by_one(n):
    basis = descent.StateBasis(plain_permutations(n), n)
    for a, sign, flavor in BLOCK_SPECS:
        for k in range(n + 1):
            _assert_rows_match(basis, k, a, sign, flavor)


def test_eigenvector_matrix_by_shape_on_shuffled_states_and_wide_labels():
    states = [SignedWord(p) for p in itertools.permutations((2, 5, 9))]
    random.Random(28).shuffle(states)
    shuffled = plain_permutations(4)
    random.Random(4).shuffle(shuffled)
    for a, sign, flavor in BLOCK_SPECS:
        for k in (0, 2, 5, 9):
            _assert_rows_match(states, k, a, sign, flavor)
        for k in range(5):
            _assert_rows_match(shuffled, k, a, sign, flavor)


def test_eigenvector_matrix_splits_groups_into_chunks(monkeypatch):
    """A group larger than a chunk is assembled a few rows at a time."""
    basis = descent.StateBasis(plain_permutations(4), 4)
    for codes in (1, 7, 100):
        monkeypatch.setattr(lyndon, "_TABLE_CODES", codes)
        for a, sign, flavor in ((2, "+", Decoration.TBAR), (3, "-", Decoration.BAR), (3, "+", Decoration.TBAR)):
            for k in range(5):
                _assert_rows_match(basis, k, a, sign, flavor)


def test_eigenvector_matrix_refusals_match_the_rows(monkeypatch):
    """The first refused word in state order decides the error: a missing
    state names the least code its merged row misses, and a lowered L1
    bound refuses a bracketing, a symmetrized product or a whole
    eigenvector as the row-by-row assembly does."""
    perms = plain_permutations(3)
    partial = [perms[i] for i in (4, 0, 2, 5)]  # 1 3 2 and 2 3 1 are missing
    for a, sign, flavor in BLOCK_SPECS:
        for k in range(4):
            _assert_rows_match(partial, k, a, sign, flavor)
    with pytest.raises(KeyError):
        eigenvector_matrix(partial, 0, 3, "+", Decoration.TBAR)
    # decreasing states first: their words split into many short factors,
    # so the bound refuses products before it refuses a bracketing
    basis = descent.StateBasis(plain_permutations(4)[::-1], 4)
    for bound in (1, 5, 11, 23):
        monkeypatch.setattr(lyndon, "_INT64_MAX", bound)
        for a, sign, flavor in BLOCK_SPECS:
            for k in range(5):
                for states in (basis, partial[::-1]) if k < 4 else (basis,):
                    lyndon._plain_letters.cache_clear()  # no bracketing built past the bound
                    _assert_rows_match(states, k, a, sign, flavor)
    lyndon._plain_letters.cache_clear()


@pytest.mark.parametrize(
    "values",
    [[], [7], [3, 3, 3], [5, -2, 5, 0, -2, 9], [[4, 1], [1, 4]], list(range(40, 0, -3)) * 2],
)
def test_distinct_matches_np_unique(values):
    a = np.array(values, dtype=np.int64)
    got = descent._distinct(a)
    assert got.dtype == np.int64 and got.tolist() == np.unique(a).tolist()
