"""Lyndon words over the signed alphabet, signed standard-bracketing, and
eigenvector construction for the four riffle operators on the concatenation
algebra.

The alphabet order is 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ...; a word is Lyndon when it is
strictly smaller than all its proper cyclic rotations.  The signed
standard-bracketing lifts a Lyndon word to a primitive element: single
letters map to i+ī (plain) or i−ī (barred), longer words bracket their
standard factorization recursively.

There is one assembly, on coded words: ``_bracket`` builds bracketings,
``_eigen_assembly`` names the signed orders in which the factors of an
eigenvector are concatenated, and ``_combine`` concatenates and merges
coded factors.  ``_ranked_assembly`` runs it on one word, its labels
ranked, from the signed seed i ↦ i + ī, ī ↦ i − ī, and decodes one
AlgebraElement for ``stdbrac`` and ``build_eigenvector`` (and so
``eigenbasis``).  ``eigenvector_matrix`` runs it from the plain-letter
seed, i ↦ i and ī ↦ i, on the words that bar the labels <= k of a basis
of plain states, and writes the rows of one int64 matrix over those
states: for distinct letters the signed eigenvector is the plain one
times a sign character, so the n! rows of one k stand for the 2^n·n!
signed rows of the chain certificate.  The AlgebraElement assemblies it
replaced, and the signed rows over all states, are kept in the tests as
the reference.  It is exact by this argument:

- A word y with labels in [-m, m] is coded as the integer
  Σ_k (y_k + m)·(2m+1)^k (``descent.StateBasis``, the coding of
  ``descent.image_table``).  Every code of a word of length at most n is
  below (2m+1)^n.  For states, their coding proves that this fits in
  int64; ``_ranked_assembly`` codes in Python integers when it does not.
  The code of a concatenation xy is code(x) + code(y)·(2m+1)^|x|, so the
  codes of a product never leave that range.
- Each eigenvector, and each bracketing inside it, is a signed sum of
  ``count`` concatenations of the same factors f_1, ..., f_r in different
  orders.  The sum of the absolute values of its coefficients, and so of
  every partial sum formed while multiplying and merging, is at most
  count·Π‖f_i‖₁.  That bound is computed in Python integers from the exact
  L1 norms of the factors, and CodeOverflow is raised before any int64
  arithmetic when it exceeds 2^63 − 1.  Integers never wrap:
  ``eigenvector_matrix`` refuses there, and ``_ranked_assembly`` runs the
  same assembly on Python-integer coefficients.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import BadCount, CodeOverflow, EmptyWord, NotLyndon, OutsideBasis, SingleLetter
from .words import AlgebraElement, SignedWord, WordLike, all_words, as_word, distinct_letter_words, word_lex_key
from .descent import (
    _INT64_MAX,
    Decoration,
    StateBasis,
    _code_dtype,
    _decode_words,
    _label_ranks,
    _merge_codes,
)
from .spectral import riffle_eigenvalue


def is_lyndon(w: WordLike) -> bool:
    """True iff w strictly precedes every proper cyclic rotation of itself."""
    w = as_word(w)
    if not w:
        raise EmptyWord("the empty word is not eligible")
    k = word_lex_key(w)
    return all(k < k[i:] + k[:i] for i in range(1, len(k)))


def lyndon_factorize(w: WordLike) -> tuple[SignedWord, ...]:
    """Duval's algorithm: the unique non-increasing Lyndon factorization."""
    w = as_word(w)
    if not w:
        raise EmptyWord("cannot factorize the empty word")
    k = word_lex_key(w)
    n = len(k)
    factors = []
    start = 0
    while start < n:
        i, j = start, start + 1
        while j < n and k[i] <= k[j]:
            i = start if k[i] < k[j] else i + 1
            j += 1
        width = j - i
        while start <= i:
            factors.append(SignedWord(w[start : start + width]))
            start += width
    return tuple(factors)


def standard_factorization(u: WordLike) -> tuple[SignedWord, SignedWord]:
    """u = left·right with right the longest proper Lyndon suffix."""
    u = as_word(u)
    if not is_lyndon(u):
        raise NotLyndon(f"{u} is not Lyndon")
    if len(u) < 2:
        raise SingleLetter("single letters have no standard factorization")
    for i in range(1, len(u)):
        if is_lyndon(u[i:]):
            return SignedWord(u[:i]), SignedWord(u[i:])
    raise NotLyndon(f"no Lyndon suffix found in {u}")  # unreachable for Lyndon u


def stdbrac(u: WordLike) -> AlgebraElement:
    """Signed standard-bracketing of a Lyndon word (primitive in the
    concatenation algebra): i ↦ i+ī, ī ↦ i−ī, else the Lie bracket of the
    bracketings of the standard factorization, built by ``_bracket`` on u
    with its labels ranked."""
    u = as_word(u)
    if not is_lyndon(u):
        raise NotLyndon(f"{u} is not Lyndon")
    return _ranked_assembly(u, lambda v, m, memo: (_bracket(v, 2 * m + 1, memo), None))[0]


def classify_primitive(u: WordLike, flavor: Decoration) -> str:
    """Whether stdbrac(u) is 'invariant' or 'negating' under the involution.

    Rotation (BAR): invariant iff u has an even number of barred letters.
    Flip (TBAR): invariant iff u has an odd number of plain letters.
    """
    u = as_word(u)
    if not is_lyndon(u):
        raise NotLyndon(f"{u} is not Lyndon")
    if flavor is Decoration.BAR:
        negatives = sum(1 for c in u if c < 0)
        return "invariant" if negatives % 2 == 0 else "negating"
    if flavor is Decoration.TBAR:
        positives = sum(1 for c in u if c > 0)
        return "invariant" if positives % 2 == 1 else "negating"
    raise ValueError("flavor must be BAR or TBAR")


def _two_block_setcomps(k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered pairs (B1, B2) of disjoint sets covering {0, ..., k−1}."""
    items = tuple(range(k))
    for mask in itertools.product((0, 1), repeat=k):
        b1 = tuple(i for i in items if mask[i] == 0)
        b2 = tuple(i for i in items if mask[i] == 1)
        yield b1, b2


def build_eigenvector(w: WordLike, a: int, sign: str, flavor: Decoration) -> tuple[AlgebraElement, int]:
    """Eigenvector of the chosen riffle operator on the concatenation algebra
    associated with the word w, together with its exact eigenvalue.

    Runs the coded assembly of ``eigenvector_matrix`` on w through
    ``_ranked_assembly``.  Raises BadCount for a < 1.
    """
    if a < 1:
        raise BadCount(f"need a >= 1, got a={a}")
    w = as_word(w)
    if not w:
        raise EmptyWord("no eigenvector for the empty word")
    return _ranked_assembly(w, lambda v, m, memo: _eigenvector_codes(v, a, sign, flavor, m, memo))


def eigenbasis(
    n: int,
    N: int,
    a: int,
    sign: str,
    flavor: Decoration,
    include_repeats: bool = False,
) -> list[tuple[SignedWord, AlgebraElement, int]]:
    """Eigenvectors for all degree-n words over labels <= N.

    By default only distinct-letter words (signed permutations when N = n)
    are used.  For even-a rotation operators, words with negating factors are
    skipped (they index the generalized 0-eigenspace, which has no eigenvector
    formula); the emitted set still spans a complement of it.
    """
    words = all_words(n, N) if include_repeats else distinct_letter_words(n, N)
    out = []
    for w in words:
        try:
            vec, val = build_eigenvector(w, a, sign, flavor)
        except OutsideBasis:
            continue
        out.append((w, vec, val))
    return out


# ---------------------------------------------------------------------------
# the coded eigenvector assembly

# A homogeneous element as (distinct word codes in increasing order, their
# nonzero coefficients, length).
Coded = tuple[np.ndarray, np.ndarray, int]


def _combine(
    factors: Sequence[Coded], orders: Iterable[tuple[int, Sequence[int]]], count: int, base: int
) -> Coded:
    """Σ sign·(the concatenation of the factors in that order) over the
    ``count`` pairs (sign, order) of ``orders``, merged.  Each order lists
    every factor exactly once, and the factors share one dtype for codes
    and one for coefficients, which the result keeps.

    For int64 coefficients, the L1 bound of the module docstring is proved
    before ``orders`` is read, so that an overflowing sum is refused before
    it is enumerated.
    """
    if factors[0][1].dtype != object:
        bound = count * math.prod(int(np.abs(coeffs).sum()) for _, coeffs, _ in factors)
        if bound > _INT64_MAX:
            raise CodeOverflow(f"eigenvector coefficients may sum to {bound} in absolute value")
    orders = list(orders)
    if orders == [(1, (0,))]:  # one factor, already merged
        return factors[0]
    all_codes, all_coeffs = [], []
    for sign, order in orders:
        codes, coeffs, length = factors[order[0]]
        coeffs = coeffs if sign == 1 else -coeffs
        for i in order[1:]:
            fc, fk, fl = factors[i]
            codes = (codes[:, None] + fc * base**length).ravel()
            coeffs = np.multiply.outer(coeffs, fk).ravel()
            length += fl
        all_codes.append(codes)
        all_coeffs.append(coeffs)
    codes, coeffs = _merge_codes(np.concatenate(all_codes), np.concatenate(all_coeffs), base**length)
    return codes, coeffs, length


def _letter_brackets(labels: Iterable[int], m: int, code_dtype, dtype) -> dict[SignedWord, Coded]:
    """i ↦ i + ī and ī ↦ i − ī for the given labels (at most m), and the
    unit for the empty word, coded in base 2m+1: the seed of ``_bracket``'s
    memo, whose dtypes every bracketing and eigenvector built from it
    keeps."""
    memo = {SignedWord._trusted(()): (np.zeros(1, dtype=code_dtype), np.ones(1, dtype=dtype), 0)}
    for i in labels:
        codes = np.array([m - i, m + i], dtype=code_dtype)
        memo[SignedWord._trusted((i,))] = (codes, np.array([1, 1], dtype=dtype), 1)
        memo[SignedWord._trusted((-i,))] = (codes, np.array([-1, 1], dtype=dtype), 1)
    return memo


def _plain_letters(labels: Iterable[int], m: int) -> dict[SignedWord, Coded]:
    """Both i and ī ↦ i for the given labels (at most m), and the unit,
    coded in base 2m+1 in int64: the plain-letter seed of the block rows
    of ``eigenvector_matrix``."""
    memo = {SignedWord._trusted(()): (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), 0)}
    for i in labels:
        letter = (np.array([m + i], dtype=np.int64), np.ones(1, dtype=np.int64), 1)
        memo[SignedWord._trusted((i,))] = memo[SignedWord._trusted((-i,))] = letter
    return memo


T = TypeVar("T")


def _ranked_assembly(
    w: SignedWord, assemble: Callable[[SignedWord, int, dict[SignedWord, Coded]], tuple[Coded, T]]
) -> tuple[AlgebraElement, T]:
    """(the decoded element, the rest) of ``assemble(ranked, R, memo)``,
    with w's |labels| replaced by their ranks 1..R and the memo seeded by
    ``_letter_brackets``.  Ranking keeps the alphabet order and the bars,
    so every factorization and classification is kept.  Coefficients are
    int64 under the bounds of the module docstring, and Python integers
    past them."""
    labels, rank = _label_ranks([w])
    ranked = SignedWord._trusted(tuple(rank[c] for c in w))
    R, n = len(labels), len(w)

    def run(dtype) -> tuple[Coded, T]:
        return assemble(ranked, R, _letter_brackets(range(1, R + 1), R, _code_dtype(R, n), dtype))

    try:
        (codes, coeffs, _), rest = run(np.int64)
    except CodeOverflow:  # past the int64 bound: the same assembly in Python integers
        (codes, coeffs, _), rest = run(object)
    return AlgebraElement._trusted(dict(zip(_decode_words(codes, labels, n), coeffs.tolist()))), rest


def _bracket(u: SignedWord, base: int, memo: dict[SignedWord, Coded]) -> Coded:
    """The signed standard bracketing of the Lyndon word u, coded in
    ``base``: [bracket(left), bracket(right)] for u's standard
    factorization, built once per word in ``memo``."""
    if u not in memo:
        left, right = standard_factorization(u)
        pair = (_bracket(left, base, memo), _bracket(right, base, memo))
        memo[u] = _combine(pair, ((1, (0, 1)), (-1, (1, 0))), 2, base)
    return memo[u]


def _eigen_assembly(
    kbar: int, a: int, sign: str, flavor: Decoration
) -> list[tuple[int, tuple[int, ...]]]:
    """The signed orders in which an eigenvector is assembled from the
    negating bracketings q_0, ..., q_(kbar−1) (factors 0..kbar−1) and the
    symmetrized invariant product (factor kbar).  Its eigenvalue is
    ``spectral.riffle_eigenvalue``.  Raises OutsideBasis for negating
    factors under an even-a rotation operator."""
    qs = tuple(range(kbar))
    sym = kbar
    if flavor is Decoration.TBAR:
        if a % 2 == 0:
            order = (sym, *qs) if sign == "+" else (*qs, sym)
            return [(1, order)]
        if sign == "+":
            return [(1, (*qs, sym))]
        orders = [(1, (*qs, sym))]
        if kbar:
            orders.append((1, (sym, *reversed(qs))))
        return orders
    if flavor is Decoration.BAR:
        if a % 2 == 0:
            if kbar:
                raise OutsideBasis(
                    "the word has rotation-negating Lyndon factors; even-a rotation operators only assign "
                    "eigenvectors to words whose Lyndon factors all have an even number of barred letters"
                )
            return [(1, (sym,))]
        return [(1, (*b1, sym, *reversed(b2))) for b1, b2 in _two_block_setcomps(kbar)]
    raise ValueError("flavor must be BAR or TBAR")


def _eigenvector_codes(
    w: SignedWord, a: int, sign: str, flavor: Decoration, m: int, memo: dict[SignedWord, Coded]
) -> tuple[Coded, int]:
    """The eigenvector of the word w (labels in [-m, m]) coded in base
    2m+1, and its eigenvalue ``riffle_eigenvalue``: the bracketings of w's
    Lyndon factors from ``memo`` (seeded by ``_letter_brackets``),
    assembled as ``_eigen_assembly`` says.  Raises ValueError for a bad
    sign and OutsideBasis before any bracketing is built."""
    base = 2 * m + 1
    ps, qs = [], []
    for u in lyndon_factorize(w):
        (ps if classify_primitive(u, flavor) == "invariant" else qs).append(u)
    value = riffle_eigenvalue(a, sign, len(ps), len(qs))
    orders = _eigen_assembly(len(qs), a, sign, flavor)
    if ps:
        perms = ((1, p) for p in itertools.permutations(range(len(ps))))
        sym = _combine([_bracket(u, base, memo) for u in ps], perms, math.factorial(len(ps)), base)
    else:
        sym = memo[SignedWord._trusted(())]
    coded = _combine([_bracket(u, base, memo) for u in qs] + [sym], orders, len(orders), base)
    return coded, value


def eigenvector_matrix(
    states: Sequence[SignedWord], k: int, a: int, sign: str, flavor: Decoration
) -> tuple[np.ndarray, np.ndarray, tuple[SignedWord, ...]]:
    """The block rows U_k: the eigenvectors of the words that bar the
    labels <= k of the plain ``states``, each read on the plain states.

    The letters map as i ↦ i + ī and ī ↦ i − ī, so the eigenvector of a
    word w with distinct letters is Σ_y C_w(|y|)·χ_bar(w)(y) y, over the
    words y with the letters of w up to bars: C_w is the same assembly
    with both i and ī seeded as the plain letter i, and χ_S(y) is −1 to
    the number of labels of S that y bars.  Returns (U, mu, words).  words
    are the barred words, in the order of their plain states, that have an
    eigenvector: all of them, except the words with a negating factor
    under an even-a rotation operator.  Row r of U holds C_w for
    w = words[r] on ``states``, and mu[r] is its eigenvalue.  Each
    bracketing is built once per Lyndon word, and coefficients are int64
    under the bounds of the module docstring, past which CodeOverflow is
    raised.  The states are read as a ``descent.StateBasis``, coded once
    per call unless they are one.  Raises ValueError unless the states are
    plain words with distinct letters, KeyError naming a word of some C_w
    that is not a state, BadCount for a < 1, and the errors of
    ``StateBasis`` for the states.
    """
    if a < 1:
        raise BadCount(f"need a >= 1, got a={a}")
    n = len(states[0]) if len(states) else 0
    if n == 0 and len(states):
        raise EmptyWord("no eigenvector for the empty word")
    basis = StateBasis(states, n)
    ordered = np.sort(basis.W, axis=1)
    if (ordered[:, :1] <= 0).any() or (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("the states must be plain words with distinct letters")
    memo = _plain_letters(np.unique(basis.W).tolist(), basis.m)
    rows, mus, words = [], [], []
    for pi in basis:
        w = SignedWord._trusted(tuple(-c if c <= k else c for c in pi))
        try:
            (codes, coeffs, _), mu = _eigenvector_codes(w, a, sign, flavor, basis.m, memo)
        except OutsideBasis:
            continue
        rows.append((basis.index_codes(codes), coeffs))
        mus.append(mu)
        words.append(w)
    U = np.zeros((len(rows), len(states)), dtype=np.int64)
    for r, (cols, coeffs) in enumerate(rows):
        U[r, cols] = coeffs
    return U, np.array(mus, dtype=np.int64), tuple(words)


# ---------------------------------------------------------------------------
# Lyndon-word enumeration and primitive dimension counts


def lyndon_words(max_label: int, degree: int) -> list[SignedWord]:
    """All Lyndon words of the given degree over labels <= max_label."""
    return [w for w in all_words(degree, max_label) if is_lyndon(w)]


def primitive_dimensions(
    max_label: int, degree_max: int, flavor: Decoration
) -> tuple[list[int], list[int]]:
    """(b, b_bar): counts per degree 1..degree_max of invariant/negating
    Lyndon-bracket primitives over the 2N-letter alphabet."""
    b = [0] * (degree_max + 1)
    bbar = [0] * (degree_max + 1)
    for d in range(1, degree_max + 1):
        for u in lyndon_words(max_label, d):
            if classify_primitive(u, flavor) == "invariant":
                b[d] += 1
            else:
                bbar[d] += 1
    return b[1:], bbar[1:]
