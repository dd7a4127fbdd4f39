"""Lyndon words over the signed alphabet, signed standard-bracketing, and
eigenvector construction for the four riffle operators on the concatenation
algebra.

The alphabet order is 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ...; a word is Lyndon when it is
strictly smaller than all its proper cyclic rotations.  The signed
standard-bracketing lifts a Lyndon word to a primitive element: single
letters map to i+ī (plain) or i−ī (barred), longer words bracket their
standard factorization recursively.

``build_eigenvector`` and ``eigenbasis`` assemble eigenvectors as
AlgebraElements and are the reference.  ``eigenvector_matrix`` assembles
the same eigenvectors for a whole basis of states as the rows of one int64
matrix, and is exact by this argument:

- A word y with labels in [-m, m] is coded as the integer
  Σ_k (y_k + m)·(2m+1)^k (``descent._state_codes``, the coding of
  ``descent.image_table``).  Every code of a word of length at most n is
  below (2m+1)^n, and the states' coding proves that this fits in int64.
  The code of a concatenation xy is code(x) + code(y)·(2m+1)^|x|, so the
  codes of a product never leave that range.
- Each eigenvector, and each bracketing inside it, is a signed sum of
  ``count`` concatenations of the same factors f_1, ..., f_r in different
  orders.  The sum of the absolute values of its coefficients, and so of
  every partial sum formed while multiplying and merging, is at most
  count·Π‖f_i‖₁.  That bound is computed in Python integers from the exact
  L1 norms of the factors, and CodeOverflow is raised before any int64
  arithmetic when it exceeds 2^63 − 1.  Integers never wrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CodeOverflow, EmptyWord, NotLyndon, OutsideBasis, SingleLetter
from .words import AlgebraElement, SignedWord, WordLike, as_word, word_lex_key
from .algebra import concat_elements, lie_bracket
from .descent import _INT64_MAX, Decoration, _merge_codes, _state_codes, _state_index


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
    bracketings of the standard factorization."""
    u = as_word(u)
    if not is_lyndon(u):
        raise NotLyndon(f"{u} is not Lyndon")
    if len(u) == 1:
        c = u[0]
        if c > 0:
            return AlgebraElement([((c,), 1), ((-c,), 1)])
        return AlgebraElement([((-c,), 1), ((c,), -1)])
    left, right = standard_factorization(u)
    return lie_bracket(stdbrac(left), stdbrac(right))


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


@dataclass
class ClassifiedPrimitives:
    """Lyndon-factor bracketings of a word, split by involution parity.

    Order within each class is the left-to-right order of the source factors.
    """

    invariant: tuple[AlgebraElement, ...]
    negating: tuple[AlgebraElement, ...]
    invariant_words: tuple[SignedWord, ...]
    negating_words: tuple[SignedWord, ...]
    flavor: Decoration


def classify_word(w: WordLike, flavor: Decoration) -> ClassifiedPrimitives:
    inv, neg, invw, negw = [], [], [], []
    for u in lyndon_factorize(w):
        b = stdbrac(u)
        if classify_primitive(u, flavor) == "invariant":
            inv.append(b)
            invw.append(u)
        else:
            neg.append(b)
            negw.append(u)
    return ClassifiedPrimitives(tuple(inv), tuple(neg), tuple(invw), tuple(negw), flavor)


def symmetrized_product(ps: Sequence[AlgebraElement]) -> AlgebraElement:
    """Sum over all k! orders of the concatenation product of the ps."""
    if not ps:
        return AlgebraElement.unit()
    acc = AlgebraElement.zero()
    for perm in itertools.permutations(ps):
        acc = acc + concat_elements(*perm)
    return acc


def _product(elts: Sequence[AlgebraElement]) -> AlgebraElement:
    if not elts:
        return AlgebraElement.unit()
    return concat_elements(*elts)


def _two_block_setcomps(k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered pairs (B1, B2) of disjoint sets covering {0, ..., k−1}."""
    items = tuple(range(k))
    for mask in itertools.product((0, 1), repeat=k):
        b1 = tuple(i for i in items if mask[i] == 0)
        b2 = tuple(i for i in items if mask[i] == 1)
        yield b1, b2


def build_eigenvector(
    w: WordLike,
    a: int,
    sign: str,
    flavor: Decoration,
    tilde_plus_format: str = "left",
) -> tuple[AlgebraElement, int]:
    """Eigenvector of the chosen riffle operator on the concatenation algebra
    associated with the word w, together with its exact eigenvalue.

    For the flip flavor with odd a and sign '+', two equivalent assemblies
    exist; ``tilde_plus_format`` picks "left" (negating product on the left,
    the canonical basis choice) or "right".
    """
    w = as_word(w)
    if not w:
        raise EmptyWord("no eigenvector for the empty word")
    cls = classify_word(w, flavor)
    ps, qs = cls.invariant, cls.negating
    k, kbar = len(ps), len(qs)
    sym = symmetrized_product(ps)
    even = a % 2 == 0

    if flavor is Decoration.TBAR:
        if even:
            if sign == "+":
                vec = concat_elements(sym, _product(qs)) if kbar else sym
            else:
                vec = concat_elements(_product(qs), sym) if kbar else sym
            value = a**k if kbar == 0 else 0
            return vec, value
        if sign == "+":
            if tilde_plus_format == "left":
                vec = concat_elements(_product(qs), sym) if kbar else sym
            elif tilde_plus_format == "right":
                vec = concat_elements(sym, _product(qs)) if kbar else sym
            else:
                raise ValueError("tilde_plus_format must be 'left' or 'right'")
            return vec, a**k
        # odd a, sign '-': ascending product left of sym plus descending right
        # of sym (the ascending/ascending form is not an eigenvector).
        if kbar:
            vec = concat_elements(_product(qs), sym) + concat_elements(
                sym, _product(tuple(reversed(qs)))
            )
        else:
            vec = sym
        return vec, (-1) ** kbar * a**k

    if flavor is Decoration.BAR:
        if even:
            if kbar:
                raise OutsideBasis(
                    f"{w} has rotation-negating Lyndon factors; even-a rotation "
                    "operators have no eigenvector for it"
                )
            return sym, a**k
        acc = AlgebraElement.zero()
        for b1, b2 in _two_block_setcomps(kbar):
            left = _product([qs[i] for i in b1])
            right = _product([qs[i] for i in reversed(b2)])
            acc = acc + concat_elements(left, sym, right)
        value = a**k if sign == "+" else (-1) ** kbar * a**k
        return acc, value

    raise ValueError("flavor must be BAR or TBAR")


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
    from .words import all_words, distinct_letter_words

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
# the eigenbasis as one int64 matrix

# A homogeneous element as (word codes, int64 coefficients, length).
Coded = tuple[np.ndarray, np.ndarray, int]


def _combine(
    factors: Sequence[Coded], orders: Iterable[tuple[int, Sequence[int]]], count: int, base: int
) -> Coded:
    """Σ sign·(the concatenation of the factors in that order) over the
    ``count`` pairs (sign, order) of ``orders``, merged.  Each order lists
    every factor exactly once.

    The L1 bound of the module docstring is proved before ``orders`` is
    read, so that an overflowing sum is refused before it is enumerated.
    """
    bound = count * math.prod(int(np.abs(coeffs).sum()) for _, coeffs, _ in factors)
    if bound > _INT64_MAX:
        raise CodeOverflow(f"eigenvector coefficients may sum to {bound} in absolute value")
    all_codes, all_coeffs = [], []
    for sign, order in orders:
        codes = np.zeros(1, dtype=np.int64)
        coeffs = np.full(1, sign, dtype=np.int64)
        length = 0
        for i in order:
            fc, fk, fl = factors[i]
            codes = (codes[:, None] + fc * base**length).ravel()
            coeffs = np.multiply.outer(coeffs, fk).ravel()
            length += fl
        all_codes.append(codes)
        all_coeffs.append(coeffs)
    codes, coeffs = _merge_codes(np.concatenate(all_codes), np.concatenate(all_coeffs))
    return codes, coeffs, sum(fl for _, _, fl in factors)


def _eigen_assembly(
    kbar: int, a: int, sign: str, flavor: Decoration
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """How ``build_eigenvector`` assembles its vector from the negating
    bracketings q_0, ..., q_(kbar−1) (factors 0..kbar−1) and the
    symmetrized invariant product (factor kbar): the signed orders of the
    summands, and the sign of the eigenvalue relative to a^k.  Raises
    OutsideBasis where ``build_eigenvector`` does."""
    qs = tuple(range(kbar))
    sym = kbar
    if flavor is Decoration.TBAR:
        if a % 2 == 0:
            order = (sym, *qs) if sign == "+" else (*qs, sym)
            return [(1, order)], 1 if kbar == 0 else 0
        if sign == "+":
            return [(1, (*qs, sym))], 1
        orders = [(1, (*qs, sym))]
        if kbar:
            orders.append((1, (sym, *reversed(qs))))
        return orders, (-1) ** kbar
    if flavor is Decoration.BAR:
        if a % 2 == 0:
            if kbar:
                raise OutsideBasis("even-a rotation operators have no eigenvector here")
            return [(1, (sym,))], 1
        orders = [
            (1, (*b1, sym, *reversed(b2))) for b1, b2 in _two_block_setcomps(kbar)
        ]
        return orders, 1 if sign == "+" else (-1) ** kbar
    raise ValueError("flavor must be BAR or TBAR")


def eigenvector_matrix(
    states: Sequence[SignedWord], a: int, sign: str, flavor: Decoration
) -> tuple[np.ndarray, np.ndarray, tuple[SignedWord, ...]]:
    """The eigenvectors of the words of ``states`` as the rows of one int64
    matrix over the state basis.

    Returns (V, mu, words).  words are the states, in order, that have an
    eigenvector: all of them, except the words with a negating factor under
    an even-a rotation operator.  Row r of V holds the coefficients of
    ``build_eigenvector(words[r], a, sign, flavor)`` on ``states``, and
    mu[r] is its eigenvalue, so V and mu equal the ``eigenbasis`` vectors
    written over the states.  Each bracketing is built once per Lyndon
    word, and coefficients are int64 under the bounds of the module
    docstring, past which CodeOverflow is raised.  Raises KeyError naming
    a word of an eigenvector that is not a state, and the errors of
    ``descent._state_codes`` for the states.
    """
    n = len(states[0]) if len(states) else 0
    if n == 0 and len(states):
        raise EmptyWord("no eigenvector for the empty word")
    _, m, order, sorted_codes = _state_codes(states, n)
    base = 2 * m + 1
    brackets: dict[SignedWord, Coded] = {}

    def bracket(u: SignedWord) -> Coded:
        if u not in brackets:
            if len(u) == 1:
                i = abs(u[0])
                codes = np.array([i + m, m - i], dtype=np.int64)
                coeffs = np.array([1, 1 if u[0] > 0 else -1], dtype=np.int64)
                brackets[u] = (codes, coeffs, 1)
            else:
                left, right = standard_factorization(u)
                pair = (bracket(left), bracket(right))
                brackets[u] = _combine(pair, ((1, (0, 1)), (-1, (1, 0))), 2, base)
        return brackets[u]

    rows, mus, words = [], [], []
    for w in states:
        ps, qs = [], []
        for u in lyndon_factorize(w):
            (ps if classify_primitive(u, flavor) == "invariant" else qs).append(bracket(u))
        try:
            orders, value_sign = _eigen_assembly(len(qs), a, sign, flavor)
        except OutsideBasis:
            continue
        perms = ((1, p) for p in itertools.permutations(range(len(ps))))
        sym = _combine(ps, perms, math.factorial(len(ps)), base)
        codes, coeffs, _ = _combine(qs + [sym], orders, len(orders), base)
        rows.append((_state_index(order, sorted_codes, codes, m, n), coeffs))
        mus.append(value_sign * a ** len(ps))
        words.append(w)
    V = np.zeros((len(rows), len(states)), dtype=np.int64)
    for r, (cols, coeffs) in enumerate(rows):
        V[r, cols] = coeffs
    return V, np.array(mus, dtype=np.int64), tuple(words)


# ---------------------------------------------------------------------------
# Lyndon-word enumeration and primitive dimension counts


def lyndon_words(max_label: int, degree: int) -> list[SignedWord]:
    """All Lyndon words of the given degree over labels <= max_label."""
    from .words import all_words

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
