"""Lyndon words over the signed alphabet, signed standard-bracketing, and
eigenvector construction for the four riffle operators on the concatenation
algebra.

The alphabet order is 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ...; a word is Lyndon when it is
strictly smaller than all its proper cyclic rotations.  The signed
standard-bracketing lifts a Lyndon word to a primitive element: single
letters map to i+ī (plain) or i−ī (barred), longer words bracket their
standard factorization recursively.

There is one assembly, on coded words: ``_bracket`` builds bracketings,
``_eigen_plan`` names an eigenvector's eigenvalue and the orders in which
its factors are concatenated, each with an integer weight so that no two
coincide, and ``_concat`` concatenates coded factors in those orders, for
a stack of elements whose factors share their shapes, one per row.
``_combine`` runs it on one row and merges the terms by
``descent._merge_codes``, the merge of ``apply_operator``.
``_ranked_assembly`` runs that on one word, its labels ranked by
``descent._ranked_words``, from the signed seed i ↦ i + ī, ī ↦ i − ī,
and decodes one AlgebraElement for ``stdbrac`` and ``build_eigenvector``
(and so ``eigenbasis``).  ``pbw_matrix`` runs it from the same seed on
the factor orders of PBW monomials, and writes their columns over a
basis of words: the matrix of ``verify``'s triangularity check.
``eigenvector_matrix`` runs ``_concat`` from the plain-letter seed,
i ↦ i and ī ↦ i, on the words that bar the labels <= k of a basis of
plain states, grouped by the shapes of their factors, and writes the
rows of one int64 matrix over those states: for distinct letters the
signed eigenvector is the plain one times a sign character, so the n!
rows of one k stand for the 2^n·n! signed rows of the chain
certificate.  A plain-seed bracketing depends only on its word and the
base 2m+1, so its memo is built once per degree: kept per (labels, m),
for at most 8 of them, and shared by every k, a, sign and flavor.  The
AlgebraElement assemblies it replaced, the rows built one by one, and
the signed rows over all states are kept in the tests as the reference.
It is exact by this argument:

- A word y with labels in [-m, m] is coded as the integer
  Σ_k (y_k + m)·(2m+1)^k (``descent.StateBasis``, the coding of
  ``descent.image_table``).  Every code of a word of length at most n is
  below (2m+1)^n.  For states, their coding proves that this fits in
  int64; ``_ranked_assembly`` codes in Python integers when it does not.
  The code of a concatenation xy is code(x) + code(y)·(2m+1)^|x|, so the
  codes of a product never leave that range.
- Each eigenvector, and each bracketing inside it, is a sum of
  concatenations of the same factors f_1, ..., f_r in different orders,
  each times an integer weight, and ``count`` is the sum of the |weights|.
  The sum of the absolute values of its coefficients, and so of every
  partial sum formed while multiplying and merging (each slot of the
  merge's dense accumulator is one, and so is each entry of the matrix
  that ``eigenvector_matrix`` adds rows into), is at most count·Π‖f_i‖₁.
  That bound is computed in Python integers from the exact L1 norms of the
  factors (for a stack of rows, the largest norm of each factor), and
  CodeOverflow is raised before any int64 arithmetic when it exceeds
  2^63 − 1.  Integers never wrap: ``eigenvector_matrix`` refuses there,
  and ``_ranked_assembly`` runs the same assembly on Python-integer
  coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import BadCount, CodeOverflow, EmptyWord, NotLyndon, OutsideBasis, SingleLetter
from .words import AlgebraElement, SignedWord, WordLike, all_words, as_word, distinct_letter_words
from .descent import (
    _INT64_MAX,
    _TABLE_CODES,
    Decoration,
    StateBasis,
    _code_dtype,
    _decode_words,
    _distinct,
    _merge_codes,
    _ranked_words,
)
from .spectral import riffle_eigenvalue


def _letter_keys(w: SignedWord) -> list[int]:
    """The keys 2|x| + [x > 0] of w's letters, which order letters as
    ``words.letter_key`` does: 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ..."""
    return [2 * abs(c) + (c > 0) for c in w]


def is_lyndon(w: WordLike) -> bool:
    """True iff w strictly precedes every proper cyclic rotation of itself."""
    w = as_word(w)
    if not w:
        raise EmptyWord("the empty word is not eligible")
    k = _letter_keys(w)
    return all(k < k[i:] + k[:i] for i in range(1, len(k)))


def lyndon_factorize(w: WordLike) -> tuple[SignedWord, ...]:
    """Duval's algorithm: the unique non-increasing Lyndon factorization,
    in one scan of w's letter keys."""
    w = as_word(w)
    if not w:
        raise EmptyWord("cannot factorize the empty word")
    k = _letter_keys(w)
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
            factors.append(SignedWord._trusted(w[start : start + width]))
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
    return "invariant" if _is_invariant(u, flavor) else "negating"


def _is_invariant(u: SignedWord, flavor: Decoration) -> bool:
    """``classify_primitive`` by letter parity, for a u known to be Lyndon."""
    if flavor is Decoration.BAR:
        return sum(c < 0 for c in u) % 2 == 0
    if flavor is Decoration.TBAR:
        return sum(c > 0 for c in u) % 2 == 1
    raise ValueError("flavor must be BAR or TBAR")


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
    formula); the emitted set still spans a complement of it.  Raises
    BadCount for n < 0 or N < 1.
    """
    if n < 0:
        raise BadCount(f"need n >= 0, got n={n}")
    if N < 1:
        raise BadCount(f"need N >= 1, got N={N}")
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


def _refuse_past_int64(count: int, norms: Iterable[int]) -> None:
    """Raise CodeOverflow when the L1 bound count·Π norms of the module
    docstring, taken in Python integers, passes 2^63 − 1."""
    bound = count * math.prod(norms)
    if bound > _INT64_MAX:
        raise CodeOverflow(f"eigenvector coefficients may sum to {bound} in absolute value")


def _concat(factors: Sequence[Coded], orders: Sequence[tuple[int, Sequence[int]]], base: int) -> Coded:
    """Σ weight·(the concatenation of the factors in that order) over the
    pairs (weight, order) of ``orders``, for G elements at once.  Each
    factor holds one element per row, as G×t codes and G×t coefficients,
    and its length; each order lists every factor exactly once.  The result
    holds each row's terms, G×(len(orders)·Πt), in order and unmerged, in
    the factors' dtypes."""
    all_codes, all_coeffs = [], []
    for weight, order in orders:
        codes, coeffs, length = factors[order[0]]
        coeffs = coeffs if weight == 1 else coeffs * weight
        for i in order[1:]:
            fc, fk, fl = factors[i]
            codes = (codes[:, :, None] + fc[:, None, :] * base**length).reshape(len(fc), -1)
            coeffs = (coeffs[:, :, None] * fk[:, None, :]).reshape(len(fk), -1)
            length += fl
        all_codes.append(codes)
        all_coeffs.append(coeffs)
    return np.concatenate(all_codes, axis=1), np.concatenate(all_coeffs, axis=1), length


def _combine(
    factors: Sequence[Coded], orders: Iterable[tuple[int, Sequence[int]]], count: int, base: int
) -> Coded:
    """Σ weight·(the concatenation of the factors in that order) over the
    pairs (weight, order) of ``orders``, whose |weights| sum to ``count``,
    for one element: ``_concat`` on one row, merged by
    ``descent._merge_codes``.  Each order lists every factor exactly once,
    and the factors share one dtype for codes and one for coefficients,
    which the result keeps.

    For int64 coefficients, the L1 bound of the module docstring is proved
    before ``orders`` is read, so that an overflowing sum is refused before
    it is enumerated.
    """
    if factors[0][1].dtype != object:
        _refuse_past_int64(count, (int(np.abs(coeffs).sum()) for _, coeffs, _ in factors))
    orders = list(orders)
    if orders == [(1, (0,))]:  # one factor, already merged
        return factors[0]
    codes, coeffs, length = _concat([(c[None], k[None], fl) for c, k, fl in factors], orders, base)
    codes, coeffs = _merge_codes(codes[0], coeffs[0], base**length)
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


@functools.lru_cache(maxsize=8)
def _plain_letters(labels: tuple[int, ...], m: int) -> dict[SignedWord, Coded]:
    """Both i and ī ↦ i for the given labels (at most m), coded in base
    2m+1 in int64: the plain-letter seed of the block rows of
    ``eigenvector_matrix``.  The memo, with every ``_bracket`` built into
    it, is kept per (labels, m), for at most 8 of them."""
    memo = {}
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
    n = len(w)
    labels, W = _ranked_words([w], n)
    ranked = SignedWord._trusted(W[0].tolist())
    R = len(labels)

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


def _eigen_plan(
    kp: int, kbar: int, a: int, sign: str, flavor: Decoration
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """(eigenvalue, orders) of an eigenvector with kp invariant and kbar
    negating Lyndon factors: ``spectral.riffle_eigenvalue``, and the
    (weight, order) pairs in which it concatenates the negating
    bracketings q_0, ..., q_(kbar−1) (factors 0..kbar−1) and, when kp > 0,
    the symmetrized product of the invariant ones (factor kbar).  With no
    invariant factor that product is the empty word and is left out, and
    orders that then coincide are one order, their weights summed.
    Raises ValueError for a bad sign or flavor, and OutsideBasis for
    negating factors under an even-a rotation operator."""
    value = riffle_eigenvalue(a, sign, kp, kbar)
    qs = tuple(range(kbar))
    sym = (kbar,) if kp else ()
    if flavor is Decoration.TBAR:
        if a % 2 == 0:
            orders = [(*sym, *qs) if sign == "+" else (*qs, *sym)]
        elif sign == "+" or not kbar:
            orders = [(*qs, *sym)]
        else:
            orders = [(*qs, *sym), (*sym, *reversed(qs))]
    elif flavor is Decoration.BAR:
        if a % 2 == 0 and kbar:
            raise OutsideBasis(
                "the word has rotation-negating Lyndon factors; even-a rotation operators only assign "
                "eigenvectors to words whose Lyndon factors all have an even number of barred letters"
            )
        # q_i left of the product, ascending, or right of it, descending
        orders = [
            (*(i for i in qs if not right[i]), *sym, *(i for i in reversed(qs) if right[i]))
            for right in itertools.product((False, True), repeat=kbar)
        ]
    else:
        raise ValueError("flavor must be BAR or TBAR")
    return value, [(weight, order) for order, weight in Counter(orders).items()]


def _eigenvector_codes(
    w: SignedWord, a: int, sign: str, flavor: Decoration, m: int, memo: dict[SignedWord, Coded]
) -> tuple[Coded, int]:
    """The eigenvector of the word w (labels in [-m, m]) coded in base
    2m+1, and its eigenvalue: the bracketings of w's Lyndon factors from
    ``memo`` (seeded by ``_letter_brackets`` or ``_plain_letters``),
    assembled as ``_eigen_plan`` says.  Raises ValueError for a bad sign
    and OutsideBasis before any bracketing is built."""
    base = 2 * m + 1
    ps, qs = [], []
    for u in lyndon_factorize(w):
        (ps if _is_invariant(u, flavor) else qs).append(u)
    value, orders = _eigen_plan(len(ps), len(qs), a, sign, flavor)
    perms = ((1, p) for p in itertools.permutations(range(len(ps))))
    sym = [_combine([_bracket(u, base, memo) for u in ps], perms, math.factorial(len(ps)), base)] if ps else []
    factors = [_bracket(u, base, memo) for u in qs] + sym
    return _combine(factors, orders, sum(abs(weight) for weight, _ in orders), base), value


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
    w = words[r] on ``states``, and mu[r] is its eigenvalue.

    Each bracketing is built once per degree: the plain-seed memo is kept
    by ``_plain_letters`` per (labels, m), for at most 8 of them, so the
    n + 1 blocks of a chain and every chain on the same labels share it.
    The rows are built by shape.  Words whose invariant and negating
    factors have the same numbers of terms and lengths, in order, share
    their eigenvalue, their orders and every array shape: their
    bracketings stack into G×t arrays, and ``_concat`` assembles the
    group at once.  The rows are not merged, and need not be.  For
    distinct letters a bracketing of a Lyndon word of length L has
    2^(L−1) distinct terms, each ±1 (Reutenauer, Free Lie Algebras, 1993),
    and a concatenation of nonempty words on disjoint letter sets is read
    back from its letters, order included.  So two terms of a row could be
    equal only if they came from two orders that differ just by the place
    of the empty product of no invariant factor, and ``_eigen_plan`` has
    made such orders one, of weight 2.  One ``np.add.at`` writes the
    group into U.  Coefficients are int64: the L1 bound of
    the module docstring is checked once per group, before any int64
    arithmetic, and past it CodeOverflow is raised.  A group is assembled
    in chunks of at most ``descent._TABLE_CODES`` terms (at least one
    row), so its stacks stay far below U's size.

    The states are read as a ``descent.StateBasis``, coded once per call
    unless they are one.  Raises ValueError unless the states are plain
    words with distinct letters, KeyError naming a word of some C_w that
    is not a state, BadCount for a < 1 or a k that is neither 0 nor a
    label, and the errors of ``StateBasis`` for the states.  A refusal of
    the assembly (CodeOverflow or KeyError) is the one of the first word,
    in state order, that has one.
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
    labels = _distinct(basis.W).tolist()
    if k != 0 and k not in labels:
        raise BadCount(f"k must be 0 or a label of the states, got k={k}")
    memo = _plain_letters(tuple(labels), basis.m)
    base = 2 * basis.m + 1
    plans = {}  # (invariant, negating) factor counts: the ``_eigen_plan``, or None outside the basis
    groups: dict[tuple, list] = {}  # (invariant count, (terms, length) per factor): [(row, bracketings)]
    mus, words, refused = [], [], []  # refused: (row, the error of its assembly)
    for w in map(SignedWord._trusted, np.where(basis.W <= k, -basis.W, basis.W).tolist()):
        ps, qs = [], []
        for u in lyndon_factorize(w):
            (ps if _is_invariant(u, flavor) else qs).append(u)
        kinds = (len(ps), len(qs))
        if kinds not in plans:
            try:
                plans[kinds] = _eigen_plan(*kinds, a, sign, flavor)
            except OutsideBasis:
                plans[kinds] = None
        if plans[kinds] is None:
            continue
        try:
            brackets = [_bracket(u, base, memo) for u in ps + qs]
        except CodeOverflow as exc:
            refused.append((len(words), exc))
            break
        shape = (len(ps), tuple((len(codes), length) for codes, _, length in brackets))
        groups.setdefault(shape, []).append((len(words), brackets))
        mus.append(plans[kinds][0])
        words.append(w)
    U = np.zeros((len(words), len(basis)), dtype=np.int64)
    for (kp, shape), members in groups.items():
        rows = np.array([r for r, _ in members])
        stacks = [
            (np.array([b[j][0] for _, b in members]), np.array([b[j][1] for _, b in members]), length)
            for j, (_, length) in enumerate(shape)
        ]
        orders = plans[kp, len(shape) - kp][1]
        count = math.factorial(kp) * sum(abs(weight) for weight, _ in orders)
        norms = [int(abs(coeffs).sum(1).max()) for _, coeffs, _ in stacks]
        try:
            if kp:  # the bound of the symmetrized product, built first
                _refuse_past_int64(math.factorial(kp), norms[:kp])
            _refuse_past_int64(count, norms)
        except CodeOverflow as exc:
            refused.append((int(rows[0]), exc))
            continue
        perms = [(1, p) for p in itertools.permutations(range(kp))]
        step = max(1, _TABLE_CODES // (count * math.prod(t for t, _ in shape)))
        for s in range(0, len(rows), step):
            part = [(codes[s : s + step], coeffs[s : s + step], length) for codes, coeffs, length in stacks]
            sym = [_concat(part[:kp], perms, base)] if kp else []
            codes, coeffs, _ = _concat(part[kp:] + sym, orders, base)
            try:
                cols = basis.index_codes(codes)
            except KeyError:
                refused.append(_first_missing(basis, codes, rows[s : s + step]))
                break
            np.add.at(U.reshape(-1), (cols + rows[s : s + step, None] * len(basis)).ravel(), coeffs.ravel())
    if refused:
        raise min(refused, key=lambda e: e[0])[1]
    return U, np.array(mus, dtype=np.int64), tuple(words)


def _first_missing(basis: StateBasis, codes: np.ndarray, rows: np.ndarray) -> tuple[int, KeyError]:
    """(row, KeyError) for the first of the G×T ``codes`` rows that holds
    a word outside the basis: the error that row raises merged, naming its
    least such word."""
    for g, row in enumerate(rows.tolist()):
        try:
            basis.index_codes(np.sort(codes[g]))
        except KeyError as exc:
            return row, exc
    raise ValueError("every row lies in the basis")  # unreachable: the caller's lookup failed


def pbw_matrix(basis: StateBasis, monomials: Sequence[Sequence[SignedWord]]) -> np.ndarray:
    """The int64 matrix whose column j is the PBW monomial
    stdbrac(u_1)·⋯·stdbrac(u_r) of monomials[j] = (u_1, ..., u_r), read
    on the words of ``basis``: the Lyndon words' bracketings from the
    signed seed of ``_letter_brackets`` over the labels 1..m of the basis,
    concatenated in the monomial's factor order by ``_combine``.  The empty
    monomial is the unit.  Raises CodeOverflow past the int64 bound of the
    module docstring, KeyError naming a word of a monomial that is not in
    the basis, and SingleLetter for a letter past m."""
    base = 2 * basis.m + 1
    memo = _letter_brackets(range(1, basis.m + 1), basis.m, np.int64, np.int64)
    V = np.zeros((len(basis), len(monomials)), dtype=np.int64)
    for j, mono in enumerate(monomials):
        factors = [_bracket(u, base, memo) for u in mono] or [memo[SignedWord._trusted(())]]
        codes, coeffs, _ = _combine(factors, [(1, tuple(range(len(factors))))], 1, base)
        V[basis.index_codes(codes), j] = coeffs
    return V


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
