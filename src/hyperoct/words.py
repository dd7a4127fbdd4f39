"""Signed words and exact-rational linear combinations of them.

A signed letter is a nonzero integer code: ``k > 0`` is the plain card k,
``-k`` is k with a bar (rotated/flipped orientation).  The alphabet order is
1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ... ≺ N̄ ≺ N, i.e. barred just below its plain partner.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import NotHomogeneous, NotInAlphabet


def letter_key(code: int) -> tuple[int, int]:
    """Sort key realising the alphabet order 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ..."""
    return (abs(code), 1 if code > 0 else 0)


class SignedWord(tuple):
    """An immutable word of signed letters (tuple of nonzero int codes)."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        try:
            codes = tuple(map(operator.index, letters))
        except (TypeError, ValueError) as exc:  # a float, a string, or a token ``parse`` cannot read
            raise NotInAlphabet(f"letters must be integers: {exc}") from None
        if any(c == 0 for c in codes):
            raise NotInAlphabet(f"0 is not a signed letter: {codes}")
        return super().__new__(cls, codes)

    @classmethod
    def _trusted(cls, letters: Iterable[int]) -> "SignedWord":
        """Wrap letters that are already nonzero Python ints, without
        converting or checking them."""
        return tuple.__new__(cls, letters)

    @property
    def degree(self) -> int:
        return len(self)

    def bar(self) -> "SignedWord":
        """Bar every letter in place (the rotation involution on words)."""
        return SignedWord(-c for c in self)

    def reverse(self) -> "SignedWord":
        return SignedWord(reversed(self))

    def flip(self) -> "SignedWord":
        """Reverse and bar every letter (the flip involution on words)."""
        return SignedWord(-c for c in reversed(self))

    def __str__(self) -> str:
        return " ".join(str(c) for c in self) if self else "e"

    def __repr__(self) -> str:
        return f"SignedWord({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "SignedWord":
        """Parse the text format: space-separated nonzero ints, 'e' = empty."""
        text = text.strip()
        if text in ("", "e"):
            return cls()
        return cls(int(tok) for tok in text.split())


EMPTY_WORD = SignedWord()

WordLike = Union[SignedWord, tuple, list]


def as_word(w: WordLike) -> SignedWord:
    return w if isinstance(w, SignedWord) else SignedWord(w)


def word_lex_key(w) -> tuple:
    """Lexicographic key for whole words under the alphabet order."""
    return tuple(letter_key(c) for c in w)


Coefficient = Union[int, Fraction]


def exact_coeff(c) -> Coefficient:
    """c as a Python int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class AlgebraElement:
    """A finite formal QQ-linear combination of signed words.

    Stores no zero coefficients; equality is coefficient-wise.  Every
    coefficient is in ``exact_coeff`` form: a Python int when integral, a
    Fraction only when a real division made one.  Which Hopf structure
    (shuffle vs concatenation) an element lives in is chosen per operation,
    not stored on the element.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        acc: dict[SignedWord, Coefficient] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for w, c in items:
            w = as_word(w)
            c = exact_coeff(c)
            if not c:
                continue
            new = exact_coeff(acc.get(w, 0) + c)
            if new:
                acc[w] = new
            else:
                acc.pop(w, None)
        self._terms = acc

    @classmethod
    def _trusted(cls, terms: dict) -> "AlgebraElement":
        """Wrap a dict of SignedWord keys and nonzero coefficients that are
        already in ``exact_coeff`` form, without copying or checking it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def from_word(cls, w: WordLike, coeff=1) -> "AlgebraElement":
        return cls([(w, coeff)])

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def unit(cls) -> "AlgebraElement":
        """The empty word with coefficient 1 (the unit of either algebra)."""
        return cls([(EMPTY_WORD, 1)])

    def coeff(self, w: WordLike) -> Coefficient:
        return self._terms.get(as_word(w), 0)

    def terms(self) -> dict[SignedWord, Coefficient]:
        return dict(self._terms)

    def words(self) -> Iterator[SignedWord]:
        return iter(self._terms)

    def canonical_items(self) -> list[tuple[SignedWord, Coefficient]]:
        """Terms sorted by the alphabet-order lex key on words."""
        return sorted(self._terms.items(), key=lambda kv: word_lex_key(kv[0]))

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            new = exact_coeff(acc.get(w, 0) + c)
            if new:
                acc[w] = new
            else:
                acc.pop(w, None)
        return AlgebraElement._trusted(acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._trusted({w: -c for w, c in self._terms.items()})

    def __mul__(self, scalar) -> "AlgebraElement":
        s = exact_coeff(scalar)
        terms = {w: exact_coeff(c * s) for w, c in self._terms.items()} if s else {}
        return AlgebraElement._trusted(terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "AlgebraElement":
        return self * (Fraction(1) / Fraction(scalar))

    def degree(self) -> int:
        """Common degree of a homogeneous non-zero element."""
        degs = {len(w) for w in self._terms}
        if len(degs) != 1:
            raise NotHomogeneous(f"degrees present: {sorted(degs)}")
        return degs.pop()

    def map_words(self, fn) -> "AlgebraElement":
        """Apply a word -> word map linearly."""
        return AlgebraElement((fn(w), c) for w, c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for w, c in self.canonical_items():
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            pieces.append(f"{coeff}({w})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"AlgebraElement({len(self._terms)} terms)"

    def to_json(self) -> list[dict]:
        """Canonical JSON form: [{"coeff": "p/q", "word": [int, ...]}, ...]."""
        return [
            {"coeff": str(c), "word": list(w)} for w, c in self.canonical_items()
        ]

    @classmethod
    def from_json(cls, data) -> "AlgebraElement":
        if isinstance(data, str):
            data = json.loads(data)
        return cls((SignedWord(d["word"]), Fraction(d["coeff"])) for d in data)


def all_words(n: int, max_label: int) -> list[SignedWord]:
    """All words of degree n over labels <= max_label, in canonical order."""
    alphabet = [c for v in range(1, max_label + 1) for c in (-v, v)]
    return [SignedWord(p) for p in itertools.product(alphabet, repeat=n)]


def signed_permutations(n: int) -> list[SignedWord]:
    """All 2^n n! signed permutations of n, in canonical order."""
    return distinct_letter_words(n, n)


def distinct_letter_words(n: int, max_label: int) -> list[SignedWord]:
    """Degree-n words over labels <= max_label using distinct labels, in
    canonical order.

    They are built as one int64 array, every arrangement of n labels under
    every sign pattern, and sorted by one ``np.lexsort`` on the per-letter
    key 2·|x| + [x > 0], which orders letters as the alphabet does.
    """
    arrangements = np.array(list(itertools.permutations(range(1, max_label + 1), n)), dtype=np.int64)
    signs = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)
    A = (arrangements.reshape(len(arrangements), 1, n) * signs).reshape(len(arrangements) * len(signs), n)
    if n:  # np.lexsort refuses an empty key list; the one empty word is sorted
        keys = 2 * np.abs(A) + (A > 0)
        A = A[np.lexsort(keys.T[::-1])]
    return list(map(SignedWord._trusted, A.tolist()))
