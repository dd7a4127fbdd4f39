"""The two Hopf structures on signed words, and the involutions.

Shuffle algebra: product = sum of interleavings, coproduct = deconcatenation.
Free associative (concatenation) algebra: product = concatenation, coproduct
= deshuffling.  The rotation involution bars every letter in place; the flip
involution reverses the word and bars every letter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Union

from .errors import SizeMismatch
from .words import AlgebraElement, SignedWord, WordLike, as_word

SHUFFLE = "shuffle"
CONCAT = "concat"

Element = Union[SignedWord, AlgebraElement]


def _as_element(x: Element) -> AlgebraElement:
    if isinstance(x, AlgebraElement):
        return x
    return AlgebraElement.from_word(as_word(x))


# ---------------------------------------------------------------------------
# position splits


def _position_splits(n: int, parts: Sequence[int]):
    """Yield tuples of disjoint sorted position-tuples with the given sizes.

    Block i takes parts[i] of the positions that the earlier blocks leave,
    in lexicographic order; the last block takes all the rest.  Deshuffling,
    the shuffle product and the descent programs all read this one walk.
    """

    def rec(remaining: tuple, idx: int):
        if idx >= len(parts) - 1:
            yield (remaining,) if parts else ()
            return
        for chosen in itertools.combinations(remaining, parts[idx]):
            taken = set(chosen)
            rest = tuple(p for p in remaining if p not in taken)
            for tail in rec(rest, idx + 1):
                yield (chosen,) + tail

    yield from rec(tuple(range(n)), 0)


# ---------------------------------------------------------------------------
# shuffle algebra


def shuffle_product(factors: Sequence[Element]) -> AlgebraElement:
    """Product in the shuffle algebra: sum of all interleavings.

    The interleavings of words u and v are the position splits of
    |u| + |v| into blocks of sizes (|u|, |v|): u is written to the first
    block and v to the second.  Multi-factor products iterate the binary
    product; interleavings are counted with multiplicity (repeated letters
    can make coefficients > 1).
    """
    result = AlgebraElement.unit()
    for f in factors:
        elt = _as_element(f)
        acc: dict[SignedWord, Fraction] = {}
        for w1, c1 in result:
            for w2, c2 in elt:
                c = c1 * c2
                total = len(w1) + len(w2)
                for split in _position_splits(total, (len(w1), len(w2))):
                    merged = [0] * total
                    for block, word in zip(split, (w1, w2)):
                        for p, letter in zip(block, word):
                            merged[p] = letter
                    mw = SignedWord(merged)
                    acc[mw] = acc.get(mw, 0) + c
        result = AlgebraElement(acc)
    return result


def deconcatenate(w: WordLike, parts: Sequence[int]) -> tuple[SignedWord, ...]:
    """Split w into consecutive segments with the given lengths."""
    w = as_word(w)
    if any(p < 0 for p in parts) or sum(parts) != len(w):
        raise SizeMismatch(f"parts {tuple(parts)} are not a weak composition of {len(w)}")
    out = []
    i = 0
    for p in parts:
        out.append(SignedWord(w[i : i + p]))
        i += p
    return tuple(out)


# ---------------------------------------------------------------------------
# concatenation algebra


def concat_product(factors: Sequence[Element]) -> Element:
    """Product in the concatenation algebra.

    On words returns the concatenated word; on AlgebraElements (or a mix)
    extends bilinearly and returns an AlgebraElement.
    """
    if not any(isinstance(f, AlgebraElement) for f in factors):
        joined: list[int] = []
        for f in factors:
            joined.extend(as_word(f))
        return SignedWord(joined)
    result = AlgebraElement.unit()
    for f in factors:
        elt = _as_element(f)
        acc: dict[SignedWord, Fraction] = {}
        for w1, c1 in result:
            for w2, c2 in elt:
                mw = SignedWord(tuple(w1) + tuple(w2))
                c = c1 * c2
                acc[mw] = acc.get(mw, 0) + c
        result = AlgebraElement(acc)
    return result


def concat_elements(*factors: Element) -> AlgebraElement:
    """Concatenation product, always returning an AlgebraElement."""
    out = concat_product(list(factors))
    return out if isinstance(out, AlgebraElement) else AlgebraElement.from_word(out)


def deshuffle(w: WordLike, parts: Sequence[int]) -> list[tuple[SignedWord, ...]]:
    """Coproduct of the concatenation algebra, refined by part sizes.

    Returns the list of slot tuples (coefficient +1 each, duplicates kept):
    all ways of distributing the positions of w into subsequences of the
    prescribed sizes, each keeping the original left-to-right order.
    """
    w = as_word(w)
    if any(p < 0 for p in parts) or sum(parts) != len(w):
        raise SizeMismatch(f"parts {tuple(parts)} are not a weak composition of {len(w)}")
    out = []
    for split in _position_splits(len(w), parts):
        out.append(tuple(SignedWord(w[p] for p in chosen) for chosen in split))
    return out


# ---------------------------------------------------------------------------
# involutions


def tau(x: Element) -> Element:
    """Rotation: bar every letter, order unchanged.  Linear on elements."""
    if isinstance(x, AlgebraElement):
        return x.map_words(lambda w: w.bar())
    return as_word(x).bar()


def tau_tilde(x: Element) -> Element:
    """Flip: reverse the word and bar every letter.  Linear on elements."""
    if isinstance(x, AlgebraElement):
        return x.map_words(lambda w: w.flip())
    return as_word(x).flip()


INVOLUTIONS = {"tau": tau, "tau_tilde": tau_tilde}


def project_invariant(x: Element, which: str = "tau", sign: str = "+") -> AlgebraElement:
    """(x + σ(x))/2 or (x − σ(x))/2 for the chosen involution σ."""
    if which not in INVOLUTIONS:
        raise ValueError(f"which must be 'tau' or 'tau_tilde', got {which!r}")
    x = _as_element(x)
    sx = INVOLUTIONS[which](x)
    if sign == "+":
        return (x + sx) / 2
    if sign == "-":
        return (x - sx) / 2
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def lie_bracket(x: Element, y: Element) -> AlgebraElement:
    """[x, y] = xy − yx in the concatenation algebra."""
    x, y = _as_element(x), _as_element(y)
    return concat_elements(x, y) - concat_elements(y, x)
