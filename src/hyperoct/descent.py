"""Decorated weak-compositions, hyperoctahedral descent operators, and the
Mantaci–Reutenauer composition law with its compatible-matrix combinatorics.

An elementary operator indexed by a decorated composition D acts on a word by
"split by the undecorated composition, apply the involution (rotation for bar
decorations, flip for tilde-bar) to the decorated slots, remultiply".  On the
shuffle algebra the split is deconcatenation and the product is shuffling; on
the concatenation algebra the split is deshuffling and the product is
concatenation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import BadCount, CodeOverflow, FlavorMismatch, NotHomogeneous, SizeMismatch
from .words import AlgebraElement, Coefficient, SignedWord, WordLike, as_word, exact_coeff
from . import algebra as alg
from .exactla import exact_product


class Decoration(Enum):
    PLAIN = "plain"
    BAR = "bar"
    TBAR = "tbar"


_SUFFIX = {Decoration.PLAIN: "", Decoration.BAR: "b", Decoration.TBAR: "t"}
_FROM_SUFFIX = {"": Decoration.PLAIN, "b": Decoration.BAR, "t": Decoration.TBAR}


@dataclass(frozen=True)
class DecoratedComposition:
    """A weak-composition whose parts may carry bar or tilde-bar decorations.

    The two decoration types never co-occur within one composition.
    """

    parts: tuple[tuple[int, Decoration], ...]

    def __post_init__(self):
        decs = {d for _, d in self.parts if d is not Decoration.PLAIN}
        if len(decs) > 1:
            raise FlavorMismatch(f"mixed decorations in {self.parts}")
        if any(s < 0 for s, _ in self.parts):
            raise SizeMismatch(f"negative part in {self.parts}")

    @classmethod
    def of(cls, *parts: Union[int, tuple[int, Decoration]]) -> "DecoratedComposition":
        norm = []
        for p in parts:
            if isinstance(p, tuple):
                norm.append((int(p[0]), p[1]))
            else:
                norm.append((int(p), Decoration.PLAIN))
        return cls(tuple(norm))

    @classmethod
    def from_sizes(
        cls, sizes: Sequence[int], decorated: Iterable[int] = (), flavor: Decoration = Decoration.BAR
    ) -> "DecoratedComposition":
        """Build from sizes plus the 0-based indices of decorated parts."""
        dec = set(decorated)
        return cls(
            tuple(
                (int(s), flavor if i in dec else Decoration.PLAIN)
                for i, s in enumerate(sizes)
            )
        )

    @property
    def total(self) -> int:
        return sum(s for s, _ in self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def undecorate(self) -> tuple[int, ...]:
        """D+ : forget decorations."""
        return tuple(s for s, _ in self.parts)

    @property
    def flavor(self) -> Decoration:
        """BAR or TBAR if any part is decorated, else PLAIN."""
        for _, d in self.parts:
            if d is not Decoration.PLAIN:
                return d
        return Decoration.PLAIN

    def decorated_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, d) in enumerate(self.parts) if d is not Decoration.PLAIN)

    def __str__(self) -> str:
        return ",".join(f"{s}{_SUFFIX[d]}" for s, d in self.parts)

    @classmethod
    def parse(cls, text: str) -> "DecoratedComposition":
        """Parse e.g. "2b,4,0,2b" (bar) or "2t,5" (tilde-bar)."""
        parts = []
        for tok in text.strip().split(","):
            tok = tok.strip()
            suffix = tok[-1] if tok and tok[-1] in "bt" else ""
            try:
                size = int(tok[: len(tok) - len(suffix)])
            except ValueError:
                raise SizeMismatch(f"part {tok!r} of {text!r} is not a size") from None
            parts.append((size, _FROM_SUFFIX[suffix]))
        return cls(tuple(parts))

    def to_json(self) -> list:
        return [[s, d.value] for s, d in self.parts]


def compositions(n: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """All weak-compositions of n into num_parts parts, lexicographically."""
    return _rows_with_caps(n, (n,) * num_parts)


def strict_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n with positive parts."""
    for l in range(1, n + 1):
        for c in compositions(n - l, l):
            yield tuple(x + 1 for x in c)


def decorated_compositions(n: int, flavor: Decoration) -> Iterator[DecoratedComposition]:
    """All zero-free decorated compositions of n with the given flavor."""
    for sizes in strict_compositions(n):
        for mask in itertools.product((False, True), repeat=len(sizes)):
            yield DecoratedComposition(
                tuple(
                    (s, flavor if m else Decoration.PLAIN)
                    for s, m in zip(sizes, mask)
                )
            )


@dataclass
class DescentOperator:
    """A linear combination of elementary operators of one flavor and degree.
    Every coefficient is in ``words.exact_coeff`` form: an int, or a
    Fraction only after a real division."""

    terms: dict[DecoratedComposition, Coefficient]
    degree: int

    def __post_init__(self):
        self.terms = {D: exact_coeff(c) for D, c in self.terms.items() if c}
        flavors = {D.flavor for D in self.terms if D.flavor is not Decoration.PLAIN}
        if len(flavors) > 1:
            raise FlavorMismatch("operator mixes bar and tilde-bar compositions")
        if any(D.total != self.degree for D in self.terms):
            raise SizeMismatch("operator mixes composition totals")

    @property
    def flavor(self) -> Decoration:
        for D in self.terms:
            if D.flavor is not Decoration.PLAIN:
                return D.flavor
        return Decoration.PLAIN

    @classmethod
    def elementary(cls, D: DecoratedComposition) -> "DescentOperator":
        return cls({D: 1}, D.total)

    def __add__(self, other: "DescentOperator") -> "DescentOperator":
        if other.degree != self.degree:
            raise SizeMismatch("cannot add operators of different degree")
        acc = dict(self.terms)
        for D, c in other.terms.items():
            acc[D] = acc.get(D, 0) + c
        return DescentOperator(acc, self.degree)

    def __mul__(self, scalar) -> "DescentOperator":
        s = exact_coeff(scalar)
        return DescentOperator({D: c * s for D, c in self.terms.items()}, self.degree)

    __rmul__ = __mul__

    def canonical_items(self) -> list[tuple[DecoratedComposition, Coefficient]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].to_json())

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "comp": D.to_json()} for D, c in self.canonical_items()
        ]


# ---------------------------------------------------------------------------
# elementary action on words
#
# Every coproduct term of m∘Δ_D is a "signed position program": output[k] =
# sign[k]·w[src[k]].  Programs depend only on (D, algebra); each D compiles
# once into one table, a read-only P×n pair (src, sign) with one row per
# program.  Both algebras read the same walk over the position splits of the
# sizes of D's nonempty parts: an empty part takes no position and deals no
# card, so the walk never visits it.  A split is a riffle in the
# inverse-shuffle view (Bayer and Diaconis, 1992): block i holds the output
# positions that pile i deals to.  Its dealing order lists the positions in
# the order the cards are dealt: pile by pile, ascending within a pile and
# descending within a flipped (tilde-bar) pile, so the j-th card of the cut,
# w[j], goes to the j-th position of the order.  The shuffle algebra deals
# that way (_deal); the concat algebra reads the same order as src, slot i
# reading block i in dealing order.  markov.batch_step deals random pile
# labels by _dealing_order, one sort of keys.  apply_operator and
# image_table run every input through these tables; elementary_action reads
# them one row at a time and is the word-by-word reference.


def _dealing_order(
    labels: np.ndarray, a: int, flipped: Optional[Callable[[np.ndarray], np.ndarray]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The dealing order of R×n pile labels in [0, a): (piles, order), where
    the j-th card dealt in row r comes from pile piles[r, j] and goes to
    output position order[r, j].  Pile i deals to the positions labelled i,
    after piles 0..i−1, ascending, or descending where flipped(i).

    Position p sorts by the key label·n + p, or label·n + (n − 1 − p) in a
    flipped pile.  The keys of a row are distinct, so every sort gives this
    one order; they sort as int16 while a·n fits."""
    n = labels.shape[1]
    dtype = np.int16 if a * n <= np.iinfo(np.int16).max else np.int64
    p = np.arange(n, dtype=dtype)
    keys = labels.astype(dtype)
    keys *= n
    keys += p
    if flipped is not None:
        keys += flipped(labels) * (n - 1 - p - p)
    keys.sort(axis=1)
    piles = keys // n
    order = np.subtract(keys, piles * n, out=keys)
    if flipped is not None:
        order += flipped(piles) * (n - 1 - order - order)
    return piles, order


def _deal(order: np.ndarray, cards: np.ndarray) -> np.ndarray:
    """out[r, order[r, j]] = cards[r, j]: the j-th card dealt to its position
    (cards broadcasts to the shape of order)."""
    R, n = order.shape
    flat = order.astype(np.intp)
    flat += np.arange(R)[:, None] * n
    out = np.empty(order.shape, dtype=cards.dtype)
    out.ravel()[flat.ravel()] = np.broadcast_to(cards, order.shape).ravel()
    return out


def _piles(D: DecoratedComposition) -> DecoratedComposition:
    """D without its empty parts, which deal no card: the one key under
    which ``_programs`` compiles every D that has the same table."""
    return DecoratedComposition(tuple(p for p in D.parts if p[0]))


@functools.lru_cache(maxsize=4096)
def _programs(D: DecoratedComposition, algebra: str) -> tuple[np.ndarray, np.ndarray]:
    """The programs of m∘Δ_D as read-only P×n arrays (src, sign).  Callers
    pass ``_piles(D)``, so that each table compiles once."""
    if algebra not in (alg.SHUFFLE, alg.CONCAT):
        raise ValueError(f"unknown algebra {algebra!r}")
    piles = [(s, d) for s, d in D.parts if s]  # an empty part deals no card
    sizes = [s for s, _ in piles]
    splits = alg._position_splits(D.total, sizes)
    positions = np.array([[p for chosen in split for p in chosen] for split in splits], dtype=np.intp)
    # every block of a split is ascending: reversing the flipped blocks gives the dealing order
    cols = np.arange(D.total)
    for start, (s, d) in zip(itertools.accumulate(sizes, initial=0), piles):
        if d is Decoration.TBAR:
            cols[start : start + s] = cols[start : start + s][::-1]
    order = positions[:, cols]
    sign = np.repeat(np.array([1 if d is Decoration.PLAIN else -1 for _, d in piles], dtype=np.int64), sizes)
    if algebra == alg.SHUFFLE:
        src, sign = _deal(order, np.arange(D.total, dtype=np.intp)), _deal(order, sign)
    else:
        src, sign = order, np.tile(sign, (len(order), 1))
    src.setflags(write=False)
    sign.setflags(write=False)
    return src, sign


def elementary_action(D: DecoratedComposition, w: WordLike, algebra: str) -> Iterator[tuple]:
    """Words (with multiplicity, as a stream) of the elementary operator on w.

    Every emitted word carries coefficient +1; duplicates encode coefficients.
    """
    w = tuple(as_word(w))
    if D.total != len(w):
        raise SizeMismatch(f"{D} does not split a degree-{len(w)} word")
    src, sign = _programs(_piles(D), algebra)
    for row, signs in zip(src.tolist(), sign.tolist()):
        yield tuple(g * w[i] for i, g in zip(row, signs))


def apply_elementary(D: DecoratedComposition, w: WordLike, algebra: str) -> AlgebraElement:
    """m ∘ Δ_D applied to a single word, as an exact AlgebraElement."""
    acc: dict[SignedWord, int] = {}
    for out in elementary_action(D, w, algebra):
        sw = SignedWord(out)
        acc[sw] = acc.get(sw, 0) + 1
    return AlgebraElement(acc)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _code_dtype(m: int, n: int):
    """int64 when every base-(2m+1) code of a length-n word fits in it, else
    object (Python integers)."""
    return np.int64 if (2 * m + 1) ** n <= _INT64_MAX else object


def _powers(m: int, n: int, dtype) -> np.ndarray:
    """The digit weights (2m+1)^k, k < n, of the base-(2m+1) word code."""
    return np.array([(2 * m + 1) ** k for k in range(n)], dtype=dtype)


# The largest code range (2m+1)^n that gets a direct-address state array:
# 32 MiB of int32, enough for the 13^6 codes of the n = 6 signed permutations.
_DIRECT_CODES = 1 << 23


class StateBasis(tuple):
    """The tuple of a basis of distinct length-n words, coded once: it
    carries the W, m and lookup that image tables, eigenvector matrices and
    chains read, and ``StateBasis(basis, n)`` is the basis itself.

    W is the read-only N×n int64 array of the states and m their largest
    |label|.  A word y (labels in [-m, m]) codes as Σ_k (y_k + m)·(2m+1)^k,
    little endian, in [0, (2m+1)^n).  When (2m+1)^n ≤ ``_DIRECT_CODES``,
    ``lookup`` is the direct-address int32 array of length (2m+1)^n that
    holds, at each code, the index of its state, or -1 for a word that is
    not a state (0.6 MiB for the n = 5 signed permutations).  Past that
    bound it is the pair (order, sorted_codes): ``order`` sorts the state
    codes and ``sorted_codes`` holds them in that order, for a binary
    search.  Raises SizeMismatch for a state of another length,
    CodeOverflow when (2m+1)^n does not fit in int64, and ValueError for a
    repeated state.
    """

    def __new__(cls, states: Sequence[SignedWord], n: int) -> "StateBasis":
        if isinstance(states, cls) and states.n == n:
            return states
        self = super().__new__(cls, states)
        if any(len(w) != n for w in self):
            raise SizeMismatch(f"degree-{n} words expected, states have other lengths")
        W = np.array(self, dtype=np.int64).reshape(len(self), n)
        m = int(np.abs(W).max(initial=0))
        if _code_dtype(m, n) is object:
            raise CodeOverflow(f"words of length {n} with labels up to {m}")
        codes = (W + m) @ _powers(m, n, np.int64)
        if len(_distinct(codes)) != len(codes):
            raise ValueError("states repeat a word")
        if (2 * m + 1) ** n <= _DIRECT_CODES:
            lookup = np.full((2 * m + 1) ** n, -1, dtype=np.int32)
            lookup[codes] = np.arange(len(codes), dtype=np.int32)
        else:
            order = np.argsort(codes)
            lookup = (order, codes[order])
        for a in (W, *lookup) if isinstance(lookup, tuple) else (W, lookup):
            a.setflags(write=False)
        self.W, self.m, self.n, self.lookup = W, m, n, lookup
        return self

    def index_codes(self, codes: np.ndarray) -> np.ndarray:
        """The state index of each int64 word code in ``codes`` (any shape).
        Raises KeyError naming the first word that is not a state.

        The direct array is read by one gather.  Image codes of programs lie
        in its range by construction, as programs only move letters and add
        bars, but codes from elsewhere need not, and numpy would wrap a
        negative index: so every code is first checked to lie in
        [0, (2m+1)^n).  One max checks both ends, as a negative code read as
        uint64 lies past 2^63.
        """
        lookup, m, n = self.lookup, self.m, self.n
        if isinstance(lookup, np.ndarray):
            if codes.view(np.uint64).max(initial=0) < len(lookup):
                index = lookup[codes]
                if index.min(initial=0) >= 0:
                    return index
                hit = index >= 0
            else:
                hit = (codes >= 0) & (codes < len(lookup))
                hit[hit] = lookup[codes[hit]] >= 0
        else:
            order, sorted_codes = lookup
            pos = np.searchsorted(sorted_codes, codes)
            hit = pos < len(sorted_codes)
            hit[hit] = sorted_codes[pos[hit]] == codes[hit]
            if hit.all():
                return order[pos]
        code = int(codes[~hit].flat[0])
        raise KeyError(tuple(code // (2 * m + 1) ** k % (2 * m + 1) - m for k in range(n)))

    def index_words(self, words: np.ndarray) -> np.ndarray:
        """The state index of each row of the int64 array ``words``.  Raises
        KeyError naming the first word that is not a state.

        Every word is range-checked before it is coded: a word of another
        length is not a state, and a label past the states' largest |label|
        m would carry into the next digit of its code and could alias a
        state.
        """
        if words.shape[1] != self.n:
            raise KeyError(tuple(words[0].tolist()))
        outside = (np.abs(words) > self.m).any(axis=1)
        if outside.any():
            raise KeyError(tuple(words[outside][0].tolist()))
        return self.index_codes((words + self.m) @ _powers(self.m, self.n, np.int64))


def _merge_codes(codes: np.ndarray, sums: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes, sorted, with the sums of their coefficients,
    less the zero sums.  Every code lies in [0, limit) (word codes:
    limit = (2m+1)^n), and the caller has bounded the sums for their dtype.

    Int64 codes and sums with limit ≤ 4·len(codes) are summed into a dense
    int64 accumulator of one slot per code, by one ``np.add.at``; its
    nonzero slots are the result, already sorted.  Each slot holds a
    partial sum of the coefficients, which the caller's L1 bound keeps
    within int64, so the sums are exact.  The accumulator takes at most
    32 bytes per input code.  Every other input is ordered by one argsort,
    and the coefficients of equal codes are summed.
    """
    if codes.dtype == sums.dtype == np.int64 and limit <= 4 * len(codes):
        acc = np.zeros(limit, dtype=np.int64)
        np.add.at(acc, codes, sums)
        codes = np.flatnonzero(acc)
        return codes, acc[codes]
    order = np.argsort(codes)
    codes[:] = codes[order]
    sums = sums[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    sums = np.add.reduceat(sums, starts)
    keep = sums != 0
    return codes[starts][keep], sums[keep]


# The N·P image codes below which ``_image_codes`` keeps numpy's int64
# matmul, whose fixed cost is lower there (4.6 against 10.5 µs at
# 48×3 @ 3×27; 19.7 against 16.5 µs at 384×4 @ 4×16, near the crossing).
# Past it the float64 BLAS product wins (112 against 70 µs at 3840×5 @ 5×8,
# 301 against 99 µs at 3840×5 @ 5×17).
_BLAS_CODES = 1 << 13


def _image_codes(W: np.ndarray, m: int, src: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """N×P codes of the images of the rows of W under the programs (src, sign).

    A word y (labels in [-m, m]) codes as Σ_k (y_k + m)·(2m+1)^k, in W's
    dtype.  Program q writes sign[q, k]·w[src[q, k]] to position k, so the
    codes are one product W·C + m·Σ_k (2m+1)^k, with the n×P matrix
    C[j, q] = Σ_{k : src[q, k] = j} sign[q, k]·(2m+1)^k.  No partial sum of
    a row of W times a column of C exceeds m·Σ_k (2m+1)^k < (2m+1)^n / 2 in
    absolute value, so the product is exact in float64 whenever (2m+1)^n
    <= 2^53 and in int64 whenever (2m+1)^n fits.  Int64 W runs through
    ``exactla.exact_product``, whose bound picks float64 BLAS on tiles of
    at most 256 rows or int64, once N·P reaches ``_BLAS_CODES``; smaller
    products, and object W, keep numpy's matmul in W's dtype.
    """
    n = W.shape[1]
    powers = _powers(m, n, W.dtype)
    C = np.zeros((n, len(src)), dtype=W.dtype)
    np.add.at(C, (src, np.arange(len(src))[:, None]), sign.astype(W.dtype) * powers)
    if W.dtype == object or len(W) * len(src) < _BLAS_CODES:
        codes = W @ C
    else:
        codes = exact_product(W, C)
    codes += m * sum(powers.tolist())
    return codes


def _operator_programs(T: DescentOperator, algebra: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(src, sign, sizes): the programs of T's terms, stacked in term order, and their counts."""
    tables = [_programs(_piles(D), algebra) for D in T.terms]
    empty = np.empty((0, T.degree), dtype=np.intp)  # for an operator with no term
    src = np.concatenate([empty] + [s for s, _ in tables])
    sign = np.concatenate([empty] + [g for _, g in tables])
    return src, sign, [len(s) for s, _ in tables]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a (any shape), sorted: one sort and a mask
    of its neighbours.  A plain ``np.unique`` takes a hash path, slower
    here, and first asks ``np.ma.is_masked``, which imports numpy.ma."""
    a = np.sort(a, axis=None)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _ranked_words(words: Sequence[Sequence[int]], n: int) -> tuple[list[int], np.ndarray]:
    """(labels, W): the sorted |labels| of the length-n words, and the
    len(words)×n array of their letters, each letter ±labels[r − 1] written
    as its rank ±r, in the code dtype of base 2R+1 (R = len(labels)): the
    letters that ``_decode_words`` decodes.  Words whose |labels| fit in
    int64 are ranked by one ``_distinct`` and one ``searchsorted``; past
    int64 they are ranked in Python."""
    try:
        A = np.fromiter(itertools.chain.from_iterable(words), np.int64, len(words) * n).reshape(len(words), n)
    except OverflowError:
        A = None
    if A is not None and A.min(initial=0) > -_INT64_MAX:  # |label| fits in int64
        magnitude = np.abs(A)
        labels = _distinct(magnitude)
        W = np.searchsorted(labels, magnitude) + 1
        W = np.where(A < 0, -W, W)
        labels = labels.tolist()
    else:
        labels = sorted({abs(c) for w in words for c in w})
        rank = {label: r for r, label in enumerate(labels, 1)}
        W = np.array([[rank[c] if c > 0 else -rank[-c] for c in w] for w in words], dtype=np.int64)
    return labels, W.astype(_code_dtype(len(labels), n), copy=False)


def _decode_words(codes: np.ndarray, labels: Sequence[int], n: int) -> list[SignedWord]:
    """The length-n words of the codes, in base 2R+1 over the ranks of the
    R sorted ``labels``: digit d is the rank d − R, and rank ±r is the
    label ±labels[r − 1].  No digit of a word code is R (rank 0)."""
    R = len(labels)
    digits = (codes[:, None] // _powers(R, n, codes.dtype) % (2 * R + 1)).astype(np.intp)
    lut = np.array([-c for c in reversed(labels)] + [0] + list(labels), dtype=object)
    return list(map(SignedWord._trusted, lut[digits].tolist()))


def apply_operator(T: DescentOperator, x, algebra: str) -> AlgebraElement:
    """T(x) for an algebra element or a word x, exactly.

    One kernel runs for every input.  The coefficients of x and of T are
    scaled to integers by the lcm of their denominators.  Each |label| is
    replaced by its rank r among the labels of x, which is exact because
    programs only move letters and add bars.  Every word is coded in base
    2R+1 (R the number of labels), the images of every word under every
    program of T are coded at once, as one product W·C (``_image_codes``),
    and the coefficients of equal codes are summed once (``_merge_codes``).
    Codes are int64 while (2R+1)^n fits in int64 and Python integers past
    it; sums are int64 while their bound Σ_D |c_D|·#programs(D)·Σ_w |c_w|
    fits, and Python integers past it.
    """
    if not isinstance(x, AlgebraElement):
        x = AlgebraElement.from_word(as_word(x))
    if not x:
        return AlgebraElement.zero()
    n = x.degree()
    if n != T.degree:
        raise NotHomogeneous(f"operator degree {T.degree} vs element degree {n}")
    if not T.terms:
        return AlgebraElement.zero()
    words, coeffs = zip(*x)
    src, sign, sizes = _operator_programs(T, algebra)

    scale_x = math.lcm(*(c.denominator for c in coeffs))
    scale_T = math.lcm(*(c.denominator for c in T.terms.values()))
    cw = [c.numerator * (scale_x // c.denominator) for c in coeffs]
    cD = [c.numerator * (scale_T // c.denominator) for c in T.terms.values()]
    bound = sum(abs(c) * k for c, k in zip(cD, sizes)) * sum(map(abs, cw))
    sum_dtype = np.int64 if bound <= _INT64_MAX else object
    per_program = np.repeat(np.array(cD, dtype=sum_dtype), sizes)
    sums = np.multiply.outer(np.array(cw, dtype=sum_dtype), per_program).ravel()

    labels, W = _ranked_words(words, n)
    R = len(labels)
    codes = _image_codes(W, R, src, sign).ravel()

    codes, sums = _merge_codes(codes, sums, (2 * R + 1) ** n)

    words = _decode_words(codes, labels, n)
    scale = scale_x * scale_T
    if scale == 1:
        terms = dict(zip(words, sums.tolist()))
    else:
        terms = {w: exact_coeff(Fraction(s, scale)) for w, s in zip(words, sums.tolist())}
    return AlgebraElement._trusted(terms)


def is_primitive(x, algebra: str) -> bool:
    """Whether every proper coproduct component Δ_(i, n−i)(x), 0 < i < n, of
    the homogeneous element or word x vanishes.

    Concat algebra: concatenation is a bijection from the pairs of words of
    lengths (i, n−i) onto the words of length n, so the component at i
    vanishes iff m∘Δ_(i, n−i)(x), the elementary operator (i, n−i), does.
    Shuffle algebra: the deconcatenation component at i is x read through
    the injective w ↦ (w[:i], w[i:]), so a nonzero x is primitive iff its
    degree is 1: the letters span the primitives.  Raises ValueError for an
    unknown algebra, and NotHomogeneous for degree 0 or mixed degrees.
    """
    if algebra not in (alg.SHUFFLE, alg.CONCAT):
        raise ValueError(f"unknown algebra {algebra!r}")
    x = alg._as_element(x)
    if not x:
        return True
    n = x.degree()
    if n < 1:
        raise NotHomogeneous("primitivity needs degree >= 1")
    if algebra == alg.SHUFFLE:
        return n == 1
    return not any(
        apply_operator(DescentOperator.elementary(DecoratedComposition.of(i, n - i)), x, algebra)
        for i in range(1, n)
    )


def decorated_pile(i, sign: str):
    """Is the 0-based pile (part) i of a riffle decorated?  Sign '+'
    decorates the even-numbered piles, counted from 1, and '-' the odd
    ones.  Also reads an integer array of piles, elementwise."""
    return (i & 1) == (1 if sign == "+" else 0)


def riffle_operator(a: int, sign: str, flavor: Decoration, n: int) -> DescentOperator:
    """The a-handed riffle operator: all a-part compositions of n, with
    the parts that ``decorated_pile`` names decorated."""
    if a < 1:
        raise BadCount(f"need a >= 1, got a={a}")
    if n < 0:
        raise BadCount(f"need n >= 0, got n={n}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if flavor not in (Decoration.BAR, Decoration.TBAR):
        raise ValueError("flavor must be BAR or TBAR")
    terms = {}
    for sizes in compositions(n, a):
        D = DecoratedComposition(
            tuple(
                (s, flavor if decorated_pile(i, sign) else Decoration.PLAIN)
                for i, s in enumerate(sizes)
            )
        )
        terms[D] = 1
    return DescentOperator(terms, n)


# ---------------------------------------------------------------------------
# compatible matrices and the composition law


@dataclass(frozen=True)
class CompatibleMatrix:
    """A matrix compatible with row composition D and column composition D'.

    Only the non-negative sizes are stored; every entry's decoration is
    forced by the sign rule (decorated iff exactly one of its row part and
    column part is decorated).
    """

    sizes: tuple[tuple[int, ...], ...]
    row_comp: DecoratedComposition
    col_comp: DecoratedComposition

    def entry_decoration(self, i: int, j: int) -> Decoration:
        ri = self.row_comp.parts[i][1] is not Decoration.PLAIN
        cj = self.col_comp.parts[j][1] is not Decoration.PLAIN
        if ri == cj:
            return Decoration.PLAIN
        fl = self.row_comp.flavor
        if fl is Decoration.PLAIN:
            fl = self.col_comp.flavor
        return fl

    def entries(self) -> tuple[tuple[tuple[int, Decoration], ...], ...]:
        return tuple(
            tuple((self.sizes[i][j], self.entry_decoration(i, j)) for j in range(len(self.sizes[i])))
            for i in range(len(self.sizes))
        )


def compatible_matrices(D: DecoratedComposition, Dp: DecoratedComposition) -> list[CompatibleMatrix]:
    """All matrices compatible with (D, D'), in lexicographic entry order."""
    if D.total != Dp.total:
        raise SizeMismatch(f"totals differ: {D.total} vs {Dp.total}")
    if (
        D.flavor is not Decoration.PLAIN
        and Dp.flavor is not Decoration.PLAIN
        and D.flavor is not Dp.flavor
    ):
        raise FlavorMismatch(f"flavors differ: {D.flavor} vs {Dp.flavor}")
    rows = D.undecorate()
    cols = Dp.undecorate()
    out: list[CompatibleMatrix] = []

    def rec(i: int, col_left: tuple[int, ...], acc: list[tuple[int, ...]]):
        if i == len(rows):
            if all(c == 0 for c in col_left):
                out.append(CompatibleMatrix(tuple(acc), D, Dp))
            return
        for row in _rows_with_caps(rows[i], col_left):
            acc.append(row)
            rec(i + 1, tuple(c - r for c, r in zip(col_left, row)), acc)
            acc.pop()

    rec(0, cols, [])
    return out


def _rows_with_caps(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Weak compositions of total with per-position caps, lexicographically."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _rows_with_caps(total - first, caps[1:]):
            yield (first,) + rest


def wcomp(M: CompatibleMatrix) -> DecoratedComposition:
    """Row-major read-out of M, decorations carried along (bar flavor)."""
    fl = M.row_comp.flavor if M.row_comp.flavor is not Decoration.PLAIN else M.col_comp.flavor
    if fl is Decoration.TBAR:
        raise FlavorMismatch("wcomp is defined for signed (bar) matrices")
    parts = []
    for i, row in enumerate(M.sizes):
        for j, s in enumerate(row):
            parts.append((s, M.entry_decoration(i, j)))
    return DecoratedComposition(tuple(parts))


def wcomp_tilde(D: DecoratedComposition, M: CompatibleMatrix) -> DecoratedComposition:
    """Row read-out where row i is reversed iff d_i is decorated (tilde flavor)."""
    if D != M.row_comp:
        raise FlavorMismatch("D must be the row composition of M")
    fl = M.row_comp.flavor if M.row_comp.flavor is not Decoration.PLAIN else M.col_comp.flavor
    if fl is Decoration.BAR:
        raise FlavorMismatch("wcomp_tilde is defined for tilde-signed matrices")
    parts = []
    for i, row in enumerate(M.sizes):
        cols = range(len(row))
        order = reversed(cols) if D.parts[i][1] is not Decoration.PLAIN else cols
        for j in order:
            parts.append((row[j], M.entry_decoration(i, j)))
    return DecoratedComposition(tuple(parts))


def compose_law(
    D: DecoratedComposition, Dp: DecoratedComposition, algebra_kind: str
) -> DescentOperator:
    """Predicted operator for (m∘Δ_D) ∘ (m∘Δ_D'), i.e. apply D' first.

    algebra_kind is "commutative" (e.g. the shuffle algebra) or
    "cocommutative" (e.g. the concatenation algebra).
    """
    if D.total != Dp.total:
        raise SizeMismatch("totals differ")
    flavors = {D.flavor, Dp.flavor} - {Decoration.PLAIN}
    if len(flavors) > 1:
        raise FlavorMismatch("flavors differ")
    flavor = flavors.pop() if flavors else Decoration.PLAIN
    tilde = flavor is Decoration.TBAR
    if algebra_kind == "commutative":
        mats = compatible_matrices(Dp, D)
        reader = (lambda M: wcomp_tilde(Dp, M)) if tilde else wcomp
    elif algebra_kind == "cocommutative":
        mats = compatible_matrices(D, Dp)
        reader = (lambda M: wcomp_tilde(D, M)) if tilde else wcomp
    else:
        raise ValueError(f"unknown algebra kind {algebra_kind!r}")
    terms: dict[DecoratedComposition, int] = {}
    for M in mats:
        E = reader(M)
        terms[E] = terms.get(E, 0) + 1
    return DescentOperator(terms, D.total)


# ---------------------------------------------------------------------------
# matrices of operators on a word basis


# Image codes per slice of ``image_table``, and terms per chunk of the rows of
# ``lyndon.eigenvector_matrix``: 512 KiB of int64, small beside a dense matrix.
_TABLE_CODES = 1 << 16


def image_table(
    T: DescentOperator, states: Sequence[SignedWord], algebra: str
) -> tuple[np.ndarray, np.ndarray]:
    """Index table of T on a basis of words: (images, coeffs).

    Column k belongs to the k-th program over T's terms (D in term order,
    then the programs of D).  images[i, k] is the index in ``states`` of the
    image of states[i] under that program, and coeffs[k] is c_D, so that
    T(states[i]) = Σ_k coeffs[k]·states[images[i, k]].  ``images`` is int32
    and column-major, so that each column is contiguous.

    The states are read as a ``StateBasis`` (a plain sequence of words is
    coded once per call), whose lookup finds every image: by one gather
    from a direct-address array, or by a binary search past its bound.
    Raises CodeOverflow when (2m+1)^n or a coefficient does not fit in
    int64, KeyError when an image leaves the basis, ValueError for
    fractional coefficients or repeated states, and SizeMismatch for a
    state whose length is not T's degree.
    """
    if any(c.denominator != 1 for c in T.terms.values()):
        raise ValueError("operator_matrix needs integer coefficients")
    try:
        coeffs = np.array([int(c) for c in T.terms.values()], dtype=np.int64)
    except OverflowError:
        raise CodeOverflow("a coefficient of T does not fit in int64") from None
    basis = StateBasis(states, T.degree)
    src, sign, sizes = _operator_programs(T, algebra)
    coeffs = np.repeat(coeffs, sizes)
    images = np.empty((len(src), len(basis)), dtype=np.int32)
    step = max(1, _TABLE_CODES // max(1, len(basis)))
    for k in range(0, len(src), step):
        codes = _image_codes(basis.W, basis.m, src[k : k + step], sign[k : k + step])
        images[k : k + step] = basis.index_codes(codes).T
    return images.T, coeffs


def operator_matrix(T: DescentOperator, states: Sequence[SignedWord], algebra: str) -> np.ndarray:
    """Integer matrix M with M[i, j] = coefficient of states[j] in T(states[i]).

    Built from ``image_table(T, states, algebra)``, and so subject to its
    limits: words must code in int64, i.e. (2m+1)^n < 2^63 for m the
    largest |label| (else CodeOverflow); T needs integer coefficients (else
    ValueError); and the span of the states must be closed under T (true
    for distinct-letter bases; else KeyError names an image word outside
    the basis).

    Each entry, and each partial sum of it, adds a subset of the
    coefficients of T's programs, so its absolute value is at most the sum
    of |coeffs| over the image table.  M is the smallest of int8, int16,
    int32 and int64 that holds that bound, which is taken in Python
    integers; past int64 it raises CodeOverflow before M is allocated.  A
    product of such matrices can pass their dtype: ``exactla.exact_product``
    widens.
    """
    images, coeffs = image_table(T, states, algebra)
    bound = sum(map(abs, coeffs.tolist()))
    dtype = next((t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max), None)
    if dtype is None:
        raise CodeOverflow(f"entries of T's matrix may reach {bound}, past int64")
    N = len(images)
    M = np.zeros((N, N), dtype=dtype)
    # one scatter over the row-major flat indices: the writes stay local
    flat = np.add(images, (np.arange(N, dtype=np.intp) * N)[:, None], order="C")
    np.add.at(M.reshape(-1), flat.ravel(), np.tile(coeffs.astype(dtype), N))
    return M
