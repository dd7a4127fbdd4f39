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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import CodeOverflow, FlavorMismatch, NotHomogeneous, SizeMismatch
from .words import AlgebraElement, SignedWord, WordLike, as_word
from . import algebra as alg


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
            size = int(tok[: len(tok) - len(suffix)])
            parts.append((size, _FROM_SUFFIX[suffix]))
        return cls(tuple(parts))

    def to_json(self) -> list:
        return [[s, d.value] for s, d in self.parts]


def compositions(n: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """All weak-compositions of n into num_parts parts, lexicographically."""
    if num_parts == 0:
        if n == 0:
            yield ()
        return
    if num_parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, num_parts - 1):
            yield (first,) + rest


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
    """A linear combination of elementary operators of one flavor and degree."""

    terms: dict[DecoratedComposition, Fraction]
    degree: int

    def __post_init__(self):
        self.terms = {D: Fraction(c) for D, c in self.terms.items() if c}
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
        return cls({D: Fraction(1)}, D.total)

    def __add__(self, other: "DescentOperator") -> "DescentOperator":
        if other.degree != self.degree:
            raise SizeMismatch("cannot add operators of different degree")
        acc = dict(self.terms)
        for D, c in other.terms.items():
            acc[D] = acc.get(D, Fraction(0)) + c
        return DescentOperator(acc, self.degree)

    def __mul__(self, scalar) -> "DescentOperator":
        s = Fraction(scalar)
        return DescentOperator({D: c * s for D, c in self.terms.items()}, self.degree)

    __rmul__ = __mul__

    def canonical_items(self) -> list[tuple[DecoratedComposition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].to_json())

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "comp": D.to_json()} for D, c in self.canonical_items()
        ]


# ---------------------------------------------------------------------------
# elementary action on words
#
# Both operators reduce, term by coproduct term, to "signed position
# programs": output[k] = sign_k * w[src_k].  On the shuffle algebra the
# single deconcatenation split feeds every interleaving; on the concat
# algebra every position split feeds a single concatenation.  Programs
# depend only on (D, algebra), so they are compiled once and cached.


def _merge_patterns(lengths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All sequences using slot i exactly lengths[i] times (interleavings)."""
    n = sum(lengths)
    l = len(lengths)

    def rec(prefix: list, remaining: tuple):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for i in range(l):
            if remaining[i]:
                prefix.append(i)
                yield from rec(prefix, remaining[:i] + (remaining[i] - 1,) + remaining[i + 1 :])
                prefix.pop()

    yield from rec([], tuple(lengths))


@functools.lru_cache(maxsize=4096)
def _programs(D: DecoratedComposition, algebra: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Compiled coproduct terms of m∘Δ_D: tuples of (src_index, sign)."""
    sizes = D.undecorate()
    decs = [d for _, d in D.parts]
    n = sum(sizes)
    starts = []
    pos = 0
    for s in sizes:
        starts.append(pos)
        pos += s
    out: list[tuple[tuple[int, int], ...]] = []
    if algebra == alg.SHUFFLE:
        slot_sources = []
        for i, (s, d) in enumerate(zip(sizes, decs)):
            rng = range(starts[i], starts[i] + s)
            if d is Decoration.PLAIN:
                slot_sources.append([(p, 1) for p in rng])
            elif d is Decoration.BAR:
                slot_sources.append([(p, -1) for p in rng])
            else:
                slot_sources.append([(p, -1) for p in reversed(rng)])
        for pattern in _merge_patterns(sizes):
            cursors = [0] * len(sizes)
            prog = []
            for slot in pattern:
                prog.append(slot_sources[slot][cursors[slot]])
                cursors[slot] += 1
            out.append(tuple(prog))
    elif algebra == alg.CONCAT:
        for split in alg._position_splits(n, sizes):
            prog = []
            for chosen, d in zip(split, decs):
                if d is Decoration.PLAIN:
                    prog.extend((p, 1) for p in chosen)
                elif d is Decoration.BAR:
                    prog.extend((p, -1) for p in chosen)
                else:
                    prog.extend((p, -1) for p in reversed(chosen))
            out.append(tuple(prog))
    else:
        raise ValueError(f"unknown algebra {algebra!r}")
    return tuple(out)


def elementary_action(D: DecoratedComposition, w: WordLike, algebra: str) -> Iterator[tuple]:
    """Words (with multiplicity, as a stream) of the elementary operator on w.

    Every emitted word carries coefficient +1; duplicates encode coefficients.
    """
    w = tuple(as_word(w))
    if D.total != len(w):
        raise SizeMismatch(f"{D} does not split a degree-{len(w)} word")
    for prog in _programs(D, algebra):
        yield tuple(sg * w[i] for i, sg in prog)


def apply_elementary(D: DecoratedComposition, w: WordLike, algebra: str) -> AlgebraElement:
    """m ∘ Δ_D applied to a single word, as an exact AlgebraElement."""
    acc: dict[SignedWord, Fraction] = {}
    for out in elementary_action(D, w, algebra):
        sw = SignedWord(out)
        acc[sw] = acc.get(sw, 0) + 1
    return AlgebraElement(acc)


def apply_operator(T: DescentOperator, x, algebra: str) -> AlgebraElement:
    """Linear extension of apply_elementary over the operator's terms.

    Large integer-coefficient elements take an array path when their words
    code in int64; otherwise, and for small or fractional elements, the
    word-by-word path runs.  The result is exact either way.
    """
    if not isinstance(x, AlgebraElement):
        x = AlgebraElement.from_word(as_word(x))
    if not x:
        return AlgebraElement.zero()
    if x.degree() != T.degree:
        raise NotHomogeneous(
            f"operator degree {T.degree} vs element degree {x.degree()}"
        )
    if len(x) > 128 and all(
        c.denominator == 1 for c in x.terms().values()
    ) and all(c.denominator == 1 for c in T.terms.values()):
        out = _apply_operator_vectorized(T, x, algebra)
        if out is not None:
            return out
    acc: dict[SignedWord, Fraction] = {}
    for D, cD in T.terms.items():
        for w, cw in x:
            c = cD * cw
            for out in elementary_action(D, w, algebra):
                sw = SignedWord(out)
                new = acc.get(sw, 0) + c
                if new:
                    acc[sw] = new
                else:
                    acc.pop(sw, None)
    return AlgebraElement(acc)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _word_coder(W: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """(m, powers) coding each row y of W as Σ_k (y_k + m)·(2m+1)^k, where m
    is the largest |label|; None when (2m+1)^n does not fit in int64."""
    m = int(np.abs(W).max(initial=0))
    if (2 * m + 1) ** W.shape[1] > _INT64_MAX:
        return None
    return m, (2 * m + 1) ** np.arange(W.shape[1], dtype=np.int64)


def _program_arrays(D: DecoratedComposition, algebra: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The programs of D as (source positions, signs) arrays."""
    for prog in _programs(D, algebra):
        yield (
            np.fromiter((i for i, _ in prog), dtype=np.intp, count=len(prog)),
            np.fromiter((sg for _, sg in prog), dtype=np.int64, count=len(prog)),
        )


def _apply_operator_vectorized(
    T: DescentOperator, x: AlgebraElement, algebra: str
) -> Optional[AlgebraElement]:
    """The array path of apply_operator; None when the words do not code in
    int64.

    Every partial sum of the accumulator is bounded by
    Σ_D |c_D|·#programs(D)·Σ_w |c_w|.  Past int64 the coefficients are
    summed as Python integers (object arrays), so the result stays exact.
    """
    n = T.degree
    words = list(x.words())
    W = np.array([tuple(w) for w in words], dtype=np.int64)
    coder = _word_coder(W)
    if coder is None:
        return None
    maxlab, powers = coder
    base = 2 * maxlab + 1
    coeffs = [int(x.coeff(w)) for w in words]
    budget = sum(abs(int(c)) * len(_programs(D, algebra)) for D, c in T.terms.items())
    dtype = np.int64 if budget * sum(map(abs, coeffs)) <= _INT64_MAX else object
    cvec = np.array(coeffs, dtype=dtype)
    code_chunks = []
    sum_chunks = []
    for D, cD in T.terms.items():
        ci = int(cD)
        for src, sgn in _program_arrays(D, algebra):
            codes = (W[:, src] * sgn + maxlab) @ powers
            uc, inv = np.unique(codes, return_inverse=True)
            sums = np.zeros(len(uc), dtype=dtype)
            np.add.at(sums, inv, ci * cvec)
            code_chunks.append(uc)
            sum_chunks.append(sums)
    allc = np.concatenate(code_chunks)
    alls = np.concatenate(sum_chunks)
    uc, inv = np.unique(allc, return_inverse=True)
    sums = np.zeros(len(uc), dtype=dtype)
    np.add.at(sums, inv, alls)
    acc = {}
    for code, s in zip(uc.tolist(), sums.tolist()):
        if not s:
            continue
        letters = []
        c = code
        for _ in range(n):
            letters.append(c % base - maxlab)
            c //= base
        acc[SignedWord(letters)] = Fraction(s)
    return AlgebraElement(acc)


def riffle_operator(a: int, sign: str, flavor: Decoration, n: int) -> DescentOperator:
    """The a-handed riffle operator: all a-part compositions of n, decorating
    even-indexed parts (sign '+') or odd-indexed parts (sign '-'), 1-based."""
    if a < 1:
        raise ValueError("a must be >= 1")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if flavor not in (Decoration.BAR, Decoration.TBAR):
        raise ValueError("flavor must be BAR or TBAR")
    parity = 1 if sign == "+" else 0
    terms = {}
    for sizes in compositions(n, a):
        D = DecoratedComposition(
            tuple(
                (s, flavor if i % 2 == parity else Decoration.PLAIN)
                for i, s in enumerate(sizes)
            )
        )
        terms[D] = Fraction(1)
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
    terms: dict[DecoratedComposition, Fraction] = {}
    for M in mats:
        E = reader(M)
        terms[E] = terms.get(E, Fraction(0)) + 1
    return DescentOperator(terms, D.total)


# ---------------------------------------------------------------------------
# matrices of operators on a word basis


def image_table(
    T: DescentOperator, states: Sequence[SignedWord], algebra: str
) -> tuple[np.ndarray, np.ndarray]:
    """Index table of T on a basis of words: (images, coeffs).

    Column k belongs to the k-th program over T's terms (D in term order,
    then the programs of D).  images[i, k] is the index in ``states`` of the
    image of states[i] under that program, and coeffs[k] is c_D, so that
    T(states[i]) = Σ_k coeffs[k]·states[images[i, k]].  ``images`` is int32
    and column-major, so that each column is contiguous.

    Words are coded in base 2m+1 (m the largest |label|) and looked up among
    the sorted state codes.  Raises CodeOverflow when (2m+1)^n does not fit
    in int64, KeyError when an image leaves the basis, ValueError for
    fractional coefficients or repeated states, and SizeMismatch for a state
    whose length is not T's degree.
    """
    n = T.degree
    if any(len(w) != n for w in states):
        raise SizeMismatch(f"operator of degree {n} on states of other lengths")
    if any(c.denominator != 1 for c in T.terms.values()):
        raise ValueError("operator_matrix needs integer coefficients")
    W = np.array([tuple(w) for w in states], dtype=np.int64).reshape(len(states), n)
    coder = _word_coder(W)
    if coder is None:
        raise CodeOverflow(f"words of length {n} with labels up to {int(np.abs(W).max())}")
    m, powers = coder
    codes = (W + m) @ powers
    order = np.argsort(codes)
    sorted_codes = codes[order]
    if (sorted_codes[1:] == sorted_codes[:-1]).any():
        raise ValueError("states repeat a word")
    images = np.empty(
        (sum(len(_programs(D, algebra)) for D in T.terms), len(states)), dtype=np.int32
    )
    coeffs = np.empty(len(images), dtype=np.int64)
    k = 0
    offset = m * int(powers.sum())  # the m of every digit, added once
    for D, c in T.terms.items():
        for src, sgn in _program_arrays(D, algebra):
            img = W[:, src] @ (sgn * powers) + offset
            pos = np.searchsorted(sorted_codes, img)
            hit = pos < len(states)
            hit[hit] = sorted_codes[pos[hit]] == img[hit]
            if not hit.all():
                i = int(np.flatnonzero(~hit)[0])
                raise KeyError(tuple(int(v) for v in W[i, src] * sgn))
            images[k] = order[pos]
            coeffs[k] = int(c)
            k += 1
    return images.T, coeffs


def operator_matrix(
    T: DescentOperator,
    states: Sequence[SignedWord],
    algebra: str,
    table: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Integer matrix M with M[i, j] = coefficient of states[j] in T(states[i]).

    Built from ``image_table(T, states, algebra)``, or from ``table`` when
    the caller already holds it, and so subject to its limits: words must
    code in int64, i.e. (2m+1)^n < 2^63 for m the largest |label| (else
    CodeOverflow); T needs integer coefficients (else ValueError); and the
    span of the states must be closed under T (true for distinct-letter
    bases; else KeyError names an image word outside the basis).
    """
    images, coeffs = table if table is not None else image_table(T, states, algebra)
    M = np.zeros((len(states), len(states)), dtype=np.int64)
    rows = np.arange(len(states))
    for col, c in zip(images.T, coeffs.tolist()):
        M[rows, col] += c  # one image per row, so no index repeats
    return M
