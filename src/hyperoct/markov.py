"""Riffle-shuffle Markov chains on signed permutations.

The transition matrix is the (1/a^n)-scaled matrix of the riffle operator on
the shuffle algebra; a step cuts the deck multinomially into a piles, rotates
(bars in place) or flips (bars and reverses) the decorated piles -- the even
-numbered piles for sign '+', the odd-numbered for sign '-' -- and interleaves
the piles uniformly.  Monte Carlo is a statistical cross-check only.

A step is also one program of the riffle operator, output[p] = ±w[src[p]],
picked at random.  ``batch_step`` samples it in the inverse-shuffle view of
Bayer and Diaconis (1992): every output position draws an iid pile label,
and ``descent._label_programs``, the kernel that compiles the operator's
programs from the same labels, turns the labels into (src, sign).
``sample_step`` keeps the literal four steps as the reference.

Each chain is built once as an image table: the riffle operator has a^n
programs, every coefficient 1, and images[i, k] indexes the k-th image of
state i, so a^n·K(x, y) counts the programs that send x to y.  The exact
products run on that table: v·K scatters v over the images of each state,
and K·f sums f over them.  So do the row and column sums, ``entry``, ``row``
and unique stationarity.  The dense ``counts`` is kept for output
(``to_json``, ``to_csv``) and for the mod-p fixed-space bound of
``stationary_is_unique`` at n <= 2.  No certificate reads it:
``verify.chain_spectrum_certificate`` proves the spectrum on the chain's
n!×n! sign-character blocks, and checks a given chain by its image table.

K is doubly stochastic (its columns sum to 1 as well as its rows), so the
uniform law is stationary and, as it charges every state, every state is
recurrent.  Then the fixed space of K^T has one dimension per communicating
class, and every class is closed (Levin, Peres and Wilmer, Markov Chains
and Mixing Times, ch. 1).  So the stationary law is unique if and only if
state 0 reaches every state: no reverse search is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCount,
    BadIndices,
    FlavorUnsupported,
    HypothesesNotMet,
    NotAState,
    NotIntegral,
    SizeMismatch,
    StateSpaceTooLarge,
)
from .words import SignedWord, WordLike, as_word, signed_permutations
from .descent import Decoration, StateBasis, _label_programs, image_table, operator_matrix, riffle_operator
from . import algebra as alg
from . import exactla
from .spectral import shuffle_multiplicities

ROTATION = "rotation"
FLIP = "flip"

_FLAVOR_DECORATION = {ROTATION: Decoration.BAR, FLIP: Decoration.TBAR}
_SIGNS = {"+": "+", "-": "-", "plus": "+", "minus": "-"}


@dataclass(frozen=True)
class ShuffleSpec:
    """Parameters of a hyperoctahedral riffle shuffle."""

    n: int
    a: int
    sign: str = "+"
    flavor: str = FLIP

    def __post_init__(self):
        if self.n < 1 or self.a < 1:
            raise BadCount(f"need n >= 1 and a >= 1, got n={self.n}, a={self.a}")
        if self.flavor not in (ROTATION, FLIP):
            raise ValueError(f"flavor must be 'rotation' or 'flip', got {self.flavor!r}")
        if self.sign not in _SIGNS:
            raise ValueError(f"sign must be '+'/'-' (or 'plus'/'minus'), got {self.sign!r}")
        object.__setattr__(self, "sign", _SIGNS[self.sign])

    @property
    def decoration(self) -> Decoration:
        return _FLAVOR_DECORATION[self.flavor]

    @property
    def scale(self) -> int:
        return self.a**self.n

    def operator(self):
        return riffle_operator(self.a, self.sign, self.decoration, self.n)


@dataclass
class TransitionMatrix:
    """Exact transition matrix: integer image counts over the scale a^n.

    ``images`` is the image table, one column per program of the riffle
    operator, each with coefficient 1.  ``push``, ``pull``, ``entry``,
    ``row`` and the row and column sums read it, and so does the chain
    certificate, to prove that the table is the spec's chain.  ``to_json``
    and ``to_csv`` read the dense ``counts``, which no certificate reads.
    ``index`` reads the coded basis ``states``.
    """

    spec: ShuffleSpec
    states: StateBasis
    counts: np.ndarray  # int64, counts[i, j] = a^n * K(state_i, state_j)
    images: np.ndarray  # int32, images[i, k] = index of the k-th image of state i

    @property
    def scale(self) -> int:
        return self.spec.scale

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, w: WordLike) -> int:
        """The index of the state w.  Raises NotAState for a word that is
        not a state, and so do ``entry`` and ``row``."""
        w = as_word(w)
        try:
            return int(self.states.index_words(np.array([w], dtype=np.int64))[0])
        except KeyError:
            raise NotAState(f"{w} is not a state of the chain") from None

    def push(self, v: np.ndarray) -> np.ndarray:
        """v·counts: the mass v[i] spread over the images of each state i."""
        out = np.zeros_like(v)
        for col in self.images.T:
            np.add.at(out, col, v)
        return out

    def pull(self, f: np.ndarray) -> np.ndarray:
        """counts·f: f summed over the images of each state."""
        out = np.zeros_like(f)
        for col in self.images.T:
            out += f[col]
        return out

    def entry(self, x: WordLike, y: WordLike) -> Fraction:
        i, j = self.index(x), self.index(y)
        return Fraction(int(np.count_nonzero(self.images[i] == j)), self.scale)

    def row(self, x: WordLike) -> dict[SignedWord, Fraction]:
        targets, hits = np.unique(self.images[self.index(x)], return_counts=True)
        return {
            self.states[j]: Fraction(c, self.scale)
            for j, c in zip(targets.tolist(), hits.tolist())
        }

    def row_sums_exact(self) -> bool:
        """Every row sums to a^n: each program adds its coefficient, 1, once
        to every row, so each row sums to the number of programs."""
        return self.images.shape[1] == self.scale

    def col_sums_exact(self) -> bool:
        """Every column sums to a^n: state j is the image of a^n pairs
        (state, program)."""
        hits = np.bincount(self.images.ravel(order="K"), minlength=self.size)
        return bool((hits == self.scale).all())

    def to_json(self) -> dict:
        return {
            "n": self.spec.n,
            "a": self.spec.a,
            "sign": self.spec.sign,
            "flavor": self.spec.flavor,
            "states": [list(w) for w in self.states],
            "entries": [
                [str(Fraction(int(c), self.scale)) for c in row]
                for row in self.counts
            ],
        }

    def to_csv(self) -> str:
        lines = [",".join(str(w).replace(" ", "_") for w in self.states)]
        for row in self.counts:
            lines.append(",".join(repr(int(c) / self.scale) for c in row))
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _states(n: int) -> StateBasis:
    """The 2^n n! signed permutations in canonical order, coded once per n
    and shared by every chain of degree n."""
    return StateBasis(signed_permutations(n), n)


# The largest deck size of `transition_matrix`: the dense `counts` of
# n = 6 alone would take 17 GB.
_MAX_N = 5


def transition_matrix(spec: ShuffleSpec) -> TransitionMatrix:
    """Exact 2^n n!-state transition matrix of the shuffle, for n <= 5."""
    size = 2**spec.n * math.factorial(spec.n)
    if spec.n > _MAX_N:
        raise StateSpaceTooLarge(
            f"2^{spec.n}*{spec.n}! = {size} states exceeds the limit n <= {_MAX_N}"
        )
    states = _states(spec.n)
    T = spec.operator()
    counts = operator_matrix(T, states, alg.SHUFFLE)  # first: its own table is freed before ours is built
    images, coeffs = image_table(T, states, alg.SHUFFLE)
    if not (coeffs == 1).all():
        raise ValueError(f"the riffle operator of {spec} has a coefficient other than 1")
    return TransitionMatrix(spec, states, counts, images)


# ---------------------------------------------------------------------------
# sampling


def _decorated_pile(i: int, sign: str) -> bool:
    """Is 0-based pile i decorated?  sign '+' decorates even 1-based piles."""
    return i % 2 == (1 if sign == "+" else 0)


def sample_step(spec: ShuffleSpec, x: WordLike, rng: np.random.Generator) -> SignedWord:
    """One literal 4-step shuffle: multinomial cut, rotate/flip decorated
    piles, then drop cards one by one from pile bottoms with probability
    proportional to pile size."""
    x = as_word(x)
    n = spec.n
    sizes = rng.multinomial(n, [1.0 / spec.a] * spec.a)
    piles: list[list[int]] = []
    pos = 0
    for i, d in enumerate(sizes):
        pile = list(x[pos : pos + d])
        pos += d
        if _decorated_pile(i, spec.sign):
            pile = [-c for c in pile]
            if spec.flavor == FLIP:
                pile.reverse()
        piles.append(pile)
    dropped: list[int] = []
    remaining = [len(p) for p in piles]
    total = n
    while total:
        r = rng.integers(0, total)
        for i, cnt in enumerate(remaining):
            if r < cnt:
                dropped.append(piles[i].pop())
                remaining[i] -= 1
                break
            r -= cnt
        total -= 1
    return SignedWord(reversed(dropped))


def batch_step(spec: ShuffleSpec, decks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized shuffle step on an array of decks (rows of letter codes).

    Samples the inverse shuffle (Bayer and Diaconis, 1992): each output
    position draws an iid uniform pile label, whose counts are the pile sizes
    of the cut.  ``descent._label_programs``, which also compiles the riffle
    programs, deals each label row into (src, sign); the deck becomes
    sign·deck[src].
    """
    decorated = [_decorated_pile(i, spec.sign) for i in range(spec.a)]
    flipped = [d and spec.flavor == FLIP for d in decorated]
    src, sign = _label_programs(rng.integers(0, spec.a, size=decks.shape), np.where(decorated, -1, 1), flipped)
    out = np.take_along_axis(decks, src, axis=1)
    out *= sign
    return out


def simulate(
    spec: ShuffleSpec,
    start: WordLike,
    steps: int,
    trials: int,
    seed: Optional[int] = None,
) -> dict:
    """Monte Carlo trajectories; returns per-step means of the descent count.

    Raises SizeMismatch when the start deck does not have spec.n cards,
    NotAState when it is not a signed permutation of 1..n, and BadCount for
    steps < 0 or trials < 1.
    """
    start = as_word(start)
    if len(start) != spec.n:
        raise SizeMismatch(f"a start deck of {len(start)} cards for a {spec.n}-card shuffle")
    if sorted(map(abs, start)) != list(range(1, spec.n + 1)):
        raise NotAState(f"{start} is not a signed permutation of 1..{spec.n}")
    if steps < 0 or trials < 1:
        raise BadCount(f"need steps >= 0 and trials >= 1, got steps={steps}, trials={trials}")
    rng = np.random.default_rng(seed)
    decks = np.tile(np.array(start, dtype=np.int64), (trials, 1))
    means = []
    for _ in range(steps):
        decks = batch_step(spec, decks, rng)
        desc = (decks[:, :-1] > decks[:, 1:]).sum(axis=1)
        means.append(float(desc.mean()))
    return {
        "spec": {"n": spec.n, "a": spec.a, "sign": spec.sign, "flavor": spec.flavor},
        "start": list(start),
        "steps": steps,
        "trials": trials,
        "seed": seed,
        "stat": "descents",
        "means": means,
    }


# ---------------------------------------------------------------------------
# descents and eigenfunctions


def des(w: WordLike) -> int:
    """Descents: adjacent pairs with the left letter exceeding the right as
    signed integers (ī counts as −i)."""
    w = as_word(w)
    return sum(1 for u, v in zip(w, w[1:]) if u > v)


def _adjacent_pairs(w: SignedWord) -> set[tuple[int, int]]:
    return set(zip(w, w[1:]))


def f_plus(i: int, j: int, w: WordLike) -> int:
    if not 1 <= i < j:
        raise BadIndices("f_plus needs 1 <= i < j")
    pairs = _adjacent_pairs(as_word(w))
    if (i, j) in pairs or (-i, -j) in pairs:
        return 1
    if (j, i) in pairs or (-j, -i) in pairs:
        return -1
    return 0


def f_minus(i: int, j: int, w: WordLike) -> int:
    if not 1 <= i < j:
        raise BadIndices("f_minus needs 1 <= i < j")
    pairs = _adjacent_pairs(as_word(w))
    if (-i, j) in pairs or (i, -j) in pairs:
        return 1
    if (j, -i) in pairs or (-j, i) in pairs:
        return -1
    return 0


def f_tilde(i: int, j: int, w: WordLike) -> int:
    if i == j or i < 1 or j < 1:
        raise BadIndices("f_tilde needs i != j, both >= 1")
    pairs = _adjacent_pairs(as_word(w))
    if pairs & {(i, j), (-i, j), (-j, i), (-j, -i)}:
        return 1
    if pairs & {(j, i), (j, -i), (i, -j), (-i, -j)}:
        return -1
    return 0


def g_fn(i: int, w: WordLike) -> int:
    if i < 1:
        raise BadIndices("g needs i >= 1")
    w = as_word(w)
    ends = w[:1] + w[-1:]  # none for the empty word
    if i in ends:
        return 1
    if -i in ends:
        return -1
    return 0


def eigenfunction_value(kind: str, w: WordLike, i: int, j: Optional[int] = None) -> int:
    """Dispatch over the four subdominant eigenfunction families."""
    if kind == "f_plus":
        return f_plus(i, j, w)
    if kind == "f_minus":
        return f_minus(i, j, w)
    if kind == "f_tilde":
        return f_tilde(i, j, w)
    if kind == "g":
        if j is not None:
            raise BadIndices("g takes a single index")
        return g_fn(i, w)
    raise ValueError(f"unknown eigenfunction kind {kind!r}")


def subdominant_families(spec: ShuffleSpec) -> list[tuple[Fraction, list[tuple[str, tuple]]]]:
    """Table of (eigenvalue, [(kind, indices), ...]) for the chain."""
    n, a = spec.n, spec.a
    plus_families: list[tuple[str, tuple]] = []
    if spec.flavor == ROTATION:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                plus_families.append(("f_plus", (i, j)))
                plus_families.append(("f_minus", (i, j)))
    else:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    plus_families.append(("f_tilde", (i, j)))
    out = [(Fraction(1, a), plus_families)]
    if a % 2 == 1:
        gs = [("g", (i,)) for i in range(1, n + 1)]
        if spec.sign == "+":
            out[0] = (Fraction(1, a), plus_families + gs)
        else:
            out.append((Fraction(-1, a), gs))
    return out


# (pairs giving +1, pairs giving −1) among the adjacent letters, as in the
# scalar f_plus, f_minus and f_tilde above
_FAMILY_PAIRS = {
    "f_plus": lambda i, j: (((i, j), (-i, -j)), ((j, i), (-j, -i))),
    "f_minus": lambda i, j: (((-i, j), (i, -j)), ((j, -i), (-j, i))),
    "f_tilde": lambda i, j: (
        ((i, j), (-i, j), (-j, i), (-j, -i)),
        ((j, i), (j, -i), (i, -j), (-i, -j)),
    ),
}


def _family_vectors(fams: Sequence[tuple[str, tuple]], S: np.ndarray) -> list[np.ndarray]:
    """eigenfunction_value(kind, w, *indices) for every (kind, indices) of
    fams and every row w of the int64 word array S, on the whole array.

    The adjacent pairs (u, v) of the rows are coded once, as the N×(n−1)
    array (u + m)·(2m+1) + (v + m) for m the largest |label|.  A family
    member is then one lookup over the (2m+1)^2 pair codes, holding 2 at
    the pairs that give +1 and 1 at those that give −1: the largest hit of
    a row is its value, with +1 winning as in the scalar functions.
    """
    m = int(np.abs(S).max(initial=0))
    pairs = (S[:, :-1] + m) * (2 * m + 1) + (S[:, 1:] + m)
    value = np.array([0, -1, 1], dtype=np.int64)
    out = []
    for kind, indices in fams:
        if kind == "g":
            (i,) = indices
            ends = S[:, [0, -1]]
            plus, minus = (ends == i).any(axis=1), (ends == -i).any(axis=1)
            out.append(np.where(plus, 1, np.where(minus, -1, 0)).astype(np.int64))
            continue
        lookup = np.zeros((2 * m + 1) ** 2, dtype=np.int8)
        plus, minus = _FAMILY_PAIRS[kind](*indices)
        for mark, listed in ((1, minus), (2, plus)):
            for u, v in listed:
                if abs(u) <= m and abs(v) <= m:  # else no row holds the pair
                    lookup[(u + m) * (2 * m + 1) + (v + m)] = mark
        out.append(value[lookup[pairs].max(axis=1, initial=0)])
    return out


def verify_subdominant(spec: ShuffleSpec, tm: Optional[TransitionMatrix] = None) -> dict:
    """Check the subdominant eigenfunctions: K·f = β f exactly for every
    listed family member, independence of each family, and dimension match
    against the chain's multiplicity table at the subdominant eigenvalue.

    Requires a >= 2: for a = 1 the value 1/a is the top eigenvalue, not a
    subdominant one.
    """
    if spec.a < 2:
        raise HypothesesNotMet("a >= 2 is required for subdominant eigenvalues 1/a")
    if tm is None:
        tm = transition_matrix(spec)
    S = tm.states.W
    mult = dict(shuffle_multiplicities(spec.a, spec.sign, spec.n))
    report = {"spec": spec, "eigenvalues": [], "ok": True}
    for value, fams in subdominant_families(spec):
        mu = int(value * tm.scale)  # ±a^(n−1): exact, since a divides a^n
        vecs = _family_vectors(fams, S)
        F = np.array(vecs, dtype=np.int64).reshape(len(vecs), tm.size).T.copy()  # N×k, rows contiguous
        all_exact = bool((tm.pull(F) == mu * F).all())
        independent = exactla.independent_certificate(vecs) if vecs else True
        expected_dim = mult.get(value, 0)
        entry = {
            "eigenvalue": value,
            "family_size": len(fams),
            "eigen_equations_exact": all_exact,
            "independent": independent,
            "expected_multiplicity": expected_dim,
            "dimension_matches": len(fams) == expected_dim and independent,
        }
        report["eigenvalues"].append(entry)
        report["ok"] = report["ok"] and all_exact and entry["dimension_matches"]
    return report


# ---------------------------------------------------------------------------
# stationary distribution and expectations


def stationary_distribution(spec: ShuffleSpec) -> list[Fraction]:
    """The uniform distribution on signed permutations, in canonical state
    order.  Requires a >= 2 (for a = 1 every distribution is stationary)."""
    if spec.a < 2:
        raise HypothesesNotMet("a >= 2 is required for a unique stationary law")
    size = 2**spec.n * math.factorial(spec.n)
    return [Fraction(1, size)] * size


def _reaches_all(images: np.ndarray) -> bool:
    """Does breadth-first search from state 0 reach every state of the graph
    with the edges i → images[i, k]?"""
    seen = np.zeros(len(images), dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while len(frontier):
        nxt = np.unique(images[frontier])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return bool(seen.all())


def stationary_is_unique(tm: TransitionMatrix) -> bool:
    """Certify that the fixed space of K^T is exactly 1-dimensional.

    Every column of K summing to 1 (checked exactly, on the table) puts the
    uniform law in the fixed space and makes K doubly stochastic.  A finite
    doubly stochastic chain has no transient state: the uniform law is
    stationary and charges every state, and a stationary law charges no
    transient state.  So every state is recurrent, the communicating
    classes are closed, and the fixed space has one dimension per class.
    If state 0 reaches every state, they all lie in state 0's class, and
    the law is unique; if not, the states it misses form another class.
    One forward search over the image table decides it, in O(N·a^n).
    Chains with n <= 2 (at most 8 states) must also pass a mod-p bound on
    dim ker(K^T − I).
    """
    if not tm.col_sums_exact():
        return False
    connected = _reaches_all(tm.images)
    if tm.spec.n <= 2:
        # bench/test_bench.py traces exactla.rref_mod through this call on an
        # n = 2 chain; at n >= 3 the O(N^3) elimination would dominate.
        B = tm.counts.T - tm.scale * np.eye(tm.size, dtype=np.int64)
        return connected and exactla.nullity_upper_bound(B) == 1
    return connected


def exact_stat_expectation(
    tm: TransitionMatrix, w0: WordLike, t: int, stat_values: Sequence[int]
) -> Fraction:
    """Σ_y K^t(w0, y)·stat(y), exactly, by pushing the point mass at w0
    through the image table t times.

    The mass after t steps is a^(nt) in all, so every partial sum is at most
    a^(nt)·max|stat|; past int64 the same products run on Python integers.
    Raises BadCount for t < 0, SizeMismatch unless there is one stat value
    per state, NotIntegral for a stat value that is not an integer, and
    NotAState when w0 is not a state.
    """
    if t < 0:
        raise BadCount(f"need t >= 0, got t={t}")
    if len(stat_values) != tm.size:
        raise SizeMismatch(f"{len(stat_values)} stat values for {tm.size} states")
    stat = np.array(stat_values)
    if stat.dtype.kind not in "biu":  # not integers, or past int64, where 2^63 reads as a float
        stat = np.array(stat_values, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in stat):
            raise NotIntegral("stat values must be integers")
    bound = tm.scale**t * max(1, int(stat.max()), -int(stat.min()))
    dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
    v = np.zeros(tm.size, dtype=dtype)
    v[tm.index(w0)] = 1
    for _ in range(t):
        v = tm.push(v)
    total = int(np.dot(v, stat.astype(dtype)))
    return Fraction(total, tm.scale**t)


def expected_descents(spec: ShuffleSpec, w0: WordLike, t: int) -> Fraction:
    """(1 − a^{−t})(n−1)/2 + a^{−t}·des(w0), for flip shuffles and t ≥ 0."""
    if t < 0:
        raise BadCount(f"need t >= 0, got t={t}")
    if spec.flavor != FLIP:
        raise FlavorUnsupported(
            "the descent expectation formula is only stated for flip shuffles"
        )
    w0 = as_word(w0)
    at = Fraction(1, spec.a**t)
    return (1 - at) * Fraction(spec.n - 1, 2) + at * des(w0)


def expectation_via_eigenfunction(
    f: Callable[[SignedWord], Union[int, Fraction]],
    beta: Fraction,
    w0: WordLike,
    t: int,
) -> Fraction:
    """β^t · f(w0), t ≥ 0: the expected value of a verified eigenfunction."""
    if t < 0:
        raise BadCount(f"need t >= 0, got t={t}")
    return Fraction(beta) ** t * Fraction(f(as_word(w0)))
