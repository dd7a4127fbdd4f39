"""Riffle-shuffle Markov chains on signed permutations.

The transition matrix is the (1/a^n)-scaled matrix of the riffle operator on
the shuffle algebra; a step cuts the deck multinomially into a piles, rotates
(bars in place) or flips (bars and reverses) the decorated piles -- the even
-numbered piles for sign '+', the odd-numbered for sign '-' -- and interleaves
the piles uniformly.  Monte Carlo is a statistical cross-check only.

Each chain is built once as an image table: the riffle operator has a^n
programs, every coefficient 1, and images[i, k] indexes the k-th image of
state i, so a^n·K(x, y) counts the programs that send x to y.  The exact
products run on that table: v·K scatters v over the images of each state,
and K·f sums f over them.  The dense ``counts`` is kept for output and for
the certificates of ``exactla``.

K is doubly stochastic (its columns sum to 1 as well as its rows), so the
uniform law is stationary and every state is recurrent.  Then the fixed
space of K^T has one dimension per communicating class (Levin, Peres and
Wilmer, Markov Chains and Mixing Times, ch. 1), so the stationary law is
unique if and only if the transition graph is strongly connected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadIndices,
    FlavorUnsupported,
    HypothesesNotMet,
    StateSpaceTooLarge,
)
from .words import SignedWord, WordLike, as_word, signed_permutations
from .descent import Decoration, image_table, operator_matrix, riffle_operator
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
            raise ValueError("need n >= 1 and a >= 1")
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
    """Exact transition matrix: integer image counts over the scale a^n."""

    spec: ShuffleSpec
    states: tuple[SignedWord, ...]
    counts: np.ndarray  # int64, counts[i, j] = a^n * K(state_i, state_j)
    images: np.ndarray  # int32, images[i, k] = index of the k-th image of state i

    @property
    def scale(self) -> int:
        return self.spec.scale

    @property
    def size(self) -> int:
        return len(self.states)

    @functools.cached_property
    def _index(self) -> dict[SignedWord, int]:
        return {w: i for i, w in enumerate(self.states)}

    def index(self, w: WordLike) -> int:
        w = as_word(w)
        try:
            return self._index[w]
        except KeyError:
            raise ValueError(f"{w} is not a state of the chain") from None

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
        return Fraction(int(self.counts[self.index(x), self.index(y)]), self.scale)

    def row(self, x: WordLike) -> dict[SignedWord, Fraction]:
        i = self.index(x)
        return {
            self.states[j]: Fraction(int(c), self.scale)
            for j, c in enumerate(self.counts[i])
            if c
        }

    def row_sums_exact(self) -> bool:
        return bool((self.counts.sum(axis=1) == self.scale).all())

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
def _states(n: int) -> tuple[SignedWord, ...]:
    """The 2^n n! signed permutations in canonical order, built once per n
    and shared by every chain of degree n."""
    return tuple(signed_permutations(n))


def transition_matrix(spec: ShuffleSpec, cap: int = 5) -> TransitionMatrix:
    """Exact 2^n n!-state transition matrix of the shuffle."""
    size = 2**spec.n * math.factorial(spec.n)
    if spec.n > cap:
        raise StateSpaceTooLarge(
            f"2^{spec.n}*{spec.n}! = {size} states exceeds cap n <= {cap}"
        )
    states = _states(spec.n)
    T = spec.operator()
    table = image_table(T, states, alg.SHUFFLE)  # every coefficient is 1
    return TransitionMatrix(spec, states, operator_matrix(T, states, alg.SHUFFLE, table), table[0])


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

    Uses the equivalent sampling form: n iid uniform pile labels serve as the
    interleaving pattern, and their counts as the multinomial pile sizes.
    """
    T, n = decks.shape
    a = spec.a
    pattern = rng.integers(0, a, size=(T, n))
    order = np.argsort(pattern, axis=1, kind="stable")
    counts = np.zeros((T, a), dtype=np.int64)
    for i in range(a):
        counts[:, i] = (pattern == i).sum(axis=1)
    ends = np.cumsum(counts, axis=1)
    starts = ends - counts
    r_grid = np.broadcast_to(np.arange(n), (T, n))
    pile_idx = (r_grid[:, :, None] >= ends[:, None, :]).sum(axis=2)
    dec = (pile_idx % 2) == (1 if spec.sign == "+" else 0)
    if spec.flavor == FLIP:
        start_r = np.take_along_axis(starts, pile_idx, axis=1)
        end_r = np.take_along_axis(ends, pile_idx, axis=1)
        src = np.where(dec, start_r + end_r - 1 - r_grid, r_grid)
    else:
        src = r_grid
    cards = np.take_along_axis(decks, src, axis=1)
    processed = np.where(dec, -cards, cards)
    out = np.empty_like(decks)
    np.put_along_axis(out, order, processed, axis=1)
    return out


def simulate(
    spec: ShuffleSpec,
    start: WordLike,
    steps: int,
    trials: int,
    seed: Optional[int] = None,
    stat: str = "descents",
) -> dict:
    """Monte Carlo trajectories; returns per-step means of the statistic."""
    if stat != "descents":
        raise ValueError(f"unknown statistic {stat!r}")
    start = as_word(start)
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
        "stat": stat,
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
    if w[0] == i or w[-1] == i:
        return 1
    if w[0] == -i or w[-1] == -i:
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


def _family_vector(kind: str, indices: tuple, S: np.ndarray) -> np.ndarray:
    """eigenfunction_value(kind, w, *indices) for every row w of the int64
    word array S, computed on the whole array at once."""

    def signed(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
        return np.where(plus, 1, np.where(minus, -1, 0)).astype(np.int64)

    if kind == "g":
        (i,) = indices
        ends = S[:, [0, -1]]
        return signed((ends == i).any(axis=1), (ends == -i).any(axis=1))
    plus, minus = _FAMILY_PAIRS[kind](*indices)
    left, right = S[:, :-1], S[:, 1:]

    def adjacent(pairs) -> np.ndarray:
        hit = np.zeros(len(S), dtype=bool)
        for u, v in pairs:
            hit |= ((left == u) & (right == v)).any(axis=1)
        return hit

    return signed(adjacent(plus), adjacent(minus))


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
    S = np.array(tm.states, dtype=np.int64)
    mult = dict(shuffle_multiplicities(spec.a, spec.sign, spec.decoration, spec.n))
    report = {"spec": spec, "eigenvalues": [], "ok": True}
    for value, fams in subdominant_families(spec):
        mu = int(value * tm.scale)  # ±a^(n−1): exact, since a divides a^n
        vecs = [_family_vector(kind, indices, S) for kind, indices in fams]
        all_exact = all((tm.pull(f) == mu * f).all() for f in vecs)
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


def _reaches_all(indptr: np.ndarray, adj: np.ndarray) -> bool:
    """Does breadth-first search from vertex 0 reach every vertex of the
    graph whose out-neighbours of i are adj[indptr[i]:indptr[i + 1]]?"""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while len(frontier):
        starts, lengths = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        nxt = np.unique(adj[np.repeat(starts, lengths) + offsets])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return bool(seen.all())


def _strongly_connected(images: np.ndarray) -> bool:
    """Does state 0 reach every state, and every state reach state 0, in the
    graph with the edges i → images[i, k]?"""
    size, width = images.shape
    forward = images.ravel()
    backward = np.argsort(forward, kind="stable") // width  # sources, by target
    back_ptr = np.concatenate(([0], np.cumsum(np.bincount(forward, minlength=size))))
    return _reaches_all(np.arange(size + 1) * width, forward) and _reaches_all(
        back_ptr, backward
    )


def stationary_is_unique(tm: TransitionMatrix) -> bool:
    """Certify that the fixed space of K^T is exactly 1-dimensional.

    Every column of counts summing to a^n (checked exactly) puts the uniform
    law in the fixed space and makes K doubly stochastic, so every state is
    recurrent and the fixed space has one dimension per communicating class.
    The law is then unique iff the transition graph is strongly connected:
    every state is reachable from state 0 and reaches it.  Both searches run
    over the image table in O(N·a^n).  Chains with n <= 2 (at most 8 states)
    must also pass a mod-p bound on dim ker(K^T − I).
    """
    if not (tm.counts.sum(axis=0) == tm.scale).all():
        return False
    connected = _strongly_connected(tm.images)
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
    """
    bound = tm.scale**t * max(1, max(map(abs, stat_values), default=0))
    dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
    v = np.zeros(tm.size, dtype=dtype)
    v[tm.index(w0)] = 1
    for _ in range(t):
        v = tm.push(v)
    total = int(np.dot(v, np.array(stat_values, dtype=dtype)))
    return Fraction(total, tm.scale**t)


def expected_descents(spec: ShuffleSpec, w0: WordLike, t: int) -> Fraction:
    """(1 − a^{−t})(n−1)/2 + a^{−t}·des(w0), for flip shuffles."""
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
    """β^t · f(w0): the expected value of a verified eigenfunction."""
    return Fraction(beta) ** t * Fraction(f(as_word(w0)))
