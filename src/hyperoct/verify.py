"""Named verification checks covering every documented invariant.

Each check returns CheckResult rows; `run_checks` drives a selected suite.
Statuses: "pass"/"fail" for asserted invariants, "report-only" for empirical
observations the source material does not claim (these never fail a run).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import exactla
from .algebra import (
    CONCAT,
    SHUFFLE,
    concat_elements,
    deconcatenate,
    deshuffle,
    is_primitive,
    lie_bracket,
    project_invariant,
    shuffle_product,
    tau,
    tau_tilde,
)
from .errors import CodeOverflow, NotIntegral
from .descent import (
    _INT64_MAX,
    _powers,
    _state_codes,
    _state_index,
    DecoratedComposition,
    Decoration,
    DescentOperator,
    apply_operator,
    compose_law,
    decorated_compositions,
    operator_matrix,
    riffle_operator,
)
from .lyndon import (
    classify_primitive,
    eigenbasis,
    eigenvector_matrix,
    is_lyndon,
    lyndon_factorize,
    lyndon_words,
    primitive_dimensions,
    stdbrac,
)
from .markov import (
    FLIP,
    ROTATION,
    ShuffleSpec,
    TransitionMatrix,
    batch_step,
    des,
    exact_stat_expectation,
    expected_descents,
    sample_step,
    stationary_is_unique,
    transition_matrix,
    verify_subdominant,
)
from .spectral import (
    beta,
    compatible_set_compositions,
    double_partitions,
    hyperoct_stirling,
    multiplicity_genfun,
    riffle_spectrum,
    shuffle_multiplicities,
    stirling_c,
)
from .words import (
    AlgebraElement,
    SignedWord,
    all_words,
    signed_permutations,
    word_lex_key,
)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "report-only"
    detail: str = ""
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
        }


def _result(name: str, ok: bool, detail: str = "", **params) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", detail, params)


def _int_vector(vec: AlgebraElement, index: Callable[[SignedWord], int], size: int) -> np.ndarray:
    """vec as an int64 vector over a word basis of the given size.

    Raises NotIntegral for a fractional coefficient; ``index`` raises,
    naming the word, for a word outside the basis.
    """
    v = np.zeros(size, dtype=np.int64)
    for word, c in vec:
        if c.denominator != 1:
            raise NotIntegral(f"{word} has the coefficient {c}")
        v[index(word)] = c.numerator
    return v


def _exact_product(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X·M for int64 matrices, exactly.

    Every partial sum of an entry of X·M is at most max|X| times the largest
    column abs-sum of M in absolute value.  The product runs in int64 once
    that bound is checked to be below 2^63; past it CodeOverflow is raised.
    """
    col_norm = int(np.abs(M).max(initial=0)) * len(M)  # bounds every column abs-sum
    if col_norm <= _INT64_MAX:
        col_norm = int(np.abs(M).sum(axis=0).max(initial=0))
    bound = int(np.abs(X).max(initial=0)) * col_norm
    if bound > _INT64_MAX:
        raise CodeOverflow(f"product entries may reach {bound} in absolute value")
    return X @ M


def _eigen_equations_hold(V: np.ndarray, mu: np.ndarray, M: np.ndarray) -> bool:
    """Whether V·M = diag(mu)·V exactly: each row of V is a left eigenvector
    of the int64 matrix M with eigenvalue mu[row] (`_exact_product`)."""
    return bool((_exact_product(V, M) == mu[:, None] * V).all())


BOTH_FLAVORS = (Decoration.BAR, Decoration.TBAR)
ALL_SPECS = tuple(
    (a, sign, flavor)
    for a in (2, 3)
    for sign in ("+", "-")
    for flavor in (ROTATION, FLIP)
)


# ---------------------------------------------------------------------------
# algebra suite


def check_involutions(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(0, min(n_max + 2, 5)):
        for w in all_words(n, 2):
            if tau(tau(w)) != w or tau_tilde(tau_tilde(w)) != w:
                ok = False
            if len(tau(w)) != n or len(tau_tilde(w)) != n:
                ok = False
    return [_result("algebra.involutions", ok, "sigma∘sigma = id, degree kept")]


def check_morphisms(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    words = [w for n in range(0, 4) for w in all_words(n, 2)]
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    tau_alg = tau_coalg = True
    tt_alg_sh = tt_alg_co = tt_decon = tt_coalg_co = True
    for u, v in pairs:
        sh = shuffle_product([u, v])
        if tau(sh) != shuffle_product([tau(u), tau(v)]):
            tau_alg = False
        if tau_tilde(sh) != shuffle_product([tau_tilde(u), tau_tilde(v)]):
            tt_alg_sh = False
        uv = SignedWord(tuple(u) + tuple(v))
        if tau(uv) != SignedWord(tuple(tau(u)) + tuple(tau(v))):
            tau_alg = False
        if tau_tilde(uv) != SignedWord(tuple(tau_tilde(v)) + tuple(tau_tilde(u))):
            tt_alg_co = False
    for w in [w for w in words if w]:
        n = len(w)
        for i in range(n + 1):
            # tau: coalgebra morphism for both coproducts
            a1, a2 = deconcatenate(tau(w), (i, n - i))
            b1, b2 = deconcatenate(w, (i, n - i))
            if (a1, a2) != (tau(b1), tau(b2)):
                tau_coalg = False
            # tau_tilde on deconcatenation: anti-compatible (reversed slots)
            c1, c2 = deconcatenate(tau_tilde(w), (i, n - i))
            d1, d2 = deconcatenate(w, (n - i, i))
            if (c1, c2) != (tau_tilde(d2), tau_tilde(d1)):
                tt_decon = False
            # coproducts of the concat algebra: tau slot-wise, tau_tilde slot-wise
            left = sorted(
                (tau(x), tau(y)) for x, y in deshuffle(w, (i, n - i))
            )
            if left != sorted(deshuffle(tau(w), (i, n - i))):
                tau_coalg = False
            left2 = sorted(
                (tau_tilde(x), tau_tilde(y)) for x, y in deshuffle(w, (i, n - i))
            )
            if left2 != sorted(deshuffle(tau_tilde(w), (i, n - i))):
                tt_coalg_co = False
    out.append(_result("algebra.tau_hopf_morphism", tau_alg and tau_coalg))
    out.append(
        _result(
            "algebra.tau_tilde_ambimorphism",
            tt_alg_sh and tt_alg_co and tt_decon and tt_coalg_co,
            "algebra morphism + coalgebra antimorphism on shuffle; antimorphism + coalgebra morphism on concat",
        )
    )
    # bialgebra compatibility: deshuffle of a concatenation = slot-wise product
    rng2 = random.Random(seed + 1)
    bial = True
    for _ in range(30):
        nu = rng2.randint(0, 3)
        nv = rng2.randint(0, min(3, 5 - nu))
        u = SignedWord(rng2.choice((-1, 1)) * rng2.randint(1, 2) for _ in range(nu))
        v = SignedWord(rng2.choice((-1, 1)) * rng2.randint(1, 2) for _ in range(nv))
        uv = SignedWord(tuple(u) + tuple(v))
        n = len(uv)
        for i in range(n + 1):
            lhs = sorted(deshuffle(uv, (i, n - i)))
            rhs = []
            for i1 in range(min(i, len(u)) + 1):
                if i - i1 > len(v) or len(u) - i1 > n - i:
                    continue
                for x1, y1 in deshuffle(u, (i1, len(u) - i1)):
                    for x2, y2 in deshuffle(v, (i - i1, len(v) - (i - i1))):
                        rhs.append(
                            (
                                SignedWord(tuple(x1) + tuple(x2)),
                                SignedWord(tuple(y1) + tuple(y2)),
                            )
                        )
            if lhs != sorted(rhs):
                bial = False
    out.append(_result("algebra.bialgebra_compatibility", bial))
    return out


def check_projections(n_max: int, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 4)
        x = AlgebraElement(
            (
                SignedWord(rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(n)),
                rng.randint(-3, 3),
            )
            for _ in range(4)
        )
        for which in ("tau", "tau_tilde"):
            plus = project_invariant(x, which, "+")
            minus = project_invariant(x, which, "-")
            sigma = tau if which == "tau" else tau_tilde
            if plus + minus != x or sigma(plus) != plus or sigma(minus) != -minus:
                ok = False
    return [_result("algebra.invariant_projections", ok)]


def check_prim_preservation(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for d in range(1, 5):
        for u in lyndon_words(2, d):
            p = stdbrac(u)
            for image in (tau(p), tau_tilde(p)):
                if not is_primitive(image, CONCAT):
                    ok = False
    return [_result("algebra.primitive_preservation", ok)]


def check_bracket_parity(n_max: int, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    ok = True

    def parts(x, sigma):
        return (x + sigma(x)) / 2, (x - sigma(x)) / 2

    for _ in range(25):
        nx, ny = rng.randint(1, 2), rng.randint(1, 2)
        x = AlgebraElement(
            (SignedWord(rng.choice((-2, -1, 1, 2)) for _ in range(nx)), rng.randint(-2, 2))
            for _ in range(3)
        )
        y = AlgebraElement(
            (SignedWord(rng.choice((-2, -1, 1, 2)) for _ in range(ny)), rng.randint(-2, 2))
            for _ in range(3)
        )
        for sigma, rules in (
            (tau, {("i", "i"): "i", ("i", "n"): "n", ("n", "n"): "i"}),
            (tau_tilde, {("i", "i"): "n", ("i", "n"): "i", ("n", "n"): "n"}),
        ):
            xi, xn = parts(x, sigma)
            yi, yn = parts(y, sigma)
            for (cx, px), (cy, py) in itertools.product(
                (("i", xi), ("n", xn)), (("i", yi), ("n", yn))
            ):
                br = lie_bracket(px, py)
                want = rules[tuple(sorted((cx, cy)))]
                sb = sigma(br)
                if want == "i" and sb != br:
                    ok = False
                if want == "n" and sb != -br:
                    ok = False
    return [_result("algebra.bracket_parity", ok)]


# ---------------------------------------------------------------------------
# descent suite


def check_duality(n_max: int, seed: int = 0) -> list[CheckResult]:
    n = min(n_max, 3)
    states = signed_permutations(n)
    ok = True
    for flavor in BOTH_FLAVORS:
        for D in decorated_compositions(n, flavor):
            A = operator_matrix(DescentOperator.elementary(D), states, SHUFFLE)
            B = operator_matrix(DescentOperator.elementary(D), states, CONCAT)
            if not (A == B.T).all():
                ok = False
    return [_result("descent.duality_transpose", ok, f"n = {n}, all decorated compositions")]


def check_zero_parts(n_max: int, seed: int = 0) -> list[CheckResult]:
    states = signed_permutations(2)
    ok = True
    for flavor in BOTH_FLAVORS:
        base = DecoratedComposition.from_sizes((1, 1), (0,), flavor)
        padded = DecoratedComposition.from_sizes((0, 1, 0, 1, 0), (1,), flavor)
        dec_zero = DecoratedComposition.from_sizes((0, 1, 1, 0), (0, 1, 3), flavor)
        plain_pad = DecoratedComposition.from_sizes((0, 1, 1), (1,), flavor)
        for algebra in (SHUFFLE, CONCAT):
            A = operator_matrix(DescentOperator.elementary(base), states, algebra)
            for D in (padded, dec_zero, plain_pad):
                if not (A == operator_matrix(DescentOperator.elementary(D), states, algebra)).all():
                    ok = False
    return [_result("descent.zero_parts_trivial", ok)]


def check_composition_law(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    rng = random.Random(seed)
    mats: dict[tuple, np.ndarray] = {}

    def elementary(D: DecoratedComposition, states, algebra: str) -> np.ndarray:
        """The matrix of D on the states, built once per (D, algebra)."""
        if (D, algebra) not in mats:
            mats[D, algebra] = operator_matrix(DescentOperator.elementary(D), states, algebra)
        return mats[D, algebra]

    for n in range(1, min(n_max, 3) + 1):
        states = signed_permutations(n)
        ok = True
        for flavor in BOTH_FLAVORS:
            Ds = list(decorated_compositions(n, flavor))
            for D, Dp in itertools.product(Ds, Ds):
                for algebra, kind in ((SHUFFLE, "commutative"), (CONCAT, "cocommutative")):
                    lhs = elementary(Dp, states, algebra) @ elementary(D, states, algebra)
                    rhs = operator_matrix(compose_law(D, Dp, kind), states, algebra)
                    if not (lhs == rhs).all():
                        ok = False
        out.append(_result("descent.composition_law", ok, f"exhaustive, n = {n}", n=n))
    if n_max >= 4:
        states = signed_permutations(4)
        ok = True
        for _ in range(50):
            flavor = rng.choice(BOTH_FLAVORS)
            Ds = list(decorated_compositions(4, flavor))
            D, Dp = rng.choice(Ds), rng.choice(Ds)
            algebra, kind = rng.choice(
                ((SHUFFLE, "commutative"), (CONCAT, "cocommutative"))
            )
            lhs = elementary(Dp, states, algebra) @ elementary(D, states, algebra)
            rhs = operator_matrix(compose_law(D, Dp, kind), states, algebra)
            if not (lhs == rhs).all():
                ok = False
        out.append(_result("descent.composition_law", ok, "50 random pairs, n = 4", n=4))
    return out


def riffle_composite_sign(s1: str, s2: str, a: int, b: int, flavor: Decoration, commutative: bool) -> str:
    """The sign of orif_a^{s1} ∘ orif_b^{s2} = orif_{ab}^{±} (b acts first).

    The naive pairing (like signs give '+') holds when a is odd (commutative)
    or b is odd (cocommutative), and for the flip involution in the remaining
    even cases it flips whenever the reversed leading row starts on a
    decorated entry: commutative with a even and s2 '-', or cocommutative
    with b even and s1 '-'.
    """
    sign = "+" if s1 == s2 else "-"
    if flavor is Decoration.TBAR:
        if commutative and a % 2 == 0 and s2 == "-":
            sign = "-" if sign == "+" else "+"
        if not commutative and b % 2 == 0 and s1 == "-":
            sign = "-" if sign == "+" else "+"
    return sign


def check_riffle_composition(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    n = min(n_max, 3)
    states = signed_permutations(n)
    ok = True
    printed_rule_ok = True
    flips = []
    detail = []

    @functools.cache
    def riffle(k: int, sign: str, flavor: Decoration, algebra: str) -> np.ndarray:
        """The matrix of orif_k^sign on the states, built once."""
        return operator_matrix(riffle_operator(k, sign, flavor, n), states, algebra)

    for a, b in ((3, 3), (3, 2), (2, 3), (2, 2)):
        for flavor in BOTH_FLAVORS:
            for algebra in (SHUFFLE, CONCAT):
                commutative = algebra == SHUFFLE
                parity_hypo = (commutative and a % 2 == 1) or (
                    not commutative and b % 2 == 1
                )
                hypo = parity_hypo or flavor is Decoration.TBAR
                for s1, s2 in itertools.product("+-", repeat=2):
                    naive = "+" if s1 == s2 else "-"
                    want = riffle_composite_sign(s1, s2, a, b, flavor, commutative)
                    lhs = riffle(b, s2, flavor, algebra) @ riffle(a, s1, flavor, algebra)
                    equal = (lhs == riffle(a * b, want, flavor, algebra)).all()
                    if hypo:
                        if not equal:
                            ok = False
                        if parity_hypo and want != naive:
                            printed_rule_ok = False
                        if want != naive:
                            flips.append(f"a={a},b={b},{algebra},{s1}{s2}")
                    elif not equal:
                        detail.append(
                            f"a={a},b={b},{flavor.value},{algebra},{s1}{s2}: differs (outside hypotheses)"
                        )
    out.append(
        _result(
            "descent.riffle_composition",
            ok and printed_rule_ok,
            f"n = {n}, a,b in {{2,3}}; sign corrected for even flip cases",
        )
    )
    out.append(
        CheckResult(
            "descent.riffle_composition_sign_flips",
            "report-only",
            "printed pairing flips for flip involution at: " + "; ".join(sorted(set(flips))[:6])
            if flips
            else "printed pairing held everywhere",
        )
    )
    out.append(
        CheckResult(
            "descent.riffle_composition_counterexamples",
            "report-only",
            "; ".join(detail[:4]) + (" ..." if len(detail) > 4 else "")
            if detail
            else "no failures observed outside the hypotheses",
        )
    )
    return out


def check_row_stochastic(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, min(n_max, 4) + 1):
        for a, sign, flavor in ALL_SPECS:
            tm = transition_matrix(ShuffleSpec(n, a, sign, flavor))
            if not tm.row_sums_exact() or (tm.counts < 0).any():
                ok = False
    return [_result("descent.rows_stochastic", ok, "rows sum to a^n, entries >= 0")]


# ---------------------------------------------------------------------------
# spectral suite


def check_beta_type_a(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, 4):
        for D in decorated_compositions(n, Decoration.BAR):
            plain = DecoratedComposition.from_sizes(D.undecorate())
            for lam, lbar in double_partitions(n):
                if beta(lam, lbar, plain) != len(
                    compatible_set_compositions(lam, lbar, plain.undecorate())
                ):
                    ok = False
    return [_result("spectral.beta_type_a_reduction", ok, "undecorated beta = plain count, n <= 3")]


def _pbw_data(N: int, n: int, flavor: Decoration):
    prims = []
    for d in range(1, n + 1):
        for u in lyndon_words(N, d):
            cls = classify_primitive(u, flavor)
            prims.append((0 if cls == "invariant" else 1, d, word_lex_key(u), u, stdbrac(u)))
    prims.sort(key=lambda t: (t[0], t[1], t[2]))
    monomials = []

    def rec(start: int, remaining: int, chosen: list[int]):
        if remaining == 0:
            monomials.append(tuple(chosen))
            return
        for i in range(start, len(prims)):
            if prims[i][1] <= remaining:
                chosen.append(i)
                rec(i, remaining - prims[i][1], chosen)
                chosen.pop()

    rec(0, n, [])
    return prims, monomials


def check_triangularity(n_max: int, seed: int = 0) -> list[CheckResult]:
    """Triangularity of every elementary descent operator on the PBW basis,
    with the leading coefficient equal to the predicted eigenvalue β.

    Column j of the int64 matrix V is the j-th PBW monomial over the words,
    and B = Mᵀ·V holds the images of the monomials under each D, for all
    elementary D side by side.  The bracket letters are i ± ī, so V is the
    letter change [[1, 1], [1, −1]] in every slot times an integer matrix
    unitriangular by factor count, and Y = 2^n·V⁻¹·B is integral.  Y comes
    from a rounded float64 solve and is accepted only when V·Y = 2^n·B
    holds exactly and V is certified nonsingular; so the coordinates Y/2^n
    are exact whether or not that argument holds.
    """
    N = 2
    ok = True
    for n in range(1, min(n_max, 3) + 1):
        words = all_words(n, N)
        widx = {w: i for i, w in enumerate(words)}
        for flavor in BOTH_FLAVORS:
            prims, monomials = _pbw_data(N, n, flavor)
            V = np.stack(
                [
                    _int_vector(concat_elements(*(prims[i][4] for i in mono)), widx.__getitem__, len(words))
                    for mono in monomials
                ],
                axis=1,
            )
            if V.shape[0] != V.shape[1] or not exactla.independent_certificate(V):
                ok = False
                continue
            Ds = list(decorated_compositions(n, flavor))
            B = np.hstack(
                [_exact_product(operator_matrix(DescentOperator.elementary(D), words, CONCAT).T, V) for D in Ds]
            )
            Y = np.rint(2**n * np.linalg.solve(V, B)).astype(np.int64)
            if not (_exact_product(V, Y) == 2**n * B).all():
                ok = False
                continue
            # (λ, λ̄): the degrees of the invariant and the negating factors
            shapes = [
                tuple(
                    tuple(sorted((prims[i][1] for i in mono if prims[i][0] == kind), reverse=True))
                    for kind in (0, 1)
                )
                for mono in monomials
            ]
            length = np.array([len(mono) for mono in monomials])
            # coordinate j of the image of monomial k must vanish when j has
            # at least as many factors as k, save the diagonal
            below = (length[:, None] >= length[None, :]) & ~np.eye(len(monomials), dtype=bool)
            for D, Yd in zip(Ds, np.hsplit(Y, len(Ds))):
                betas = {shape: beta(*shape, D) for shape in set(shapes)}
                if (np.diag(Yd) != [2**n * betas[s] for s in shapes]).any() or Yd[below].any():
                    ok = False
    return [_result("spectral.pbw_triangularity", ok, f"N = {N}, degrees <= {min(n_max, 3)}")]


def check_table1_totals(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, 9):
        for a, sign in ((2, "+"), (2, "-"), (3, "+"), (3, "-")):
            total = sum(m for _, m in shuffle_multiplicities(a, sign, Decoration.BAR, n))
            if total != 2**n * math.factorial(n):
                ok = False
    return [_result("spectral.table1_totals", ok, "n <= 8")]


def check_stirling(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    ok = all(
        hyperoct_stirling(n, k, kb)
        == hyperoct_stirling(n - 1, k - 1, kb)
        + hyperoct_stirling(n - 1, k, kb - 1)
        + 2 * (n - 1) * hyperoct_stirling(n - 1, k, kb)
        for n in range(1, 9)
        for k in range(n + 1)
        for kb in range(n + 1 - k)
        if (k, kb) != (0, 0)
    )
    out.append(_result("spectral.stirling_recursion", ok, "closed form vs recursion, n <= 8"))
    ok2 = True
    for n in range(1, 8):
        counts = {}
        for perm in itertools.permutations(range(1, n + 1)):
            minima = sum(
                1 for i in range(n) if all(perm[j] > perm[i] for j in range(i))
            )
            counts[minima] = counts.get(minima, 0) + 1
        for k in range(n + 1):
            if counts.get(k, 0) != stirling_c(n, k):
                ok2 = False
    out.append(_result("spectral.stirling_minima_brute", ok2, "left-to-right minima, n <= 7"))
    ok3 = True
    for n in range(1, 5):
        brute = {}
        for w in signed_permutations(n):
            k = kb = 0
            for u in lyndon_factorize(w):
                if classify_primitive(u, Decoration.TBAR) == "invariant":
                    k += 1
                else:
                    kb += 1
            brute[(k, kb)] = brute.get((k, kb), 0) + 1
        for (k, kb), cnt in brute.items():
            if cnt != hyperoct_stirling(n, k, kb):
                ok3 = False
        if sum(brute.values()) != 2**n * math.factorial(n):
            ok3 = False
    out.append(_result("spectral.stirling_signed_brute", ok3, "factor-parity census, n <= 4"))
    return out


def check_multiplicity_identities(n_max: int, seed: int = 0) -> list[CheckResult]:
    from .spectral import _geometric_factor, _series_mul, _series_one, _signed_geometric_factor

    ok = True
    N, top = 2, 5
    for flavor in BOTH_FLAVORS:
        b, bb = primitive_dimensions(N, top, flavor)
        for n in range(1, top + 1):
            mg = multiplicity_genfun(b, bb, n)
            if sum(mg.values()) != (2 * N) ** n:
                ok = False
            signed = sum(m * (-1) ** len(lbar) for (_, lbar), m in mg.items())
            series = _series_one(top)
            for i in range(1, top + 1):
                series = _series_mul(series, _geometric_factor(0, i, b[i - 1], top), top)
                series = _series_mul(series, _signed_geometric_factor(i, bb[i - 1], top, True), top)
            if series[0][n] != signed:
                ok = False
            fixed = sum(1 for w in all_words(n, N) if (tau(w) if flavor is Decoration.BAR else tau_tilde(w)) == w)
            if signed != fixed:
                ok = False
    return [_result("spectral.multiplicity_identities", ok, f"N = {N}, n <= {top}")]


def check_spectrum_aggregation(n_max: int, seed: int = 0) -> list[CheckResult]:
    from collections import Counter

    from .spectral import operator_eigenvalues

    ok = True
    N, n = 2, 3
    for flavor in BOTH_FLAVORS:
        b, bb = primitive_dimensions(N, n, flavor)
        for a in (2, 3):
            for sign in ("+", "-"):
                spd = dict(riffle_spectrum(a, sign, flavor, b, bb, n, dim=(2 * N) ** n))
                ev = operator_eigenvalues(riffle_operator(a, sign, flavor, n))
                mg = multiplicity_genfun(b, bb, n)
                agg = Counter()
                for dp, v in ev.items():
                    agg[int(v)] += mg[dp]
                if {k: v for k, v in agg.items() if v} != spd:
                    ok = False
    return [_result("spectral.riffle_spectrum_aggregation", ok, f"N = {N}, n = {n}")]


# ---------------------------------------------------------------------------
# the chain spectrum certificate (Table 1 at full scale)


def chain_spectrum_certificate(
    spec: ShuffleSpec, tm: Optional[TransitionMatrix] = None
) -> dict:
    """Certify that the characteristic polynomial of the exact transition
    matrix A factors exactly as the multiplicity table predicts, at every n,
    by one route.

    The concat-algebra matrix Mc of the riffle operator is built
    independently of the chain (`operator_matrix`) and linked to it by the
    exact check A = Mcᵀ, `report["duality"]`.  So Mc's left eigenvectors
    are A's right eigenvectors with the same eigenvalues, and everything
    proved of Mc below holds for A.  The eigenvectors come as the rows of
    one int64 matrix V from `lyndon.eigenvector_matrix`; their
    eigen-equations are the one exact product V·Mc = diag(μ)·V
    (`report["eigen_equations"]`), and they are certified linearly
    independent (`report["independent"]`).  So each eigenvalue's
    multiplicity is at least its count among the rows.

    - When V has a row for every state ("full-eigenbasis"), the counts sum
      to N and are the multiplicities, which pins the charpoly:
      `report["counts_match"]` compares them with the table.
    - Even-a rotation has no eigenvector for the words with a negating
      factor ("partial-eigenbasis+annihilation"), and the counts must match
      the table's nonzero eigenvalues.  A mod-p nullity bound equal to the
      count proves each nonzero eigenspace exactly; the exact identity
      A^s·Π(A − λ) = 0 (`exactla.annihilates`) makes those λ semisimple and
      leaves only 0 for the rest, whose multiplicity N − Σ m_λ must then be
      the table's.

    Every fact above is recorded whatever the others give, and the report
    holds no arrays, so `verify`'s eigenvector and duality rows read it too.
    """
    if tm is None:
        tm = transition_matrix(spec)
    A, size = tm.counts, tm.size
    predicted = {
        int(v * tm.scale): m
        for v, m in shuffle_multiplicities(spec.a, spec.sign, spec.decoration, spec.n)
    }
    nonzero_pred = {lam: m for lam, m in predicted.items() if lam != 0}
    Mc = operator_matrix(spec.operator(), tm.states, CONCAT)
    V, mu, _ = eigenvector_matrix(tm.states, spec.a, spec.sign, spec.decoration)
    counts = dict(Counter(mu.tolist()))
    full = len(V) == size
    report = {
        "spec": spec,
        "predicted": predicted,
        "size": size,
        "method": "full-eigenbasis" if full else "partial-eigenbasis+annihilation",
        "duality": bool((A == Mc.T).all()),
        "eigen_equations": _eigen_equations_hold(V, mu, Mc),
        "independent": exactla.independent_certificate(V),
        "eigenvector_counts": counts,
        "counts_match": counts == (predicted if full else nonzero_pred),
    }
    report["ok"] = all(report[k] for k in ("duality", "eigen_equations", "independent", "counts_match"))
    if full or not report["ok"]:
        return report
    geom_ok = all(
        exactla.nullity_upper_bound(A - lam * np.eye(size, dtype=np.int64)) == m
        for lam, m in nonzero_pred.items()
    )
    report["geometric_match"] = geom_ok
    power = exactla.annihilation_power_probe(A, sorted(nonzero_pred), 8)
    annihilated = power is not None and exactla.annihilates(A, sorted(nonzero_pred), power)
    report["annihilation_power"] = power
    report["annihilated"] = annihilated
    zero_mult = size - sum(nonzero_pred.values())
    report["ok"] = geom_ok and annihilated and zero_mult == predicted.get(0, 0)
    return report


@functools.lru_cache(maxsize=None)
def _chain_report(spec: ShuffleSpec) -> dict:
    """`chain_spectrum_certificate(spec)`, run once per chain for every row
    that reads it.  The checks ask for n <= 4 and the specs of ALL_SPECS,
    so at most 32 reports are kept; callers share them and only read."""
    return chain_spectrum_certificate(spec)


def _chain_reports(n: int) -> list[dict]:
    """The certificate reports of the 8 chains of ALL_SPECS on n cards."""
    return [_chain_report(ShuffleSpec(n, a, sign, flavor)) for a, sign, flavor in ALL_SPECS]


def check_chain_spectra(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    for n in range(2, min(n_max, 4) + 1):
        for rep in _chain_reports(n):
            spec = rep["spec"]
            provenance = {k: rep[k] for k in ("method", "size", "annihilation_power") if k in rep}
            out.append(
                _result(
                    "spectral.chain_spectrum",
                    rep["ok"],
                    f"n={n} a={spec.a} sign={spec.sign} {spec.flavor}: {rep['method']}",
                    n=n,
                    a=spec.a,
                    sign=spec.sign,
                    flavor=spec.flavor,
                    **provenance,
                )
            )
    return out


# ---------------------------------------------------------------------------
# lyndon suite


def check_duval_brute(n_max: int, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    ok = True

    def brute_factorize(w: SignedWord) -> tuple[SignedWord, ...]:
        if not w:
            return ()
        best = None
        for i in range(1, len(w) + 1):
            prefix = SignedWord(w[:i])
            if is_lyndon(prefix):
                best = i
        # longest Lyndon prefix is the first factor of the CFL factorization
        return (SignedWord(w[:best]),) + brute_factorize(SignedWord(w[best:]))

    for _ in range(300):
        length = rng.randint(1, 8)
        w = SignedWord(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(length))
        got = lyndon_factorize(w)
        want = brute_factorize(w)
        if got != want:
            ok = False
        if SignedWord(c for f in got for c in f) != w:
            ok = False
        keys = [word_lex_key(f) for f in got]
        if any(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
            ok = False
        if not all(is_lyndon(f) for f in got):
            ok = False
    return [_result("lyndon.duval_vs_brute", ok, "300 random words, length <= 8")]


def check_eigen_equations(n_max: int, seed: int = 0) -> list[CheckResult]:
    """The eigenvector rows of each n, read from the certificates of its 8
    chains (`chain_spectrum_certificate`)."""
    out = []
    for n in range(1, min(n_max, 4) + 1):
        reports = _chain_reports(n)
        out.append(
            _result(
                "lyndon.eigen_equations",
                all(r["eigen_equations"] for r in reports),
                f"n = {n}, all 8 operator configs",
                n=n,
            )
        )
        out.append(
            _result("lyndon.eigenbasis_independent", all(r["independent"] for r in reports), f"n = {n}", n=n)
        )
        out.append(
            _result(
                "lyndon.eigenvalue_counts_match_table",
                all(r["counts_match"] for r in reports),
                f"n = {n} (0-eigenvalue deficit only for even-a rotation)",
                n=n,
            )
        )
    return out


def check_onenegating_lemmas(n_max: int, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    ok_flip = True
    ok_rot = True
    for _ in range(12):
        deg_s = rng.randint(0, 3)
        labels = list(range(2, 6))
        rng.shuffle(labels)
        prims = [stdbrac(SignedWord((labels.pop(),))) for _ in range(deg_s)]
        s = concat_elements(*prims) if prims else AlgebraElement.unit()
        for flavor in BOTH_FLAVORS:
            pbar = stdbrac(SignedWord((-1,)))  # 1 − 1̄: negating for both flavors
            n = deg_s + 1
            for a in (2, 3):
                for sign in ("+", "-"):
                    T = riffle_operator(a, sign, flavor, n)
                    Ts = riffle_operator(a, sign, flavor, deg_s)
                    orif_s = apply_operator(Ts, s, CONCAT) if deg_s else s
                    ps = apply_operator(T, concat_elements(pbar, s), CONCAT)
                    sp = apply_operator(T, concat_elements(s, pbar), CONCAT)
                    if flavor is Decoration.TBAR:
                        if a % 2 == 1 and sign == "+":
                            if ps != concat_elements(pbar, orif_s):
                                ok_flip = False
                            if sp != concat_elements(orif_s, pbar):
                                ok_flip = False
                        elif a % 2 == 1 and sign == "-":
                            if ps != -concat_elements(orif_s, pbar):
                                ok_flip = False
                            if sp != -concat_elements(pbar, orif_s):
                                ok_flip = False
                        elif sign == "+":
                            if sp != AlgebraElement.zero():
                                ok_flip = False
                        else:
                            if ps != AlgebraElement.zero():
                                ok_flip = False
                    else:
                        if a % 2 == 1:
                            want = concat_elements(pbar, orif_s) + concat_elements(orif_s, pbar)
                            if sign == "-":
                                want = -want
                            if ps + sp != want:
                                ok_rot = False
    return [
        _result("lyndon.flip_onenegating_lemma", ok_flip, "all six displayed identities, a in {2,3}"),
        _result("lyndon.rotation_onenegating_lemma", ok_rot, "odd a identities"),
    ]


def check_full_word_eigenbasis(n_max: int, seed: int = 0) -> list[CheckResult]:
    """Eigenbasis over the full word basis (repeated letters included)."""
    N, n = 1, 3
    ok = True
    words = all_words(n, N)
    index = {w: i for i, w in enumerate(words)}
    for a, sign in ((2, "+"), (3, "-")):
        for flavor in BOTH_FLAVORS:
            T = riffle_operator(a, sign, flavor, n)
            rows = []
            for w, vec, mu in eigenbasis(n, N, a, sign, flavor, include_repeats=True):
                img = apply_operator(T, vec, CONCAT)
                if img != mu * vec:
                    ok = False
                rows.append(_int_vector(vec, index.__getitem__, len(words)))
            if flavor is Decoration.TBAR or a % 2 == 1:
                if len(rows) != len(words):
                    ok = False
            if not exactla.independent_certificate(rows):
                ok = False
    return [_result("lyndon.full_word_basis", ok, f"N = {N}, n = {n}, repeats included")]


# ---------------------------------------------------------------------------
# markov suite


def check_stationary(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, min(n_max, 4) + 1):
        for a, sign, flavor in ALL_SPECS:
            tm = transition_matrix(ShuffleSpec(n, a, sign, flavor))
            col_sums = tm.counts.sum(axis=0)
            if not (col_sums == tm.scale).all():
                ok = False  # uniform·K = uniform fails
            if not stationary_is_unique(tm):
                ok = False
    return [_result("markov.stationary_uniform_unique", ok, "pi K = pi exactly; fixed space 1-dim")]


def check_subdominant(n_max: int, seed: int = 0) -> list[CheckResult]:
    """One row per subdominant eigenvalue of each chain, with the sizes
    that `verify_subdominant` compared."""
    out = []
    for n in range(2, min(n_max, 4) + 1):
        for a, sign, flavor in ALL_SPECS:
            rep = verify_subdominant(ShuffleSpec(n, a, sign, flavor))
            for entry in rep["eigenvalues"]:
                out.append(
                    _result(
                        "markov.subdominant_eigenfunctions",
                        entry["eigen_equations_exact"] and entry["dimension_matches"],
                        f"n={n} a={a} sign={sign} {flavor}: eigenvalue {entry['eigenvalue']}",
                        n=n,
                        a=a,
                        sign=sign,
                        flavor=flavor,
                        eigenvalue=entry["eigenvalue"],
                        family_size=entry["family_size"],
                        expected_multiplicity=entry["expected_multiplicity"],
                    )
                )
    return out


def check_chain_duality(n_max: int, seed: int = 0) -> list[CheckResult]:
    """K = Mcᵀ and V·Mc = diag(μ)·V give K·Vᵀ = Vᵀ·diag(μ), read from the
    chain certificates."""
    ok = all(
        r["duality"] and r["eigen_equations"] for n in range(1, min(n_max, 3) + 1) for r in _chain_reports(n)
    )
    return [
        _result(
            "markov.right_eigenfunctions_via_duality",
            ok,
            "concat eigenvectors are K right-eigenfunctions at mu/a^n",
        )
    ]


def check_descent_expectation(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(2, min(n_max, 4) + 1):
        for a in (2, 3):
            for sign in ("+", "-"):
                spec = ShuffleSpec(n, a, sign, FLIP)
                tm = transition_matrix(spec)
                desvec = [des(s) for s in tm.states]
                w0 = SignedWord(range(n, 0, -1))
                for t in range(0, 5):
                    if exact_stat_expectation(tm, w0, t, desvec) != expected_descents(
                        spec, w0, t
                    ):
                        ok = False
    return [_result("markov.descent_expectation_exact", ok, "flip chains, t <= 4")]


def check_rotation_descent_empirical(n_max: int, seed: int = 0) -> list[CheckResult]:
    spec = ShuffleSpec(3, 2, "+", ROTATION)
    tm = transition_matrix(spec)
    desvec = [des(s) for s in tm.states]
    w0 = SignedWord((3, 2, 1))
    rows = []
    for t in (1, 2):
        exact = exact_stat_expectation(tm, w0, t, desvec)
        at = Fraction(1, spec.a**t)
        formula = (1 - at) * Fraction(spec.n - 1, 2) + at * des(w0)
        rows.append(f"t={t}: exact={exact} flip-formula={formula} {'==' if exact == formula else '!='}")
    return [
        CheckResult(
            "markov.rotation_descent_formula",
            "report-only",
            "unclaimed for rotation; " + "; ".join(rows),
        )
    ]


def check_monte_carlo(n_max: int, seed: int = 7) -> list[CheckResult]:
    ok = True
    details = []
    trials = 100_000
    for n, a, t in ((3, 2, 1), (3, 3, 2), (4, 2, 4)):
        if n > n_max:
            continue
        spec = ShuffleSpec(n, a, "+", FLIP)
        w0 = SignedWord(range(n, 0, -1))
        rng = np.random.default_rng(seed)
        decks = np.tile(np.array(w0, dtype=np.int64), (trials, 1))
        for _ in range(t):
            decks = batch_step(spec, decks, rng)
        desc = (decks[:, :-1] > decks[:, 1:]).sum(axis=1)
        mean = desc.mean()
        se = desc.std(ddof=1) / math.sqrt(trials)
        want = float(expected_descents(spec, w0, t))
        z = abs(mean - want) / se if se else 0.0
        details.append(f"n={n},a={a},t={t}: z={z:.2f}")
        if z > 4:
            ok = False
    return [_result("markov.monte_carlo_descents", ok, "; ".join(details), seed=seed)]


def check_sampler_agreement(n_max: int, seed: int = 11) -> list[CheckResult]:
    """Single-step samplers (literal 4-step and vectorized) against the exact
    transition row, by chi-square at 4-sigma-equivalent threshold."""
    spec = ShuffleSpec(3, 2, "-", FLIP)
    tm = transition_matrix(spec)
    w0 = SignedWord((1, 2, 3))
    row = tm.counts[tm.index(w0)]
    probs = row / row.sum()
    trials = 100_000
    _, m, order, sorted_codes = _state_codes(tm.states, spec.n)
    weights = _powers(m, spec.n, np.int64)
    ok = True
    details = []
    for label, sampler in (("four-step", "single"), ("vectorized", "batch")):
        rng = np.random.default_rng(seed)
        if sampler == "single":
            decks = np.array([sample_step(spec, w0, rng) for _ in range(20_000)], dtype=np.int64)
        else:
            decks = batch_step(spec, np.tile(np.array(w0, dtype=np.int64), (trials, 1)), rng)
        total = len(decks)
        index = _state_index(order, sorted_codes, (decks + m) @ weights, m, spec.n)
        counts = np.bincount(index, minlength=tm.size)
        support = probs > 0
        if counts[~support].any():
            ok = False
        expected = probs[support] * total
        chi2 = float(((counts[support] - expected) ** 2 / expected).sum())
        dof = int(support.sum()) - 1
        # normal approximation: chi2 ~ N(dof, 2 dof); 4-sigma cut
        cut = dof + 4 * math.sqrt(2 * dof)
        details.append(f"{label}: chi2={chi2:.1f} (dof={dof}, cut={cut:.1f})")
        if chi2 > cut:
            ok = False
    return [_result("markov.sampler_vs_exact_row", ok, "; ".join(details), seed=seed)]


# ---------------------------------------------------------------------------
# registry and runner


SUITES: dict[str, list[Callable[[int, int], list[CheckResult]]]] = {
    "algebra": [
        check_involutions,
        check_morphisms,
        check_projections,
        check_prim_preservation,
        check_bracket_parity,
    ],
    "descent": [
        check_duality,
        check_zero_parts,
        check_row_stochastic,
    ],
    "composition": [
        check_composition_law,
        check_riffle_composition,
    ],
    "spectral": [
        check_beta_type_a,
        check_triangularity,
        check_table1_totals,
        check_multiplicity_identities,
        check_spectrum_aggregation,
        check_chain_spectra,
    ],
    "stirling": [
        check_stirling,
        check_table1_totals,
    ],
    "lyndon": [
        check_duval_brute,
        check_eigen_equations,
        check_onenegating_lemmas,
        check_full_word_eigenbasis,
    ],
    "markov": [
        check_stationary,
        check_subdominant,
        check_chain_duality,
        check_descent_expectation,
        check_rotation_descent_empirical,
        check_monte_carlo,
        check_sampler_agreement,
    ],
}


def run_checks(suite: str = "all", n_max: int = 3, seed: int = 0) -> list[CheckResult]:
    if suite == "all":
        fns = []
        seen = set()
        for fs in SUITES.values():
            for f in fs:
                if f not in seen:
                    seen.add(f)
                    fns.append(f)
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
        fns = SUITES[suite]
    results: list[CheckResult] = []
    for f in fns:
        results.extend(f(n_max, seed))
    results.sort(key=lambda r: (r.name, sorted(r.params.items())))
    return results
