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
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import exactla
from .algebra import (
    CONCAT,
    SHUFFLE,
    concat_elements,
    deconcatenate,
    deshuffle,
    lie_bracket,
    project_invariant,
    tau,
    tau_tilde,
)
from .errors import BadCount, NotIntegral, StateSpaceTooLarge
from .descent import (
    DecoratedComposition,
    Decoration,
    DescentOperator,
    StateBasis,
    _image_codes,
    _operator_programs,
    apply_operator,
    compose_law,
    decorated_compositions,
    image_table,
    is_primitive,
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
    pbw_matrix,
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
    operator_eigenvalues,
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


BOTH_FLAVORS = (Decoration.BAR, Decoration.TBAR)
ALL_SPECS = tuple(itertools.product((2, 3), ("+", "-"), (ROTATION, FLIP)))


# ---------------------------------------------------------------------------
# algebra suite


def check_involutions(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = all(
        sigma(sigma(w)) == w and len(sigma(w)) == n
        for n in range(0, min(n_max + 2, 5))
        for w in all_words(n, 2)
        for sigma in (tau, tau_tilde)
    )
    return [_result("algebra.involutions", ok, "sigma∘sigma = id, degree kept")]


def check_morphisms(n_max: int, seed: int = 0) -> list[CheckResult]:
    """τ is a Hopf morphism, and τ̃ a Hopf ambimorphism, of both algebras.

    (De)concatenation is checked on the words over {±1, ±2} of degree ≤ 3.
    With σ = m∘Δ_(n̄) = τ or m∘Δ_(ñ) = τ̃, for n ≤ 4 and 0 ≤ i ≤ n, the
    shuffle product's σ(u ⧢ v) = σu ⧢ σv is (i σ, n−i σ) = σ∘(i, n−i) on
    the shuffle algebra, and deshuffling's Δ_(i, n−i)∘σ = (σ ⊗ σ)∘Δ_(i, n−i)
    is (i σ, n−i σ) = (i, n−i)∘σ on the concat algebra, where concatenation
    is a bijection from pairs of words of lengths (i, n−i) onto words of
    length n.  ``_composes_to`` proves each for every word of degree n.
    """
    out = []
    words = [w for n in range(0, 4) for w in all_words(n, 2)]
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    BAR, TBAR = Decoration.BAR, Decoration.TBAR
    ok = {BAR: True, TBAR: True}  # τ, τ̃
    for u, v in pairs:
        uv = SignedWord(tuple(u) + tuple(v))
        ok[BAR] &= tau(uv) == SignedWord(tuple(tau(u)) + tuple(tau(v)))
        ok[TBAR] &= tau_tilde(uv) == SignedWord(tuple(tau_tilde(v)) + tuple(tau_tilde(u)))
    for w in words:
        n = len(w)
        for i in range(n + 1):
            # deconcatenation: τ slot-wise, τ̃ with the slots reversed
            b1, b2 = deconcatenate(w, (i, n - i))
            ok[BAR] &= deconcatenate(tau(w), (i, n - i)) == (tau(b1), tau(b2))
            d1, d2 = deconcatenate(w, (n - i, i))
            ok[TBAR] &= deconcatenate(tau_tilde(w), (i, n - i)) == (tau_tilde(d2), tau_tilde(d1))
    for n in range(0, 5):
        for i in range(n + 1):
            split = DescentOperator.elementary(DecoratedComposition.of(i, n - i))
            for flavor in (BAR, TBAR):
                sigma = DescentOperator.elementary(DecoratedComposition.of((n, flavor)))
                halves = DescentOperator.elementary(DecoratedComposition.of((i, flavor), (n - i, flavor)))
                ok[flavor] &= _composes_to(halves, [sigma, split], SHUFFLE)
                ok[flavor] &= _composes_to(halves, [split, sigma], CONCAT)
    out.append(_result("algebra.tau_hopf_morphism", ok[BAR]))
    out.append(
        _result(
            "algebra.tau_tilde_ambimorphism",
            ok[TBAR],
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
    """τ and τ̃ keep the degree ≤ 4 Lyndon brackets over two letters
    primitive in the concat algebra, read by ``is_primitive``'s kernel."""
    ok = all(
        is_primitive(sigma(stdbrac(u)), CONCAT)
        for d in range(1, 5)
        for u in lyndon_words(2, d)
        for sigma in (tau, tau_tilde)
    )
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
            ok &= (A == B.T).all()
    return [_result("descent.duality_transpose", ok, f"n = {n}, all decorated compositions")]


def _composes_to(T: DescentOperator, factors: Sequence[DescentOperator], algebra: str) -> bool:
    """Whether T = F_1 ∘ ⋯ ∘ F_k on the algebra, for factors (F_1, ..., F_k)
    with F_k applied first, from the images of the one word e = 1 2 ⋯ n.

    An operator of degree n is a sum Σ c_q·q of signed position programs
    q(w)[k] = sign_q[k]·w[src_q[k]]; programs move and bar letters and never
    read labels, and so does a composite of them.  On e, q writes
    sign_q[k]·(src_q[k] + 1) at position k, so distinct programs give
    distinct words, and T(e) = Σ c_q·q(e) fixes T's program sum.  So two
    operators are equal iff their images of e are.  As e is one of the
    2^n·n! signed-permutation states, this is exactly the verdict of
    comparing the matrices of both sides on those states.
    """
    e = SignedWord(range(1, T.degree + 1))
    x = AlgebraElement.from_word(e)
    for F in reversed(factors):
        x = apply_operator(F, x, algebra)
    return x == apply_operator(T, e, algebra)


def check_zero_parts(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for flavor in BOTH_FLAVORS:
        base = DescentOperator.elementary(DecoratedComposition.from_sizes((1, 1), (0,), flavor))
        padded = DecoratedComposition.from_sizes((0, 1, 0, 1, 0), (1,), flavor)
        dec_zero = DecoratedComposition.from_sizes((0, 1, 1, 0), (0, 1, 3), flavor)
        plain_pad = DecoratedComposition.from_sizes((0, 1, 1), (1,), flavor)
        for algebra in (SHUFFLE, CONCAT):
            for D in (padded, dec_zero, plain_pad):
                ok &= _composes_to(base, [DescentOperator.elementary(D)], algebra)
    return [_result("descent.zero_parts_trivial", ok)]


def check_composition_law(n_max: int, seed: int = 0) -> list[CheckResult]:
    out = []
    rng = random.Random(seed)

    def holds(D: DecoratedComposition, Dp: DecoratedComposition, algebra: str, kind: str) -> bool:
        factors = [DescentOperator.elementary(D), DescentOperator.elementary(Dp)]
        return _composes_to(compose_law(D, Dp, kind), factors, algebra)

    for n in range(1, min(n_max, 3) + 1):
        ok = True
        for flavor in BOTH_FLAVORS:
            Ds = list(decorated_compositions(n, flavor))
            for D, Dp in itertools.product(Ds, Ds):
                for algebra, kind in ((SHUFFLE, "commutative"), (CONCAT, "cocommutative")):
                    ok &= holds(D, Dp, algebra, kind)
        out.append(_result("descent.composition_law", ok, f"exhaustive, n = {n}", n=n))
    if n_max >= 4:
        ok = True
        for _ in range(50):
            flavor = rng.choice(BOTH_FLAVORS)
            Ds = list(decorated_compositions(4, flavor))
            D, Dp = rng.choice(Ds), rng.choice(Ds)
            algebra, kind = rng.choice(
                ((SHUFFLE, "commutative"), (CONCAT, "cocommutative"))
            )
            ok &= holds(D, Dp, algebra, kind)
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
    ok = True
    printed_rule_ok = True
    flips = []
    detail = []

    @functools.cache
    def riffle(k: int, sign: str, flavor: Decoration) -> DescentOperator:
        """orif_k^sign in degree n, built once."""
        return riffle_operator(k, sign, flavor, n)

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
                    equal = _composes_to(
                        riffle(a * b, want, flavor), [riffle(a, s1, flavor), riffle(b, s2, flavor)], algebra
                    )
                    if hypo:
                        ok &= equal
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
            # no entry is negative: transition_matrix refuses every
            # coefficient other than 1, so each entry counts programs
            tm = transition_matrix(ShuffleSpec(n, a, sign, flavor))
            if not tm.row_sums_exact():
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
            prims.append((0 if cls == "invariant" else 1, d, word_lex_key(u), u))
    prims.sort(key=lambda t: t[:3])
    monomials = []

    def rec(start: int, remaining: int, chosen: tuple[int, ...]):
        if remaining == 0:
            monomials.append(chosen)
            return
        for i in range(start, len(prims)):
            if prims[i][1] <= remaining:
                rec(i, remaining - prims[i][1], chosen + (i,))

    rec(0, n, ())
    return prims, monomials


def _pbw_triangular(n: int, flavor: Decoration) -> bool:
    """Whether every elementary descent operator of the flavor is
    triangular on the degree-n PBW basis over N = 2 labels, with β on the
    diagonal.

    Column j of the int64 matrix V is the j-th PBW monomial over the
    words.  The bracket letters are i ± ī, so V is the letter change
    [[1, 1], [1, −1]] in every slot times an integer matrix unitriangular
    by factor count, and X = 2^n·V⁻¹ is integral.  X comes from
    ``exactla.rounded_inverse`` and is accepted only when V·X = 2^n·I holds
    exactly, which proves V nonsingular and X exact; any failure of that
    argument is a fail, never a wrong pass.  Then, one D at a time,
    Y = X·(Mᵀ·V) holds 2^n times the PBW coordinates of the images of the
    monomials.
    """
    N = 2
    words = StateBasis(all_words(n, N), n)  # coded once for every operator_matrix
    prims, monomials = _pbw_data(N, n, flavor)
    V = pbw_matrix(words, [[prims[i][3] for i in mono] for mono in monomials])
    if V.shape[0] != V.shape[1]:
        return False
    X = exactla.rounded_inverse(V, 2**n)
    if X is None or not (exactla.exact_product(V, X) == 2**n * np.eye(len(V), dtype=np.int64)).all():
        return False
    # (λ, λ̄): the degrees of the invariant and the negating factors
    shapes = [
        tuple(tuple(sorted((prims[i][1] for i in mono if prims[i][0] == kind), reverse=True)) for kind in (0, 1))
        for mono in monomials
    ]
    length = np.array([len(mono) for mono in monomials])
    # coordinate j of the image of monomial k must vanish when j has at
    # least as many factors as k, save the diagonal
    below = (length[:, None] >= length[None, :]) & ~np.eye(len(monomials), dtype=bool)
    for D in decorated_compositions(n, flavor):
        image = exactla.exact_product(operator_matrix(DescentOperator.elementary(D), words, CONCAT).T, V)
        Y = exactla.exact_product(X, image)
        betas = {shape: beta(*shape, D) for shape in set(shapes)}
        if (np.diag(Y) != [2**n * betas[s] for s in shapes]).any() or Y[below].any():
            return False
    return True


def check_triangularity(n_max: int, seed: int = 0) -> list[CheckResult]:
    """``_pbw_triangular`` over N = 2 labels, both flavors, degrees <= 3."""
    ok = all(_pbw_triangular(n, flavor) for n in range(1, min(n_max, 3) + 1) for flavor in BOTH_FLAVORS)
    return [_result("spectral.pbw_triangularity", ok, f"N = 2, degrees <= {min(n_max, 3)}")]


def check_table1_totals(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, 9):
        for a, sign in ((2, "+"), (2, "-"), (3, "+"), (3, "-")):
            total = sum(m for _, m in shuffle_multiplicities(a, sign, n))
            ok &= total == 2**n * math.factorial(n)
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
            ok2 &= counts.get(k, 0) == stirling_c(n, k)
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
            ok3 &= cnt == hyperoct_stirling(n, k, kb)
        ok3 &= sum(brute.values()) == 2**n * math.factorial(n)
    out.append(_result("spectral.stirling_signed_brute", ok3, "factor-parity census, n <= 4"))
    return out


def check_multiplicity_identities(n_max: int, seed: int = 0) -> list[CheckResult]:
    """The multiplicities sum to dim = (2N)^n, and the signed sum
    Σ (−1)^l(λ̄)·m equals both the trace of orif_1^−, which is the involution
    itself, and the number of words the involution fixes."""
    ok = True
    N, top = 2, 5
    for flavor in BOTH_FLAVORS:
        b, bb = primitive_dimensions(N, top, flavor)
        for n in range(1, top + 1):
            mg = multiplicity_genfun(b, bb, n)
            ok &= sum(mg.values()) == (2 * N) ** n
            signed = sum(m * (-1) ** len(lbar) for (_, lbar), m in mg.items())
            ok &= sum(e * m for e, m in riffle_spectrum(1, "-", b, bb, n)) == signed
            fixed = sum(1 for w in all_words(n, N) if (tau(w) if flavor is Decoration.BAR else tau_tilde(w)) == w)
            ok &= signed == fixed
    return [_result("spectral.multiplicity_identities", ok, f"N = {N}, n <= {top}")]


def check_spectrum_aggregation(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    N, n = 2, 3
    for flavor in BOTH_FLAVORS:
        b, bb = primitive_dimensions(N, n, flavor)
        for a in (2, 3):
            for sign in ("+", "-"):
                spd = dict(riffle_spectrum(a, sign, b, bb, n))
                ev = operator_eigenvalues(riffle_operator(a, sign, flavor, n))
                mg = multiplicity_genfun(b, bb, n)
                agg = Counter()
                for dp, v in ev.items():
                    agg[int(v)] += mg[dp]
                ok &= {k: v for k, v in agg.items() if v} == spd
    return [_result("spectral.riffle_spectrum_aggregation", ok, f"N = {N}, n = {n}")]


# ---------------------------------------------------------------------------
# the chain spectrum certificate (Table 1 at full scale)


# The largest n!×n! int64 sign-character block the chain certificate
# builds: n = 7 (203 MB) fits, n = 8 (13 GB) does not.
_BLOCK_BYTES = 1 << 30


@functools.lru_cache(maxsize=None)
def _plain_states(n: int) -> StateBasis:
    """The n! plain permutations of 1..n, coded once per n: the states of
    every sign-character block of degree n."""
    return StateBasis([SignedWord._trusted(p) for p in itertools.permutations(range(1, n + 1))], n)


def _sign_blocks(spec: ShuffleSpec, basis: StateBasis) -> Iterator[np.ndarray]:
    """The blocks B_0, ..., B_n of the chain, one at a time, as n!×n! int64
    matrices over the plain ``basis``: B_k[π, σ] = Σ χ_{S_k}(p(π)) over
    the programs p of the riffle operator with |p(π)| = σ, for
    S_k = {1..k}.  χ_{S_k}(p(π)) is −1 to the number of labels <= k that
    p bars, read off one bitmask per (π, p) of the labels it bars."""
    src, sign, _ = _operator_programs(spec.operator(), SHUFFLE)
    F, n = len(basis), basis.n
    sigma = basis.index_codes(_image_codes(basis.W, basis.m, src, np.ones_like(sign)))
    bars = np.zeros(src.shape, dtype=np.int64)  # bars[p, i]: p bars input position i
    np.put_along_axis(bars, src, sign < 0, axis=1)
    masks = exactla.exact_product(1 << (basis.W - 1), bars.T)  # the labels that p bars in π, as bits
    cells = (np.arange(F)[:, None] * F + sigma).ravel()
    del src, sign, sigma, bars
    chi = np.ones(masks.shape)  # χ_{S_k}(p(π))
    for k in range(n + 1):
        if k:  # S_k adds the label k: the sign flips where p bars it
            chi[((masks >> (k - 1)) & 1).astype(bool)] *= -1
        # the float64 sums are exact: |B_k[π, σ]| is at most the number of programs
        yield np.bincount(cells, weights=chi.ravel(), minlength=F * F).astype(np.int64).reshape(F, F)


def chain_spectrum_certificate(
    spec: ShuffleSpec, tm: Optional[TransitionMatrix] = None
) -> dict:
    """Certify that the characteristic polynomial of the chain's exact
    transition matrix A (a^n·K) factors exactly as the multiplicity table
    predicts, at every n, on the n + 1 sign-character blocks of A.

    A[x, y] counts the programs p of the riffle operator with p(x) = y,
    and p(x)[j] = ±x[src[j]].  For S ⊆ {1..n} let χ_S(x) be −1 to the
    number of labels of S that x bars, and |x| the plain permutation of x.
    Three facts split A:

    1. p bars a label of p(x) when exactly one of x and p(|x|) bars it, so
       χ_S(p(x)) = χ_S(x)·χ_S(p(|x|)) and |p(x)| = |p(|x|)|.  Hence for g
       on the n! plain permutations, A(g·χ_S) = (B_S·g)·χ_S, with
       B_S[π, σ] = Σ χ_S(p(π)) over the p with |p(π)| = σ.  The 2^n
       characters are orthogonal (T·Tᵀ = 2^n·I for their ±1 table T), so
       the functions g·χ_S span all functions on the states, A is
       block-diagonal on them, and spec A = ⊎_S spec B_S with algebraic
       multiplicities.
    2. Programs move positions and bar them, whatever the labels, so they
       commute with every relabeling g of 1..n: p(g·x) = g·p(x).  Hence
       B_{g(S)} = Π_g·B_S·Π_gᵀ, and the C(n, k) blocks with |S| = k share
       the spectrum of B_k = B_{S_k}, S_k = {1..k} (``_sign_blocks``).
    3. The eigenvector of a word w with distinct letters is the function
       y ↦ C_w(|y|)·χ_bar(w)(y) (``lyndon.eigenvector_matrix``).  By 1, it
       is A's right eigenvector for μ exactly when C_w is B_bar(w)'s.

    So for each k the rows U_k of the words that bar exactly S_k are
    proved eigenvectors, U_k·B_kᵀ = diag(μ)·U_k (``report["eigen_equations"]``),
    and certified linearly independent (``report["independent"]``): by one
    exact residual of a float64 inverse of U_k·U_kᵀ (of U_k when square)
    that is strictly diagonally dominant, or else by a full rank of U_k
    modulo a prime (``exactla.independent_certificate``).  The
    certificate proves the eigen-equations of these (n + 1)·n! block
    eigenvectors, not of the 2^n·n! eigenvectors of A; at n <= 4 the tests
    prove the rest against the dense reference.  Each multiplicity of B_k
    is at least its count among the rows, and the counts, weighted by
    C(n, k), are ``report["eigenvector_counts"]``.

    - When every block has n! rows ("full-eigenbasis"), the weighted
      counts sum to 2^n·n! and are the multiplicities, which pins the
      charpoly: ``report["counts_match"]`` compares them with the table.
    - Even-a rotation has no eigenvector for the words with a negating
      factor ("partial-eigenbasis+annihilation"), and the rows must count
      the table's nonzero eigenvalues.  Each block B_k with r_k < n! rows
      gets P_k = Π(B_k − λ) over those λ and the least s_k <= 8 with
      B_k^{s_k}·P_k = 0 (``exactla.annihilation_power``), so alg_k(0) >=
      rank P_k >= rank_p P_k, the largest over up to three primes until one
      reaches n! − r_k (``exactla.rank_lower_bound``).  Once Σ_k C(n, k)·
      rank_p P_k = 2^n·n! − Σ_k C(n, k)·r_k, every bound is an equality and
      no other eigenvalue exists; that count must be the table's
      multiplicity of 0.  The report gives A's annihilation power, max_k s_k,
      and rank P = Σ_k C(n, k)·rank P_k (``report["zero_rank"]``).

    ``report["blocks"]`` holds one entry per k: its weight C(n, k), rows,
    route, multiplicities and, on the annihilation route, s_k and rank.
    When ``tm`` is given, ``report["table_matches"]`` proves that it is this
    chain, by its image table, and ``ok`` requires it.  No transition matrix
    is built, so the deck size is bounded only by the block size:
    StateSpaceTooLarge is raised before any allocation when one n!×n!
    int64 block would pass ``_BLOCK_BYTES``.  Every fact is recorded
    whatever the others give, and the report holds no arrays, so
    ``verify``'s eigenvector and duality rows read it too.
    """
    n = spec.n
    F = math.factorial(n)
    if 8 * F * F > _BLOCK_BYTES:
        raise StateSpaceTooLarge(
            f"a sign-character block of {n}! × {n}! int64 entries passes {_BLOCK_BYTES} bytes"
        )
    size = 2**n * F
    predicted = {
        int(v * spec.scale): m
        for v, m in shuffle_multiplicities(spec.a, spec.sign, n)
    }
    nonzero = sorted(lam for lam in predicted if lam)
    basis = _plain_states(n)
    counts: Counter = Counter()
    blocks = []
    equations = independent = annihilated = True
    power = zero_rank = 0
    for k, B in enumerate(_sign_blocks(spec, basis)):
        U, mu, _ = eigenvector_matrix(basis, k, spec.a, spec.sign, spec.decoration)
        weight = math.comb(n, k)
        multiplicities = dict(Counter(mu.tolist()))
        for lam, m in multiplicities.items():
            counts[lam] += weight * m
        equations = exactla.eigen_equations_hold(U, mu, B.T) and equations
        independent = exactla.independent_certificate(U) and independent
        block = {"k": k, "weight": weight, "rows": len(U), "multiplicities": multiplicities}
        blocks.append(block)
        if len(U) == F:
            block["route"] = "full-eigenbasis"
            continue
        block["route"] = "partial-eigenbasis+annihilation"
        del U
        s, P = exactla.annihilation_power(B, nonzero, 8)
        rank = exactla.rank_lower_bound(P, F - block["rows"])
        block["annihilation_power"], block["zero_rank"] = s, rank
        annihilated = annihilated and s is not None
        power = max(power, s or 0)
        zero_rank += weight * rank
    counts = dict(counts)
    full = all(b["route"] == "full-eigenbasis" for b in blocks)
    report = {
        "spec": spec,
        "predicted": predicted,
        "size": size,
        "method": "full-eigenbasis" if full else "partial-eigenbasis+annihilation",
        "eigen_equations": equations,
        "independent": independent,
        "eigenvector_counts": counts,
        "counts_match": counts == (predicted if full else {lam: predicted[lam] for lam in nonzero}),
        "blocks": blocks,
    }
    checks = ["eigen_equations", "independent", "counts_match"]
    if tm is not None:
        report["table_matches"] = len(tm.states) == size and np.array_equal(
            tm.images, image_table(spec.operator(), tm.states, SHUFFLE)[0]
        )
        checks.append("table_matches")
    report["ok"] = all(report[c] for c in checks)
    if not full:
        report["annihilation_power"] = power if annihilated else None
        report["annihilated"] = annihilated
        report["zero_rank"] = zero_rank
        zero_mult = size - sum(counts.values())
        report["ok"] = report["ok"] and annihilated and zero_rank == zero_mult == predicted.get(0, 0)
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
            provenance = {k: rep[k] for k in ("method", "size", "annihilation_power", "zero_rank") if k in rep}
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
        ok &= got == want
        ok &= SignedWord(c for f in got for c in f) == w
        keys = [word_lex_key(f) for f in got]
        ok &= all(keys[i] >= keys[i + 1] for i in range(len(keys) - 1))
        ok &= all(is_lyndon(f) for f in got)
    return [_result("lyndon.duval_vs_brute", ok, "300 random words, length <= 8")]


def check_eigen_equations(n_max: int, seed: int = 0) -> list[CheckResult]:
    """The eigenvector rows of each n, read from the certificates of its 8
    chains (`chain_spectrum_certificate`): for each k = 0..n, the n! block
    rows C_w of the words w that bar exactly the labels <= k, proved
    eigenvectors of the block B_k and independent.  The signed eigenvector
    of w is C_w times the sign character of its bars, so these rows prove
    the eigenvectors of those (n + 1)·n! words on the chain itself."""
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
                    left, right = concat_elements(pbar, orif_s), concat_elements(orif_s, pbar)
                    if flavor is Decoration.TBAR and a % 2 == 1:
                        ok_flip &= (ps, sp) == ((left, right) if sign == "+" else (-right, -left))
                    elif flavor is Decoration.TBAR:  # even a: s·p̄ vanishes under '+', p̄·s under '-'
                        ok_flip &= not (sp if sign == "+" else ps)
                    elif a % 2 == 1:
                        ok_rot &= ps + sp == (left + right if sign == "+" else -(left + right))
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
                ok &= img == mu * vec
                rows.append(_int_vector(vec, index.__getitem__, len(words)))
            if flavor is Decoration.TBAR or a % 2 == 1:
                ok &= len(rows) == len(words)
            ok &= exactla.independent_certificate(rows)
    return [_result("lyndon.full_word_basis", ok, f"N = {N}, n = {n}, repeats included")]


# ---------------------------------------------------------------------------
# markov suite


def check_stationary(n_max: int, seed: int = 0) -> list[CheckResult]:
    ok = True
    for n in range(1, min(n_max, 4) + 1):
        for a, sign, flavor in ALL_SPECS:
            # false when uniform·K = uniform fails, or its fixed space is larger
            ok &= stationary_is_unique(transition_matrix(ShuffleSpec(n, a, sign, flavor)))
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
    """The concat-algebra eigenvectors are right eigenfunctions of the chain,
    K·v = (μ/a^n)·v: the certificates' `eigen_equations`.  They read the
    eigenvectors of the words that bar exactly the labels <= k, each as its
    block row C_w on the block B_k of the chain, since K·(g·χ_S) =
    (B_S·g)·χ_S / a^n for the sign character χ_S."""
    ok = all(r["eigen_equations"] for n in range(1, min(n_max, 3) + 1) for r in _chain_reports(n))
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
    return [_result("markov.descent_expectation_exact", ok, "flip chains, t <= 4")] if n_max >= 2 else []


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
    return [_result("markov.monte_carlo_descents", ok, "; ".join(details), seed=seed)] if details else []


def check_sampler_agreement(n_max: int, seed: int = 11) -> list[CheckResult]:
    """Single-step samplers (literal 4-step and vectorized) against the exact
    transition row, by chi-square at 4-sigma-equivalent threshold."""
    spec = ShuffleSpec(3, 2, "-", FLIP)
    tm = transition_matrix(spec)
    w0 = SignedWord((1, 2, 3))
    row = np.bincount(tm.images[tm.index(w0)], minlength=tm.size)
    probs = row / row.sum()
    trials = 100_000
    ok = True
    details = []
    for label, sampler in (("four-step", "single"), ("vectorized", "batch")):
        rng = np.random.default_rng(seed)
        if sampler == "single":
            decks = np.array([sample_step(spec, w0, rng) for _ in range(20_000)], dtype=np.int64)
        else:
            decks = batch_step(spec, np.tile(np.array(w0, dtype=np.int64), (trials, 1)), rng)
        total = len(decks)
        index = tm.states.index_words(decks)
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
    """The sorted rows of the suite's checks; BadCount for n_max < 1, first."""
    if n_max < 1:
        raise BadCount(f"need n_max >= 1, got n_max={n_max}")
    if suite == "all":  # every check once, in suite order
        fns = list(dict.fromkeys(f for fs in SUITES.values() for f in fs))
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
        fns = SUITES[suite]
    results: list[CheckResult] = []
    for f in fns:
        results.extend(f(n_max, seed))
    results.sort(key=lambda r: (r.name, sorted(r.params.items())))
    return results
