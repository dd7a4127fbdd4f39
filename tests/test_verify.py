import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import (
    CONCAT,
    ROTATION,
    SHUFFLE,
    AlgebraElement,
    CodeOverflow,
    DecoratedComposition,
    Decoration,
    DescentOperator,
    NotIntegral,
    ShuffleSpec,
    StateSpaceTooLarge,
    compose_law,
    decorated_compositions,
    operator_matrix,
    riffle_operator,
    signed_permutations,
)
from hyperoct import verify
from hyperoct.verify import _eigen_equations_hold, _int_vector, check_chain_spectra, check_subdominant
from conftest import W, dense_certificate, signed_eigenvector_matrix


def test_int_vector_refuses_fractions_and_foreign_words():
    states = signed_permutations(2)
    index = {w: i for i, w in enumerate(states)}
    x = AlgebraElement([(W("2 -1"), 3), (W("-1 -2"), -2**40)])
    v = _int_vector(x, index.__getitem__, len(states))
    assert v.tolist() == [-2**40, 0, 0, 0, 0, 0, 3, 0]
    with pytest.raises(NotIntegral):
        _int_vector(AlgebraElement([(W("1 2"), 1), (W("2 1"), Fraction(1, 2))]), index.__getitem__, len(states))
    with pytest.raises(KeyError, match="1 1"):
        _int_vector(AlgebraElement.from_word(W("1 1")), index.__getitem__, len(states))


@pytest.fixture
def fresh_reports():
    """An empty chain-report cache before and after the test."""
    verify._chain_report.cache_clear()
    yield
    verify._chain_report.cache_clear()


def test_chain_spectra_n3(fresh_reports):
    rows = check_chain_spectra(3)
    assert len(rows) == 16
    assert all(r.status == "pass" for r in rows), [r.detail for r in rows if r.status != "pass"]
    for r in rows:
        n = r.params["n"]
        assert r.params["size"] == 2**n * math.factorial(n)
        if r.params["flavor"] == ROTATION and r.params["a"] % 2 == 0:
            assert r.params["method"] == "partial-eigenbasis+annihilation"
            assert r.params["annihilation_power"] >= 1
            rep = verify._chain_report(ShuffleSpec(n, r.params["a"], r.params["sign"], r.params["flavor"]))
            assert r.params["zero_rank"] == r.params["size"] - sum(rep["eigenvector_counts"].values())
        else:
            assert r.params["method"] == "full-eigenbasis"
            assert "annihilation_power" not in r.params and "zero_rank" not in r.params


def test_one_certificate_per_chain(fresh_reports, monkeypatch):
    calls = {"chain_spectrum_certificate": Counter(), "eigenvector_matrix": Counter()}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            key = args[0] if name == "chain_spectrum_certificate" else (len(args[0][0]), *args[1:])
            calls[name][key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counted("chain_spectrum_certificate")
    counted("eigenvector_matrix")
    assert all(r.status != "fail" for r in verify.run_checks("all", 3))
    specs = [ShuffleSpec(n, a, sign, flavor) for n in (1, 2, 3) for a, sign, flavor in verify.ALL_SPECS]
    assert calls["chain_spectrum_certificate"] == Counter(specs)
    # one block builder call per sign-character block: n + 1 per chain
    assert calls["eigenvector_matrix"] == Counter(
        (s.n, k, s.a, s.sign, s.decoration) for s in specs for k in range(s.n + 1)
    )


def test_triangularity_fails_on_a_wrong_beta(monkeypatch):
    assert verify.check_triangularity(3)[0].status == "pass"
    real = verify.beta
    monkeypatch.setattr(verify, "beta", lambda lam, lbar, D: real(lam, lbar, D) + 1)
    assert verify.check_triangularity(3)[0].status == "fail"


def test_triangularity_fails_on_a_singular_pbw_matrix(monkeypatch):
    """A monomial listed twice makes V square and singular: the row fails,
    and nothing is raised."""
    real = verify._pbw_data

    def repeated(N, n, flavor):
        prims, monomials = real(N, n, flavor)
        return prims, [monomials[0]] + monomials[:-1]

    monkeypatch.setattr(verify, "_pbw_data", repeated)
    assert verify.check_triangularity(3)[0].status == "fail"


def test_triangularity_fails_on_a_non_finite_inverse(monkeypatch):
    monkeypatch.setattr(np.linalg, "inv", lambda V: np.full(V.shape, np.inf))
    assert verify.check_triangularity(3)[0].status == "fail"


def test_triangularity_holds_at_degree_4():
    assert verify._pbw_triangular(4, Decoration.TBAR)


def test_primitive_preservation_fails_on_plain_words(monkeypatch):
    assert verify.check_prim_preservation(4)[0].status == "pass"
    monkeypatch.setattr(verify, "stdbrac", AlgebraElement.from_word)
    assert verify.check_prim_preservation(4)[0].status == "fail"


def test_tau_tilde_ambimorphism_fails_on_swapped_slots(monkeypatch):
    """Fed the τ̃ sandwich (n−i t, i t) in place of (i t, n−i t), the row fails."""
    def statuses():
        return {r.name: r.status for r in verify.check_morphisms(4)}

    assert set(statuses().values()) == {"pass"}
    real = verify._composes_to
    swapped = []

    def composes_to(T, factors, algebra):
        (D,) = T.terms
        if D.length == 2 and D.flavor is Decoration.TBAR and D.parts[0] != D.parts[1]:
            swapped.append(D)
            T = DescentOperator.elementary(DecoratedComposition(D.parts[::-1]))
        return real(T, factors, algebra)

    monkeypatch.setattr(verify, "_composes_to", composes_to)
    got = statuses()
    assert swapped
    assert got["algebra.tau_tilde_ambimorphism"] == "fail"
    assert got["algebra.tau_hopf_morphism"] == "pass"


def test_eigen_rows_read_the_certificate(monkeypatch):
    names = ("lyndon.eigen_equations", "markov.right_eigenfunctions_via_duality")

    def rows():
        out = verify.check_eigen_equations(2) + verify.check_chain_duality(2)
        return [r for r in out if r.name in names]

    assert len(rows()) == 3 and all(r.status == "pass" for r in rows())
    real = verify._chain_report
    monkeypatch.setattr(verify, "_chain_report", lambda spec: {**real(spec), "eigen_equations": False})
    assert {r.name for r in rows()} == set(names)
    assert all(r.status == "fail" for r in rows())


def test_eigen_equations_hold_bounds_its_product():
    M = np.array([[2, 1], [0, 3]], dtype=np.int64)
    V = np.array([[1, -1], [0, 1]], dtype=np.int64)  # left eigenvectors for 2 and 3
    assert _eigen_equations_hold(V, np.array([2, 3]), M)
    assert not _eigen_equations_hold(V, np.array([2, 2]), M)
    # max|V| times the largest column abs-sum (4) must stay below 2^63
    assert _eigen_equations_hold(V * 2**60, np.array([2, 3]), M)
    with pytest.raises(CodeOverflow):
        _eigen_equations_hold(V * 2**61, np.array([2, 3]), M)


@pytest.mark.parametrize("float_path", [True, False])
def test_exact_product_matches_python_integers(float_path):
    # the bound max|X| × the largest column abs-sum of M sits just below
    # 2^53 (float64 product) or just above it (int64 product); row 0 of X
    # is max|X| throughout, so one entry of X·M is the bound itself, odd
    # past 2^53, where float64 has no odd integers
    rng = np.random.default_rng(5)
    M = rng.integers(0, 2**20, (40, 30))
    j = int(M.sum(axis=0).argmax())
    M[0, j] += 1 - M[:, j].sum() % 2
    col = int(M[:, j].sum())
    top = (2**53 - 1) // col if float_path else (2**53 // col + 1) | 1
    assert (top * col < 2**53) == float_path
    X = rng.integers(-top, top + 1, (25, 40))
    X[0] = top
    want = X.astype(object) @ M.astype(object)
    got = verify._exact_product(X, M)
    assert got.dtype == np.int64 and (got.astype(object) == want).all()
    rounded = (X.astype(np.float64) @ M.astype(np.float64)).astype(np.int64).astype(object)
    assert (rounded == want).all() == float_path  # past 2^53, float64 rounds


ROTATION_SPEC = ShuffleSpec(3, 2, "+", ROTATION)


def test_rotation_route_refuses_a_short_zero_rank(monkeypatch):
    """The rank of the P of one block, k = n (weight 1), one short."""
    rep = verify.chain_spectrum_certificate(ROTATION_SPEC)
    assert rep["ok"] and rep["zero_rank"] == 33 and rep["blocks"][3]["zero_rank"] == 6
    real_power, real_rank = verify.exactla.annihilation_power, verify.exactla.rank_mod
    blocks = []  # the P of each block on the annihilation route

    def recorded(B, eigs, smax):
        s, P = real_power(B, eigs, smax)
        blocks.append(P)
        return s, P

    def rank(M, p):
        return real_rank(M, p) - (len(blocks) == 3 and M is blocks[-1])

    monkeypatch.setattr(verify.exactla, "annihilation_power", recorded)
    monkeypatch.setattr(verify.exactla, "rank_mod", rank)
    bad = verify.chain_spectrum_certificate(ROTATION_SPEC)
    assert len(blocks) == 3  # the blocks k = 1, 2, 3 take the annihilation route
    assert bad["blocks"][3]["zero_rank"] == 5 and bad["zero_rank"] == 32
    assert bad["annihilated"] and bad["ok"] is False


def test_rotation_route_refuses_a_wrong_zero_multiplicity(monkeypatch):
    real = verify.shuffle_multiplicities

    def wrong(a, sign, n):
        return [(v, m + (v == 0)) for v, m in real(a, sign, n)]

    monkeypatch.setattr(verify, "shuffle_multiplicities", wrong)
    rep = verify.chain_spectrum_certificate(ROTATION_SPEC)
    assert rep["counts_match"] and rep["annihilated"] and rep["zero_rank"] == 33
    assert [b.get("zero_rank") for b in rep["blocks"]] == [None, 6, 3, 6]
    assert rep["predicted"][0] == 34 and rep["ok"] is False


def test_rotation_route_refuses_without_an_annihilation_power(monkeypatch):
    real = verify.exactla.annihilation_power
    monkeypatch.setattr(verify.exactla, "annihilation_power", lambda B, eigs, smax: real(B, eigs, 1))
    rep = verify.chain_spectrum_certificate(ROTATION_SPEC)
    # B_2 is annihilated at power 1, B_1 and B_3 need more
    assert [b.get("annihilation_power") for b in rep["blocks"]] == [None, None, 1, None]
    assert rep["annihilation_power"] is None and rep["annihilated"] is False and rep["ok"] is False


def test_chain_certificate_links_the_proved_matrix_to_the_chain(monkeypatch):
    spec = ShuffleSpec(4, 3, "+", "flip")
    tm = verify.transition_matrix(spec)
    rep = verify.chain_spectrum_certificate(spec, tm)
    assert rep["ok"] and rep["eigen_equations"] and rep["table_matches"] and rep["method"] == "full-eigenbasis"
    assert "duality" not in rep and "table_matches" not in verify.chain_spectrum_certificate(spec)
    images = tm.images.copy()
    images[5, 7] = (images[5, 7] + 1) % tm.size
    bad = verify.chain_spectrum_certificate(spec, verify.TransitionMatrix(spec, tm.states, tm.counts, images))
    assert bad["table_matches"] is False and bad["ok"] is False and bad["eigen_equations"]
    other = verify.transition_matrix(ShuffleSpec(4, 3, "-", "flip"))
    assert verify.chain_spectrum_certificate(spec, other)["table_matches"] is False

    def bump(M):
        M = M.copy()
        M[5, 7] += 1
        return M

    real_rows, real_blocks = verify.eigenvector_matrix, verify._sign_blocks

    def rows(basis, k, *rest):  # one entry of the rows of block 1
        U, mu, words = real_rows(basis, k, *rest)
        return (bump(U) if k == 1 else U), mu, words

    monkeypatch.setattr(verify, "eigenvector_matrix", rows)
    bad = verify.chain_spectrum_certificate(spec, tm)
    assert bad["eigen_equations"] is False and bad["ok"] is False and bad["table_matches"]
    monkeypatch.undo()
    monkeypatch.setattr(  # one entry of block 1
        verify, "_sign_blocks", lambda spec, basis: (bump(B) if k == 1 else B for k, B in enumerate(real_blocks(spec, basis)))
    )
    bad = verify.chain_spectrum_certificate(spec, tm)
    assert bad["eigen_equations"] is False and bad["ok"] is False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_certificate_matches_the_concat_side_route(n):
    # the route the dense certificate took before it read A itself: the
    # riffle duality A = Mcᵀ against the concat-algebra matrix Mc, then the
    # left eigen-equations V·Mc = diag(μ)·V of the signed rows
    for a, sign, flavor in verify.ALL_SPECS:
        spec = ShuffleSpec(n, a, sign, flavor)
        tm = verify.transition_matrix(spec)
        Mc = operator_matrix(spec.operator(), tm.states, CONCAT)
        assert (Mc == tm.counts.T).all(), spec
        V, mu, _ = signed_eigenvector_matrix(tm.states, a, sign, spec.decoration)
        rep = verify.chain_spectrum_certificate(spec, tm)
        assert rep["eigen_equations"] is _eigen_equations_hold(V, mu, Mc) is True, spec
        assert rep["ok"], spec


# --- the sign-character blocks against the dense chain ----------------------

REPORT_KEYS = ("ok", "method", "size", "eigenvector_counts", "annihilation_power", "zero_rank")
DENSE_SPECS = [(n, *spec) for n in (1, 2, 3, 4) for spec in verify.ALL_SPECS] + [
    (n, a, sign, flavor) for n in (1, 2, 3) for a in (1, 4) for sign in "+-" for flavor in ("rotation", "flip")
]


@pytest.mark.parametrize("n, a, sign, flavor", DENSE_SPECS)
def test_block_certificate_matches_the_dense_reference(n, a, sign, flavor, tm_cache):
    spec = ShuffleSpec(n, a, sign, flavor)
    tm = tm_cache(n, a, sign, flavor)
    rep = verify.chain_spectrum_certificate(spec, tm)
    dense = dense_certificate(spec, tm)
    assert {k: rep.get(k) for k in REPORT_KEYS} == {k: dense.get(k) for k in REPORT_KEYS}
    assert rep["ok"] and rep["table_matches"]
    assert sum(b["weight"] for b in rep["blocks"]) == 2**n
    untied = verify.chain_spectrum_certificate(spec)  # no tm: no transition matrix is read
    assert {k: rep.get(k) for k in REPORT_KEYS} == {k: untied.get(k) for k in REPORT_KEYS}


def _character_blocks(tm):
    """χ_S on the states, the lift L[y, σ] = [|y| = σ] onto the plain
    permutations, and B_S = Lᵀ·A·diag(χ_S)·L read off the plain rows of
    A = tm.counts, for every S ⊆ {1..n} as a frozenset."""
    n = tm.spec.n
    plain = verify._plain_states(n)
    L = np.zeros((tm.size, len(plain)), dtype=np.int64)
    L[np.arange(tm.size), plain.index_words(np.abs(tm.states.W))] = 1
    rows = tm.states.index_words(plain.W)
    out = {}
    for r in range(n + 1):
        for S in itertools.combinations(range(1, n + 1), r):
            chi = np.prod(np.where(np.isin(-tm.states.W, S), -1, 1), axis=1)
            out[frozenset(S)] = chi, L, tm.counts[rows] @ (chi[:, None] * L)
    return plain, out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a, sign, flavor", verify.ALL_SPECS)
def test_chain_splits_into_sign_character_blocks(n, a, sign, flavor, tm_cache):
    """A·(g·χ_S) = (B_S·g)·χ_S for every g and S, on the dense counts, and
    the blocks B_k of the certificate are B_{1..k}."""
    tm = tm_cache(n, a, sign, flavor)
    plain, blocks = _character_blocks(tm)
    for chi, L, B in blocks.values():
        lift = chi[:, None] * L  # column σ is g·χ_S for g the indicator of σ
        assert (tm.counts @ lift == lift @ B).all()
    for k, B in enumerate(verify._sign_blocks(tm.spec, plain)):
        assert (B == blocks[frozenset(range(1, k + 1))][2]).all(), k


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a, sign, flavor", verify.ALL_SPECS)
def test_relabeling_conjugates_the_blocks(n, a, sign, flavor, tm_cache):
    """B_{g(S)} = Π_g·B_S·Π_gᵀ for every adjacent transposition g of the
    labels, Π_g[π, σ] = [σ = g·π]."""
    tm = tm_cache(n, a, sign, flavor)
    plain, blocks = _character_blocks(tm)
    for i in range(1, n):
        g = {i: i + 1, i + 1: i}
        moved = np.array([[g.get(c, c) for c in w] for w in plain])
        Pi = np.zeros((len(plain), len(plain)), dtype=np.int64)
        Pi[np.arange(len(plain)), plain.index_words(moved)] = 1
        for S, (_, _, B) in blocks.items():
            gS = frozenset(g.get(c, c) for c in S)
            assert (blocks[gS][2] == Pi @ B @ Pi.T).all(), (i, sorted(S))


@pytest.mark.parametrize("a, sign, flavor", verify.ALL_SPECS)
def test_chain_certificate_at_n5(a, sign, flavor):
    rep = verify.chain_spectrum_certificate(ShuffleSpec(5, a, sign, flavor))
    assert rep["ok"] and rep["size"] == 3840 and "table_matches" not in rep
    assert [b["weight"] for b in rep["blocks"]] == [1, 5, 10, 10, 5, 1]


def test_chain_certificate_reads_no_dense_matrix(monkeypatch):
    """No transition matrix is built, and a given chain is read by its
    image table alone, not by its dense counts."""
    spec = ShuffleSpec(3, 2, "+", ROTATION)
    tm = verify.transition_matrix(spec)
    monkeypatch.setattr(verify, "transition_matrix", lambda spec: pytest.fail("a transition matrix was built"))
    assert verify.chain_spectrum_certificate(spec)["ok"]
    rep = verify.chain_spectrum_certificate(spec, verify.TransitionMatrix(spec, tm.states, None, tm.images))
    assert rep["ok"] and rep["table_matches"]


def test_chain_certificate_refuses_past_the_block_budget(monkeypatch):
    # 8! × 8! int64 entries take 13 GB: refused before the operator is built
    monkeypatch.setattr(ShuffleSpec, "operator", lambda self: pytest.fail("the operator was built"))
    with pytest.raises(StateSpaceTooLarge, match="8! × 8!"):
        verify.chain_spectrum_certificate(ShuffleSpec(8, 2, "+", ROTATION))


def test_subdominant_rows_carry_their_sizes():
    rows = check_subdominant(3)
    # one row per subdominant eigenvalue: 1/a for each of 16 chains, and
    # −1/3 as well for the 4 chains with a = 3 and sign −
    assert len(rows) == 20
    assert all(r.status == "pass" for r in rows)
    for r in rows:
        assert {"eigenvalue", "family_size", "expected_multiplicity"} <= set(r.params)
        assert r.params["family_size"] == r.params["expected_multiplicity"]
        assert abs(r.params["eigenvalue"]) == Fraction(1, r.params["a"])


def test_sampler_agreement_refuses_a_deck_outside_the_labels(monkeypatch):
    # with m = 3, the deck 4 -3 1 codes in base 7 as the state -3 -2 1: the
    # label 4 carries into the next digit, so it must be refused, not counted
    monkeypatch.setattr(verify, "sample_step", lambda spec, w, rng: W("4 -3 1"))
    with pytest.raises(KeyError) as info:
        verify.check_sampler_agreement(3)
    assert info.value.args == ((4, -3, 1),)


# --- the one-word route of the identity checks against the matrix route -----


def _matrix_verdict(T, factors, algebra, states, mat):
    """Whether T = F_1 ∘ ⋯ ∘ F_k as matrices on the states: rows are inputs,
    so the composite is M(F_k)···M(F_1)."""
    lhs = np.eye(len(states), dtype=np.int64)
    for F in factors:
        lhs = mat(F) @ lhs
    return bool((lhs == mat(T)).all())


def _matrices(states, algebra):
    """The matrix of an operator on the states, built once per operator."""
    cache = {}

    def mat(T):
        key = tuple(T.canonical_items())
        if key not in cache:
            cache[key] = operator_matrix(T, states, algebra)
        return cache[key]

    return mat


def test_one_word_verdicts_match_the_matrices_on_the_composition_law():
    verdicts = Counter()
    for n in (1, 2, 3):
        states = signed_permutations(n)
        for algebra, kind in ((SHUFFLE, "commutative"), (CONCAT, "cocommutative")):
            mat = _matrices(states, algebra)
            for flavor in verify.BOTH_FLAVORS:
                Ds = list(decorated_compositions(n, flavor))
                for D, Dp in itertools.product(Ds, Ds):
                    factors = [DescentOperator.elementary(D), DescentOperator.elementary(Dp)]
                    # the law's prediction, and the prediction with the factors swapped
                    for T in (compose_law(D, Dp, kind), compose_law(Dp, D, kind)):
                        got = verify._composes_to(T, factors, algebra)
                        assert got == _matrix_verdict(T, factors, algebra, states, mat), (str(D), str(Dp), algebra)
                        verdicts[got] += 1
    assert verdicts[True] and verdicts[False]  # a helper that always passes fails here


def test_one_word_verdicts_match_the_matrices_on_zero_parts():
    states = signed_permutations(2)
    for flavor in verify.BOTH_FLAVORS:
        base = DescentOperator.elementary(DecoratedComposition.from_sizes((1, 1), (0,), flavor))
        same = DecoratedComposition.from_sizes((0, 1, 0, 1, 0), (1,), flavor)
        other = DecoratedComposition.from_sizes((0, 1, 1), (2,), flavor)
        for algebra in (SHUFFLE, CONCAT):
            mat = _matrices(states, algebra)
            for D, want in ((same, True), (other, False)):
                factors = [DescentOperator.elementary(D)]
                assert verify._composes_to(base, factors, algebra) is want
                assert _matrix_verdict(base, factors, algebra, states, mat) is want


def test_one_word_verdicts_match_the_matrices_on_riffle_composites():
    n = 3
    states = signed_permutations(n)
    verdicts = Counter()
    outside = Counter()
    for algebra in (SHUFFLE, CONCAT):
        mat = _matrices(states, algebra)
        commutative = algebra == SHUFFLE
        for (a, b), flavor in itertools.product(itertools.product((2, 3), repeat=2), verify.BOTH_FLAVORS):
            hypo = (a if commutative else b) % 2 == 1 or flavor is verify.Decoration.TBAR
            for s1, s2, sign in itertools.product("+-", repeat=3):
                T = riffle_operator(a * b, sign, flavor, n)
                factors = [riffle_operator(a, s1, flavor, n), riffle_operator(b, s2, flavor, n)]
                got = verify._composes_to(T, factors, algebra)
                assert got == _matrix_verdict(T, factors, algebra, states, mat), (a, b, flavor, algebra, s1, s2, sign)
                verdicts[got] += 1
                if not hypo and sign == verify.riffle_composite_sign(s1, s2, a, b, flavor, commutative):
                    outside[got] += 1
    assert verdicts[True] and verdicts[False]
    assert outside[False]  # the counterexamples the check reports outside the hypotheses
