import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import (
    FLIP,
    ROTATION,
    BadIndices,
    FlavorUnsupported,
    HypothesesNotMet,
    ShuffleSpec,
    SignedWord,
    StateSpaceTooLarge,
    all_words,
    batch_step,
    des,
    eigenfunction_value,
    exact_stat_expectation,
    expectation_via_eigenfunction,
    expected_descents,
    f_minus,
    f_plus,
    f_tilde,
    g_fn,
    sample_step,
    signed_permutations,
    stationary_distribution,
    stationary_is_unique,
    subdominant_families,
    transition_matrix,
    verify_subdominant,
)
from hyperoct import exactla
from hyperoct.markov import _family_vector, _strongly_connected
from hyperoct.verify import chain_spectrum_certificate
from conftest import W


def test_spec_validation():
    s = ShuffleSpec(3, 2, "plus", "flip")
    assert s.sign == "+"
    with pytest.raises(ValueError):
        ShuffleSpec(0, 2, "+", "flip")
    with pytest.raises(ValueError):
        ShuffleSpec(2, 2, "+", "twist")


def test_transition_n1_flip_minus(tm_cache):
    tm = tm_cache(1, 2, "-", FLIP)
    one = W("1")
    assert tm.entry(one, W("1")) == Fraction(1, 2)
    assert tm.entry(one, W("-1")) == Fraction(1, 2)
    assert tm.row_sums_exact()


def test_state_space_cap():
    with pytest.raises(StateSpaceTooLarge):
        transition_matrix(ShuffleSpec(6, 2, "+", FLIP), cap=5)


@pytest.mark.parametrize("a,sign,flavor", [(2, "+", FLIP), (3, "-", ROTATION)])
def test_rows_stochastic(tm_cache, a, sign, flavor):
    for n in (1, 2, 3):
        tm = tm_cache(n, a, sign, flavor)
        assert tm.row_sums_exact()
        assert (tm.counts >= 0).all()


def test_charpoly_n3_flip_table(tm_cache):
    tm = tm_cache(3, 2, "+", FLIP)
    assert exactla.charpoly_matches(tm.counts, {8: 1, 4: 6, 2: 8, 0: 33})


def test_stationary(tm_cache):
    pi = stationary_distribution(ShuffleSpec(2, 2, "+", FLIP))
    assert pi == [Fraction(1, 8)] * 8
    assert sum(pi) == 1
    with pytest.raises(HypothesesNotMet):
        stationary_distribution(ShuffleSpec(2, 1, "+", FLIP))
    for n in (1, 2, 3):
        for a, sign, flavor in ((2, "+", FLIP), (2, "-", ROTATION), (3, "-", FLIP)):
            tm = tm_cache(n, a, sign, flavor)
            # pi K = pi exactly: column sums equal the scale
            assert (tm.counts.sum(axis=0) == tm.scale).all()
            assert stationary_is_unique(tm)


def test_des_examples():
    assert des(W("4 3 5 -1 6 -7 -2")) == 3
    assert des(W("1 2 3 4")) == 0
    assert des(W("4 3 2 1")) == 3
    # the paper's descent set: 43, 5 1bar, 6 7bar (signed-integer comparison)
    w = W("4 3 5 -1 6 -7 -2")
    pairs = [(w[i], w[i + 1]) for i in range(len(w) - 1) if w[i] > w[i + 1]]
    assert pairs == [(4, 3), (5, -1), (6, -7)]


def test_eigenfunction_values():
    w = W("1 6 -7 2")
    assert f_tilde(6, 7, w) == -1  # 6 7bar is the (i jbar) case for i=6, j=7
    assert f_tilde(7, 6, w) == -1  # and the (j ibar) case for i=7, j=6
    assert f_tilde(7, 6, W("7 6 1 2")) == 1
    assert f_plus(6, 7, w) == 0
    assert f_minus(6, 7, w) == 1  # 6 7bar is the (i jbar) case, i = 6 < j = 7
    assert g_fn(1, w) == 1
    assert g_fn(2, w) == 1
    assert g_fn(6, w) == 0
    with pytest.raises(BadIndices):
        f_plus(3, 3, w)
    with pytest.raises(BadIndices):
        f_tilde(3, 3, w)


def test_f_minus_sign_convention():
    # f-: +1 on (ibar j) and (i jbar); -1 on (j ibar) and (jbar i), i < j
    assert f_minus(1, 2, W("-1 2 3")) == 1
    assert f_minus(1, 2, W("1 -2 3")) == 1
    assert f_minus(1, 2, W("2 -1 3")) == -1
    assert f_minus(1, 2, W("-2 1 3")) == -1
    assert f_minus(1, 2, W("1 3 2")) == 0


def test_ftilde_descent_identity():
    # sum over i<j of f_tilde = (n-1) - 2 des(w)
    import itertools
    import random

    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 5)
        w = SignedWord(
            s * v
            for s, v in zip(
                (rng.choice((-1, 1)) for _ in range(n)),
                rng.sample(range(1, n + 1), n),
            )
        )
        total = sum(
            f_tilde(i, j, w) for i, j in itertools.combinations(range(1, n + 1), 2)
        )
        assert total == (n - 1) - 2 * des(w)


@pytest.mark.parametrize(
    "a,sign,flavor",
    [(2, "+", ROTATION), (2, "-", FLIP), (3, "+", FLIP), (3, "-", ROTATION)],
)
def test_subdominant(tm_cache, a, sign, flavor):
    for n in (2, 3):
        spec = ShuffleSpec(n, a, sign, flavor)
        rep = verify_subdominant(spec, tm_cache(n, a, sign, flavor))
        assert rep["ok"], rep


def test_chain_certificate_a1(tm_cache):
    # with one pile the chain is a permutation (the identity for sign +), so
    # Table 1 must predict each of ±1 once, with its full multiplicity
    for n in (1, 2, 3):
        for sign in "+-":
            for flavor in (FLIP, ROTATION):
                spec = ShuffleSpec(n, 1, sign, flavor)
                rep = chain_spectrum_certificate(spec, tm_cache(n, 1, sign, flavor))
                assert rep["ok"], rep


def test_subdominant_family_shapes():
    fams = dict(subdominant_families(ShuffleSpec(3, 2, "+", FLIP)))
    assert len(fams[Fraction(1, 2)]) == 6  # n(n-1) ordered pairs
    fams_odd = dict(subdominant_families(ShuffleSpec(3, 3, "-", ROTATION)))
    assert len(fams_odd[Fraction(1, 3)]) == 6  # f+ and f- over 3 pairs
    assert len(fams_odd[Fraction(-1, 3)]) == 3  # g_i


def test_expected_descents_formula(tm_cache):
    spec = ShuffleSpec(3, 2, "+", FLIP)
    w0 = W("3 2 1")
    assert expected_descents(spec, w0, 0) == des(w0)
    assert expected_descents(spec, w0, 1) == Fraction(3, 2)
    tm = tm_cache(3, 2, "+", FLIP)
    desvec = [des(s) for s in tm.states]
    for t in range(5):
        assert exact_stat_expectation(tm, w0, t, desvec) == expected_descents(spec, w0, t)
    with pytest.raises(FlavorUnsupported):
        expected_descents(ShuffleSpec(3, 2, "+", ROTATION), w0, 1)


def test_expectation_via_eigenfunction(tm_cache):
    tm = tm_cache(3, 2, "+", FLIP)
    w0 = W("2 1 3")
    beta = Fraction(1, 2)
    f = lambda w: f_tilde(1, 2, w)
    # cross-check beta^t f(w0) against the exact K^t expectation
    fvec = [f(s) for s in tm.states]
    for t in (0, 1, 2, 3):
        assert expectation_via_eigenfunction(f, beta, w0, t) == exact_stat_expectation(
            tm, w0, t, fvec
        )


def test_sample_step_deterministic_cases():
    rng = np.random.default_rng(0)
    spec = ShuffleSpec(4, 1, "+", FLIP)
    w = W("2 -4 1 3")
    assert sample_step(spec, w, rng) == w  # a=1, sign +: single undecorated pile
    # a=1, sign -: the whole deck is one decorated pile
    flip_all = sample_step(ShuffleSpec(4, 1, "-", FLIP), w, rng)
    assert flip_all == w.flip()
    rot_all = sample_step(ShuffleSpec(4, 1, "-", ROTATION), w, rng)
    assert rot_all == w.bar()


def test_batch_matches_single_distribution(tm_cache):
    spec = ShuffleSpec(2, 2, "-", FLIP)
    tm = tm_cache(2, 2, "-", FLIP)
    w0 = W("1 2")
    row = {y: tm.entry(w0, y) for y in tm.states}
    trials = 40_000
    rng = np.random.default_rng(123)
    decks = np.tile(np.array(w0, dtype=np.int64), (trials, 1))
    out = batch_step(spec, decks, rng)
    counts = {}
    for r in out:
        key = SignedWord(r)
        counts[key] = counts.get(key, 0) + 1
    rng2 = np.random.default_rng(123)
    counts_single = {}
    for _ in range(10_000):
        y = sample_step(spec, w0, rng2)
        counts_single[y] = counts_single.get(y, 0) + 1
    for y, p in row.items():
        if p == 0:
            assert counts.get(y, 0) == 0
            assert counts_single.get(y, 0) == 0
            continue
        for c, total in ((counts.get(y, 0), trials), (counts_single.get(y, 0), 10_000)):
            se = math.sqrt(float(p) * (1 - float(p)) * total)
            assert abs(c - float(p) * total) < 5 * se, (y, c, p)


# ---------------------------------------------------------------------------
# the image-table chain layer against dense and scalar references


@pytest.mark.parametrize(
    "a,sign,flavor", [(a, s, f) for a in (1, 2, 3) for s in "+-" for f in (ROTATION, FLIP)]
)
def test_strong_connectivity_matches_nullity(tm_cache, a, sign, flavor):
    for n in (1, 2, 3):
        tm = tm_cache(n, a, sign, flavor)
        B = tm.counts.T - tm.scale * np.eye(tm.size, dtype=np.int64)
        want = exactla.nullity_upper_bound(B) == 1
        assert _strongly_connected(tm.images) is want, n
        assert stationary_is_unique(tm) is want, n
        if a == 1 and n >= 2:
            assert want is False


def test_strong_connectivity_small_graphs():
    # a 3-cycle; a path (0 reaches all, nothing reaches 0); two 2-cycles
    assert _strongly_connected(np.array([[1], [2], [0]], dtype=np.int32))
    assert not _strongly_connected(np.array([[1], [2], [2]], dtype=np.int32))
    assert not _strongly_connected(np.array([[1], [0], [3], [2]], dtype=np.int32))
    assert _strongly_connected(np.array([[0, 1], [1, 0]], dtype=np.int32))


@pytest.mark.parametrize("n,a,sign,flavor", [(2, 2, "+", FLIP), (3, 3, "-", ROTATION), (4, 2, "-", FLIP), (4, 3, "+", ROTATION)])
def test_table_products_match_dense(tm_cache, n, a, sign, flavor):
    tm = tm_cache(n, a, sign, flavor)
    rng = np.random.default_rng(n * 10 + a)
    v = rng.integers(-50, 50, size=tm.size)
    assert (tm.push(v) == v @ tm.counts).all()
    assert (tm.pull(v) == tm.counts @ v).all()
    big = np.array([int(x) * 2**70 for x in v], dtype=object)
    assert (tm.push(big) == np.array([int(x) * 2**70 for x in v @ tm.counts], dtype=object)).all()
    assert tm.images.dtype == np.int32 and tm.images.shape == (tm.size, a**n)


def test_family_vectors_match_scalar():
    words = signed_permutations(4) + all_words(3, 2)
    for length in (3, 4):
        states = [w for w in words if len(w) == length]
        S = np.array(states, dtype=np.int64)
        for i in range(1, 5):
            for j in range(1, 5):
                kinds = ["f_tilde"] if i != j else []
                if i < j:
                    kinds += ["f_plus", "f_minus"]
                for kind in kinds:
                    want = [eigenfunction_value(kind, w, i, j) for w in states]
                    assert _family_vector(kind, (i, j), S).tolist() == want, (kind, i, j)
            want = [g_fn(i, w) for w in states]
            assert _family_vector("g", (i,), S).tolist() == want


def test_subdominant_refuses_a1():
    # at a = 1 the value 1/a is the top eigenvalue, not a subdominant one
    for flavor in (ROTATION, FLIP):
        with pytest.raises(HypothesesNotMet):
            verify_subdominant(ShuffleSpec(2, 1, "+", flavor))


def test_index_lookup(tm_cache):
    tm = tm_cache(3, 2, "+", FLIP)
    for i, w in enumerate(tm.states):
        assert tm.index(w) == i
        assert tm.index(list(w)) == i
    with pytest.raises(ValueError):
        tm.index(W("1 1 2"))


def test_expectation_past_int64(tm_cache):
    # 27^t·max des passes int64 at t = 14; the value must stay exact
    spec = ShuffleSpec(3, 3, "+", FLIP)
    tm = tm_cache(3, 3, "+", FLIP)
    desvec = [des(s) for s in tm.states]
    w0 = W("3 -2 1")
    for t in (13, 14, 20):
        assert exact_stat_expectation(tm, w0, t, desvec) == expected_descents(spec, w0, t)


def test_expectation_exact_under_optimize():
    # `python -O` strips assert statements; no guard may depend on one
    code = (
        "import sys\n"
        "from hyperoct import ShuffleSpec, des, exact_stat_expectation, expected_descents, transition_matrix\n"
        "assert False, 'asserts are live'\n"
        "spec = ShuffleSpec(5, 3, '+', 'flip')\n"
        "tm = transition_matrix(spec)\n"
        "w0 = (5, 4, 3, 2, 1)\n"
        "got = exact_stat_expectation(tm, w0, 9, [des(s) for s in tm.states])\n"
        "print(got == expected_descents(spec, w0, 9), float(got))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    ok, value = out.stdout.split()
    assert ok == "True" and abs(float(value) - 2) < 0.01
