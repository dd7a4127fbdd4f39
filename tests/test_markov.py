import hashlib
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
    BadCount,
    BadIndices,
    FlavorUnsupported,
    HypothesesNotMet,
    NotAState,
    NotIntegral,
    ShuffleSpec,
    SignedWord,
    SizeMismatch,
    StateSpaceTooLarge,
    TransitionMatrix,
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
    simulate,
    stationary_distribution,
    stationary_is_unique,
    subdominant_families,
    transition_matrix,
    verify_subdominant,
)
from hyperoct import exactla, markov
from hyperoct.descent import image_table
from hyperoct.errors import BadCount
from hyperoct.markov import _family_vectors, _reaches_all
from hyperoct.verify import chain_spectrum_certificate
from conftest import W


def test_spec_validation():
    s = ShuffleSpec(3, 2, "plus", "flip")
    assert s.sign == "+"
    with pytest.raises(BadCount):
        ShuffleSpec(0, 2, "+", "flip")
    with pytest.raises(BadCount):
        ShuffleSpec(2, 0, "+", "flip")
    with pytest.raises(ValueError):
        ShuffleSpec(2, 2, "+", "twist")
    # counts that are not integers: a 2.5-pile shuffle is no chain
    for n, a in ((3, 2.5), (3.0, 2), (2.5, 2), (3, "2"), (3, None)):
        with pytest.raises(BadCount):
            ShuffleSpec(n, a, "+", "flip")
    assert ShuffleSpec(np.int64(3), np.int32(2)).scale == 8


def test_transition_n1_flip_minus(tm_cache):
    tm = tm_cache(1, 2, "-", FLIP)
    one = W("1")
    assert tm.entry(one, W("1")) == Fraction(1, 2)
    assert tm.entry(one, W("-1")) == Fraction(1, 2)
    assert tm.row_sums_exact()


def test_state_space_cap():
    with pytest.raises(StateSpaceTooLarge):
        transition_matrix(ShuffleSpec(6, 2, "+", FLIP))


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


# (pairs giving +1, pairs giving −1) among the adjacent letters, written out
# from the paper's definitions of f±_ij (i < j) and f̃_ij (i ≠ j)
REFERENCE_PAIRS = {
    "f_plus": lambda i, j: ({(i, j), (-i, -j)}, {(j, i), (-j, -i)}),
    "f_minus": lambda i, j: ({(-i, j), (i, -j)}, {(j, -i), (-j, i)}),
    "f_tilde": lambda i, j: ({(i, j), (-i, j), (-j, i), (-j, -i)}, {(j, i), (j, -i), (i, -j), (-i, -j)}),
}


def reference_value(kind, i, j, w):
    pairs = set(zip(w, w[1:]))
    plus, minus = REFERENCE_PAIRS[kind](i, j)
    return 1 if pairs & plus else -1 if pairs & minus else 0


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
    funcs = {"f_plus": f_plus, "f_minus": f_minus, "f_tilde": f_tilde}
    for w in signed_permutations(3) + all_words(2, 2):
        for i in range(1, 4):
            for j in range(1, 4):
                kinds = ["f_tilde"] if i != j else []
                if i < j:
                    kinds += ["f_plus", "f_minus"]
                for kind in kinds:
                    assert funcs[kind](i, j, w) == reference_value(kind, i, j, w), (kind, i, j, w)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: eigenfunction_value("f_plus", w, 1),
        lambda w: eigenfunction_value("f_tilde", w, 2),
        lambda w: eigenfunction_value("g", w, 1, 2),
        lambda w: f_plus(1.5, 2, w),
        lambda w: f_minus(1, 2.0, w),
        lambda w: f_tilde(Fraction(1), 2, w),
        lambda w: g_fn(1.5, w),
    ],
    ids=["f_plus-no-j", "f_tilde-no-j", "g-with-j", "f_plus-float-i", "f_minus-float-j", "f_tilde-fraction-i", "g-float-i"],
)
def test_eigenfunctions_refuse_missing_or_non_integer_indices(call):
    with pytest.raises(BadIndices):
        call(W("1 2 -3"))


def test_eigenfunctions_vanish_on_the_empty_word():
    # the empty word has no adjacent pair and no end letter
    e = SignedWord()
    assert f_plus(1, 2, e) == f_minus(1, 2, e) == f_tilde(1, 2, e) == g_fn(1, e) == 0
    for kind, j in (("f_plus", 2), ("f_minus", 2), ("f_tilde", 2), ("g", None)):
        assert eigenfunction_value(kind, e, 1, j) == 0
    assert g_fn(1, W("-1")) == -1 and g_fn(2, W("2")) == 1 and g_fn(1, W("2")) == 0


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


@pytest.mark.parametrize("a,dtype", [(2, np.int16), (31, np.int16), (32, np.int32)])
def test_subdominant_pulls_the_narrowest_exact_dtype(a, dtype, monkeypatch):
    # pull sums a^n entries of F in {-1, 0, 1}: 31^3 = 29791 fits in int16,
    # 32^3 = 2^15 is one past it
    pulled = []
    pull = TransitionMatrix.pull
    monkeypatch.setattr(TransitionMatrix, "pull", lambda self, f: pulled.append(f.dtype) or pull(self, f))
    rep = verify_subdominant(ShuffleSpec(3, a, "-", ROTATION))
    assert rep["ok"], rep
    assert pulled and set(pulled) == {np.dtype(dtype)}


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
    with pytest.raises(BadCount, match="t=-1"):
        expected_descents(spec, w0, -1)


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
    for b in (beta, 0):
        with pytest.raises(BadCount, match="t=-2"):
            expectation_via_eigenfunction(f, b, w0, -2)


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


def _reference_batch_step(spec, decks, rng):
    """The step that preceded the pile-label kernel: a stable argsort of the
    labels, pile indices by broadcasting against the pile ends, and a
    scatter of the processed cards."""
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


@pytest.mark.parametrize("n", [1, 2, 5, 52])
def test_batch_step_matches_the_reference_bit_for_bit(n):
    # a > n leaves piles empty; the kernel must consume the same draws
    for a in (1, 2, 3, 4):
        for sign in "+-":
            for flavor in (ROTATION, FLIP):
                spec = ShuffleSpec(n, a, sign, flavor)
                for T in (1, 500):
                    seed = 1000 * n + 10 * a + T
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    start = np.random.default_rng(seed).permutation(n) + 1
                    start[::3] *= -1
                    decks = ref = np.tile(start.astype(np.int64), (T, 1))
                    for _ in range(3):
                        decks = batch_step(spec, decks, rng)
                        ref = _reference_batch_step(spec, ref, ref_rng)
                        assert decks.dtype == ref.dtype and (decks == ref).all(), spec
                        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 52])
def test_int16_simulate_matches_an_int64_reference_loop(n):
    for a in (2, 3):
        for sign in "+-":
            for flavor in (ROTATION, FLIP):
                spec = ShuffleSpec(n, a, sign, flavor)
                start = np.random.default_rng(n).permutation(n) + 1
                start[1::2] *= -1
                seed = 100 * n + a
                rng = np.random.default_rng(seed)
                decks = np.tile(start.astype(np.int64), (300, 1))
                means = []
                for _ in range(4):
                    decks = _reference_batch_step(spec, decks, rng)
                    means.append(float((decks[:, :-1] > decks[:, 1:]).sum(axis=1).mean()))
                assert simulate(spec, start.tolist(), 4, 300, seed=seed)["means"] == means, spec


@pytest.mark.parametrize("a", [1, 3, 2**31 - 1, 2**31])
def test_int32_label_draws_are_the_int64_stream(a):
    wide, narrow = np.random.default_rng(a), np.random.default_rng(a)
    for shape in ((1, 1), (500, 52), (7, 3)):
        want = wide.integers(0, a, size=shape)
        got = narrow.integers(0, a, size=shape, dtype=np.int32)
        assert (got == want).all()
        assert wide.bit_generator.state == narrow.bit_generator.state


def test_sampling_refuses_labels_past_int32_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    decks = np.tile(np.arange(1, 4), (5, 1))
    with pytest.raises(BadCount):
        batch_step(ShuffleSpec(3, 2**31 + 1), decks, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(BadCount):
        simulate(ShuffleSpec(3, 2**31 + 1), (1, 2, 3), 0, 1, seed=0)
    out = batch_step(ShuffleSpec(3, 2**31, "-"), decks, rng)  # the widest a that int32 labels hold
    assert (np.sort(np.abs(out), axis=1) == np.arange(1, 4)).all()


def test_simulate_refuses_inputs_outside_its_chain():
    spec = ShuffleSpec(3, 2, "+", FLIP)
    with pytest.raises(SizeMismatch):
        simulate(spec, (1, 2), 2, 10, seed=0)
    with pytest.raises(NotAState):
        simulate(spec, (1, 1, 2), 2, 10, seed=0)
    with pytest.raises(NotAState):
        simulate(spec, (1, -2, 4), 2, 10, seed=0)
    with pytest.raises(BadCount):
        simulate(spec, (1, 2, 3), 2, 0, seed=0)
    with pytest.raises(BadCount):
        simulate(spec, (1, 2, 3), -1, 10, seed=0)
    assert simulate(spec, (3, -1, 2), 0, 1, seed=0)["means"] == []


# ---------------------------------------------------------------------------
# the image-table chain layer against dense and scalar references


def _reference_reaches_all(indptr, adj):
    """Breadth-first search from vertex 0 over the CSR graph whose
    out-neighbours of i are adj[indptr[i]:indptr[i + 1]]."""
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


def _strongly_connected(images):
    """The two-way search that unique stationarity ran before it read
    double stochasticity: state 0 reaches every state, and every state
    reaches state 0 (a forward search over the reversed edges)."""
    size, width = images.shape
    forward = images.ravel()
    backward = np.argsort(forward, kind="stable") // width  # sources, by target
    back_ptr = np.concatenate(([0], np.cumsum(np.bincount(forward, minlength=size))))
    return _reference_reaches_all(np.arange(size + 1) * width, forward) and _reference_reaches_all(
        back_ptr, backward
    )


@pytest.mark.parametrize(
    "a,sign,flavor", [(a, s, f) for a in (1, 2, 3) for s in "+-" for f in (ROTATION, FLIP)]
)
def test_strong_connectivity_matches_nullity(tm_cache, a, sign, flavor):
    for n in (1, 2, 3):
        tm = tm_cache(n, a, sign, flavor)
        B = tm.counts.T - tm.scale * np.eye(tm.size, dtype=np.int64)
        want = exactla.nullity_upper_bound(B) == 1
        assert _strongly_connected(tm.images) is want, n
        assert _reaches_all(tm.images) is want, n
        assert stationary_is_unique(tm) is want, n
        if a == 1 and n >= 2:
            assert want is False


def test_forward_reach_is_strong_connectivity_on_doubly_stochastic_tables():
    # every column a permutation of the states, so every state has as many
    # in-edges as out-edges; half the tables keep two blocks apart
    rng = np.random.default_rng(14)
    disconnected = 0
    for t in range(3000):
        size, width = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        if t % 2:
            cut = int(rng.integers(1, size))
            order = rng.permutation(size)
            columns = [
                np.concatenate([rng.permutation(order[:cut]), rng.permutation(order[cut:])])[np.argsort(order)]
                for _ in range(width)
            ]
        else:
            columns = [rng.permutation(size) for _ in range(width)]
        images = np.stack(columns, axis=1).astype(np.int32)
        want = _strongly_connected(images)
        disconnected += not want
        assert _reaches_all(images) is want, images.tolist()
    assert disconnected >= 1500


def test_reaches_all_small_graphs():
    # a 3-cycle; a path from 0, and the reversed path; two 2-cycles
    assert _reaches_all(np.array([[1], [2], [0]], dtype=np.int32))
    assert _reaches_all(np.array([[1], [2], [2]], dtype=np.int32))
    assert not _reaches_all(np.array([[0], [0], [1]], dtype=np.int32))
    assert not _reaches_all(np.array([[1], [0], [3], [2]], dtype=np.int32))
    assert _reaches_all(np.array([[0, 1], [1, 0]], dtype=np.int32))


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


def _column_push(images, v):
    """Reference: v·counts by one scatter per program column."""
    out = np.zeros_like(v)
    for col in images.T:
        np.add.at(out, col, v)
    return out


@pytest.mark.parametrize("n,a,sign,flavor", [(3, 2, "-", ROTATION), (4, 3, "+", FLIP)])
def test_push_on_either_side_of_the_support_cut(tm_cache, monkeypatch, n, a, sign, flavor):
    tm = tm_cache(n, a, sign, flavor)
    rng = np.random.default_rng(n + a)
    repeats = []  # only the support path repeats each mass once per program
    repeat = np.repeat

    def counted_repeat(*args, **kwargs):
        repeats.append(1)
        return repeat(*args, **kwargs)

    monkeypatch.setattr(np, "repeat", counted_repeat)
    # 4·nnz = N takes the support path, one more state the column loop
    for nnz, support_path in ((tm.size // 4, True), (tm.size // 4 + 1, False), (1, True), (tm.size, False)):
        v = np.zeros(tm.size, dtype=np.int64)
        v[rng.choice(tm.size, size=nnz, replace=False)] = rng.integers(1, 50, size=nnz) * rng.choice([-1, 1], size=nnz)
        big = np.array([int(x) * 2**70 for x in v], dtype=object)
        dense = v @ tm.counts
        for x, want in ((v, dense), (big, np.array([int(y) * 2**70 for y in dense], dtype=object))):
            repeats.clear()
            got = tm.push(x)
            assert bool(repeats) is support_path, nnz
            assert got.dtype == x.dtype
            assert (got == want).all() and (got == _column_push(tm.images, x)).all()
    assert not tm.push(np.zeros(tm.size, dtype=np.int64)).any()


@pytest.mark.parametrize(
    "n,a,k",
    # images.size·k on both sides of markov._PULL_GATHER = 2^15, for the
    # 384×16, 48×27 and 384×81 tables (k = None: one column f)
    [(4, 2, None), (4, 2, 5), (4, 2, 6), (3, 3, 25), (3, 3, 26), (4, 3, None), (4, 3, 2)],
)
def test_pull_on_either_side_of_the_gather_cut(tm_cache, monkeypatch, n, a, k):
    tm = tm_cache(n, a, "-", FLIP)
    rng = np.random.default_rng(n * a)
    shape = (tm.size,) if k is None else (tm.size, k)
    gather = tm.images.size * (k or 1) <= markov._PULL_GATHER
    takes = []  # only the column loop calls np.take
    take = np.take
    monkeypatch.setattr(np, "take", lambda *args, **kwargs: takes.append(1) or take(*args, **kwargs))
    counts = tm.counts.astype(object)
    for f in (
        rng.integers(-1, 2, size=shape).astype(np.int16),
        rng.integers(-(2**40), 2**40, size=shape),
        rng.integers(-50, 50, size=shape).astype(object) * 2**70,
    ):
        takes.clear()
        got = tm.pull(f)
        assert bool(takes) is not gather, (f.dtype, k)
        assert got.dtype == f.dtype and got.shape == f.shape
        assert (got == counts @ f).all(), (f.dtype, k)


def _dense_expectations(tm, i, ts, stat):
    """Reference: row i of counts^t, dotted with stat in Python integers,
    over a^(nt), for each t of ts."""
    v, out = np.zeros(tm.size, dtype=np.int64), []
    v[i] = 1
    for t in range(max(ts) + 1):
        if t in ts:
            out.append(Fraction(sum(int(m) * s for m, s in zip(v.tolist(), stat)), tm.scale**t))
        v = v @ tm.counts
    return out


@pytest.mark.parametrize("a, sign, flavor", [(a, s, f) for a in (2, 3) for s in "+-" for f in (ROTATION, FLIP)])
def test_expectation_matches_dense_powers(tm_cache, a, sign, flavor):
    rng = np.random.default_rng(a)
    for n in (1, 2, 3, 4):
        tm = tm_cache(n, a, sign, flavor)
        desvec = [des(s) for s in tm.states]
        stats = [
            desvec,
            [d - 2 for d in desvec],
            [(-1) ** k * (2**63 + k) for k in range(tm.size)],  # past int64 from t = 0
            [2**70 * d + k for k, d in enumerate(desvec)],
        ]
        for i in {0, int(rng.integers(tm.size))}:
            for stat in stats:
                want = _dense_expectations(tm, i, range(5), stat)
                assert [exact_stat_expectation(tm, tm.states[i], t, stat) for t in range(5)] == want, (n, i)


@pytest.mark.parametrize("sign,flavor", [("+", FLIP), ("-", ROTATION)])
def test_expectation_on_either_side_of_the_support_cut(tm_cache, monkeypatch, sign, flavor):
    tm = tm_cache(4, 3, sign, flavor)
    desvec = [des(s) for s in tm.states]
    pulled = []  # t of each call whose last step ran through pull
    pull = TransitionMatrix.pull
    monkeypatch.setattr(TransitionMatrix, "pull", lambda self, f: pulled.append(t) or pull(self, f))
    v = np.zeros(tm.size, dtype=np.int64)
    v[0] = 1
    supports = []  # states carrying mass after t − 1 steps, from the dense counts
    for t in range(6):
        supports.append(np.count_nonzero(v))
        v = v @ tm.counts
    stats = (
        desvec,
        [(-1) ** k * (2**40 + k) for k in range(tm.size)],  # past int64 from t = 4
        [2**70 * d + k for k, d in enumerate(desvec)],
    )
    for stat in stats:
        want = _dense_expectations(tm, 0, range(1, 6), stat)
        pulled.clear()
        for t in range(1, 6):
            assert exact_stat_expectation(tm, tm.states[0], t, stat) == want[t - 1], t
        assert pulled == [t for t in range(1, 6) if 4 * supports[t - 1] > tm.size]
        assert pulled and pulled[0] > 2  # both sides of the cut ran


def test_images_keep_their_bytes(tm_cache):
    # the image tables of all 8 chains at n <= 4 as int64 word codes built
    # them: the float64 codes of exactla.exact_product must not move a byte
    pinned = {
        1: "eb7a13236ad203a9322649e0e4c38441035a487e445705f38f39fed573000dfa",
        2: "c6eace7f633acf35053390823dedaf8ccedaa230d9729e9def46d15c9ef0a46e",
        3: "6e844caa801d45247f872b39095d018d307baced2dc407dec8b468e39378eae6",
        4: "116261e8fee63f67b055b3aa522c58324f79c4999a2f104ba9a3069f2f3cce4a",
    }
    for n, digest in pinned.items():
        h = hashlib.sha256()
        for a in (2, 3):
            for sign in "+-":
                for flavor in (ROTATION, FLIP):
                    images = tm_cache(n, a, sign, flavor).images
                    assert images.dtype == np.int32 and images.flags.f_contiguous
                    h.update(images.tobytes(order="F"))
        assert h.hexdigest() == digest, n


def _dense_row(tm, i):
    return {y: Fraction(int(c), tm.scale) for y, c in zip(tm.states, tm.counts[i]) if c}


def _assert_table_reads_match_dense(tm, rows):
    assert tm.row_sums_exact() is bool((tm.counts.sum(axis=1) == tm.scale).all())
    assert tm.col_sums_exact() is bool((tm.counts.sum(axis=0) == tm.scale).all())
    for i, x in enumerate(tm.states):
        assert list(tm.row(x).items()) == list(_dense_row(tm, i).items()), x
    for i in rows:
        x = tm.states[i]
        assert [tm.entry(x, y) for y in tm.states] == [Fraction(int(c), tm.scale) for c in tm.counts[i]]


@pytest.mark.parametrize(
    "a,sign,flavor", [(a, s, f) for a in (1, 2, 3) for s in "+-" for f in (ROTATION, FLIP)]
)
def test_table_sums_entries_and_rows_match_dense(tm_cache, a, sign, flavor):
    rng = np.random.default_rng(a)
    for n in (1, 2, 3, 4):
        tm = tm_cache(n, a, sign, flavor)
        assert tm.row_sums_exact() and tm.col_sums_exact()
        _assert_table_reads_match_dense(tm, rng.choice(tm.size, size=min(tm.size, 4), replace=False))


def test_table_column_sums_catch_a_moved_image(tm_cache):
    tm = tm_cache(3, 2, "-", FLIP)
    images = tm.images.copy(order="F")
    images[5, 0] = (images[5, 0] + 1) % tm.size  # one program of state 5 lands elsewhere
    counts = np.zeros_like(tm.counts)
    for col in images.T:
        counts[np.arange(tm.size), col] += 1
    bad = TransitionMatrix(tm.spec, tm.states, counts, images)
    assert bad.row_sums_exact() and not bad.col_sums_exact()
    assert not stationary_is_unique(bad)
    _assert_table_reads_match_dense(bad, [5])


def test_transition_matrix_refuses_a_coefficient_other_than_1(monkeypatch):
    def doubled(*args):
        images, coeffs = image_table(*args)
        return images, 2 * coeffs

    monkeypatch.setattr(markov, "image_table", doubled)
    with pytest.raises(ValueError):
        transition_matrix(ShuffleSpec(2, 2, "+", FLIP))


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
                    want = [reference_value(kind, i, j, w) for w in states]
                    assert [eigenfunction_value(kind, w, i, j) for w in states] == want, (kind, i, j)
                    assert _family_vectors([(kind, (i, j))], S)[0].tolist() == want, (kind, i, j)
            want = [g_fn(i, w) for w in states]
            assert _family_vectors([("g", (i,))], S)[0].tolist() == want


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
    # not a state, too short, and a label past 3 that would code as -3 -2 1
    for w in ("1 1 2", "1 2", "4 -3 1"):
        with pytest.raises(NotAState):
            tm.index(W(w))
    state = tm.states[0]
    # labels past int64 are no states either
    for bad in (W("1 1 2"), (2**70, 1, 2), (1, -(2**64), 2)):
        for read in (
            tm.index,
            lambda w: tm.entry(w, state),
            lambda w: tm.entry(state, w),
            tm.row,
            lambda w: exact_stat_expectation(tm, w, 1, [0] * tm.size),
        ):
            with pytest.raises(NotAState):
                read(bad)


def test_expectation_past_int64(tm_cache):
    # 27^t·max des passes int64 at t = 14; the value must stay exact
    spec = ShuffleSpec(3, 3, "+", FLIP)
    tm = tm_cache(3, 3, "+", FLIP)
    desvec = [des(s) for s in tm.states]
    w0 = W("3 -2 1")
    for t in (13, 14, 20):
        assert exact_stat_expectation(tm, w0, t, desvec) == expected_descents(spec, w0, t)


def test_expectation_refuses_a_negative_step_count(tm_cache):
    tm = tm_cache(2, 2, "+", FLIP)
    with pytest.raises(BadCount, match="t=-1"):
        exact_stat_expectation(tm, W("2 1"), -1, [des(s) for s in tm.states])


def test_expectation_refuses_a_stat_of_the_wrong_length(tm_cache):
    tm = tm_cache(2, 2, "+", FLIP)
    with pytest.raises(SizeMismatch, match="7 stat values for 8 states"):
        exact_stat_expectation(tm, W("2 1"), 1, [des(s) for s in tm.states][:-1])


def test_expectation_refuses_stat_values_that_are_not_integers(tm_cache):
    # int() would truncate 1/2 and 0.5 to 0; integers past int64, which
    # numpy reads as floats from 2^63 on, stay exact
    tm = tm_cache(2, 2, "+", FLIP)
    for half in (Fraction(1, 2), 0.5):
        with pytest.raises(NotIntegral):
            exact_stat_expectation(tm, W("2 1"), 1, [half] * tm.size)
    with pytest.raises(NotIntegral):
        exact_stat_expectation(tm, W("2 1"), 1, [1] * (tm.size - 1) + [1.5])
    for big in (2**63, 2**70, -(2**64)):
        assert exact_stat_expectation(tm, W("2 1"), 3, [big] * tm.size) == big
    assert exact_stat_expectation(tm, W("2 1"), 0, [s == W("2 1") for s in tm.states]) == 1


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
