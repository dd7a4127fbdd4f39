import itertools
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import CertificationError, HyperoctError, NotIntegral, ShuffleSpec, exactla
from hyperoct.spectral import shuffle_multiplicities


def rref_mod_per_pivot(A, p):
    """Oracle: per-pivot Gauss-Jordan mod p in int64 (residue products < 2^62)."""
    R = np.asarray(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            R[mask] = (R[mask] - np.outer(col[mask], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def charpoly_int(rows):
    """Oracle: det(xI - A), coefficients ascending in x, by the division-free
    Berkowitz algorithm (O(n^4))."""
    rows = [[int(x) for x in row] for row in rows]
    n = len(rows)
    C = [1]
    for m in range(1, n + 1):
        diag = rows[m - 1][m - 1]
        R = rows[m - 1][: m - 1]
        S = [rows[i][m - 1] for i in range(m - 1)]
        sub = [row[: m - 1] for row in rows[: m - 1]]
        t = [diag]
        vec = S
        for _ in range(m - 1):
            t.append(sum(r * v for r, v in zip(R, vec)))
            vec = [sum(si * vi for si, vi in zip(srow, vec)) for srow in sub]
        newC = [0] * (m + 1)
        for i in range(m + 1):
            s = C[i] if i < len(C) else 0
            for k, tk in enumerate(t):
                idx = i - 1 - k
                if 0 <= idx < len(C):
                    s -= tk * C[idx]
            newC[i] = s
        C = newC
    return list(reversed(C))


def berkowitz_matches(A, predicted):
    """Oracle: divide the Berkowitz charpoly by each predicted (x - lambda)."""
    poly = charpoly_int(A)
    if len(poly) - 1 != sum(predicted.values()):
        return False
    for lam, mult in predicted.items():
        for _ in range(mult):
            n = len(poly) - 1
            out = [0] * n
            carry = poly[n]
            for i in range(n - 1, -1, -1):
                out[i] = carry
                carry = poly[i] + carry * lam
            if carry != 0:
                return False
            poly = out
    return poly == [1]


def test_rref_mod_rank():
    p = exactla.PRIMES[0]
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    R, pivots = exactla.rref_mod(A, p)
    assert len(pivots) == 2


def test_rank_and_independence():
    assert exactla.independent_certificate([[1, 0, 1], [0, 1, 1]])
    assert not exactla.independent_certificate([[1, 2, 3], [2, 4, 6]])
    assert exactla.independent_certificate([])


def test_nullity_upper_bound():
    assert exactla.nullity_upper_bound([[1, 2], [2, 4]]) >= 1
    assert exactla.nullity_upper_bound([[1, 0], [0, 1]]) == 0
    # with no rows every vector is in the kernel
    assert exactla.nullity_upper_bound(np.zeros((0, 5))) == 5
    assert exactla.nullity_upper_bound(np.zeros((0, 5), dtype=np.int64)) == 5
    assert exactla.nullity_upper_bound([[0, 0, 0]]) == 3
    assert exactla.nullity_upper_bound([[1, 2, 3], [2, 4, 6]]) == 2


def test_rank_lower_bound_stops_at_the_wanted_rank():
    p, q, r = exactla.PRIMES[:3]
    calls = []
    real = exactla.rref_mod

    def counted(A, prime):
        calls.append(prime)
        return real(A, prime)

    with mock.patch.object(exactla, "rref_mod", counted):
        # full rank mod the first prime settles it
        assert exactla.rank_lower_bound(np.eye(3, dtype=np.int64), 3) == 3 and calls == [p]
        calls.clear()
        # nothing to prove: no elimination
        assert exactla.rank_lower_bound([[5]], 0) == 0 and calls == []
        # [[p]] has rank 0 mod p only: the second prime reaches rank 1
        assert exactla.rank_lower_bound([[p]], 1) == 1 and calls == [p, q]
        calls.clear()
        # a rank-deficient matrix never reaches want, so all three primes run
        assert exactla.rank_lower_bound([[1, 2], [2, 4]], 2) == 1 and calls == [p, q, r]
        calls.clear()
        # unlucky for every prime: the bound is 0, still a lower bound
        assert exactla.rank_lower_bound(np.array([[p * q * r]], dtype=object), 1) == 0 and calls == [p, q, r]
    assert exactla.independent_certificate(np.array([[p], [q]], dtype=object)) is False
    assert exactla.independent_certificate(np.array([[p * q]], dtype=object)) is True


@pytest.mark.parametrize("scale, dtype", [(1, np.int64), (2**30, np.int64), (2**40, object)])
def test_exact_product_matches_python_integers_on_every_path(scale, dtype):
    # the bound is about 2^25·scale: float64 at scale 1, int64 at 2^30
    # (past 2^53) and Python integers at 2^40 (past 2^63)
    rng = np.random.default_rng(2)
    X = rng.integers(-(2**10), 2**10, (20, 30)).astype(object) * scale
    Y = rng.integers(-(2**10), 2**10, (30, 7)).astype(object)
    if dtype is not object:
        X, Y = X.astype(np.int64), Y.astype(np.int64)
    got = exactla.exact_product(X, Y)
    assert got.dtype == dtype and (got.astype(object) == X.astype(object) @ Y.astype(object)).all()


def test_exact_product_takes_the_smaller_bound():
    # max|X| times the largest column abs-sum of Y is 2^40·16·2^20 = 2^64, but
    # X has one entry per row, so the largest row abs-sum of X times max|Y|
    # is 2^60: int64, not Python integers
    X = 2**40 * np.eye(16, dtype=np.int64)
    Y = np.full((16, 16), 2**20, dtype=np.int64)
    got = exactla.exact_product(X, Y)
    assert got.dtype == np.int64 and (got == 2**60).all()
    got = exactla.exact_product(Y, X)
    assert got.dtype == np.int64 and (got == 2**60).all()
    # a zero factor gives an int64 zero, whatever the other holds
    huge = np.array([[2**200, -(2**300)]], dtype=object)
    assert exactla.exact_product(huge, np.zeros((2, 3), dtype=np.int64)).tolist() == [[0, 0, 0]]
    assert exactla.exact_product(np.zeros((3, 1), dtype=np.int64), huge).dtype == np.int64


@pytest.mark.parametrize(
    "bad",
    [
        [[0.5, 1], [1, 2]],  # dependent rows, once read as real numbers
        np.array([[1.0, 2.0], [2.0, 4.25]]),
        [[2**70, 1], [1, 0.5]],  # object entries
        [[1, float("nan")], [0, 1]],
        np.array([[1.0, np.inf], [0.0, 1.0]]),
    ],
)
def test_fractional_floats_are_refused(bad):
    for check in (
        exactla.independent_certificate,
        exactla.nullity_upper_bound,
        lambda A: exactla.exact_product(A, np.eye(2, dtype=np.int64)),
        lambda A: exactla.exact_product(np.eye(2, dtype=np.int64), np.asarray(A)),
    ):
        with pytest.raises(NotIntegral):
            check(bad)


def test_integral_floats_are_read_as_integers():
    assert exactla.independent_certificate([[1.0, 0.0], [0.0, 1.0]])
    assert not exactla.independent_certificate(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert exactla.nullity_upper_bound([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert exactla.nullity_upper_bound(np.array([[1e20, 0.0], [0.0, 1.0]])) == 0  # past int64: Python integers
    got = exactla.exact_product(np.array([[1.0, 2.0]]), np.array([[3.0], [-4.0]]))
    assert got.dtype == np.int64 and got.tolist() == [[-5]]
    got = exactla.exact_product(np.array([[2.0**70]]), np.array([[3]]))
    assert got.dtype == object and got.tolist() == [[3 * 2**70]]
    # integers that numpy would round through float64 or wrap through uint64 stay exact
    assert exactla._int_matrix([[2**63 + 1, 1]]).tolist() == [[2**63 + 1, 1]]
    assert exactla._int_matrix(np.array([[2**64 - 1]], dtype=np.uint64)).tolist() == [[2**64 - 1]]
    assert exactla.nullity_upper_bound(np.array([[2**64 - 1, 1], [1, 1]], dtype=np.uint64)) == 0


def brute_charpoly(rows):
    """Oracle: det(xI - A) by expansion over permutations (tiny n)."""
    n = len(rows)
    # polynomial coefficients via evaluation at n+1 points and Lagrange? Use
    # direct expansion: det of a matrix of linear polynomials (ascending).
    def poly_mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j = i
                length = 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = [1]
        for i in range(n):
            entry = [-rows[i][perm[i]], 1] if perm[i] == i else [-rows[i][perm[i]]]
            term = poly_mul(term, entry)
        term += [0] * (n + 1 - len(term))
        total = [t + sign * c for t, c in zip(total, term)]
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_charpoly_berkowitz_vs_brute(n, data):
    rows = [
        [data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)
    ]
    assert charpoly_int(rows) == brute_charpoly(rows)


def test_charpoly_matches():
    A = [[2, 0, 0], [1, 2, 0], [0, 0, 5]]
    assert exactla.charpoly_matches(A, {2: 2, 5: 1})
    assert not exactla.charpoly_matches(A, {2: 1, 5: 2})
    assert not exactla.charpoly_matches(A, {2: 3})


def test_annihilates():
    # diag(2, 2, 0) with a nilpotent coupling into the kernel
    A = [[2, 0, 0], [0, 2, 0], [0, 1, 0]]
    assert exactla.annihilates(A, [2], 1)
    assert not exactla.annihilates(A, [2], 0)
    N = [[0, 1], [0, 0]]
    assert not exactla.annihilates(N, [], 1)
    assert exactla.annihilates(N, [], 2)


# --- blocked rref_mod against the per-pivot oracle ---------------------------

SMALL_PRIMES = (2, 3, 7)


def assert_rref_matches(A, p):
    R, pivots = exactla.rref_mod(A, p)
    want_R, want_pivots = rref_mod_per_pivot(A, p)
    assert R.dtype == np.int64 and R.shape == want_R.shape
    assert pivots == want_pivots
    assert np.array_equal(R, want_R)


def low_rank(rng, rows, cols, rank, lo=-3, hi=4):
    return rng.integers(lo, hi, (rows, rank)) @ rng.integers(lo, hi, (rank, cols))


SIZES = st.one_of(st.integers(0, 9), st.sampled_from([63, 64, 65, 129]))


@settings(max_examples=40, deadline=None)
@given(
    SIZES,
    SIZES,
    st.integers(0, 70),
    st.sampled_from(SMALL_PRIMES + exactla.PRIMES),
    st.integers(0, 2**32 - 1),
)
def test_rref_mod_matches_per_pivot(rows, cols, rank, p, seed):
    rng = np.random.default_rng(seed)
    assert_rref_matches(low_rank(rng, rows, cols, rank), p)
    assert_rref_matches(rng.integers(-(2**40), 2**40, (rows, cols)), p)


@pytest.mark.parametrize("p", SMALL_PRIMES + exactla.PRIMES[::6])
@pytest.mark.parametrize(
    "shape",
    [(0, 5), (0, 0), (1, 1), (3, 200), (200, 3), (63, 63), (64, 64), (65, 65), (129, 129), (65, 130), (130, 65)],
)
def test_rref_mod_panel_edges(shape, p):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + p % 1000)
    rows, cols = shape
    assert_rref_matches(rng.integers(0, p, shape), p)
    assert_rref_matches(np.zeros(shape, dtype=np.int64), p)
    if rows and cols:
        # rank-deficient, with a zero column and a repeated row
        A = low_rank(rng, rows, cols, min(rows, cols) // 2 + 1)
        A[:, cols // 2] = 0
        A[-1] = A[0]
        assert_rref_matches(A, p)


def test_rref_mod_leaves_its_input_alone():
    A = np.array([[4, 2], [2, 1]], dtype=np.int64)
    exactla.rref_mod(A, 7)
    assert A.tolist() == [[4, 2], [2, 1]]


# --- trace-power charpoly_matches against Berkowitz ---------------------------


def integer_spectrum_matrix(rng, eigenvalues):
    """U·T·U^-1 with T upper triangular over the eigenvalues and U unimodular."""
    n = len(eigenvalues)
    T = np.triu(rng.integers(-3, 4, (n, n)), 1) + np.diag(eigenvalues)
    A = [[int(x) for x in row] for row in T]
    for _ in range(2 * n):
        i, j = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
        if i == j:
            continue
        c = int(rng.integers(-2, 3))
        # conjugate by the elementary matrix E = I + c·e_ij: rows then columns
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        for row in A:
            row[j] -= c * row[i]
    return A


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=7), st.integers(0, 2**32 - 1), st.integers(-2, 2))
def test_charpoly_matches_berkowitz(eigenvalues, seed, delta):
    rng = np.random.default_rng(seed)
    A = integer_spectrum_matrix(rng, eigenvalues)
    truth = dict(Counter(eigenvalues))
    assert exactla.charpoly_matches(A, truth) is True
    assert berkowitz_matches(A, truth)
    perturbed = Counter(eigenvalues)
    lam = eigenvalues[0]
    perturbed[lam] -= 1
    perturbed[lam + delta] += 1
    perturbed = {k: v for k, v in perturbed.items() if v}
    assert exactla.charpoly_matches(A, perturbed) == berkowitz_matches(A, perturbed) == (delta == 0)
    # a generic integer matrix rarely has an integer spectrum: both agree
    G = rng.integers(-4, 5, (len(eigenvalues), len(eigenvalues))).tolist()
    assert exactla.charpoly_matches(G, truth) == berkowitz_matches(G, truth)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_charpoly_matches_every_small_chain(tm_cache, a):
    for n in (1, 2, 3):
        for sign in "+-":
            for flavor in ("rotation", "flip"):
                tm = tm_cache(n, a, sign, flavor)
                spec = ShuffleSpec(n, a, sign, flavor)
                table = {
                    int(v * tm.scale): m
                    for v, m in shuffle_multiplicities(a, sign, n)
                }
                assert exactla.charpoly_matches(tm.counts, table), (n, a, sign, flavor)
                top = max(table)
                wrong = dict(table)
                wrong[top] -= 1
                wrong[top + 1] = wrong.get(top + 1, 0) + 1
                assert not exactla.charpoly_matches(tm.counts, wrong)
                if n <= 2:
                    assert berkowitz_matches(tm.counts, table)


def test_trace_moduli_cover_the_bound(tm_cache):
    A = [[27, 0], [0, -27]]
    moduli = exactla.trace_moduli(A, {27: 1, -27: 1})
    assert moduli == exactla.TRACE_PRIMES[:1] and 2 * 27**2 + 2 * 27**2 < moduli[0]
    tm = tm_cache(3, 3, "-", "flip")
    table = {int(v * tm.scale): m for v, m in shuffle_multiplicities(3, "-", 3)}
    # rows of K sum to a^n = 27, so |tr(K^k)| <= 48·27^k
    bound = 48 * 27**48 + sum(m * abs(lam) ** 48 for lam, m in table.items())
    moduli = exactla.trace_moduli(tm.counts, table)
    assert math.prod(moduli) > bound >= math.prod(moduli[:-1])
    assert len(moduli) == 12
    assert exactla.charpoly_matches([[0]], {0: 1}) and exactla.charpoly_matches([], {})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 7) + exactla.PRIMES + exactla.TRACE_PRIMES), st.integers(-(2**52), 2**52), st.integers(-3, 3))
def test_reduce_matches_integer_mod(p, x, shift):
    # near multiples of p, where x·(1/p) rounds across an integer
    near = (x // p) * p + shift
    xs = [x, near, 2**52, -(2**52), p * (2**52 // p), -p * (2**52 // p), p - 1, 0]
    xs = [v for v in xs if abs(v) <= 2**52]
    got = exactla._reduce(np.array(xs, dtype=np.float64), p)
    assert got.tolist() == [float(v % p) for v in xs]


def test_too_large_trace_bound_refuses():
    big = 2**2000
    with pytest.raises(CertificationError) as info:
        exactla.charpoly_matches([[big]], {big: 1})
    assert isinstance(info.value, HyperoctError)
    assert exactla.CertificationError is CertificationError


def is_prime(q):
    return q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))


def test_prime_tables():
    for table, bits in ((exactla.PRIMES, 26), (exactla.TRACE_PRIMES, 20)):
        assert all(is_prime(q) and q < 2**bits for q in table)
        assert all(math.gcd(q, r) == 1 for q, r in itertools.combinations(table, 2))
    assert math.prod(exactla.TRACE_PRIMES).bit_length() >= 1279


# --- annihilates: float64, int64 and Python-integer paths ---------------------


def brute_annihilates(A, eigs, power):
    n = len(A)
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for lam in list(eigs) + [0] * power:
        V = [[sum(A[i][k] * V[k][j] for k in range(n)) - lam * V[i][j] for j in range(n)] for i in range(n)]
    return not any(any(row) for row in V)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.sampled_from([1, 2**14, 2**20, 2**40]),
)
def test_annihilates_paths_agree(eigenvalues, seed, power, scale):
    rng = np.random.default_rng(seed)
    A = [[scale * x for x in row] for row in integer_spectrum_matrix(rng, eigenvalues)]
    eigs = sorted({scale * lam for lam in eigenvalues if lam})
    want = brute_annihilates(A, eigs, power)
    assert exactla.annihilates(A, eigs, power) == want
    with mock.patch.object(exactla, "_F64_EXACT", 0):
        assert exactla.annihilates(A, eigs, power) == want
        with mock.patch.object(exactla, "_I64_EXACT", 0):
            assert exactla.annihilates(A, eigs, power) == want


def test_annihilates_past_float64_products():
    # distinct eigenvalues near 2^22: the last two factors' products pass
    # 2^53, where the float64 path would round, so int64 has to take over
    rng = np.random.default_rng(0)
    eigs = [2**22 + 1, -(2**22) - 3, 2**22 + 7, 2**22 - 5]
    A = integer_spectrum_matrix(rng, eigs)
    assert exactla.annihilates(A, eigs, 0)
    assert not exactla.annihilates(A, eigs[:-1], 0)
    assert exactla.charpoly_matches(A, {lam: 1 for lam in eigs})


def test_annihilation_power():
    A = [[2, 0, 0], [0, 0, 1], [0, 0, 0]]
    s, P = exactla.annihilation_power(A, [2], 4)
    assert s == 2 and P.tolist() == [[0, 0, 0], [0, -2, 1], [0, 0, -2]]  # A − 2I
    assert exactla.annihilation_power(A, [2], 1)[0] is None
    assert exactla.annihilates(A, [2], 2) and not exactla.annihilates(A, [2], 1)


@pytest.mark.parametrize("scale", [1, 2**20, 2**40])
def test_annihilation_power_builds_the_exact_product(scale):
    # scale 2^20 passes 2^53 (int64 products), 2^40 passes 2^62 (Python ints)
    eigs = [3, -2, 5, 0, 0]
    A = [[scale * x for x in row] for row in integer_spectrum_matrix(np.random.default_rng(3), eigs)]
    lams = [scale * lam for lam in (3, -2, 5)]
    want = [[int(i == j) for j in range(5)] for i in range(5)]
    for lam in lams:
        want = [[sum(A[i][k] * want[k][j] for k in range(5)) - lam * want[i][j] for j in range(5)] for i in range(5)]
    s, P = exactla.annihilation_power(A, lams, 3)
    assert P.tolist() == want
    assert s in (1, 2) and brute_annihilates(A, lams, s) and not brute_annihilates(A, lams, s - 1)


# ---------------------------------------------------------------------------
# full row rank by one exact residual, against rank_lower_bound


def certificate_route(M):
    """(independent_certificate(M), whether it fell back to rank_lower_bound)."""
    calls = []
    real = exactla.rank_lower_bound

    def counted(A, want):
        calls.append(want)
        return real(A, want)

    with mock.patch.object(exactla, "rank_lower_bound", counted):
        return exactla.independent_certificate(M), bool(calls)


def full_rank_mod_p(M):
    M = exactla._int_matrix(M)
    return len(M) <= M.shape[1] and exactla.rank_lower_bound(M, len(M)) == len(M)


@pytest.mark.parametrize("rows, cols", [(1, 4), (6, 6), (24, 24), (5, 9), (20, 300)])
@pytest.mark.parametrize("seed", range(3))
def test_residual_proves_random_full_rank_matrices(rows, cols, seed):
    M = np.random.default_rng(seed).integers(-3, 4, (rows, cols))
    assert full_rank_mod_p(M)
    assert exactla._residual_full_rank(M) is True
    assert certificate_route(M) == (True, False)


def test_residual_proves_nothing_on_dependent_rows():
    rng = np.random.default_rng(5)
    dependent = rng.integers(-3, 4, (6, 10))
    dependent[4] = 2 * dependent[1] - dependent[3]
    zero_row = rng.integers(-3, 4, (4, 7))
    zero_row[2] = 0
    for M in (
        dependent,
        low_rank(rng, 8, 8, 7),  # a singular square matrix
        zero_row,
        np.zeros((1, 3), dtype=np.int64),
        np.zeros((3, 3), dtype=np.int64),
    ):
        assert not full_rank_mod_p(M)
        assert exactla._residual_full_rank(M) is False
        assert certificate_route(M) == (False, True)


def test_mod_p_decides_where_the_residual_fails():
    # det = 1, but G⁻¹ has entries near 2^30 and s is 2^34, so s·G⁻¹ passes int64
    N = 2**30
    M = np.array([[1, N], [1, N + 1]])
    assert exactla._residual_full_rank(M) is False
    assert certificate_route(M) == (True, True)


def test_residual_past_float64_and_int64():
    rng = np.random.default_rng(0)
    # entries near 2^57: G in float64 is rounded, Z stays exact
    M = rng.integers(-3, 4, (6, 6)) * 2**55 + rng.integers(-9, 9, (6, 6))
    assert full_rank_mod_p(M) and certificate_route(M) == (True, False)
    # singular with entries near 2^54 (rows p·(q, r) and s·(q, r)), whose
    # float64 rounding need not be singular
    p, q, r, s = 2**27 + 1, 2**27 + 3, 2**27 + 5, 2**27 + 9
    M = np.array([[p * q, p * r], [s * q, s * r]])
    assert exactla._residual_full_rank(M) is False
    assert certificate_route(M) == (False, True)
    # Python-integer entries, or a Gram matrix past int64: mod p decides
    for M, want in (
        (np.array([[2**70, 1], [3, 2**70]], dtype=object), True),
        (np.array([[2**70, 2**71], [1, 2]], dtype=object), False),
        (rng.integers(-3, 4, (3, 5)) * 2**40, True),
    ):
        assert exactla._residual_full_rank(exactla._int_matrix(M)) is False
        assert certificate_route(M) == (want, True)


def test_residual_shapes():
    assert exactla._residual_full_rank(np.zeros((0, 0), dtype=np.int64)) is True
    assert exactla._residual_full_rank(np.zeros((0, 5), dtype=np.int64)) is True
    assert exactla.independent_certificate(np.zeros((0, 5))) is True
    # more rows than columns: dependent, with no proof tried
    assert certificate_route(np.eye(3, dtype=np.int64)[:, :2]) == (False, False)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 3),
    st.integers(0, 7),
    st.sampled_from([1, 2**20, 2**40, 2**62, 2**80]),
    st.integers(0, 2**32 - 1),
)
def test_residual_never_proves_a_short_rank(rows, extra, rank, scale, seed):
    """Whatever the entries, a True of the residual is a full mod-p rank."""
    rng = np.random.default_rng(seed)
    M = low_rank(rng, rows, rows + extra, rank).astype(object) * scale
    M = M + rng.integers(-1, 2, M.shape) * (seed % 3 == 0)
    M = exactla._int_matrix(M)
    if exactla._residual_full_rank(M):
        assert full_rank_mod_p(M)


# --- the one float64 inverse and the one eigen-equation verdict --------------


def test_rounded_inverse_is_exact_on_a_unimodular_matrix():
    G = np.array([[2, 1, 0], [1, 1, 0], [0, 3, 1]], dtype=np.int64)  # det 1
    for s in (1, 8, 2.0**40):
        X = exactla.rounded_inverse(G, s)
        assert X.dtype == np.int64
        assert (exactla.exact_product(G, X) == int(s) * np.eye(3, dtype=np.int64)).all()
    assert exactla.rounded_inverse(np.zeros((0, 0), dtype=np.int64), 1.0).shape == (0, 0)


def test_rounded_inverse_refuses_what_it_cannot_round():
    # singular to float64
    assert exactla.rounded_inverse(np.array([[1, 2], [2, 4]]), 1.0) is None
    # det = 1, but G⁻¹ has entries near 2^30, so 2^34·G⁻¹ passes int64
    N = 2**30
    assert exactla.rounded_inverse(np.array([[1, N], [1, N + 1]]), 2.0**34) is None
    assert exactla.rounded_inverse(np.array([[1, N], [1, N + 1]]), 2.0**30) is not None
    # an inverse that is not finite
    for bad in (np.inf, -np.inf, np.nan):
        with mock.patch.object(np.linalg, "inv", lambda G, bad=bad: np.full(G.shape, bad)):
            assert exactla.rounded_inverse(np.eye(2, dtype=np.int64), 1.0) is None


def test_eigen_equations_hold_bounds_its_product():
    M = np.array([[2, 1], [0, 3]], dtype=np.int64)
    V = np.array([[1, -1], [0, 1]], dtype=np.int64)  # left eigenvectors for 2 and 3
    assert exactla.eigen_equations_hold(V, np.array([2, 3]), M)
    assert not exactla.eigen_equations_hold(V, np.array([2, 2]), M)
    # max|V| times the largest column abs-sum (4) is below 2^63 at 2^60
    # (int64) and reaches it at 2^61, where the product runs in Python
    # integers and the verdict stays exact either way
    for scale in (2**60, 2**61):
        assert exactla.eigen_equations_hold(V * scale, np.array([2, 3]), M)
        assert not exactla.eigen_equations_hold(V * scale, np.array([2, 2]), M)
    assert exactla.eigen_equations_hold(V.astype(object) * 2**70, np.array([2, 3]), M)
    assert not exactla.eigen_equations_hold(V.astype(object) * 2**70, np.array([3, 3]), M)
    # a wrong eigenvalue whose diag(mu)·V passes int64: 4·2^62 wraps to 0 = 4·0
    assert not exactla.eigen_equations_hold(np.array([[4]]), np.array([2**62]), np.array([[0]]))
