import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import CertificationError, HyperoctError, ShuffleSpec, exactla
from hyperoct.spectral import shuffle_multiplicities


def fraction_gauss_rank(rows):
    """Oracle: plain Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        rank += 1
    return rank


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


@given(st.integers(0, 10_000), st.integers(2, 50))
def test_rational_reconstruct_roundtrip(num, den):
    m = 67108859 * 67108837
    f = Fraction(num, den)
    residue = (f.numerator * pow(f.denominator, -1, m)) % m
    assert exactla.rational_reconstruct(residue, m) == f


def test_rref_mod_rank():
    p = exactla.PRIMES[0]
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    R, pivots = exactla.rref_mod(A, p)
    assert len(pivots) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=2, max_size=6))
def test_kernel_certified_matches_oracle(rows):
    dim, basis = exactla.kernel_certified(rows)
    assert dim == 4 - fraction_gauss_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(Fraction(r) * v for r, v in zip(row, vec)) == 0


def test_kernel_certified_structured():
    # kernel spanned by (1, 1, 1)
    rows = [[1, -2, 1], [2, -1, -1]]
    dim, basis = exactla.kernel_certified(rows)
    assert dim == 1
    v = basis[0]
    assert v[0] == v[1] == v[2] != 0


def test_rank_and_independence():
    assert exactla.independent_certificate([[1, 0, 1], [0, 1, 1]])
    assert not exactla.independent_certificate([[1, 2, 3], [2, 4, 6]])
    assert exactla.independent_certificate([])


def test_nullity_upper_bound():
    assert exactla.nullity_upper_bound([[1, 2], [2, 4]]) >= 1
    assert exactla.nullity_upper_bound([[1, 0], [0, 1]]) == 0


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
                    for v, m in shuffle_multiplicities(a, sign, spec.decoration, n)
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
    table = {int(v * tm.scale): m for v, m in shuffle_multiplicities(3, "-", ShuffleSpec(3, 3, "-", "flip").decoration, 3)}
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
        with mock.patch.object(exactla, "_I64_SAFE", 0):
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


def test_annihilation_power_probe():
    A = [[2, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert exactla.annihilation_power_probe(A, [2], 4) == 2
    assert exactla.annihilation_power_probe(A, [2], 1) is None
    assert exactla.annihilates(A, [2], 2) and not exactla.annihilates(A, [2], 1)
