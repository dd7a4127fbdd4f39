import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from hyperoct import (
    DecoratedComposition,
    Decoration,
    DescentOperator,
    BadCount,
    SizeMismatch,
    beta,
    compatible_set_compositions,
    double_partitions,
    hyperoct_stirling,
    lyndon_factorize,
    classify_primitive,
    multiplicity_genfun,
    operator_eigenvalues,
    partitions,
    primitive_dimensions,
    riffle_eigenvalue,
    riffle_operator,
    riffle_spectrum,
    shuffle_multiplicities,
    signed_permutations,
    stirling_c,
)

DC = DecoratedComposition


def brute_set_compositions(lam, lbar, Dplus):
    """Oracle: assign every index to a block, filter by block sums."""
    items = [(j + 1, lam[j]) for j in range(len(lam))] + [
        (-(j + 1), lbar[j]) for j in range(len(lbar))
    ]
    out = []
    for assign in itertools.product(range(len(Dplus)), repeat=len(items)):
        sums = [0] * len(Dplus)
        for (label, size), block in zip(items, assign):
            sums[block] += size
        if sums == list(Dplus):
            blocks = [frozenset(lbl for (lbl, _), b in zip(items, assign) if b == i)
                      for i in range(len(Dplus))]
            out.append(tuple(blocks))
    return out


def test_partitions_and_double_partitions():
    assert sorted(partitions(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )
    assert len(double_partitions(3)) == 10


def test_compatible_set_compositions_paper_example():
    got = compatible_set_compositions((4, 2), (2, 1, 1), (5, 4, 1))
    assert len(got) == 4
    want = {
        (frozenset({1, -2}), frozenset({-1, 2}), frozenset({-3})),
        (frozenset({1, -3}), frozenset({-1, 2}), frozenset({-2})),
        (frozenset({-1, 2, -2}), frozenset({1}), frozenset({-3})),
        (frozenset({-1, 2, -3}), frozenset({1}), frozenset({-2})),
    }
    assert set(got) == want


def test_compatible_set_compositions_small():
    assert len(compatible_set_compositions((1, 1), (), (1, 1))) == 2
    assert len(compatible_set_compositions((2, 1), (1,), (4,))) == 1
    with pytest.raises(SizeMismatch):
        compatible_set_compositions((2,), (), (1, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_set_compositions_match_brute(n):
    for lam, lbar in double_partitions(n):
        for l in (1, 2, 3):
            for Dplus in itertools.product(range(n + 1), repeat=l):
                if sum(Dplus) != n:
                    continue
                got = sorted(compatible_set_compositions(lam, lbar, Dplus))
                assert got == sorted(brute_set_compositions(lam, lbar, Dplus))


def test_beta_paper_example():
    assert beta((4, 2), (2, 1, 1), DC.parse("5b,4,1")) == 0
    # undecorated: plain count
    assert beta((4, 2), (2, 1, 1), DC.parse("5,4,1")) == 4
    # D = (1b, n-1): 1(lam) - 1(lbar)
    for lam, lbar in double_partitions(4):
        assert beta(lam, lbar, DC.parse("1b,3")) == lam.count(1) - lbar.count(1)


def test_operator_eigenvalues_examples():
    # identity operator: all eigenvalues 1
    T = DescentOperator.elementary(DC.parse("3"))
    assert all(v == 1 for v in operator_eigenvalues(T).values())
    # flip-first-pile shuffle, unscaled: 2^{l(lam)} if lbar empty else 0
    T2 = riffle_operator(2, "-", Decoration.TBAR, 3)
    for (lam, lbar), v in operator_eigenvalues(T2).items():
        assert v == (2 ** len(lam) if not lbar else 0)


def test_multiplicity_genfun_basics():
    # single degree-1 primitive: only lam = (1,...,1) survives
    mg = multiplicity_genfun([1], [], 3)
    assert mg[((1, 1, 1), ())] == 1
    assert sum(mg.values()) == 1
    # dimensions: sum of multiplicities = dim of the degree component
    for flavor in (Decoration.BAR, Decoration.TBAR):
        b, bb = primitive_dimensions(2, 4, flavor)
        for n in range(1, 5):
            assert sum(multiplicity_genfun(b, bb, n).values()) == 4**n


def test_riffle_spectrum_against_aggregation():
    N = 2
    for flavor in (Decoration.BAR, Decoration.TBAR):
        b, bb = primitive_dimensions(N, 5, flavor)
        for n in range(1, 6):
            mg = multiplicity_genfun(b, bb, n)
            for a in (1, 2, 3, 4):
                for sign in ("+", "-"):
                    spd = dict(riffle_spectrum(a, sign, b, bb, n))
                    ev = operator_eigenvalues(riffle_operator(a, sign, flavor, n))
                    agg = Counter()
                    for dp, v in ev.items():
                        agg[int(v)] += mg[dp]
                    assert {k: v for k, v in agg.items() if v} == spd, (flavor, n, a, sign)


def test_riffle_spectrum_is_the_genfun_aggregated_by_the_rule():
    b = [2**i for i in range(1, 13)]
    bb = [3**i for i in range(1, 13)]
    for n in range(13):
        mg = multiplicity_genfun(b, bb, n)
        for a in (1, 2, 3, 4):
            for sign in ("+", "-"):
                agg = Counter()
                for (lam, lbar), m in mg.items():
                    agg[riffle_eigenvalue(a, sign, len(lam), len(lbar))] += m
                want = sorted(((e, m) for e, m in agg.items() if m), key=lambda t: -t[0])
                assert riffle_spectrum(a, sign, b, bb, n) == want, (n, a, sign)


def test_riffle_spectrum_a1():
    b, bb = primitive_dimensions(1, 3, Decoration.BAR)
    spd = riffle_spectrum(1, "+", b, bb, 3)
    assert spd == [(1, 8)]


def test_stirling_c():
    assert [stirling_c(3, k) for k in range(4)] == [0, 2, 3, 1]
    assert stirling_c(5, 5) == 1
    for n in range(7):
        assert sum(stirling_c(n, k) for k in range(n + 1)) == math.factorial(n)


def brute_minima_count(n, k):
    return sum(
        1
        for p in itertools.permutations(range(1, n + 1))
        if sum(1 for i in range(n) if all(p[j] > p[i] for j in range(i))) == k
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_stirling_c_brute(n):
    for k in range(n + 1):
        assert stirling_c(n, k) == brute_minima_count(n, k)


def test_hyperoct_stirling_values_and_symmetry():
    assert hyperoct_stirling(1, 1, 0) == 1
    assert hyperoct_stirling(1, 0, 1) == 1
    assert hyperoct_stirling(1, 0, 0) == 0
    for n in range(1, 7):
        for k in range(n + 1):
            for kb in range(n + 1 - k):
                assert hyperoct_stirling(n, k, kb) == hyperoct_stirling(n, kb, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_hyperoct_stirling_recursion(n):
    for k in range(n + 1):
        for kb in range(n + 1 - k):
            if (k, kb) == (0, 0):
                continue
            assert hyperoct_stirling(n, k, kb) == (
                hyperoct_stirling(n - 1, k - 1, kb)
                + hyperoct_stirling(n - 1, k, kb - 1)
                + 2 * (n - 1) * hyperoct_stirling(n - 1, k, kb)
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperoct_stirling_census(n):
    """Oracle: classify every signed permutation by its Lyndon factor parities."""
    census = Counter()
    for w in signed_permutations(n):
        k = kb = 0
        for u in lyndon_factorize(w):
            if classify_primitive(u, Decoration.TBAR) == "invariant":
                k += 1
            else:
                kb += 1
        census[(k, kb)] += 1
    for (k, kb), cnt in census.items():
        assert hyperoct_stirling(n, k, kb) == cnt


def test_shuffle_multiplicities_n3():
    even = dict(shuffle_multiplicities(2, "+", 3))
    assert even == {
        Fraction(1): 1,
        Fraction(1, 2): 6,
        Fraction(1, 4): 8,
        Fraction(0): 33,
    }
    odd_plus = dict(shuffle_multiplicities(3, "+", 3))
    assert odd_plus == {
        Fraction(1): 1,
        Fraction(1, 3): 9,
        Fraction(1, 9): 23,
        Fraction(1, 27): 15,
    }
    odd_minus = dict(shuffle_multiplicities(3, "-", 3))
    assert odd_minus == {
        Fraction(1): 1,
        Fraction(1, 3): 6,
        Fraction(1, 9): 11,
        Fraction(1, 27): 6,
        Fraction(-1, 3): 3,
        Fraction(-1, 9): 12,
        Fraction(-1, 27): 9,
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_shuffle_multiplicities_a1_merged(n):
    # at a = 1 every power a^(k-n) is ±1; Table 1's polynomials at x = 1
    # give the merged multiplicities
    half = 2 ** (n - 1) * math.factorial(n)
    plus = shuffle_multiplicities(1, "+", n)
    assert plus == [(Fraction(1), 2 * half)]
    minus = shuffle_multiplicities(1, "-", n)
    assert minus == [(Fraction(1), half), (Fraction(-1), half)]
    for a in (2, 3):
        for sign in "+-":
            values = [v for v, _ in shuffle_multiplicities(a, sign, n)]
            assert len(set(values)) == len(values)


@pytest.mark.parametrize("n", range(1, 9))
def test_table_totals(n):
    for a, sign in ((2, "+"), (2, "-"), (3, "+"), (3, "-")):
        total = sum(m for _, m in shuffle_multiplicities(a, sign, n))
        assert total == 2**n * math.factorial(n)


@pytest.mark.parametrize("n", range(10))
def test_shuffle_multiplicities_are_the_rule_over_the_stirling_census(n):
    # Table 1's polynomials against the one eigenvalue rule, summed over the
    # (k, k̄) census of the signed permutations
    for a in range(1, 6):
        for sign in "+-":
            agg = Counter()
            for k in range(n + 1):
                for kbar in range(n + 1 - k):
                    e = Fraction(riffle_eigenvalue(a, sign, k, kbar), a**n)
                    agg[e] += hyperoct_stirling(n, k, kbar)
            want = sorted(((e, m) for e, m in agg.items() if m), key=lambda t: -t[0])
            assert shuffle_multiplicities(a, sign, n) == want, (a, sign)


def test_spectra_refuse_bad_counts_and_signs():
    with pytest.raises(BadCount):
        shuffle_multiplicities(0, "+", 3)
    with pytest.raises(BadCount):
        shuffle_multiplicities(2, "+", -1)
    for a in (2, 3):
        with pytest.raises(ValueError, match="sign"):
            shuffle_multiplicities(a, "x", 3)
        with pytest.raises(ValueError, match="sign"):
            riffle_spectrum(a, "x", [2, 1], [2, 1], 2)
