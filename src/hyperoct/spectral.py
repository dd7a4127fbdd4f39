"""Eigenvalues and multiplicities of hyperoctahedral descent operators.

Eigenvalues are indexed by double-partitions (λ, λ̄) of n and given by signed
counts of compatible set-compositions; multiplicities come from a product of
multiset-coefficient factors in the primitive dimension counts b_i, b̄_i.

The eigenvectors are indexed by PBW monomials, multisets of Lyndon
brackets (Reutenauer, Free Lie Algebras, 1993).  A riffle operator's
spectrum is one rule over one census.  The rule, ``riffle_eigenvalue``,
gives the eigenvalue of a monomial from its numbers k of invariant and k̄
of negating factors alone.  A census counts monomials by (k, k̄), and there
are two: ``riffle_spectrum`` sums ``multiplicity_genfun`` by (l(λ), l(λ̄))
on a graded component, and ``shuffle_multiplicities`` (Table 1) reads the
signed permutations' census, the hyperoctahedral Stirling numbers of
``hyperoct_stirling``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BadCount, SizeMismatch
from .descent import DecoratedComposition, DescentOperator
from .words import Coefficient, exact_coeff


# ---------------------------------------------------------------------------
# double-partitions and set-compositions


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples."""

    def rec(n: int, maxpart: int):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def double_partitions(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs (λ, λ̄) of partitions with |λ| + |λ̄| = n, canonical order."""
    out = []
    for m in range(n + 1):
        for lam in partitions(m):
            for lbar in partitions(n - m):
                out.append((lam, lbar))
    return sorted(out)


def compatible_set_compositions(
    lam: Sequence[int], lbar: Sequence[int], Dplus: Sequence[int]
) -> list[tuple[frozenset, ...]]:
    """Set-compositions of the part-index set compatible with (λ, λ̄, D+).

    Indices are 1..l(λ) for λ parts and −1..−l(λ̄) for λ̄ parts; block i must
    have part sizes summing to D+[i].
    """
    if sum(lam) + sum(lbar) != sum(Dplus):
        raise SizeMismatch("double-partition size differs from composition total")
    items = [(j + 1, lam[j]) for j in range(len(lam))]
    items += [(-(j + 1), lbar[j]) for j in range(len(lbar))]
    l = len(Dplus)
    out = []

    def rec(idx: int, sums: list[int], blocks: list[list[int]]):
        if idx == len(items):
            if all(s == d for s, d in zip(sums, Dplus)):
                out.append(tuple(frozenset(b) for b in blocks))
            return
        label, size = items[idx]
        for i in range(l):
            if sums[i] + size <= Dplus[i]:
                sums[i] += size
                blocks[i].append(label)
                rec(idx + 1, sums, blocks)
                blocks[i].pop()
                sums[i] -= size
        return

    rec(0, [0] * l, [[] for _ in range(l)])
    return out


def beta(
    lam: Sequence[int], lbar: Sequence[int], D: DecoratedComposition
) -> int:
    """Signed count of set-compositions compatible with (λ, λ̄, D+): each one
    contributes the parity of barred indices lying in decorated blocks."""
    decorated = set(D.decorated_indices())
    total = 0
    for blocks in compatible_set_compositions(lam, lbar, D.undecorate()):
        barred_in_dec = sum(
            1 for i in decorated for label in blocks[i] if label < 0
        )
        total += -1 if barred_in_dec % 2 else 1
    return total


def operator_eigenvalues(T: DescentOperator) -> dict[tuple, Coefficient]:
    """Map (λ, λ̄) -> Σ_D coeff(D)·β for the operator's compositions, in
    ``words.exact_coeff`` form."""
    return {
        (lam, lbar): exact_coeff(sum(c * beta(lam, lbar, D) for D, c in T.terms.items()))
        for lam, lbar in double_partitions(T.degree)
    }


# ---------------------------------------------------------------------------
# multiplicities


def multichoose(b: int, m: int) -> int:
    """Multisets of size m from b symbols."""
    if m == 0:
        return 1
    if b <= 0:
        return 0
    return math.comb(b + m - 1, m)


def multiplicity_genfun(
    b: Sequence[int], b_bar: Sequence[int], n: int
) -> dict[tuple, int]:
    """Multiplicity of the eigenvalue indexed by each double-partition of n,
    i.e. the coefficient of x_{λ,λ̄} in Π(1−x_i)^{−b_i}·Π(1−x̄_i)^{−b̄_i}.

    b and b_bar list the primitive counts for degrees 1..len(b); missing
    degrees count as 0.  Raises BadCount for n < 0.
    """
    if n < 0:
        raise BadCount(f"need n >= 0, got n={n}")

    def get(seq: Sequence[int], i: int) -> int:
        return seq[i - 1] if 1 <= i <= len(seq) else 0

    out = {}
    for lam, lbar in double_partitions(n):
        m = 1
        for part in set(lam):
            m *= multichoose(get(b, part), lam.count(part))
        for part in set(lbar):
            m *= multichoose(get(b_bar, part), lbar.count(part))
        out[(lam, lbar)] = m
    return out


def riffle_eigenvalue(a: int, sign: str, k: int, kbar: int) -> int:
    """Eigenvalue of the unscaled a-handed riffle operator, of either
    flavor, on a PBW monomial with k invariant and k̄ negating factors:
    a^k for odd a and sign '+', (−1)^k̄·a^k for odd a and sign '-', and for
    even a, a^k when k̄ = 0 and 0 when k̄ > 0.  Raises BadCount for a < 1
    and ValueError for a sign other than '+' or '-'."""
    if a < 1:
        raise BadCount(f"need a >= 1, got a={a}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if a % 2 == 0:
        return 0 if kbar else a**k
    return -(a**k) if sign == "-" and kbar % 2 else a**k


def _census_spectrum(
    a: int, sign: str, census: Iterable[tuple[tuple[int, int], int]]
) -> list[tuple[int, int]]:
    """``riffle_eigenvalue`` over a census of ((k, k̄), count): one row
    (eigenvalue, summed count) per eigenvalue of nonzero count, sorted by
    descending eigenvalue.  Refuses a and the sign, as ``riffle_eigenvalue``
    does, before it reads the census."""
    riffle_eigenvalue(a, sign, 0, 0)
    merged = Counter()
    for (k, kbar), count in census:
        merged[riffle_eigenvalue(a, sign, k, kbar)] += count
    return sorted(((e, m) for e, m in merged.items() if m), key=lambda t: -t[0])


def riffle_spectrum(
    a: int, sign: str, b: Sequence[int], b_bar: Sequence[int], n: int
) -> list[tuple[int, int]]:
    """Spectrum of the (unscaled) riffle operator on a degree-n component with
    primitive counts b, b̄: list of (eigenvalue, multiplicity), sorted by
    descending eigenvalue.  The census counts the PBW monomials by their
    l(λ) invariant and l(λ̄) negating factors, from ``multiplicity_genfun``.
    Raises BadCount for a < 1 or n < 0, and ValueError for a sign other
    than '+' or '-'.
    """
    mg = multiplicity_genfun(b, b_bar, n)
    census = (((len(lam), len(lbar)), m) for (lam, lbar), m in mg.items())
    return _census_spectrum(a, sign, census)


# ---------------------------------------------------------------------------
# Stirling numbers and the signed-permutation chain multiplicities


def rising_product(roots: Sequence[int]) -> list[int]:
    """Coefficients of Π (x + r) for r in roots, ascending powers."""
    out = [1]
    for r in roots:
        out = [r * c + d for c, d in zip(out + [0], [0] + out)]
    return out


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: [x^k] x(x+1)...(x+n−1)."""
    return rising_product(range(n))[k] if 0 <= k <= n else 0


def _signed_census(n: int) -> dict[tuple[int, int], int]:
    """(k, k̄) -> the signed permutations of n with k invariant and k̄
    negating Lyndon factors: 2^{n−j} c(n, j) C(j, k) for j = k + k̄, from
    one rising product."""
    c = rising_product(range(n))
    return {
        (k, j - k): 2 ** (n - j) * c[j] * math.comb(j, k)
        for j in range(n + 1)
        for k in range(j + 1)
    }


def hyperoct_stirling(n: int, k: int, kbar: int) -> int:
    """Signed permutations of n with k odd-parity Lyndon factors and kbar
    even-parity ones: 2^{n−k−k̄} c(n, k+k̄) C(k+k̄, k)."""
    return _signed_census(n).get((k, kbar), 0)


def shuffle_multiplicities(a: int, sign: str, n: int) -> list[tuple[Fraction, int]]:
    """Eigenvalues (scaled by a^{-n}) and algebraic multiplicities of the
    2^n n!-state riffle shuffle transition matrix, sorted descending, for
    the rotation and the flip chains alike: ``riffle_eigenvalue`` over the
    census of the signed permutations by their k invariant and k̄ negating
    Lyndon factors, 2^{n−k−k̄} c(n, k+k̄) C(k+k̄, k).  Equal eigenvalues
    share one row (at a = 1 every one is ±1).  The paper's Table 1 prints
    the same multiplicities as polynomials; ``tests/test_spectral.py``
    keeps them as the reference that
    ``test_shuffle_multiplicities_are_the_rule_over_the_stirling_census``
    checks this against.  Raises BadCount for a < 1 or n < 0, and
    ValueError for a sign other than '+' or '-'.
    """
    if n < 0:
        raise BadCount(f"need n >= 0, got n={n}")
    spectrum = _census_spectrum(a, sign, _signed_census(n).items())
    return [(Fraction(e, a**n), m) for e, m in spectrum]
