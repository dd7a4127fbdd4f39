"""Eigenvalues and multiplicities of hyperoctahedral descent operators.

Eigenvalues are indexed by double-partitions (λ, λ̄) of n and given by signed
counts of compatible set-compositions; multiplicities come from a product of
multiset-coefficient factors in the primitive dimension counts b_i, b̄_i.

The eigenvectors are indexed by PBW monomials, multisets of Lyndon
brackets (Reutenauer, Free Lie Algebras, 1993).  The riffle operator's
eigenvalue on a monomial depends only on its numbers k of invariant and k̄
of negating factors, by the one rule ``riffle_eigenvalue``.  So
``riffle_spectrum`` counts monomials by (k, k̄) in plain integers: t[l][d],
the multisets of l primitives of total degree d, is built one degree at a
time from multiset coefficients, once for b and once for b̄.  The
signed-permutation chain multiplicities (Table 1, with the hyperoctahedral
Stirling numbers) get closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

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


def _part_multiplicities(lam: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def multiplicity_genfun(
    b: Sequence[int], b_bar: Sequence[int], n: int
) -> dict[tuple, int]:
    """Multiplicity of the eigenvalue indexed by each double-partition of n,
    i.e. the coefficient of x_{λ,λ̄} in Π(1−x_i)^{−b_i}·Π(1−x̄_i)^{−b̄_i}.

    b and b_bar list the primitive counts for degrees 1..len(b); missing
    degrees count as 0.
    """

    def get(seq: Sequence[int], i: int) -> int:
        return seq[i - 1] if 1 <= i <= len(seq) else 0

    out = {}
    for lam, lbar in double_partitions(n):
        m = 1
        for part, cnt in _part_multiplicities(lam).items():
            m *= multichoose(get(b, part), cnt)
        for part, cnt in _part_multiplicities(lbar).items():
            m *= multichoose(get(b_bar, part), cnt)
        out[(lam, lbar)] = m
    return out


def riffle_eigenvalue(a: int, sign: str, k: int, kbar: int) -> int:
    """Eigenvalue of the unscaled a-handed riffle operator, of either
    flavor, on a PBW monomial with k invariant and k̄ negating factors:
    a^k for odd a and sign '+', (−1)^k̄·a^k for odd a and sign '-', and for
    even a, a^k when k̄ = 0 and 0 when k̄ > 0.  Raises ValueError for a sign
    other than '+' or '-'."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if a % 2 == 0:
        return 0 if kbar else a**k
    return -(a**k) if sign == "-" and kbar % 2 else a**k


def _multiset_counts(b: Sequence[int], n: int) -> list[list[int]]:
    """t[l][d]: the multisets of l primitives with total degree d <= n,
    from b[i−1] primitives of each degree i, one degree at a time."""
    t = [[0] * (n + 1) for _ in range(n + 1)]
    t[0][0] = 1
    for i in range(1, min(n, len(b)) + 1):
        new = [row[:] for row in t]
        for j in range(1, n // i + 1):
            c = multichoose(b[i - 1], j)
            for l in range(n + 1 - j):
                for d in range(n + 1 - i * j):
                    if t[l][d]:
                        new[l + j][d + i * j] += c * t[l][d]
        t = new
    return t


def riffle_spectrum(
    a: int, sign: str, b: Sequence[int], b_bar: Sequence[int], n: int
) -> list[tuple[int, int]]:
    """Spectrum of the (unscaled) riffle operator on a degree-n component with
    primitive counts b, b̄: list of (eigenvalue, multiplicity), sorted by
    descending eigenvalue.  The monomials with l invariant factors of total
    degree d and l̄ negating ones of degree n − d number
    t_b[l][d]·t_b̄[l̄][n − d], and each has ``riffle_eigenvalue(a, sign, l, l̄)``.
    """
    t, t_bar = _multiset_counts(b, n), _multiset_counts(b_bar, n)
    pairs = (
        (riffle_eigenvalue(a, sign, l, lbar), c * row[n - d])
        for l, counts in enumerate(t)
        for d, c in enumerate(counts)
        if c
        for lbar, row in enumerate(t_bar)
        if row[n - d]
    )
    return _merge_spectrum(pairs)


def _merge_spectrum(pairs):
    """Sum the multiplicities of equal eigenvalues; one row per eigenvalue,
    sorted by descending eigenvalue."""
    merged = {}
    for value, m in pairs:
        merged[value] = merged.get(value, 0) + m
    return sorted(merged.items(), key=lambda t: -t[0])


# ---------------------------------------------------------------------------
# Stirling numbers and the signed-permutation chain multiplicities


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def rising_product(roots: Sequence[int]) -> list[int]:
    """Coefficients of Π (x + r) for r in roots, ascending powers."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [r, 1])
    return out


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: [x^k] x(x+1)...(x+n−1)."""
    if not 0 <= k <= n:
        return 0
    if n == 0:
        return 1
    poly = poly_mul([0, 1], rising_product(range(1, n)))
    return poly[k]


def hyperoct_stirling(n: int, k: int, kbar: int) -> int:
    """Signed permutations of n with k odd-parity Lyndon factors and kbar
    even-parity ones: 2^{n−k−k̄} c(n, k+k̄) C(k+k̄, k)."""
    if k < 0 or kbar < 0 or k + kbar > n:
        return 0
    j = k + kbar
    return 2 ** (n - j) * stirling_c(n, j) * math.comb(j, k)


def shuffle_multiplicities(a: int, sign: str, n: int) -> list[tuple[Fraction, int]]:
    """Eigenvalues (scaled by a^{-n}) and algebraic multiplicities of the
    2^n n!-state riffle shuffle transition matrix, sorted descending, for
    the rotation and the flip chains alike.  Each eigenvalue appears on
    exactly one row: at a = 1 every power a^{k-n} collapses to ±1, and the
    rows of equal eigenvalues are merged.

    even a: a^{k-n} with [x^k] x(x+2)...(x+2n−2), plus 0 with the complement
    to 2^n n!.  odd a, sign '+': [x^k](x+1)(x+3)...(x+2n−1).  odd a, sign '-':
    a^{k-n} with [x^k](x+n−1)(x+1)...(x+2n−3) and −a^{k-n} with
    [x^k] n(x+1)...(x+2n−3).  The empty deck, n = 0, has the one eigenvalue
    1.  Raises BadCount for a < 1 or n < 0, and ValueError for a sign other
    than '+' or '-'.
    """
    if a < 1 or n < 0:
        raise BadCount(f"need a >= 1 and n >= 0, got a={a}, n={n}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if n == 0:
        return [(Fraction(1), 1)]
    out: list[tuple[Fraction, int]] = []
    if a % 2 == 0:
        poly = poly_mul([0, 1], rising_product(range(2, 2 * n, 2)))
        total = 0
        for k in range(1, n + 1):
            m = poly[k] if k < len(poly) else 0
            if m:
                out.append((Fraction(a**k, a**n), m))
                total += m
        zero_mult = 2**n * math.factorial(n) - total
        if zero_mult:
            out.append((Fraction(0), zero_mult))
    elif sign == "+":
        poly = rising_product(range(1, 2 * n, 2))
        for k in range(n + 1):
            if poly[k]:
                out.append((Fraction(a**k, a**n), poly[k]))
    else:
        odd_part = rising_product(range(1, 2 * n - 1, 2))
        pos = poly_mul([n - 1, 1], odd_part)
        neg = [n * c for c in odd_part]
        for k in range(n + 1):
            m = pos[k] if k < len(pos) else 0
            if m:
                out.append((Fraction(a**k, a**n), m))
        for k in range(n):
            m = neg[k] if k < len(neg) else 0
            if m:
                out.append((Fraction(-(a**k), a**n), m))
    return _merge_spectrum(out)
