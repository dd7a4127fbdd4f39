"""Eigenvalues and multiplicities of hyperoctahedral descent operators.

Eigenvalues are indexed by double-partitions (λ, λ̄) of n and given by signed
counts of compatible set-compositions; multiplicities come from a product of
multiset-coefficient factors in the primitive dimension counts b_i, b̄_i.
The riffle-operator spectra and the signed-permutation chain multiplicities
(with their hyperoctahedral Stirling numbers) get closed forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import NotIntegral, SizeMismatch
from .descent import DecoratedComposition, Decoration, DescentOperator


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


def operator_eigenvalues(T: DescentOperator) -> dict[tuple, Fraction]:
    """Map (λ, λ̄) -> Σ_D coeff(D)·β for the operator's compositions."""
    out = {}
    for dp in double_partitions(T.degree):
        lam, lbar = dp
        val = Fraction(0)
        for D, c in T.terms.items():
            val += c * beta(lam, lbar, D)
        out[dp] = val
    return out


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


def word_algebra_dimension(max_label: int, n: int) -> int:
    return (2 * max_label) ** n


# -- truncated series helpers (univariate in y, with an x-degree slot) ------


def _series_mul(f: list[list[Fraction]], g: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Multiply bivariate series truncated at y-degree n; f[l][d] = coeff of x^l y^d."""
    lmax = len(f) + len(g) - 2
    out = [[Fraction(0)] * (n + 1) for _ in range(lmax + 1)]
    for l1, row1 in enumerate(f):
        for d1, c1 in enumerate(row1):
            if not c1:
                continue
            for l2, row2 in enumerate(g):
                for d2, c2 in enumerate(row2):
                    if not c2 or d1 + d2 > n:
                        continue
                    out[l1 + l2][d1 + d2] += c1 * c2
    return out


def _series_one(n: int) -> list[list[Fraction]]:
    row = [Fraction(0)] * (n + 1)
    row[0] = Fraction(1)
    return [row]


def _geometric_factor(x_power: int, y_power: int, b: int, n: int) -> list[list[Fraction]]:
    """(1 − x^{x_power} y^{y_power})^{−b}, truncated at y-degree n."""
    out = _series_one(n)
    if b == 0 or y_power > n:
        return out
    kmax = n // y_power
    lmax = kmax * x_power
    f = [[Fraction(0)] * (n + 1) for _ in range(lmax + 1)]
    for k in range(kmax + 1):
        f[k * x_power][k * y_power] = Fraction(multichoose(b, k))
    return f


def _signed_geometric_factor(y_power: int, b: int, n: int, plus: bool) -> list[list[Fraction]]:
    """(1 ± y^{y_power})^{−b} truncated at y-degree n (x-degree 0)."""
    row = [Fraction(0)] * (n + 1)
    for k in range(0, n // y_power + 1):
        c = multichoose(b, k)
        if plus and k % 2 == 1:
            c = -c
        row[k * y_power] = Fraction(c)
    return [row]


def riffle_spectrum(
    a: int,
    sign: str,
    flavor: Decoration,
    b: Sequence[int],
    b_bar: Sequence[int],
    n: int,
    dim: int = None,
) -> list[tuple[int, int]]:
    """Spectrum of the (unscaled) riffle operator on a degree-n component with
    primitive counts b, b̄: list of (eigenvalue, multiplicity), sorted by
    descending eigenvalue.  For even a, ``dim`` (the component's dimension)
    fixes the multiplicity of the eigenvalue 0; it defaults to the PBW count
    derived from b and b̄.
    """

    def get(seq, i):
        return seq[i - 1] if 1 <= i <= len(seq) else 0

    base = _series_one(n)
    for i in range(1, n + 1):
        base = _series_mul(base, _geometric_factor(1, i, get(b, i), n), n)

    def coeff(series, l: int) -> int:
        val = series[l][n] if l < len(series) else Fraction(0)
        if val.denominator != 1:
            raise NotIntegral(f"multiplicity {val} at power {l}")
        return int(val)

    out: list[tuple[int, int]] = []
    if a % 2 == 0:
        total = 0
        for l in range(n + 1):
            m = coeff(base, l)
            if m:
                out.append((a**l, m))
                total += m
        if dim is None:
            full = _series_one(n)
            for i in range(1, n + 1):
                full = _series_mul(
                    full, _geometric_factor(0, i, get(b, i) + get(b_bar, i), n), n
                )
            dim = coeff(full, 0)
        if dim - total:
            out.append((0, dim - total))
    elif sign == "+":
        series = base
        for i in range(1, n + 1):
            series = _series_mul(series, _geometric_factor(0, i, get(b_bar, i), n), n)
        for l in range(n + 1):
            m = coeff(series, l)
            if m:
                out.append((a**l, m))
    else:
        plusf = _series_one(n)
        minusf = _series_one(n)
        for i in range(1, n + 1):
            plusf = _series_mul(plusf, _signed_geometric_factor(i, get(b_bar, i), n, True), n)
            minusf = _series_mul(minusf, _signed_geometric_factor(i, get(b_bar, i), n, False), n)
        for l in range(n + 1):
            pos = Fraction(0)
            neg = Fraction(0)
            for d in range(n + 1):
                if l < len(base) and base[l][d]:
                    pd = n - d
                    pc = plusf[0][pd]
                    mc = minusf[0][pd]
                    pos += base[l][d] * (pc + mc) / 2
                    neg += base[l][d] * (mc - pc) / 2
            if pos.denominator != 1 or neg.denominator != 1:
                raise NotIntegral(f"multiplicities {pos}, {neg} at power {l}")
            if pos:
                out.append((a**l, int(pos)))
            if neg:
                out.append((-(a**l), int(neg)))
    return _merge_spectrum(out)


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


def shuffle_multiplicities(
    a: int, sign: str, flavor: Decoration, n: int
) -> list[tuple[Fraction, int]]:
    """Eigenvalues (scaled by a^{-n}) and algebraic multiplicities of the
    2^n n!-state riffle shuffle transition matrix, sorted descending.  Each
    eigenvalue appears on exactly one row: at a = 1 every power a^{k-n}
    collapses to ±1, and the rows of equal eigenvalues are merged.

    even a: a^{k-n} with [x^k] x(x+2)...(x+2n−2), plus 0 with the complement
    to 2^n n!.  odd a, sign '+': [x^k](x+1)(x+3)...(x+2n−1).  odd a, sign '-':
    a^{k-n} with [x^k](x+n−1)(x+1)...(x+2n−3) and −a^{k-n} with
    [x^k] n(x+1)...(x+2n−3).
    """
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
