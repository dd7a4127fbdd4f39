import itertools
from collections import Counter

import numpy as np
import pytest

from hyperoct import OutsideBasis, SignedWord, ShuffleSpec, transition_matrix
from hyperoct import exactla
from hyperoct.descent import StateBasis
from hyperoct.lyndon import _eigenvector_codes, _letter_brackets, _plain_letters
from hyperoct.spectral import shuffle_multiplicities


def W(text: str) -> SignedWord:
    return SignedWord.parse(text)


def brute_shuffle_two(u, v):
    """Independent oracle: all interleavings by recursion on first letters."""
    u, v = tuple(u), tuple(v)
    if not u:
        return [v]
    if not v:
        return [u]
    return [(u[0],) + rest for rest in brute_shuffle_two(u[1:], v)] + [
        (v[0],) + rest for rest in brute_shuffle_two(u, v[1:])
    ]


def brute_deshuffle_pairs(w, i):
    """Independent oracle: choose the first-slot positions directly."""
    w = tuple(w)
    out = []
    for chosen in itertools.combinations(range(len(w)), i):
        rest = tuple(p for p in range(len(w)) if p not in chosen)
        out.append(
            (tuple(w[p] for p in chosen), tuple(w[p] for p in rest))
        )
    return out


@pytest.fixture(scope="session")
def tm_cache():
    cache = {}

    def get(n, a, sign, flavor):
        key = (n, a, sign, flavor)
        if key not in cache:
            cache[key] = transition_matrix(ShuffleSpec(n, a, sign, flavor))
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# the dense references of the chain certificate


def signed_eigenvector_matrix(states, a, sign, flavor):
    """(V, mu, words): the eigenvectors of the words of ``states`` that have
    one, as the rows of one int64 matrix over the states (repeated letters
    and any labels allowed), from the coded assembly with the signed seed
    i ↦ i + ī, ī ↦ i − ī.  Raises as the assembly and the state basis do."""
    n = len(states[0]) if len(states) else 0
    basis = StateBasis(states, n)
    memo = _letter_brackets(np.unique(np.abs(basis.W)).tolist(), basis.m, np.int64, np.int64)
    rows, mus, words = [], [], []
    for w in basis:
        try:
            (codes, coeffs, _), mu = _eigenvector_codes(w, a, sign, flavor, basis.m, memo)
        except OutsideBasis:
            continue
        rows.append((basis.index_codes(codes), coeffs))
        mus.append(mu)
        words.append(w)
    V = np.zeros((len(rows), len(states)), dtype=np.int64)
    for r, (cols, coeffs) in enumerate(rows):
        V[r, cols] = coeffs
    return V, np.array(mus, dtype=np.int64), tuple(words)


def eigenvector_matrix_by_rows(states, k, a, sign, flavor):
    """The reference of ``lyndon.eigenvector_matrix``: each row assembled
    and merged on its own by ``_eigenvector_codes`` from the plain-letter
    seed, and written into U in state order."""
    n = len(states[0]) if len(states) else 0
    basis = StateBasis(states, n)
    memo = _plain_letters(tuple(np.unique(basis.W).tolist()), basis.m)
    rows, mus, words = [], [], []
    for pi in basis:
        w = SignedWord._trusted(tuple(-c if c <= k else c for c in pi))
        try:
            (codes, coeffs, _), mu = _eigenvector_codes(w, a, sign, flavor, basis.m, memo)
        except OutsideBasis:
            continue
        rows.append((basis.index_codes(codes), coeffs))
        mus.append(mu)
        words.append(w)
    U = np.zeros((len(rows), len(states)), dtype=np.int64)
    for r, (cols, coeffs) in enumerate(rows):
        U[r, cols] = coeffs
    return U, np.array(mus, dtype=np.int64), tuple(words)


def dense_certificate(spec, tm=None):
    """The chain certificate on the whole 2^n·n!-state matrix A = tm.counts:
    A·Vᵀ = Vᵀ·diag(μ) for the signed eigenvector rows V, their independence,
    the counts and, for even-a rotation, the annihilation power of A and the
    rank of its N×N P."""
    if tm is None:
        tm = transition_matrix(spec)
    A, size = tm.counts, tm.size
    predicted = {int(v * tm.scale): m for v, m in shuffle_multiplicities(spec.a, spec.sign, spec.n)}
    nonzero_pred = {lam: m for lam, m in predicted.items() if lam != 0}
    V, mu, _ = signed_eigenvector_matrix(tm.states, spec.a, spec.sign, spec.decoration)
    counts = dict(Counter(mu.tolist()))
    full = len(V) == size
    report = {
        "size": size,
        "method": "full-eigenbasis" if full else "partial-eigenbasis+annihilation",
        "eigen_equations": exactla.eigen_equations_hold(V, mu, A.T),
        "independent": exactla.independent_certificate(V),
        "eigenvector_counts": counts,
        "counts_match": counts == (predicted if full else nonzero_pred),
    }
    report["ok"] = all(report[k] for k in ("eigen_equations", "independent", "counts_match"))
    if full or not report["ok"]:
        return report
    zero_mult = size - len(V)
    power, P = exactla.annihilation_power(A, sorted(nonzero_pred), 8)
    zero_rank = exactla.rank_lower_bound(P, zero_mult)
    report["annihilation_power"] = power
    report["zero_rank"] = zero_rank
    report["ok"] = power is not None and zero_rank == zero_mult == predicted.get(0, 0)
    return report
