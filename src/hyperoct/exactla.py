"""Exact linear algebra over the integers/rationals for verification work.

Everything here returns certified exact facts, never probabilistic ones:

- A mod-p elimination bounds the rank from below, hence the nullity from
  above (an unlucky prime only weakens the bound, never breaks it).  So
  full rank mod one prime proves rows independent.
- Exactly verified kernel vectors, e.g. eigenvectors with verified
  eigen-equations, bound the nullity from below; when the two bounds
  meet, the dimension is proved.
- `annihilation_power` builds P = Π(A − λ) exactly and finds the least
  s with A^s·P = 0.  That identity puts the image of P inside the
  generalized 0-eigenspace, so rank P bounds the multiplicity of 0 from
  below (and any mod-p rank of P bounds rank P from below).
  `annihilates` checks q(A) = A^s·P = 0 for a given s, which pins the
  spectrum inside q's root set.
- `charpoly_matches` compares the power sums tr(A^k) with Σ m_λ λ^k for
  k = 1..N.  With Σ m_λ = N, Newton's identities over QQ make this
  equivalent to det(xI − A) = Π (x − λ)^{m_λ}.  Each difference is bounded
  in absolute value (`trace_moduli`), so vanishing modulo pairwise coprime
  primes whose product exceeds the bound proves it is 0.  No certificate
  of the package calls it: `verify.chain_spectrum_certificate` proves
  every deck size by the eigenvectors of the chain's n + 1 sign-character
  blocks (n!×n!), with `annihilation_power` on the blocks that lack some.
  It stays because it shares no code with that route: the tests check the
  Table-1 spectra against it, and the benchmark's tracer still times it by
  name.

Every matrix product runs through BLAS in float64 and is exact: a partial
sum of integer products is computed exactly whenever every such partial
sum is below 2^53 in absolute value, whatever order the BLAS kernel adds
in.

- Products of residues use delayed modular reduction (the FFLAS-FFPACK
  technique; Dumas, Giorgi and Pernet, ACM TOMS 2008) over at most
  `_PANEL` inner terms.  Residues mod the 26-bit `PRIMES` are products of
  values below 2^26, so `_mulmod` splits the right factor as
  Y_hi·2^13 + Y_lo; every partial sum of X·Y_hi and X·Y_lo is then below
  64·2^26·2^13 = 2^45.  Residues mod the 20-bit `TRACE_PRIMES` need no
  split: 64·(p − 1)^2 < 2^46.
- Integer products in `annihilation_power` bound each partial sum of row
  i of (A − λ)·V by (Σ_j |A_ij| + |λ|)·max|V|, over all inner terms at
  once.  They run in float64 while this is below 2^53, in int64 while it
  is below 2^62, and in Python integers past that.

Matrices are taken as int64 arrays (or anything numpy turns into one);
matrices with an entry of 2^31 or more in absolute value are kept as
Python integers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import CertificationError

# Primes just below 2^26, for elimination mod p: residues are
# below 2^26, so `_mulmod` keeps 64-term dot products exact in float64 by
# splitting one factor into 13-bit halves.
PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108729, 67108693)

# The 64 largest primes below 2^20, for the trace-power check: 64-term dot
# products of residues stay below 2^46, exact in float64 with no split.
# Their product is about 2^1280; `trace_moduli` takes the shortest prefix
# whose product exceeds the bound of the check.
TRACE_PRIMES = (
    1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447, 1048433,
    1048423, 1048391, 1048387, 1048367, 1048361, 1048357, 1048343, 1048309,
    1048291, 1048273, 1048261, 1048219, 1048217, 1048213, 1048193, 1048189,
    1048139, 1048129, 1048127, 1048123, 1048063, 1048051, 1048049, 1048043,
    1048027, 1048013, 1048009, 1048007, 1047997, 1047989, 1047979, 1047971,
    1047961, 1047941, 1047929, 1047923, 1047887, 1047883, 1047881, 1047859,
    1047841, 1047833, 1047821, 1047779, 1047773, 1047763, 1047751, 1047737,
    1047721, 1047713, 1047703, 1047701, 1047691, 1047689, 1047671, 1047667,
)

_PANEL = 64  # columns per elimination panel; rows and inner terms per product
_TILE = 256  # columns per product
_HALF = 2**13
_F64_EXACT = 2**53
_I64_SAFE = 2**62
_SMALL = 2**31


def _int_matrix(A) -> np.ndarray:
    """A as a 2-D integer array: int64 while every |entry| < 2^31, so that
    row sums and residue products cannot overflow, else object (Python ints)."""
    if not (isinstance(A, np.ndarray) and A.dtype == np.int64):
        try:
            A = np.array(A, dtype=np.int64)
        except OverflowError:
            A = np.array(A, dtype=object)
    if A.ndim != 2:
        A = A.reshape(len(A), -1 if A.size else 0)
    if A.dtype != object and A.size and (A.max() >= _SMALL or A.min() <= -_SMALL):
        A = A.astype(object)
    return A


def _row_norm(M: np.ndarray) -> int:
    """max_i Σ_j |M_ij|, exactly."""
    return int(np.abs(M).sum(axis=1).max()) if M.size else 0


def _reduce(x: np.ndarray, p) -> np.ndarray:
    """x mod p into [0, p), in place, for float64 integers |x| <= 2^52.

    q = floor(x·(1/p)) is off from floor(x/p) by at most 1, since the
    relative error of x·(1/p) is below 2^-51 and |x/p| <= 2^51; q·p and
    x − q·p are integers below 2^53, hence exact, and one correction each
    way brings x − q·p from [−p, 2p) into [0, p).  (np.fmod is exact too,
    but some 70 times slower.)
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.subtract(x, p, out=x, where=x >= p)
    np.add(x, p, out=x, where=x < 0)
    return x


def _submulmod(D: np.ndarray, X: np.ndarray, Y: np.ndarray, p) -> None:
    """D ← (D − X·Y) mod p in place, for float64 residues in [0, p), p < 2^26.

    Stacks broadcast, and p may be an array of moduli broadcasting against
    D.  Each BLAS call multiplies at most _PANEL rows of X by a tile of at
    most _TILE columns of Y over k <= _PANEL inner terms (row blocks of X
    that are zero are skipped); when k·(p − 1)^2 > 2^52 the tile of Y is
    split into 13-bit halves.  No temporary is larger than a tile.
    """
    rows, inner, cols = X.shape[-2], X.shape[-1], Y.shape[-1]
    split = min(inner, _PANEL) * (int(np.max(p)) - 1) ** 2 > _F64_EXACT // 2
    for s in range(0, inner, _PANEL):
        for c in range(0, cols, _TILE):
            y = Y[..., s : s + _PANEL, c : c + _TILE]
            w = y.shape[-1]
            if split:
                y = np.concatenate(np.divmod(y, _HALF), axis=-1)
            for b in range(0, rows, _PANEL):
                x = X[..., b : b + _PANEL, s : s + _PANEL]
                if not x.any():
                    continue
                z = x @ y
                if split:
                    z = _reduce(z[..., :w], p) * _HALF + z[..., w:]
                d = D[..., b : b + _PANEL, c : c + _TILE]
                d -= _reduce(z, p)
                np.add(d, p, out=d, where=d < 0)


def _mulmod(X: np.ndarray, Y: np.ndarray, p) -> np.ndarray:
    """X @ Y mod p for float64 residues in [0, p), exactly (`_submulmod`)."""
    out = np.zeros(np.broadcast_shapes(X.shape[:-2], Y.shape[:-2]) + (X.shape[-2], Y.shape[-1]))
    _submulmod(out, X, Y, p)
    np.subtract(p, out, out=out, where=out > 0)
    return out


# ---------------------------------------------------------------------------
# modular elimination


def _eliminate(M: np.ndarray, p: int, below: bool = False) -> tuple[np.ndarray, list[int]]:
    """Per-pivot Gauss–Jordan of a float64 residue block mod p, in place;
    with ``below``, each pivot clears only the rows under it.

    Returns the row order (position i holds input row order[i]) and the
    pivot columns.
    """
    rows, cols = M.shape
    order = np.arange(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            order[[r, i]] = order[[i, r]]
        M[r, c:] = _reduce(M[r, c:] * pow(int(M[r, c]), p - 2, p), p)
        T = M[r + 1 if below else 0 :, c:]
        mask = T[:, 0] != 0
        if not below:
            mask[r] = False
        if mask.any():
            T[mask] = _reduce(T[mask] - np.outer(T[mask, 0], M[r, c:]), p)
        pivots.append(c)
        r += 1
    return order, pivots


def rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix mod a prime p < 2^26.

    Blocked Gauss–Jordan.  Forward elimination, one pivot at a time, of
    the rows below the rank so far on a panel of at most _PANEL columns
    finds the panel's k pivot columns J and k rows S with R[S, J]
    invertible.  The rows S become R[S, J]^{-1}·R[S, :] and every other row
    loses R[i, J] times them, in one `_submulmod` of inner dimension k.  The
    RREF is unique, so R and the pivots are those of a per-pivot
    elimination.  A matrix of at most _PANEL rows is one row block: the
    per-pivot elimination does no more arithmetic than the blocked update,
    in a few numpy calls per pivot instead of a few dozen per panel.
    """
    if not 2 <= p < 2**26:
        raise ValueError(f"rref_mod needs a prime below 2^26, got {p}")
    R = (np.asarray(A) % p).astype(np.float64)
    rows, cols = R.shape
    if rows <= _PANEL:
        _, pivots = _eliminate(R, p)
        return R.astype(np.int64), pivots
    pivots = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        order, J = _eliminate(R[r:, c0 : c0 + _PANEL].copy(), p, below=True)
        k = len(J)
        if k == 0:
            continue
        J = [c0 + j for j in J]
        # bring the pivot rows S to positions r..r+k-1
        slots, src = np.arange(r, r + k), r + order[:k]
        R[np.r_[slots, np.setdiff1d(src, slots)]] = R[np.r_[src, np.setdiff1d(slots, src)]]
        aug = np.hstack([R[r : r + k, J], np.eye(k)])
        _eliminate(aug, p)
        N = R[r : r + k, c0:] = _mulmod(aug[:, k:], R[r : r + k, c0:], p)
        X = R[:, J]
        X[r : r + k] = 0
        _submulmod(R[:, c0:], X, N, p)
        pivots += J
        r += k
    return R.astype(np.int64), pivots


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(rref_mod(A, p)[1])


def nullity_upper_bound(A) -> int:
    """Certified upper bound on dim_QQ ker(A): min over two primes of
    n − rank_p."""
    M = _int_matrix(A)
    if M.shape[0] == 0:
        return 0
    n = M.shape[1]
    best = n
    for p in PRIMES[:2]:
        best = min(best, n - rank_mod(M, p))
        if best == 0:
            break
    return best


def independent_certificate(vectors) -> bool:
    """Prove linear independence over QQ of integer row vectors.

    Full rank mod a prime is a proof.  False means that none of three
    primes gave full rank: dependent rows, or (rarely) three unlucky primes.
    """
    M = _int_matrix(vectors)
    if M.shape[0] == 0:
        return True
    if M.shape[0] > M.shape[1]:
        return False
    return any(rank_mod(M, p) == M.shape[0] for p in PRIMES[:3])


# ---------------------------------------------------------------------------
# exact annihilation (spectrum containment)


def annihilation_power(
    A, nonzero_eigenvalues: Sequence[int], smax: int
) -> tuple[Optional[int], np.ndarray]:
    """(s, P) for P = Π(A − λ) over the given λ, exactly, and s the least
    power <= smax with A^s·P = 0, or None when there is none.

    Every product (A − λ)·V runs in float64 or int64 while the bound of the
    module docstring proves it exact, and in Python integers past that.  P
    comes back as int64, or as Python integers (object) once the bound
    reaches 2^62.
    """
    M = _int_matrix(A)
    norm = _row_norm(M)
    typed = {M.dtype: M}

    def minus(V: np.ndarray, lam: int) -> np.ndarray:
        """(A − lam)·V; overwrites V when lam ≠ 0."""
        bound = (norm + abs(lam)) * (int(np.abs(V).max()) if V.size else 0)
        dtype = np.dtype("f8" if bound < _F64_EXACT else "i8" if bound < _I64_SAFE else "O")
        if dtype not in typed:
            typed[dtype] = M.astype(dtype)
        if V.dtype != dtype:  # floats reach Python integers through int64
            V = V.astype(np.int64, copy=False).astype(dtype, copy=False)
        W = typed[dtype] @ V
        if lam:
            V *= lam
            W -= V
        return W

    P = np.eye(M.shape[0])
    for lam in nonzero_eigenvalues:
        P = minus(P, int(lam))
    if P.dtype.kind == "f":
        P = P.astype(np.int64)
    V = P
    for s in range(smax + 1):
        if not V.any():
            return s, P
        if s < smax:
            V = minus(V, 0)
    return None, P


def annihilates(A, nonzero_eigenvalues: Sequence[int], zero_power: int) -> bool:
    """Exactly verify q(A) = 0 for q(x) = x^{zero_power}·Π(x − λ).

    q(A) = 0 proves the spectrum of A lies in {0} ∪ {λ} with semisimple
    nonzero eigenvalues (they are simple roots of q).  It holds exactly
    when `annihilation_power` finds a power s <= zero_power.
    """
    return annihilation_power(A, nonzero_eigenvalues, zero_power)[0] is not None


# ---------------------------------------------------------------------------
# characteristic polynomial against a predicted spectrum (trace powers)


def trace_moduli(A, predicted: dict[int, int]) -> tuple[int, ...]:
    """The shortest prefix of TRACE_PRIMES whose product exceeds
    N·max(1, ‖A‖_∞)^N + Σ |m_λ|·max(1, |λ|)^N, which bounds
    |tr(A^k) − Σ m_λ λ^k| for every k <= N (|tr(A^k)| <= N·‖A‖_∞^k).

    Raises CertificationError when the whole table is too short.
    """
    M = _int_matrix(A)
    N = M.shape[0]
    bound = N * max(1, _row_norm(M)) ** N
    bound += sum(abs(m) * max(1, abs(lam)) ** N for lam, m in predicted.items())
    modulus = 1
    for i, q in enumerate(TRACE_PRIMES):
        modulus *= q
        if modulus > bound:
            return TRACE_PRIMES[: i + 1]
    raise CertificationError(
        f"the trace-power bound has {bound.bit_length()} bits; "
        f"the {len(TRACE_PRIMES)} trace primes cover {modulus.bit_length() - 1}"
    )


def charpoly_matches(A, predicted: dict[int, int]) -> bool:
    """det(xI − A) equals Π (x − λ)^{m} for the predicted map, exactly.

    Checks Σ m_λ = N and tr(A^k) ≡ Σ m_λ λ^k modulo every prime of
    `trace_moduli` for k = 1..N (see the module docstring); A^k mod all
    primes at once is one batched float64 product per k.
    """
    M = _int_matrix(A)
    N = M.shape[0]
    if sum(predicted.values()) != N:
        return False
    if N == 0:
        return True
    moduli = trace_moduli(M, predicted)
    P = np.array(moduli, dtype=np.float64)[:, None]
    Ap = np.stack([M % q for q in moduli]).astype(np.float64)
    lam = np.array([[x % q for x in predicted] for q in moduli], dtype=np.float64)
    mult = np.array([[m % q for m in predicted.values()] for q in moduli], dtype=np.float64)
    power, lam_k = Ap, lam
    for k in range(1, N + 1):
        trace = _reduce(np.trace(power, axis1=1, axis2=2), P[:, 0])
        sums = _reduce(_reduce(mult * lam_k, P).sum(axis=1), P[:, 0])
        if (trace != sums).any():
            return False
        if k < N:
            power = _mulmod(power, Ap, P[:, :, None])
            lam_k = _reduce(lam_k * lam, P)
    return True
