"""Vectorized block predicates over prime-field algebras.

Pure-Python evaluation is exact but too slow to test |F|^d elements one by
one when |F|^d runs into the hundreds of thousands, so ``algebra.search``
walks the blocks of ``vector_blocks`` and a block predicate tests a whole
block on numpy arrays.  ``sweep`` tests a scanned law: a polynomial map of
degree k in one swept argument and linear in the others; the linear
arguments range over basis vectors only, which by linearity loses nothing.
The law's coefficients are exact integer contractions of the structure tensor
(the linearization of Zhevlakov-Slinko-Shestakov-Shirshov, *Rings that are
nearly associative*), summed over the orderings of each degree-k monomial and
reduced mod p, once per sweep.  Each chunk of swept vectors then costs one
GEMM of its monomials against that (monomials) x (basis tuples * d) matrix
and an exact divisibility test mod p, so every vector is evaluated against
every output.  The GEMM runs in float32 or float64 when a bound on its sums
keeps every integer exact, and on Python integers otherwise.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

BLOCK = 32768


def structure_tensor(A) -> np.ndarray:
    """Structure constants as a dense (d, d, d) float array of residues."""
    if A.field.kind != "prime":
        raise ValueError("structure_tensor needs a prime-field algebra")
    d = A.dim
    C = np.zeros((d, d, d), dtype=np.float64)
    for (i, j), terms in A.table.items():
        for k, c in terms:
            C[i, j, k] = c % A.field.p
    return C


def vector_blocks(p: int, d: int, block: int = BLOCK):
    """Yield all p^d coefficient vectors in lexicographic order, in blocks.

    Row n holds the base-p digits of n, most significant digit first, which
    matches itertools.product(range(p), repeat=d).
    """
    total = p ** d
    weights = np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        yield start, ((idx[:, None] // weights[None, :]) % p).astype(np.float64)


SWEEP_BYTES = 1 << 21   # cap on one chunk's GEMM operands; about an L2 cache


def coefficients(A, law):
    """(monomials, T) for a sweep of `law` over the prime-field algebra A.

    `law` is an entry of the law table of algebra: its `degree` in the swept
    argument and its `contraction`, signed einsum contractions of copies of
    the structure tensor whose output subscripts are `degree` copies of the
    swept argument, then one per linear argument, then the output coordinate.
    monomials: (M, degree) indices of the degree-`degree` monomials of the
    swept argument, in lexicographic order.  T: (M, d^r * d) coefficients
    mod p, columns ordered (linear basis indices..., output coordinate).
    """
    p, d, k = A.field.p, A.dim, law.degree
    # a term sums d^(summed indices) products of (operands) residues < p
    bound = 0
    for _, spec in law.contraction:
        ins, out = spec.split("->")
        summed = set(ins) - set(out) - {","}
        bound += d ** len(summed) * (p - 1) ** (ins.count(",") + 1)
    C = structure_tensor(A).astype(np.int64)
    if bound >= 2 ** 63:
        C = C.astype(object)
    K = sum(sign * np.einsum(spec, *[C] * (spec.count(",") + 1), optimize=True)
            for sign, spec in law.contraction) % p
    monomials = list(itertools.combinations_with_replacement(range(d), k))
    index = {m: i for i, m in enumerate(monomials)}
    rows = [index[tuple(sorted(t))] for t in itertools.product(range(d), repeat=k)]
    T = np.zeros((len(monomials), K.size // d ** k), dtype=K.dtype)
    np.add.at(T, rows, K.reshape(d ** k, -1))
    return np.array(monomials), T % p


def gemm_dtype(p: int, monomials: int, degree: int):
    """Narrowest dtype holding every partial sum of the sweep GEMM exactly:
    each of its `monomials` terms is at most (p-1)^degree * (p-1)."""
    bound = monomials * (p - 1) ** (degree + 1)
    if bound <= 2 ** 24:
        return np.float32
    if bound <= 2 ** 53:
        return np.float64
    return object


def _gemm(X: np.ndarray, monomials: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Unreduced law values at the rows of X, computed in T's dtype."""
    # one row per coordinate, so gathering a monomial factor copies a row
    Xt = X.T.astype(np.int64, order="C").astype(T.dtype)
    mono = Xt[monomials[:, 0]]
    for c in range(1, monomials.shape[1]):
        mono *= Xt[monomials[:, c]]
    return mono.T @ T


def _nonzero_mod(R: np.ndarray, p: int) -> np.ndarray:
    """Mask of the entries of R, exact non-negative integers, not divisible
    by p."""
    if R.dtype == object:
        return R % p != 0
    ut, w = (np.uint32, 32) if R.dtype == np.float32 else (np.uint64, 64)
    u = R.astype(ut)
    if p == 2:
        return (u & 1).astype(bool)
    # for odd p, n * p^-1 mod 2^w is at most (2^w - 1) // p iff p divides n
    u *= ut(pow(p, -1, 2 ** w))
    return u > ut((2 ** w - 1) // p)


def sweep(A, law):
    """Block predicate for algebra.search: rows(X) is the index of the first
    row of X at which `law` fails on A for some tuple of basis vectors, or -1.

    The coefficient matrix is built at the first call, so a walk that only
    samples never builds it.  Each block is cut into chunks whose GEMM
    operands take about SWEEP_BYTES.
    """
    @functools.cache
    def setup():
        p = A.field.p
        monomials, T = coefficients(A, law)
        T = T.astype(gemm_dtype(p, len(monomials), law.degree))
        return p, monomials, T, max(1, SWEEP_BYTES // (max(T.shape) * T.itemsize))

    def rows(X: np.ndarray) -> int:
        p, monomials, T, chunk = setup()
        for start in range(0, len(X), chunk):
            bad = _nonzero_mod(_gemm(X[start:start + chunk], monomials, T), p)
            if bad.any():
                return start + int(np.flatnonzero(bad.any(axis=1))[0])
        return -1
    return rows


def mulrows(A, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise algebra products of two (n, d) residue arrays."""
    C = structure_tensor(A)
    p, d = A.field.p, A.dim
    H = np.matmul(X, C.reshape(d, d * d)).reshape(X.shape[0], d, d) % p
    return ((Y[:, :, None] * H).sum(axis=1)) % p


def batched_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of (n, r, c) matrices over GF(p), vectorized Gauss."""
    A = (mats.astype(np.int64)) % p
    n, r, c = A.shape
    inv_table = np.zeros(p, dtype=np.int64)
    for v in range(1, p):
        inv_table[v] = pow(v, p - 2, p)
    ranks = np.zeros(n, dtype=np.int64)
    rows_idx = np.arange(r)[None, :]
    sel = np.arange(n)
    for col in range(c):
        eligible = (A[:, :, col] != 0) & (rows_idx >= ranks[:, None])
        has = eligible.any(axis=1)
        if not has.any():
            continue
        hn = sel[has]
        piv = eligible[has].argmax(axis=1)
        cur = ranks[has]
        # swap pivot row into position `cur`
        tmp = A[hn, piv].copy()
        A[hn, piv] = A[hn, cur]
        A[hn, cur] = tmp
        A[hn, cur] = (A[hn, cur] * inv_table[A[hn, cur, col]][:, None]) % p
        factors = A[hn, :, col].copy()
        factors[np.arange(len(hn)), cur] = 0
        A[hn] = (A[hn] - factors[:, :, None] * A[hn, cur][:, None, :]) % p
        ranks[has] += 1
    return ranks


def full_rank_rows(maps, p: int, d: int):
    """Block predicate for algebra.search: the index of the first row of X
    whose combination of the m flattened d x d residue maps has full rank,
    or -1."""
    B = np.asarray(maps, dtype=np.float64).reshape(-1, d * d)

    def rows(X: np.ndarray) -> int:
        ranks = batched_rank_mod_p((X @ B % p).reshape(-1, d, d), p)
        hits = np.flatnonzero(ranks == d)
        return int(hits[0]) if hits.size else -1
    return rows
