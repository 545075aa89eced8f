"""Vectorized exhaustive scans over prime-field algebras.

Pure-Python evaluation is exact but too slow to sweep |F|^d elements when
|F|^d runs into the hundreds of thousands, so the whole-space scans run on
numpy arrays.  A scanned law is a polynomial map of degree k in one swept
argument and linear in the others; the linear arguments range over basis
vectors only, which by linearity loses nothing.  The law's coefficients are
exact integer contractions of the structure tensor (the linearization of
Zhevlakov-Slinko-Shestakov-Shirshov, *Rings that are nearly associative*),
summed over the orderings of each degree-k monomial and reduced mod p, once
per sweep.  Each block of swept vectors then costs one GEMM of its monomials
against that (monomials) x (basis tuples * d) matrix and an exact
divisibility test mod p, so all p^d vectors are evaluated against every
output.  The GEMM runs in float32 or float64 when a bound on its sums keeps
every integer exact, and on Python integers otherwise.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

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


class Law(NamedTuple):
    """A law as signed einsum contractions of copies of the structure tensor.

    Output subscripts: `degree` copies of the swept argument, then one per
    linear argument, then the output coordinate.  Witnesses list the swept
    argument first, or last when basis_first is set.
    """

    degree: int
    terms: tuple
    basis_first: bool = False

    @property
    def linear(self) -> int:
        """Number of linear arguments."""
        return len(self.terms[0][1].split("->")[1]) - self.degree - 1


# (xy)(zx) - (x(yz))x
MIDDLE_MOUFANG = Law(2, ((1, "aju,kbv,uvm->abjkm"), (-1, "jku,auv,vbm->abjkm")))
# (x^2, y, x) = ((xx)y)x - (xx)(yx)
JORDAN = Law(3, ((1, "abu,ujv,vcm->abcjm"), (-1, "abu,jcv,uvm->abcjm")))

SWEEP_BYTES = 1 << 21   # cap on one block's GEMM operands; about an L2 cache


def coefficients(A, law: Law):
    """(monomials, T) for a sweep of `law` over the prime-field algebra A.

    monomials: (M, degree) indices of the degree-`degree` monomials of the
    swept argument, in lexicographic order.  T: (M, d^r * d) coefficients
    mod p, columns ordered (linear basis indices..., output coordinate).
    """
    p, d, k = A.field.p, A.dim, law.degree
    # a term sums d^(summed indices) products of (operands) residues < p
    bound = 0
    for _, spec in law.terms:
        ins, out = spec.split("->")
        summed = set(ins) - set(out) - {","}
        bound += d ** len(summed) * (p - 1) ** (ins.count(",") + 1)
    C = structure_tensor(A).astype(np.int64)
    if bound >= 2 ** 63:
        C = C.astype(object)
    K = sum(sign * np.einsum(spec, *[C] * (spec.count(",") + 1), optimize=True)
            for sign, spec in law.terms) % p
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


def sweep(A, law: Law, block: int | None = None):
    """Witness arguments at which `law` fails on A, or None if it holds.

    Every vector of vector_blocks is evaluated; the witness is the first
    failing vector, then the first failing tuple of basis vectors.
    """
    p, d = A.field.p, A.dim
    monomials, T = coefficients(A, law)
    T = T.astype(gemm_dtype(p, len(monomials), law.degree))
    if block is None:
        block = max(1, SWEEP_BYTES // (max(T.shape) * T.itemsize))
    for _, X in vector_blocks(p, d, block):
        bad = _nonzero_mod(_gemm(X, monomials, T), p)
        if bad.any():
            bad = bad.reshape(len(X), -1, d).any(axis=2)
            ni, col = divmod(int(np.flatnonzero(bad)[0]), bad.shape[1])
            idx = np.unravel_index(col, (d,) * law.linear)
            return _witness_args(A, X[ni], idx, law.basis_first)
    return None


def scan_middle_moufang(A):
    """Witness (x, y, z) with (xy)(zx) != (x(yz))x, or None; y and z sweep
    the basis, x every field vector."""
    return sweep(A, MIDDLE_MOUFANG)


def scan_jordan(A):
    """Witness (x, y) with (x^2, y, x) != 0, or None; y sweeps the basis."""
    return sweep(A, JORDAN)


def _witness_args(A, x, basis_idx, basis_first=False):
    xs = [_to_elem(A, x)]
    es = [A.basis_vec(int(j)) for j in basis_idx]
    return (es + xs) if basis_first else (xs + es)


def _to_elem(A, row) -> list:
    return [A.field.from_int(int(v)) for v in row]


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
