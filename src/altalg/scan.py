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

Ranks, linear solves and two-sided inverses come from one Gauss-Jordan
elimination over GF(p), ``batched_rref_mod_p``, run on a whole stack of
small matrices at once.  Its entries are non-negative
integers: uint8 while p(p-1) <= 255, uint16 while p(p-1) <= 65535, where a
lookup table of residues reduces them, and float64 above, where
v - p*floor(v/p) does, exactly while v + p < 2^53.  A step adds at most
(p-1)^2 to an entry, so the stack is reduced only when the next step could
pass its dtype's bound.  ``inverses`` solves L_x y = 1 and R_x y' = 1 for a
block of elements x, with the rule of ``Algebra.invert_element``.  A block
predicate whose float64 products would not be exact for p is None, and the
caller tests element by element.
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


def vector_blocks(p: int, d: int, block: int | None = None):
    """Yield all p^d coefficient vectors in lexicographic order, in blocks
    of `block` rows (default BLOCK, read at each call).

    Row n holds the base-p digits of n, most significant digit first, which
    matches itertools.product(range(p), repeat=d).
    """
    block = block or BLOCK
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


def first_true(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-d mask, or -1."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else -1


def _exact(p: int, terms: int) -> bool:
    """Sums of `terms` products of two residues mod p are exact in float64,
    and so is every step of the elimination."""
    return terms * (p - 1) ** 2 + p < 2 ** 53


@functools.lru_cache(maxsize=8)
def _tensor(A) -> np.ndarray:
    """structure_tensor(A), built once per algebra (a table is not changed
    after construction) and read-only."""
    C = structure_tensor(A)
    C.flags.writeable = False
    return C


def mulrows(A, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise algebra products of two (n, d) residue arrays, as residues.

    One GEMM of the outer products x_i y_j against the (d*d, d) structure
    constants, in the dtype gemm_dtype picks for d*d terms of degree 2, and
    one reduction at the end."""
    p, d = A.field.p, A.dim
    dt = gemm_dtype(p, d * d, 2)
    P = _tensor(A).reshape(d * d, d).astype(np.int64).astype(dt)
    Xc, Yc = (V.astype(np.int64).astype(dt) for V in (X, Y))
    XY = (Xc[:, :, None] * Yc[:, None, :]).reshape(len(X), d * d)
    R = XY @ P
    return R % p if dt is object else R.astype(np.int64) % p


def norms(q, X: np.ndarray) -> np.ndarray:
    """n(x) mod p at each row x of X, for a quadratic algebra q over GF(p)
    (n(x) sums q_ij x_i x_j over i <= j, as QuadraticAlgebra.norm does);
    the float64 sums are exact while d^2 (p-1)^3 < 2^53."""
    p = q.field.p
    Q = np.triu(np.array(q.qform, dtype=np.int64) % p).astype(np.float64)
    return ((X @ Q) * X).sum(axis=1).astype(np.int64) % p


def traces(q, X: np.ndarray) -> np.ndarray:
    """t(x) mod p at each row x of X, for a quadratic algebra q over GF(p)."""
    t = np.array(q.trace_vec, dtype=np.int64) % q.field.p
    return (X @ t.astype(np.float64)).astype(np.int64) % q.field.p


def residual_rows(q):
    """Block predicate for algebra.search: the index of the first row x of X
    with x^2 - t(x) x + n(x) 1 != 0 in the quadratic algebra q, or -1."""
    A, p = q.algebra, q.field.p
    unit = np.array(q.unit, dtype=np.int64)

    def rows(X: np.ndarray) -> int:
        R = (mulrows(A, X, X) - traces(q, X)[:, None] * X.astype(np.int64)
             + norms(q, X)[:, None] * unit)
        return first_true((R % p != 0).any(axis=1))
    return rows


def _residue_arithmetic(p: int):
    """(dtype, limit, reduce) for exact elimination mod p.

    Entries are non-negative integers at most `limit` in `dtype`, and
    reduce(v) is v mod p.  Up to p = 16 (p(p-1) <= 255) they are uint8 and
    up to p = 256 uint16, and a lookup table of limit + 1 residues reduces
    them; above, they are float64 and v - p*floor(v/p) reduces them, which
    is exact while v + p < 2^53 (the quotient cannot round up to the next
    integer)."""
    for dtype in (np.uint8, np.uint16):
        limit = int(np.iinfo(dtype).max)
        if p * (p - 1) <= limit:
            table = (np.arange(limit + 1) % p).astype(dtype)
            return dtype, limit, lambda v: np.take(table, v)
    if not _exact(p, 1):
        raise ValueError(f"p = {p} is too large for float64 elimination")
    return np.float64, 2 ** 53 - p - 1, lambda v: v - p * np.floor(v / p)


def batched_rref_mod_p(stack: np.ndarray, p: int):
    """Gauss-Jordan elimination over GF(p) of every matrix of an (n, r, c)
    stack of residues: (rref, rank, pivots), what linalg.rref gives for
    each.  rref is the (n, r, c) reduced row-echelon forms, rank the (n,)
    ranks, and pivots[m, k] the pivot column of row k of matrix m, or -1
    from row rank[m] on.

    The matrices are held as (r, c, n), so that every step runs over runs
    of n entries.  A step scales the pivot row by the inverse v^(p-2) of its
    pivot and adds (p - f) times it to every other row, which raises an
    entry's bound by at most (p-1)^2; rows are put in pivot order at the
    end.  The whole stack is reduced only when the next step could pass the
    limit of _residue_arithmetic; a step reduces just the pivot column and
    the pivot rows."""
    dtype, limit, red = _residue_arithmetic(p)
    n, r, c = np.shape(stack)
    A = np.ascontiguousarray(np.transpose(stack, (1, 2, 0)), dtype=dtype)
    rows = np.zeros((r, n), dtype=np.intp)  # rows[k, m]: k-th pivot row
    pivots = np.full((r, n), -1, dtype=np.intp)
    free = np.ones((r, n), dtype=bool)      # not yet a pivot row
    rank = np.zeros(n, dtype=np.intp)
    idx = np.arange(n)
    step = (p - 1) ** 2
    top = p - 1                 # bound on every entry of A
    for col in range(c):
        if top > limit - step:
            A = red(A)
            top = p - 1
        column = red(A[:, col])
        eligible = (column != 0) & free
        has = eligible.any(axis=0)
        if not has.any():
            continue
        piv = eligible.argmax(axis=0)
        pv = np.where(has, column[piv, idx], 1).astype(dtype)
        # the scaled pivot row; left of col it is 0 mod p, as is every row
        # not yet a pivot row, so a step changes nothing there mod p
        prow = A[piv, col:, idx].T
        prow = red(red(prow) * _inverse(pv, p, red))
        # every other row loses f times it; the pivot row itself, pv times
        # prow, gains (1 - pv) times it and becomes prow
        f = red(dtype(p) - column)
        f[piv, idx] = red(dtype(p + 1) - pv)
        f *= has
        A[:, col:] += f[:, None, :] * prow[None]
        top += step
        h = idx[has]
        free[piv[h], h] = False
        rows[rank[h], h] = piv[h]
        pivots[rank[h], h] = col
        rank += has
    # pivot rows first, in pivot order; the rows left over are 0 mod p
    R = np.empty_like(A)
    at = rows * n + idx
    for j in range(c):
        R[:, j] = np.take(A[:, j], at)
    R = red(R)
    R *= (pivots >= 0)[:, None, :]
    return R.transpose(2, 0, 1), rank, pivots.T


def _inverse(v: np.ndarray, p: int, red) -> np.ndarray:
    """v^(p-2) mod p, the inverse of each nonzero residue of v, by repeated
    squaring; every product is of two residues."""
    out = np.ones_like(v)
    e = p - 2
    while e:
        if e & 1:
            out = red(out * v)
        v = red(v * v)
        e >>= 1
    return out


def batched_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of (n, r, c) residue matrices over GF(p)."""
    return batched_rref_mod_p(mats, p)[1]


def batched_solve_mod_p(aug: np.ndarray, p: int):
    """(solvable, x) for an (n, r, c + 1) stack of augmented systems [M | b]
    over GF(p), as linalg.solve solves each: solvable[m] is False when the
    last column is a pivot column, and x[m] is the solution with every free
    variable 0 (x[m] is meaningless where solvable[m] is False)."""
    R, _, pivots = batched_rref_mod_p(aug, p)
    n, _, c = R.shape
    x = np.zeros((n, c), dtype=R.dtype)
    # row k sets the variable of its pivot column; rows without one, and a
    # pivot in the last column, write into column c - 1, which is dropped
    cols = np.where(pivots >= 0, pivots, c - 1)
    np.put_along_axis(x, cols, R[:, :, -1], axis=1)
    return (pivots != c - 1).all(axis=1), x[:, :-1]


def inverses(A, X: np.ndarray):
    """(ok, inv) for each row x of the (b, d) residue block X: whether x has
    a two-sided inverse in the unital prime-field algebra A, and if so the
    inverse, by the rule of Algebra.invert_element: solve L_x y = 1, then
    R_x y' = 1, and x is invertible iff both are solvable and y = y'."""
    p, d = A.field.p, A.dim
    unit = A.find_unit()
    if unit is None:
        raise ValueError("inverses require a unital algebra")
    C = _tensor(A)
    # [x | 1] W is [L_x | 1] then [R_x | 1], where (L_x)[k, j] is
    # sum_i x_i C[i, j, k] and (R_x)[k, j] is sum_i x_i C[j, i, k]
    W = np.zeros((d + 1, 2, d, d + 1))
    W[:d, 0, :, :d] = C.transpose(0, 2, 1)
    W[:d, 1, :, :d] = C.transpose(1, 2, 0)
    W[d, :, :, d] = np.array(unit, dtype=np.int64) % p
    X1 = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    aug = (X1 @ W.reshape(d + 1, -1)).astype(np.int64)
    aug %= p
    solvable, y = batched_solve_mod_p(aug.reshape(-1, d, d + 1), p)
    solvable, y = solvable.reshape(-1, 2), y.reshape(-1, 2, d)
    ok = solvable.all(axis=1) & (y[:, 0] == y[:, 1]).all(axis=1)
    return ok, y[:, 0]


def noninvertible_rows(A, M):
    """Block predicate for algebra.search: the index of the first row x of X
    whose image M x is nonzero and has no two-sided inverse in A, or -1; M
    is a Matrix with A.dim rows, one column per coordinate of x.  None when
    A is not over GF(p) or its products would not be exact in float64."""
    if A.field.kind != "prime" or not _exact(A.field.p, max(A.dim, M.ncols)):
        return None
    p = A.field.p
    Mt = np.array(M.rows, dtype=np.int64).T.astype(np.float64)

    def rows(X: np.ndarray) -> int:
        V = (X @ Mt).astype(np.int64) % p
        ok, _ = inverses(A, V)
        return first_true(V.any(axis=1) & ~ok)
    return rows


def full_rank_rows(maps, p: int, d: int):
    """Block predicate for algebra.search: the index of the first row of X
    whose combination of the m flattened d x d residue maps has full rank,
    or -1.  None when the products would not be exact in float64."""
    B = np.asarray(maps, dtype=np.float64).reshape(-1, d * d)
    if not _exact(p, len(B)):
        return None

    def rows(X: np.ndarray) -> int:
        W = (X @ B).astype(np.int64)
        W %= p
        return first_true(batched_rank_mod_p(W.reshape(-1, d, d), p) == d)
    return rows
