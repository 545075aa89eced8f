"""Dual-route validation of the vectorized prime-field scan engine against
plain Python evaluation."""

import itertools
import json
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from conftest import LEFT_ALTERNATIVE, RIGHT_ALTERNATIVE

from altalg import scan
from altalg.algebra import (_LAWS, Algebra, algebra_from_json, check_identity,
                            evaluate_identity, search)
from altalg.fields import PrimeField, is_prime
from altalg.linalg import Matrix, Subspace, rref, solve
from altalg.operators import (OperatorSpace, derivation_space,
                              invertible_combination, invertible_in_space)
from altalg.quadratic import zorn


def random_sparse_algebra(p, dim, rng):
    F = PrimeField(p)
    table = {}
    for _ in range(rng.randint(2, 6)):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        table.setdefault((i, j), [])
        if all(k != kk for kk, _ in table[(i, j)]):
            table[(i, j)].append((k, rng.randint(1, p - 1)))
    return Algebra(F, dim, table)


def brute_identity_holds(A, name, arity_nonbasis):
    # all argument tuples drawn from the whole algebra: the ground truth
    elements = list(A.elements())
    for args in itertools.product(elements, repeat=arity_nonbasis):
        if not A.is_zero_vec(evaluate_identity(A, name, args)):
            return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_moufang_scan_matches_brute_force(p, swept):
    rng = random.Random(p)
    for trial in range(6):
        A = random_sparse_algebra(p, 3, rng)
        brute = brute_identity_holds(A, "middle-moufang", 3)
        witness = swept(A, "middle-moufang")
        assert (witness is None) == brute, f"trial {trial}: {A.table}"
        if witness is not None:
            assert not A.is_zero_vec(
                evaluate_identity(A, "middle-moufang", witness))


@pytest.mark.parametrize("p", [2, 3])
def test_jordan_scan_matches_brute_force(p, swept):
    rng = random.Random(10 + p)
    for trial in range(6):
        A = random_sparse_algebra(p, 3, rng)
        brute = brute_identity_holds(A, "jordan", 2)
        witness = swept(A, "jordan")
        assert (witness is None) == brute, f"trial {trial}: {A.table}"
        if witness is not None:
            assert not A.is_zero_vec(evaluate_identity(A, "jordan", witness))


def test_alternativity_scans_match_brute_force(swept):
    rng = random.Random(99)
    for trial in range(6):
        A = random_sparse_algebra(2, 3, rng)
        for name, law in (("left-alternative", LEFT_ALTERNATIVE),
                          ("right-alternative", RIGHT_ALTERNATIVE)):
            brute = brute_identity_holds(A, name, 2)
            witness = swept(A, name, law)
            assert (witness is None) == brute
            if witness is not None:
                assert not A.is_zero_vec(evaluate_identity(A, name, witness))


# ---- the four-tensordot kernels the coefficient-tensor sweep replaced -------

def _witness_args(A, x, basis_idx):
    return [[int(v) for v in x]] + [A.basis_vec(int(j)) for j in basis_idx]


def _reference_strategy(p, d):
    bound = (d ** 4) * (p - 1) ** 5
    if bound < 2 ** 24:
        return np.float32, False
    if bound < 2 ** 53:
        return np.float64, False
    return np.float64, True


def _reference_first_bad(lhs, rhs, p):
    it = np.int32 if lhs.dtype == np.float32 else np.int64
    diff = (lhs - rhs).astype(it) % p
    if not diff.any():
        return None
    bad = np.argwhere(diff.any(axis=-1))
    return tuple(int(v) for v in bad[0])


def reference_middle_moufang(A):
    C = scan.structure_tensor(A)
    p, d = A.field.p, A.dim
    dt, staged = _reference_strategy(p, d)

    def red(a):
        return a % p if staged else a

    Cf = C.astype(dt)
    C2 = Cf.reshape(d, d * d)
    M2 = np.tensordot(C, C, axes=([2], [1])) % p
    M2f = np.ascontiguousarray(M2.transpose(2, 0, 1, 3)).reshape(d, d ** 3).astype(dt)
    for start, X in scan.vector_blocks(p, d):
        n = X.shape[0]
        Xf = X.astype(dt)
        P = red(np.tensordot(Xf, Cf, axes=([1], [0])))
        G = red(np.tensordot(Xf, Cf, axes=([1], [1])))
        T = red(np.matmul(P, C2)).reshape(n, d, d, d)
        T2 = np.ascontiguousarray(T.transpose(0, 2, 1, 3)).reshape(n, d, d * d)
        lhs = np.matmul(G, T2).reshape(n, d, d, d).transpose(0, 2, 1, 3)
        S = red(np.matmul(Xf, M2f)).reshape(n, d * d, d)
        rhs = np.matmul(S, G).reshape(n, d, d, d)
        hit = _reference_first_bad(lhs, rhs, p)
        if hit is not None:
            ni, j, k = hit
            return _witness_args(A, X[ni], (j, k))
    return None


def reference_jordan(A):
    C = scan.structure_tensor(A)
    p, d = A.field.p, A.dim
    dt, staged = _reference_strategy(p, d)

    def red(a):
        return a % p if staged else a

    Cf = C.astype(dt)
    C2 = Cf.reshape(d, d * d)
    for start, X in scan.vector_blocks(p, d):
        n = X.shape[0]
        Xf = X.astype(dt)
        H = np.matmul(Xf, C2).reshape(n, d, d)
        XX = red((Xf[:, :, None] * H).sum(axis=1))
        BJ = red(np.tensordot(XX, Cf, axes=([1], [0])))
        G = red(np.tensordot(Xf, Cf, axes=([1], [1])))
        lhs = np.matmul(BJ, G)
        rhs = np.matmul(G, BJ)
        hit = _reference_first_bad(lhs, rhs, p)
        if hit is not None:
            ni, j = hit
            return _witness_args(A, X[ni], (j,))
    return None


def test_sweep_matches_reference_kernels(monkeypatch, swept):
    # GEMM chunks of 1 to 64 rows leave a ragged last chunk for most p^d
    rng = random.Random(2024)
    outcomes = set()
    for trial in range(240):
        p = (2, 3, 5, 7)[trial % 4]
        A = random_sparse_algebra(p, 2 + trial % 3, rng)
        for name, reference in (("middle-moufang", reference_middle_moufang),
                                ("jordan", reference_jordan)):
            want = reference(A)
            outcomes.add(want is None)
            for nbytes in (1 << 8, 1 << 11, scan.SWEEP_BYTES):
                with monkeypatch.context() as m:
                    m.setattr(scan, "SWEEP_BYTES", nbytes)
                    assert swept(A, name) == want, (trial, name, nbytes)
    assert outcomes == {True, False}


# ---- the column-basis sweep against the full coefficient matrix ----------

def _null_filiform(p, d):
    """e_i e_j = e_(i+j+1) (e_i = x^(i+1) in x F[x] / x^(d+1)): associative
    and commutative, so both scanned laws hold with a zero matrix."""
    table = {(i, j): [(i + j + 1, 1)]
             for i in range(d) for j in range(d) if i + j + 1 < d}
    return Algebra(PrimeField(p), d, table)


def _jordan_gf2():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "jordan_gf2.json")
    with open(path) as f:
        return algebra_from_json(json.load(f))


def _full_matrix_failures(X, monomials, T, p):
    """Mask of the rows of X at which a law with coefficient matrix T fails
    for some tuple of basis vectors, from every column of T, in exact ints."""
    mono = np.prod(X.astype(np.int64)[:, monomials], axis=2)
    return (mono @ T.astype(np.int64) % p != 0).any(axis=1)


def test_column_basis_sweep_matches_full_matrix(monkeypatch):
    # blocks of at most 97 rows (64, 81, 25 or 49), and GEMM chunks of a few
    # rows to a whole block
    monkeypatch.setattr(scan, "BLOCK", 97)
    rng = random.Random(1909)
    algebras = [random_sparse_algebra((2, 3, 5, 7)[t % 4], 2 + t // 4 % 4, rng)
                for t in range(32)]
    algebras += [_null_filiform(p, d) for p, d in ((2, 5), (3, 4), (5, 3), (7, 2))]
    algebras.append(_jordan_gf2())
    seen = set()
    for A in algebras:
        p, d = A.field.p, A.dim
        for name in ("middle-moufang", "jordan"):
            law = _LAWS[name]
            monomials, T = scan.coefficients(A, law)
            B = scan.column_basis(T, p).astype(
                scan.gemm_dtype(p, len(monomials), law.degree))
            blocks = list(scan.vector_blocks(p, d))
            fails = [_full_matrix_failures(X, monomials, T, p) for _, X in blocks]
            # each vector is 0 against the basis iff it is 0 against T
            for (_, X), want in zip(blocks, fails):
                got = scan._nonzero_mod(scan._gemm(X, monomials, B), p)
                assert (got.any(axis=1) == want).all(), (A.table, name)
            for nbytes in (1 << 8, 1 << 11, scan.SWEEP_BYTES):
                with monkeypatch.context() as m:
                    m.setattr(scan, "SWEEP_BYTES", nbytes)
                    rows = scan.sweep(A, law)
                    for (_, X), want in zip(blocks, fails):
                        i = rows(X)
                        assert i == scan.first_true(want), (A.table, name, nbytes)
                        if i >= 0:
                            assert rows(X[i + 1:]) == scan.first_true(want[i + 1:])
            seen.add((any(f.any() for f in fails), B.shape[1] > 0))
    # a failing law has a nonzero matrix; a passing one may too (Jordan, GF(2))
    assert seen == {(True, True), (False, False), (False, True)}


def _independent_columns(F, m, r, rng):
    while True:
        cols = [[rng.randrange(F.p) for _ in range(m)] for _ in range(r)]
        if Matrix(F, cols, m).rank() == r:
            return cols


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 257, 2 ** 31 - 1])
def test_column_basis_spans_planted_columns(p):
    # p = 2^31 - 1 is past batched_rref_mod_p's float64 limit, and its T is
    # an object array, as coefficients returns it; no sweep runs
    F = PrimeField(p)
    rng = random.Random(p)
    dtype = object if p > 2 ** 20 else np.int64
    for m, r in ((6, 3), (4, 4), (5, 1), (3, 0)):
        cols = _independent_columns(F, m, r, rng)
        planted = [[0] * m] + cols[:1] + [[2 * v % p for v in c] for c in cols[1:2]]
        if r > 1:
            planted.append([(a + (p - 1) * b) % p for a, b in zip(cols[0], cols[-1])])
        T = cols + planted
        rng.shuffle(T)
        B = scan.column_basis(np.array(T, dtype=dtype).T, p)
        assert B.shape == (m, r)
        basis = [[int(v) for v in col] for col in B.T]
        assert all(0 <= v < p for col in basis for v in col)
        assert Matrix(F, basis, m).rank() == r
        assert Matrix(F, basis + T, m).rank() == r
        if p > 2 ** 20:
            assert B.dtype == object and all(type(v) is int for v in B.ravel())
    with pytest.raises(ValueError):
        scan.batched_rref_mod_p(np.zeros((1, 2, 2)), 2 ** 31 - 1)


def reference_column_basis(T, p):
    """scan.column_basis as it was before it went through linalg: the
    batched elimination while its float64 arithmetic is exact for p, and
    linalg.rref over GF(p) above."""
    if scan._exact(p, 1):
        R, rank, _ = scan.batched_rref_mod_p(T.T[None], p)
        return R[0, :rank[0]].astype(np.int64).T
    R, rank, _ = rref(Matrix(PrimeField(p), T.T.tolist(), len(T)))
    return np.array(R.rows[:rank], dtype=object).reshape(rank, len(T)).T


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 2 ** 61 - 1])
def test_column_basis_matches_the_batched_basis(p):
    # random products of a thin factor pair make rank-deficient T; 2^61 - 1
    # is past float64, so T is an object array, as coefficients returns it
    rng = np.random.default_rng(p)
    dtype = object if p > 2 ** 31 else np.int64
    ranks = set()
    for _ in range(24):
        m, c = (int(v) for v in rng.integers(1, 9, size=2))
        k = int(rng.integers(0, min(m, c) + 1))
        L = rng.integers(0, min(p, 2 ** 31), size=(m, k)).astype(object)
        R = rng.integers(0, min(p, 2 ** 31), size=(k, c)).astype(object)
        T = np.array((L @ R) % p if k else np.zeros((m, c), dtype=int), dtype=dtype)
        if rng.random() < 0.2:
            T = T[:, :0]
        got, want = scan.column_basis(T, p), reference_column_basis(T, p)
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert got.dtype == object and all(type(v) is int for v in got.ravel())
        ranks.add(got.shape[1])
    assert 0 in ranks and max(ranks) > 1


def _count_walk(monkeypatch):
    """(drawn, gemmed): the lengths of the blocks vector_blocks yields and
    of the chunks of rows that reach scan._gemm, appended as they go."""
    drawn, gemmed = [], []
    blocks, gemm = scan.vector_blocks, scan._gemm

    def counted(p, d):
        for start, X in blocks(p, d):
            drawn.append(len(X))
            yield start, X

    def counted_gemm(X, monomials, T):
        gemmed.append(len(X))
        return gemm(X, monomials, T)

    monkeypatch.setattr(scan, "vector_blocks", counted)
    monkeypatch.setattr(scan, "_gemm", counted_gemm)
    return drawn, gemmed


def test_zorn_sweep_evaluates_every_vector(monkeypatch):
    # the coefficient matrix is 0 mod 5 here; the sweep must still run, and
    # every vector must reach the GEMM
    drawn, gemmed = _count_walk(monkeypatch)
    A = zorn(PrimeField(5)).algebra
    rows = scan.sweep(A, _LAWS["middle-moufang"])
    assert search(A.field, 8, None, enum_cap=5 ** 8, rows=rows) == (None, "exhaustive")
    assert sum(drawn) == 5 ** 8
    assert sum(gemmed) == 5 ** 8
    drawn.clear()
    gemmed.clear()
    assert check_identity(A, "middle-moufang").provenance == "exhaustive"
    assert sum(drawn) == 5 ** 8
    assert sum(gemmed) == 5 ** 8


def test_jordan_holds_over_gf2_with_nonzero_coefficients(monkeypatch):
    # x_a^2 x_b and x_a x_b^2 agree as functions on GF(2)^d, so the law
    # holds though its matrix has rank 1: the walk must decide it
    A = _jordan_gf2()
    _, T = scan.coefficients(A, _LAWS["jordan"])
    assert scan.column_basis(T, 2).shape[1] == 1
    drawn, gemmed = _count_walk(monkeypatch)
    r = check_identity(A, "jordan")
    assert (r.holds, r.provenance) == (True, "exhaustive")
    assert sum(drawn) == sum(gemmed) == 2 ** 3


# ---- exactness of the sweep GEMM at its dtype switch points ---------------

def _prime_near(n, step):
    while not is_prime(n):
        n += step
    return n


def _root(limit, m, e):
    """Largest r with m * r^e <= limit."""
    r = int(round((limit / m) ** (1 / e)))
    while m * r ** e > limit:
        r -= 1
    while m * (r + 1) ** e <= limit:
        r += 1
    return r


@pytest.mark.parametrize("name", ["middle-moufang", "jordan"])
def test_gemm_dtype_switch_points_are_exact(name):
    law = _LAWS[name]
    d, k = 2, law.degree
    monomials = np.array(list(itertools.combinations_with_replacement(range(d), k)))
    m = len(monomials)
    cols = d ** (law.linear + 1)
    for limit, dt in ((2 ** 24, np.float32), (2 ** 53, np.float64)):
        top = _root(limit, m, k + 1)         # largest exact p - 1
        assert scan.gemm_dtype(top + 1, m, k) is dt
        assert scan.gemm_dtype(top + 2, m, k) is not dt
        # worst case: every coordinate and every coefficient is p - 1
        X = np.full((3, d), top, dtype=np.float64)
        T = np.full((m, cols), top, dtype=np.int64).astype(dt)
        R = scan._gemm(X, monomials, T)
        assert R.dtype == dt
        assert {int(v) for v in R.ravel()} == {m * top ** (k + 1)}


@pytest.mark.parametrize("law,name", [(_LAWS["middle-moufang"], "middle-moufang"),
                                      (_LAWS["jordan"], "jordan")])
def test_sweep_gemm_matches_python_evaluation_across_dtypes(law, name):
    # primes on both sides of each switch point, and one whose structure
    # constant contractions overflow int64 as well
    d, k = 2, law.degree
    m = math.comb(d + k - 1, k)
    primes = [2 ** 31 - 1]
    for limit in (2 ** 24, 2 ** 53):
        top = _root(limit, m, k + 1)
        primes += [_prime_near(top + 1, -1), _prime_near(top + 2, 1)]
    rng = random.Random(77)
    seen = set()
    for p in primes:
        F = PrimeField(p)
        table = {(i, j): [(kk, rng.randrange(1, p)) for kk in range(d)]
                 for i in range(d) for j in range(d)}
        A = Algebra(F, d, table)
        monomials, T = scan.coefficients(A, law)
        dt = scan.gemm_dtype(p, len(monomials), k)
        seen.add(dt)
        rows = [[p - 1] * d] + [[rng.randrange(p) for _ in range(d)]
                                for _ in range(12)]
        X = np.array(rows, dtype=np.float64)
        R = scan._gemm(X, monomials, T.astype(dt))
        exact = scan._gemm(X, monomials, T.astype(object))
        assert [int(v) for v in R.ravel()] == list(exact.ravel())
        assert (scan._nonzero_mod(R, p) == (exact % p != 0)).all()
        linear = (d,) * law.linear
        for n, x in enumerate(rows):
            got = exact[n].reshape(linear + (d,))
            for idx in itertools.product(range(d), repeat=len(linear)):
                args = [x] + [A.basis_vec(j) for j in idx]
                want = evaluate_identity(A, name, args)
                assert [int(v) % p for v in got[idx]] == want
    assert seen == {np.float32, np.float64, object}


def test_nonzero_mod_matches_remainder():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5, 7, 251, 65521):
        for dt, top in ((np.float32, 2 ** 24), (np.float64, 2 ** 53)):
            vals = np.concatenate([rng.integers(0, top, 500), np.arange(50),
                                   top - np.arange(50), p * rng.integers(0, top // p, 50)])
            R = vals.astype(dt)
            assert (scan._nonzero_mod(R, p) == (vals % p != 0)).all()
        # an object GEMM's Python integers, past every fixed-width dtype
        big = [2 ** 70 + k for k in range(-60, 60)] + [p * 3 ** 50, p ** 20 + 1]
        R = np.array(big, dtype=object)
        assert scan._nonzero_mod(R, p).tolist() == [v % p != 0 for v in big]


def test_vector_blocks_match_itertools_product(monkeypatch):
    # blocks of p^k rows, k <= d the largest with p^k <= BLOCK, in
    # itertools.product order at their start offsets: every block up to
    # 20 000 vectors, the first three blocks above (13^8 is 8 * 10^8)
    default = scan.BLOCK
    for p in (2, 3, 5, 7, 13):
        for d in range(9):
            full = p ** d <= 20000
            if full:
                want = np.array(list(itertools.product(range(p), repeat=d)),
                                dtype=np.float64).reshape(p ** d, d)
            for block in {1, 7, p - 1, p, p + 1, p * p - 1, p * p, p * p + 1,
                          default}:
                monkeypatch.setattr(scan, "BLOCK", block)
                size = max(p ** k for k in range(d + 1) if p ** k <= block)
                blocks = scan.vector_blocks(p, d)
                got = list(blocks if full else itertools.islice(blocks, 3))
                case = (p, d, block)
                assert [start for start, _ in got] == list(
                    range(0, size * len(got), size)), case
                assert {(X.shape, X.dtype) for _, X in got} == {
                    ((size, d), np.dtype(np.float64))}, case
                X = np.concatenate([X for _, X in got])
                if full:
                    assert np.array_equal(X, want), case
                else:
                    assert X.tolist() == [list(v) for v in itertools.islice(
                        itertools.product(range(p), repeat=d), len(X))], case


def test_norms_and_traces_decline_inexact_float64_sums():
    # n(x) sums d^2 products of three residues, t(x) d products of two; past
    # 2^53 float64 would round them, so both raise, as full_rank_rows
    # declines inexact products.  For d = 8, 52009 and 33554393 are the
    # largest primes within each bound, 52021 and 33554467 the next ones
    rng = np.random.default_rng(8)
    cases = ((52009, True, True), (52021, False, True), (33554393, False, True),
             (33554467, False, False), (2 ** 31 - 1, False, False))
    for p, norms_exact, traces_exact in cases:
        q = zorn(PrimeField(p))
        rows = [[p - 1] * 8] + rng.integers(0, p, (20, 8)).tolist()
        X = np.array(rows, dtype=np.float64)
        for f, exact, ref in ((scan.norms, norms_exact, q.norm),
                              (scan.traces, traces_exact, q.trace)):
            if exact:
                assert f(q, X).tolist() == [ref(x) for x in rows], (p, f)
            else:
                with pytest.raises(ValueError, match="not exact in float64"):
                    f(q, X)


def test_mulrows_matches_algebra_mul():
    # products in float32 (Zorn), float64 (p = 65521) and Python ints
    rnd = random.Random(5)
    algebras = [zorn(PrimeField(p)).algebra for p in (2, 3, 5)]
    for p in (65521, 2 ** 31 - 1):
        table = {(i, j): [(k, rnd.randrange(p)) for k in range(2)]
                 for i in range(2) for j in range(2)}
        algebras.append(Algebra(PrimeField(p), 2, table))
    assert {scan.gemm_dtype(A.field.p, A.dim ** 2, 2) for A in algebras} == {
        np.float32, np.float64, object}
    for A in algebras:
        p, d = A.field.p, A.dim
        rng = random.Random(p)
        X = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(40)],
                     dtype=np.float64)
        Y = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(40)],
                     dtype=np.float64)
        P = scan.mulrows(A, X, Y)
        for n in range(40):
            want = A.mul([int(v) for v in X[n]], [int(v) for v in Y[n]])
            assert [int(v) for v in P[n]] == want


def test_batched_rank_matches_exact_rank():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        rng = random.Random(p)
        for r, c in ((4, 4), (3, 5), (5, 2), (1, 6)):
            mats = [[[rng.randrange(p) for _ in range(c)] for _ in range(r)]
                    for _ in range(60)]
            # rank-deficient stacks too: a repeated row, then a zero column
            mats += [[m[0]] + m[:-1] for m in mats[:20]]
            mats += [[[0] + row[1:] for row in m] for m in mats[:20]]
            ranks = scan.batched_rank_mod_p(np.array(mats, dtype=np.int64), p)
            for m, rank in zip(mats, ranks):
                _, want, _ = rref(Matrix(F, m, c))
                assert int(rank) == want


def _random_systems(p, r, c, rng, count=40):
    """Random r x c residue matrices, sparse and dense, plus rank-deficient
    ones: a repeated row, and (for c > 1) a last column that is a fixed
    combination of the others, so the augmented system is consistent."""
    mats = [[[rng.randrange(p) if rng.random() < density else 0
              for _ in range(c)] for _ in range(r)]
            for density in (0.3, 1.0) for _ in range(count // 2)]
    mats += [[m[0]] + m[:-1] for m in mats[:10]]
    if c > 1:
        for m in mats[:10]:
            w = [rng.randrange(p) for _ in range(c - 1)]
            mats.append([row[:-1] + [sum(a * b for a, b in zip(row, w)) % p]
                         for row in [[0] * c] + m[1:]])
    return mats


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 251, 257])
def test_batched_rref_matches_linalg(p):
    # p = 2..13 run on uint8 (p = 7 and 13 reduce the whole stack between
    # pivot steps); 17, the first prime past uint8, 251 and 257 on float64
    F = PrimeField(p)
    rng = random.Random(p)
    kinds = set()
    for r, c in ((4, 4), (3, 5), (5, 2), (1, 6), (8, 9)):
        mats = _random_systems(p, r, c, rng)
        R, ranks, pivots = scan.batched_rref_mod_p(np.array(mats), p)
        solvable, x = scan.batched_solve_mod_p(np.array(mats), p)
        assert R.shape == (len(mats), r, c) and pivots.shape == (len(mats), r)
        for m, Rm, rank, piv, ok, xm in zip(mats, R, ranks, pivots, solvable, x):
            red, want_rank, want_piv = rref(Matrix(F, m, c))
            assert [[int(v) for v in row] for row in Rm] == red.rows
            assert int(rank) == want_rank
            assert [int(v) for v in piv] == want_piv + [-1] * (r - want_rank)
            want = solve(Matrix(F, [row[:-1] for row in m], c - 1),
                         [row[-1] for row in m])
            assert bool(ok) == (want is not None)
            if want is not None:
                assert [int(v) for v in xm] == want
            kinds.add((want is not None, want_rank < min(r, c - 1)))
    # consistent and inconsistent systems, rank-deficient among both
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_batched_rref_peak_memory_is_a_few_stacks():
    # 32 768 GF(3) 7x7 matrices, as full_rank_rows stacks them for
    # remark22-singular: whole-stack reductions run in place, so no intp
    # copy of the uint8 stack (8x its bytes) is made
    stack = np.random.default_rng(0).integers(0, 3, (32768, 7, 7), dtype=np.uint8)
    tracemalloc.start()
    try:
        scan.batched_rref_mod_p(stack, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * stack.nbytes


def test_batched_rref_leaves_its_input_unchanged():
    # one matrix in the elimination dtype (uint8 for p = 3, float64 for
    # p = 17) transposes to a contiguous (r, c, 1) array
    for p, dt in ((3, np.uint8), (17, np.float64)):
        S = np.array([[[2, 1], [1, 1]]], dtype=dt)
        _, rank, _ = scan.batched_rref_mod_p(S, p)
        assert S.tolist() == [[[2, 1], [1, 1]]] and int(rank[0]) == 2


def test_batched_rref_edge_shapes_and_field_size():
    R, rank, piv = scan.batched_rref_mod_p(np.zeros((0, 3, 4)), 3)
    assert R.shape == (0, 3, 4) and rank.shape == (0,)
    R, rank, piv = scan.batched_rref_mod_p(np.zeros((2, 3, 4)), 5)
    assert not R.any() and not rank.any() and (piv == -1).all()
    with pytest.raises(ValueError):
        scan.batched_rref_mod_p(np.zeros((1, 2, 2)), 2 ** 31 - 1)
    # beyond exact float64 products the block predicates step aside, and
    # the callers test element by element
    assert scan.full_rank_rows([[1, 0, 0, 1]], 2 ** 31 - 1, 2) is None


def _unitization(V):
    """F 1 + V: e_0 is the unit and e_1.. multiply as V's basis does."""
    table = {(0, 0): [(0, 1)]}
    for i in range(1, V.dim + 1):
        table[(0, i)] = [(i, 1)]
        table[(i, 0)] = [(i, 1)]
    for (i, j), terms in V.table.items():
        table[(i + 1, j + 1)] = [(k + 1, c) for k, c in terms]
    return Algebra(V.field, V.dim + 1, table)


def _check_inverses(A):
    """scan.inverses on all of A against Algebra.invert_element; returns
    the elements, as lists."""
    X = np.concatenate([blk for _, blk in scan.vector_blocks(A.field.p, A.dim)])
    ok, inv = scan.inverses(A, X)
    elements = X.astype(int).tolist()
    for x, got_ok, got in zip(elements, ok, inv):
        want = A.invert_element(x)
        assert bool(got_ok) == (want is not None), x
        if want is not None:
            assert [int(v) for v in got] == want
    return elements


@pytest.mark.parametrize("p", [2, 3])
def test_inverses_match_invert_element_on_zorn(p):
    _check_inverses(zorn(PrimeField(p)).algebra)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses_match_invert_element_on_random_unitizations(p):
    rng = random.Random(300 + p)
    deficient = 0
    for trial in range(8 if p < 5 else 3):
        A = _unitization(random_sparse_algebra(p, 2 if p > 3 else 3, rng))
        unit = A.find_unit()
        for x in _check_inverses(A):
            for side in ("left", "right"):
                m = A.mult_operator(side, x)
                deficient += m.rank() < A.dim and solve(m, unit) is not None
    # singular multiplication operators with the unit in their image occur
    assert deficient > 0


def _reference_invertible_values(A, dmap):
    """invertible_values_check's exhaustive walk before it was batched:
    Algebra.invert_element on d(x) for each x in order."""
    def hit(x):
        v = dmap.mulvec(x)
        return not A.is_zero_vec(v) and A.invert_element(v) is None

    return search(A.field, A.dim, hit, enum_cap=A.element_count())


def test_invertible_values_exhaustive_matches_element_walk(monkeypatch):
    from altalg.catalog import build
    from altalg.operators import invertible_values_check

    inst = build("lemma23-Dx")
    Z3 = zorn(PrimeField(3)).algebra
    cases = [(inst.algebra, inst.derivation)]
    cases += [(Z3, M) for M in derivation_space(Z3).basis_maps()[:3]]
    default = scan.BLOCK
    for A, dmap in cases:
        args, provenance = _reference_invertible_values(A, dmap)
        for block in (7, default):
            monkeypatch.setattr(scan, "BLOCK", block)
            v = invertible_values_check(A, dmap, "exhaustive")
            assert v.provenance == provenance == "exhaustive"
            if args is None:
                assert (v.kind, v.witness) == ("pass-exhaustive", None)
            else:
                assert v.kind == "fail"
                assert v.witness == (args[0], dmap.mulvec(args[0]))
                assert all(type(c) is int for c in v.witness[0])
    assert {_reference_invertible_values(A, M)[0] is None
            for A, M in cases} == {True, False}


def reference_find_invertible_combo(basis_flat, p, d):
    """scan.find_invertible_combo before algebra.search took its walk: the
    first coefficient vector whose combination of the (m, d*d) maps has full
    rank, scanning all p^m combinations in lexicographic order, in blocks of
    scan.BLOCK; None if none."""
    m = basis_flat.shape[0]
    B = basis_flat.astype(np.float64)
    for start, V in scan.vector_blocks(p, m):
        W = np.matmul(V, B) % p
        ranks = scan.batched_rank_mod_p(W.reshape(-1, d, d), p)
        hits = np.nonzero(ranks == d)[0]
        if hits.size:
            i = int(hits[0])
            return (V[i].astype(np.int64).tolist(),
                    W[i].reshape(d, d).astype(np.int64).tolist())
    return None


def test_find_invertible_combo_matches_exhaustive_python():
    # derivations of e^2 = f over GF(3): brute-force the 3^dim combinations
    from altalg.catalog import build

    A = build("trivial-nilpotent", field=PrimeField(3)).algebra
    D = derivation_space(A)
    flat = np.array([[int(a) for a in row] for row in D.space.rows],
                    dtype=np.int64)
    hit = reference_find_invertible_combo(flat, 3, 2)
    assert hit is not None
    coeffs, mat = hit
    assert Matrix(A.field, mat, 2).rank() == 2
    # the returned combination is the first full-rank one in product order
    first = None
    for combo in itertools.product(range(3), repeat=D.dim):
        m = [[0] * 2 for _ in range(2)]
        for c, row in zip(combo, D.space.rows):
            vec = [int(a) for a in row]
            for r in range(2):
                for s in range(2):
                    m[r][s] = (m[r][s] + c * vec[r * 2 + s]) % 3
        if Matrix(A.field, m, 2).rank() == 2:
            first = list(combo)
            break
    assert coeffs == first
    v = invertible_combination(D)
    assert (v.witness_coeffs, v.witness_map.rows) == (first, mat)


def test_structure_tensor_rejects_non_prime_fields():
    from altalg.fields import RationalField

    with pytest.raises(ValueError):
        scan.structure_tensor(zorn(RationalField()).algebra)


def _random_map_space(p, d, m, rng, singular):
    """OperatorSpace on the zero algebra of dim d spanned by m random maps;
    with `singular`, every map has a zero first row, so no combination is
    invertible, though the maps rarely share a kernel vector."""
    F = PrimeField(p)
    maps = []
    for _ in range(m):
        M = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if singular:
            M[0] = [0] * d
        maps.append([a for row in M for a in row])
    space = Subspace.from_vectors(F, d * d, maps)
    return OperatorSpace(Algebra(F, d, {}), space)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_invertible_in_space_matches_reference(p, monkeypatch):
    rng = random.Random(100 + p)
    seen = set()
    for trial in range(40):
        singular = trial % 2 == 0
        d = rng.randint(2 if singular else 1, 3)
        S = _random_map_space(p, d, rng.randint(1, 4), rng, singular)
        if S.dim == 0:
            continue
        flat = np.array(S.space.rows, dtype=np.int64).reshape(S.dim, d * d)
        with monkeypatch.context() as m:
            m.setattr(scan, "BLOCK", 5)
            want = reference_find_invertible_combo(flat, p, d)
        v = invertible_in_space(S)
        if v.provenance == "certified":     # a common kernel vector
            assert want is None and v.reason == "common-kernel"
        elif want is None:
            assert (v.kind, v.provenance, v.reason) == (
                "none-certified", "exhaustive", "exhaustive-scan")
        else:
            assert (v.kind, v.provenance) == ("witness", "exhaustive")
            assert (v.witness_coeffs, v.witness_map.rows) == want
            assert all(type(c) is int for c in v.witness_coeffs)
        seen.add(v.reason or v.kind)
    assert seen == {"common-kernel", "exhaustive-scan", "witness"}
