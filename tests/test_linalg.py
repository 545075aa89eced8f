import random
from fractions import Fraction

import pytest

from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.linalg import Matrix, Subspace, kernel, rref, solve, subspace_op
from conftest import sparse_element


def frac_matrix(rows):
    F = RationalField()
    return Matrix(F, [[Fraction(x) for x in r] for r in rows])


def random_matrix(field, rng, nr, nc):
    return Matrix(field, [[sparse_element(field, rng) for _ in range(nc)]
                          for _ in range(nr)], nc)


def test_rref_identity_fixed():
    F = RationalField()
    m = Matrix.identity(F, 3)
    red, rank, pivots = rref(m)
    assert red.eq(m) and rank == 3 and pivots == [0, 1, 2]


def test_rref_zero_matrix():
    F = RationalField()
    m = Matrix.zeros(F, 2, 2)
    red, rank, pivots = rref(m)
    assert red.is_zero() and rank == 0 and pivots == []


def test_rref_rank_one_hand_elimination():
    # [[1,2],[2,4]]: subtracting twice row one from row two leaves [[1,2],[0,0]]
    red, rank, _ = rref(frac_matrix([[1, 2], [2, 4]]))
    assert rank == 1
    assert red.rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_rref_deterministic(any_field, rng):
    for _ in range(4):
        m = random_matrix(any_field, rng, 3, 4)
        a, ra, pa = rref(m)
        b, rb, pb = rref(m.copy())
        assert ra == rb and pa == pb and a.eq(b)


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(RationalField(), 3)).dim == 0


def test_kernel_of_zero_is_full():
    assert kernel(Matrix.zeros(RationalField(), 2, 2)).dim == 2


def test_kernel_substitutes_back():
    m = frac_matrix([[1, 2], [2, 4]])
    ker = kernel(m)
    assert ker.dim == 1
    assert ker.contains_vector([Fraction(-2), Fraction(1)])
    for row in ker.rows:
        assert all(v == 0 for v in m.mulvec(list(row)))


def test_solve_identity():
    F = RationalField()
    b = [Fraction(3), Fraction(-1), Fraction(7)]
    assert solve(Matrix.identity(F, 3), b) == b


def test_solve_inconsistent():
    assert solve(frac_matrix([[1, 1], [1, 1]]), [Fraction(1), Fraction(2)]) is None


def test_solve_free_variables_zero():
    m = frac_matrix([[1, 2], [2, 4]])
    x = solve(m, [Fraction(1), Fraction(2)])
    assert x == [Fraction(1), Fraction(0)]
    assert m.mulvec(x) == [Fraction(1), Fraction(2)]


def test_rank_nullity(any_field, rng):
    for nr, nc in ((3, 5), (5, 3), (4, 4), (1, 6)):
        m = random_matrix(any_field, rng, nr, nc)
        _, rank, _ = rref(m)
        assert rank + kernel(m).dim == nc


def test_solve_exactness(any_field, rng):
    F = any_field
    for _ in range(12):
        m = random_matrix(F, rng, 4, 4)
        x0 = [sparse_element(F, rng) for _ in range(4)]
        b = m.mulvec(x0)
        x = solve(m, b)
        assert x is not None
        got = m.mulvec(x)
        assert all(F.eq(u, v) for u, v in zip(got, b))


def reference_rref(F, rows, ncols):
    """Textbook Gauss-Jordan over any field: each pivot row is divided by its
    pivot before it clears its column."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not F.is_zero(f):
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), pivots


def test_rref_engines_agree_on_ratfun(rng):
    # the deferred-division path must reproduce the textbook RREF entrywise
    F = RatFunField(2)
    for _ in range(8):
        m = random_matrix(F, rng, 3, 4)
        deferred, rank_d, piv_d = rref(m)
        rows_g, rank_g, piv_g = reference_rref(F, m.rows, 4)
        assert rank_d == rank_g and piv_d == piv_g
        for ra, rb in zip(deferred.rows, rows_g):
            assert all(F.eq(a, b) for a, b in zip(ra, rb))


def test_rref_prime_path_matches_generic(rng):
    F = PrimeField(5)
    for _ in range(12):
        m = random_matrix(F, rng, 4, 5)
        fast, rank_f, piv_f = rref(m)
        rows_g, rank_g, piv_g = reference_rref(F, m.rows, 5)
        assert rank_f == rank_g and piv_f == piv_g
        assert fast.rows == [[v % 5 for v in r] for r in rows_g]


def test_rref_rationals_matches_fraction_elimination(rng):
    # integer elimination must give the Fraction Gauss-Jordan RREF entrywise
    from altalg.linalg import _rref_rationals

    F = RationalField()
    big = 10 ** 30 + 7

    def entry():
        return Fraction(rng.choice([0, 0, 0, 1, -1, 3, -big, big]),
                        rng.choice([1, 1, 2, 7, -5, big]))

    cases = [[], [[Fraction(0)] * 4, [Fraction(0)] * 4],
             [[Fraction(-big, 3), Fraction(big, 2), Fraction(0)]] * 3]
    for nr, nc in [(3, 4), (5, 5), (6, 3), (4, 7)]:
        m = [[entry() for _ in range(nc)] for _ in range(nr)]
        cases.append(m + [list(m[0]), [Fraction(0)] * nc])
    for rows in cases:
        nc = len(rows[0]) if rows else 5
        got, rank_i, piv_i = _rref_rationals(rows, nc)
        want, rank_g, piv_g = reference_rref(F, rows, nc)
        assert rank_i == rank_g and piv_i == piv_g
        assert got == want
        assert all(type(a) is Fraction for row in got for a in row)


def test_subspace_sum_basis_vectors():
    F = PrimeField(3)
    e1 = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(F, 3, [[0, 1, 0]])
    assert subspace_op("sum", e1, e2).dim == 2


def test_subspace_intersection():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_vectors(F, 3, [[0, 1, 0], [0, 0, 1]])
    w = subspace_op("intersect", u, v)
    assert w.dim == 1 and w.contains_vector([0, 1, 0])


def test_subspace_contains():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    assert not subspace_op("contains", u, [0, 1, 0])
    assert subspace_op("contains", u, [2, 0, 0])


def test_subspace_ambient_mismatch():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    v = Subspace.from_vectors(F, 2, [[1, 0]])
    with pytest.raises(ValueError):
        u.add(v)


def test_subspace_equal_op():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 1, 0], [0, 1, 1]])
    v = Subspace.from_vectors(F, 3, [[1, 2, 1], [0, 2, 2]])
    w = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    assert subspace_op("equal", u, v)
    assert not subspace_op("equal", u, w)
    with pytest.raises(ValueError):
        subspace_op("span", u, v)


def test_dimension_formula(any_field, rng):
    F = any_field
    for _ in range(6):
        u = Subspace.from_vectors(F, 4, [[sparse_element(F, rng) for _ in range(4)]
                                         for _ in range(2)])
        v = Subspace.from_vectors(F, 4, [[sparse_element(F, rng) for _ in range(4)]
                                         for _ in range(2)])
        assert u.dim + v.dim == u.add(v).dim + u.intersect(v).dim


def test_subspace_equality_is_representation_equality(rng):
    F = RationalField()
    vecs = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    u = Subspace.from_vectors(F, 3, vecs)
    shuffled = Subspace.from_vectors(F, 3, [
        [Fraction(2), Fraction(5), Fraction(1)], vecs[1], vecs[0]])
    assert u == shuffled


def test_empty_matrix_kernel_is_full():
    F = PrimeField(3)
    assert kernel(Matrix(F, [], 4)).dim == 4


def test_matmul_and_mulvec_dim_checks():
    F = PrimeField(3)
    with pytest.raises(ValueError):
        Matrix.identity(F, 2).mulvec([1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.identity(F, 2).matmul(Matrix.identity(F, 3))
