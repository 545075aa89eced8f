import json
import random
from fractions import Fraction

import pytest

from altalg import fields
from altalg.fields import (FieldError, Poly2, PrimeField, RatFun, RatFunField,
                           RationalField, TermBudgetError)
from altalg.linalg import Matrix, Subspace, kernel, rref, solve, subspace_op
from conftest import sparse_element
from ratfun_reference import reference_rref_ratfun2


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


def test_rref_prime_returns_residues_in_every_row(rng):
    # negative entries and entries >= p; the third row is never a pivot row
    red, rank, pivots = rref(Matrix(PrimeField(3), [[-2, 4], [1, -1], [6, 3]]))
    assert (red.rows, rank, pivots) == ([[1, 0], [0, 1], [0, 0]], 2, [0, 1])
    F = PrimeField(7)
    for _ in range(12):
        rows = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(5)]
        red, _, _ = rref(Matrix(F, rows + [[7 * x for x in rows[0]]], 4))
        assert all(0 <= x < 7 for row in red.rows for x in row)


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


def ratfun_entry(F, rng):
    """Zero (its denominator often not 1), or a fraction of small polynomials."""
    p = F.p

    def poly(nterms):
        return Poly2(p, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, p)
                         for _ in range(nterms)})
    den = poly(rng.choice([1, 1, 2]))
    return RatFun(poly(rng.choice([0, 0, 1, 1, 2])), den)


def ratfun_matrices(F, rng):
    """Square, wide and tall matrices; rank-deficient ones hold a repeated
    row, a combination of two rows, a zero row or a zero column."""
    out = []
    for nr, nc in [(3, 4), (4, 4), (4, 3), (3, 5)]:
        for _ in range(2):
            out.append([[ratfun_entry(F, rng) for _ in range(nc)] for _ in range(nr)])
        rows = [[ratfun_entry(F, rng) for _ in range(nc)] for _ in range(nr - 1)]
        k = F.poly({(1, 0): 1})
        rows.append([F.add(F.mul(k, x), y) for x, y in zip(rows[0], rows[1])])
        out.append(rows)
        out.append([list(rows[0])] + rows[:-1])
        zero_row = [RatFun(Poly2(F.p, {}), Poly2(F.p, {(0, 1): 1})) for _ in range(nc)]
        out.append([zero_row] + rows[1:])
        out.append([[RatFun(Poly2(F.p, {}), Poly2(F.p, {(1, 1): 1}))] + r[1:]
                    for r in rows])
    return out


def encoded(F, rows):
    return json.dumps([[F.encode(x) for x in r] for r in rows])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("pairs", [fields._SORTED_KEY_PAIRS, 4])
def test_rref_ratfun2_is_term_identical_to_reference(p, pairs, rng, monkeypatch):
    # pairs=4 sends every multi-term product through the sorted-key path
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", pairs)
    F = RatFunField(p)
    deficient = 0
    for rows in ratfun_matrices(F, rng):
        nc = len(rows[0])
        red, rank, pivots = rref(Matrix(F, rows, nc))
        want, rank_r, piv_r = reference_rref_ratfun2(F, rows, nc)
        assert (rank, pivots) == (rank_r, piv_r)
        assert encoded(F, red.rows) == encoded(F, want)
        deficient += rank < min(len(rows), nc)
    assert deficient >= 8


def test_rref_ratfun2_checks_every_product_against_the_budget(monkeypatch):
    # the hoisted product piv.num * f.den has 12 terms, over a budget of 10
    monkeypatch.setattr(fields, "TERM_BUDGET", 10)
    F = RatFunField(2)
    monkeypatch.setattr(RatFunField, "inv", lambda self, a: pytest.fail("not reached"))
    piv = RatFun(Poly2(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}), Poly2.const(2, 1))
    f = RatFun(Poly2.const(2, 1), Poly2(2, {(0, j): 1 for j in range(4)}))
    with pytest.raises(TermBudgetError, match="elimination product"):
        rref(Matrix(F, [[piv, F.one], [f, F.one]], 2))


def test_rref_ratfun2_stops_when_entries_outgrow_the_budget(rng, monkeypatch):
    monkeypatch.setattr(RatFunField, "inv", lambda self, a: pytest.fail("not reached"))
    monkeypatch.setattr(fields, "TERM_BUDGET", 40)
    F = RatFunField(3)
    rows = [[ratfun_entry(F, rng) for _ in range(6)] for _ in range(6)]
    with pytest.raises(TermBudgetError):
        rref(Matrix(F, rows, 6))


def test_rref_ratfun2_guards_every_stored_entry(rng, monkeypatch):
    # both maps hold their fractions, so no id is reused while they run
    built, guarded = {}, {}
    real_of, real_guard = RatFun.of.__func__, RatFunField._guard

    def of(cls, p, num, den):
        a = real_of(cls, p, num, den)
        built[id(a)] = a
        return a

    def guard(self, a):
        guarded[id(a)] = a
        return real_guard(self, a)
    monkeypatch.setattr(RatFun, "of", classmethod(of))
    monkeypatch.setattr(RatFunField, "_guard", guard)
    F = RatFunField(2)
    for rows in ratfun_matrices(F, rng)[:8]:
        inputs = {id(x) for r in rows for x in r}
        red, _, _ = rref(Matrix(F, rows, len(rows[0])))
        assert all(id(a) in guarded or id(a) in inputs for r in red.rows for a in r)
    assert built and built.keys() <= guarded.keys()


def test_rref_ratfun2_rejects_mixed_characteristic():
    F = RatFunField(2)
    other = RatFunField(3).s()
    with pytest.raises(FieldError):
        rref(Matrix(F, [[F.s(), F.t()], [F.one, other]], 2))
