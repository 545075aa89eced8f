import itertools
import json
import random
from fractions import Fraction

import pytest

from altalg import fields
from altalg.fields import (FieldError, Poly2, PrimeField, RatFun, RatFunField,
                           RationalField, TermBudgetError)
from altalg.linalg import Matrix, Subspace, kernel, rref, solve
from conftest import dense_rows, sparse_element
from ratfun_reference import dense_rref_ratfun2, reference_rref_ratfun2


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


def echelon_systems(F, rng):
    """Sparse and dense systems over F, tall, wide and square, each with a
    zero row, a repeated row and a combination of two rows, shuffled in."""
    def entry(density):
        if rng.random() >= density:
            return F.zero
        if F.kind == "prime":
            return rng.randrange(1, F.p)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

    out = []
    for nr, nc in [(1, 6), (4, 11), (7, 7), (12, 5), (30, 9)]:
        for density in (0.15, 0.4, 1.0):
            rows = [[entry(density) for _ in range(nc)] for _ in range(nr)]
            x, y = rng.choice(rows), rng.choice(rows)
            rows += [[F.zero] * nc, list(x),
                     [F.add(F.mul(F.from_int(2), a), b) for a, b in zip(x, y)]]
            rng.shuffle(rows)
            out.append(rows)
    return out


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(7),
                               PrimeField(2 ** 31 - 1), RationalField()],
                         ids=["gf2", "gf3", "gf7", "gf2^31-1", "rationals"])
def test_echelon_matches_reference_rref(F, rng):
    # the incremental sparse echelon form, and rref through it, against
    # textbook Gauss-Jordan: the RREF is unique, whatever the path
    from altalg.linalg import _echelon, _sparse

    p = F.p if F.kind == "prime" else 0
    deficient = 0
    for rows in echelon_systems(F, rng):
        nc = len(rows[0])
        want, rank, pivots = reference_rref(F, rows, nc)
        if p:
            want = [[v % p for v in r] for r in want]
        red, got_pivots = _echelon(p, _sparse(F, rows))
        assert got_pivots == pivots
        assert dense_rows(F, red, nc) == want[:rank]
        got, got_rank, got_pivots = rref(Matrix(F, rows, nc))
        assert (got.rows, got_rank, got_pivots) == (want, rank, pivots)
        deficient += rank < min(len(rows) - 3, nc)
    assert deficient


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
    from altalg.linalg import _echelon, _sparse

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
        red, piv_i = _echelon(0, _sparse(F, rows))
        rank_i = len(piv_i)
        got = dense_rows(F, red, nc) + [[Fraction(0)] * nc] * (len(rows) - rank_i)
        want, rank_g, piv_g = reference_rref(F, rows, nc)
        assert rank_i == rank_g and piv_i == piv_g
        assert got == want
        assert all(type(a) is Fraction for row in got for a in row)


def test_subspace_sum_basis_vectors():
    F = PrimeField(3)
    e1 = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(F, 3, [[0, 1, 0]])
    assert e1.add(e2).dim == 2


def test_subspace_intersection():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_vectors(F, 3, [[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w.dim == 1 and w.contains_vector([0, 1, 0])


def test_subspace_contains():
    F = PrimeField(3)
    u = Subspace.from_vectors(F, 3, [[1, 0, 0]])
    assert not u.contains_vector([0, 1, 0])
    assert u.contains_vector([2, 0, 0])


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
    assert u == v
    assert u != w


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


def reference_reduce_vector(S, v):
    """Subspace.reduce_vector as it was before a Subspace kept its pivots:
    each basis row's pivot is found again as its first nonzero entry."""
    F = S.field
    v = list(v)
    for row in S.rows:
        pc = next(j for j, a in enumerate(row) if not F.is_zero(a))
        a = v[pc]
        if not F.is_zero(a):
            v = [F.sub(x, F.mul(a, y)) for x, y in zip(v, row)]
    return v


def random_spans(F, rng, n):
    """Seeded lists of vectors in F^n: sparse random ones with repeats and
    zero vectors mixed in, then a full span (a shuffled triangular basis)."""
    spans = []
    for _ in range(10):
        vecs = []
        for _ in range(rng.randint(1, n + 1)):
            kind = rng.random()
            if vecs and kind < 0.2:
                vecs.append(list(rng.choice(vecs)))
            elif kind < 0.3:
                vecs.append([F.zero] * n)
            else:
                vecs.append([sparse_element(F, rng) if rng.random() < 0.6 else F.zero
                             for _ in range(n)])
        spans.append(vecs)
    full = [[F.zero] * i + [F.one] + [sparse_element(F, rng) for _ in range(n - 1 - i)]
            for i in range(n)]
    rng.shuffle(full)
    return spans + [full]


@pytest.mark.parametrize("F", [PrimeField(3), PrimeField(7), RationalField(),
                               RatFunField(2)], ids=["gf3", "gf7", "rationals", "ratfun2"])
def test_subspace_pivots_are_the_rref_pivots(F, rng):
    n = 5
    assert [S.pivots for S in (Subspace.zero(F, n), Subspace.from_vectors(F, n, []),
                               Subspace.from_vectors(F, n, [[F.zero] * n]))] == [()] * 3
    assert Subspace.full(F, n).pivots == tuple(rref(Matrix.identity(F, n))[2])
    dims = set()
    for vecs in random_spans(F, rng, n):
        S = Subspace.from_vectors(F, n, vecs)
        assert S.pivots == tuple(rref(Matrix(F, vecs, n))[2])
        dims.add(S.dim)
        for v in vecs + [[sparse_element(F, rng) for _ in range(n)]]:
            assert (encoded(F, [S.reduce_vector(v)])
                    == encoded(F, [reference_reduce_vector(S, v)]))
    assert n in dims and len(dims) > 2
    with pytest.raises(AttributeError):
        S.pivots = ()


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


def sparse_ratfun_matrices(F, rng):
    """Tall, wide and square matrices of mostly zero entries, some of them
    zeros over a denominator other than 1; with fully dense rows, rows that
    repeat or combine earlier ones (their entries cancel) and zero rows."""
    p = F.p

    def den():
        return Poly2(p, {(rng.randrange(3), rng.randrange(2)): rng.randrange(1, p)
                         for _ in range(rng.choice([1, 1, 2]))})

    def entry(zero_share):
        if rng.random() >= zero_share:
            return ratfun_entry(F, rng)
        return F.zero if rng.random() < 0.7 else RatFun(Poly2(p, {}), den())

    out = []
    for nr, nc in [(7, 4), (9, 5), (3, 7), (4, 8), (5, 5), (6, 6)]:
        for _ in range(2):
            rows = []
            for _ in range(nr):
                kind = rng.randrange(6)
                if kind == 0 or len(rows) < 2:
                    rows.append([entry(0.8 if kind else 0.0) for _ in range(nc)])
                elif kind == 1:
                    rows.append([entry(0.0) for _ in range(nc)])
                elif kind == 2:
                    x, y = rng.sample(rows, 2)
                    rows.append([F.add(F.mul(F.s(), a), b) for a, b in zip(x, y)])
                elif kind == 3:
                    rows.append(list(rng.choice(rows)))
                elif kind == 4:
                    rows.append([entry(1.0) for _ in range(nc)])
                else:
                    rows.append([entry(0.8) for _ in range(nc)])
            out.append(rows)
    return out


def zeros_over(F, rows):
    """The zero entries whose denominator is not 1."""
    return sum(not x and x.den.terms != {(0, 0): 1} for r in rows for x in r)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_sparse_rref_ratfun2_is_byte_identical_to_the_dense_step(p, rng):
    F = RatFunField(p)
    dense_rows = zero_dens = cancelled = deficient = 0
    for rows in sparse_ratfun_matrices(F, rng):
        nc = len(rows[0])
        red, rank, pivots = rref(Matrix(F, rows, nc))
        want, rank_d, piv_d = dense_rref_ratfun2(F, rows, nc)
        assert (rank, pivots) == (rank_d, piv_d)
        assert encoded(F, red.rows) == encoded(F, want)
        ref, rank_r, piv_r = reference_rref_ratfun2(F, rows, nc)
        assert (rank, pivots, encoded(F, red.rows)) == (rank_r, piv_r, encoded(F, ref))
        dense_rows += sum(all(r) for r in rows)
        zero_dens += zeros_over(F, rows)
        cancelled += zeros_over(F, red.rows)
        deficient += rank < min(len(rows), nc)
    assert dense_rows and zero_dens and cancelled and deficient


@pytest.mark.parametrize("p", [2, 3])
def test_sparse_rref_ratfun2_stops_where_the_dense_step_stops(p, rng, monkeypatch):
    F = RatFunField(p)
    matrices = sparse_ratfun_matrices(F, rng)
    outcomes = set()
    for budget in (3, 6, 12, 30):
        monkeypatch.setattr(fields, "TERM_BUDGET", budget)
        for rows in matrices:
            nc = len(rows[0])
            results = []
            for run in (dense_rref_ratfun2, lambda F, rows, nc: rref(Matrix(F, rows, nc))):
                try:
                    run(F, rows, nc)
                    results.append(False)
                except TermBudgetError:
                    results.append(True)
            assert results[0] == results[1], budget
            outcomes.add(results[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [2, 3])
def test_dense_rows_form_exactly_the_products_of_the_dense_step(p, rng, monkeypatch):
    # fully dense rows keep no implicit zero, so no 0/z is ever formed
    import ratfun_reference
    from altalg import linalg
    F, real = RatFunField(p), fields._mul_terms

    def nonzero_entry():
        while not (x := ratfun_entry(F, rng)):
            pass
        return x
    for nr, nc in [(3, 4), (4, 3), (2, 6), (1, 3)]:
        rows = [[nonzero_entry() for _ in range(nc)] for _ in range(nr)]
        products = []
        for run in (dense_rref_ratfun2, lambda F, rows, nc: rref(Matrix(F, rows, nc))):
            formed = []

            def spy(p, a, b):
                ab = real(p, a, b)
                formed.append(frozenset(ab.items()))
                return ab
            for module in (fields, linalg, ratfun_reference):
                monkeypatch.setattr(module, "_mul_terms", spy)
            run(F, rows, nc)
            products.append(formed)
        assert products[0] == products[1]


def test_rref_ratfun2_leaves_its_input_and_repeats_its_bytes(rng):
    F = RatFunField(3)
    for rows in sparse_ratfun_matrices(F, rng):
        m = Matrix(F, rows, len(rows[0]))
        entries, before = [list(r) for r in m.rows], encoded(F, m.rows)
        first = encoded(F, rref(m)[0].rows)
        assert all(a is b for r, e in zip(m.rows, entries) for a, b in zip(r, e))
        assert encoded(F, m.rows) == before
        assert encoded(F, rref(m)[0].rows) == first


def full_kernel(m):
    """The kernel from the RREF of every row of m, one vector per free
    column: the elimination the point in ``kernel`` replaces."""
    F = m.field
    red, _, pivots = rref(m)
    vecs = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            if not F.is_zero(red.rows[r][fc]):
                v[pc] = F.neg(red.rows[r][fc])
        vecs.append(v)
    return Subspace.from_vectors(F, m.ncols, vecs)


def tall_systems(F, rng):
    """Overdetermined systems: rank independent rows, then repeats, scalings
    by s and sums of them and zero rows, shuffled; rank < ncols makes them
    rank-deficient."""
    out = []
    for nc, rank in [(3, 1), (3, 2), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3)]:
        base = [[ratfun_entry(F, rng) for _ in range(nc)] for _ in range(rank)]
        rows = [list(r) for r in base]
        for kind in range(2 * nc):
            x, y = rng.choice(base), rng.choice(base)
            if kind % 4 == 0:
                rows.append(list(x))
            elif kind % 4 == 1:
                rows.append([F.mul(F.s(), a) for a in x])
            elif kind % 4 == 2:
                rows.append([F.add(a, F.mul(F.t(), b)) for a, b in zip(x, y)])
            else:
                rows.append([F.zero] * nc)
        rng.shuffle(rows)
        out.append(Matrix(F, rows, nc))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_tall_ratfun2_kernel_is_byte_identical_to_full_elimination(p, rng):
    F = RatFunField(p)
    deficient = 0
    for m in tall_systems(F, rng):
        assert m.nrows > m.ncols
        want = full_kernel(m)
        assert encoded(F, kernel(m).rows) == encoded(F, want.rows)
        deficient += want.dim > 0
    assert deficient >= 5


@pytest.mark.parametrize("p", [2, 3])
def test_tall_ratfun2_kernel_replays_the_pivot_order_not_the_row_order(p, rng):
    # column 0's pivot C is swapped up past the zero row, so the full run
    # takes A before B in column 1; A, B, C in row order would take B
    from altalg import linalg
    F = RatFunField(p)
    for _ in range(4):
        a, b, c = ([monomial_den_entry(F, rng) for _ in range(3)] for _ in range(3))
        A, B, C = [F.zero, F.s(), *a[1:]], [F.zero, F.t(), *b[1:]], [F.one, *c]
        m = Matrix(F, [[F.zero] * 4, A, B, C, [F.add(x, y) for x, y in zip(A, B)]], 4)
        assert linalg._point_rows(F, nonzero_entries(m.rows), 4) == [3, 1, 2]
        assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows)
        vecs = linalg._kernel_vectors(F, linalg._sparse(F, [A, B, C]), 4)
        sorted_rows = Subspace.from_vectors(F, 4, vecs)
        assert sorted_rows == kernel(m)
        if encoded(F, sorted_rows.rows) != encoded(F, kernel(m).rows):
            return
    pytest.fail("row order and pivot order gave the same bytes")


def nonzero_entries(rows):
    """Each dense GF(p)(s, t) row's nonzero (column, entry) pairs, the lists
    ``kernel`` hands ``_point_rows``."""
    return [[(j, x) for j, x in enumerate(row) if x.num.terms] for row in rows]


def gagola_systems():
    from altalg.catalog import build
    from altalg.operators import _law_rows
    A = build("gagola-B").algebra
    d2 = A.dim ** 2
    F = A.field
    qrows = dense_rows(F, _law_rows(A, 2, q_offset=d2), 2 * d2)
    return A, {"derivations": Matrix(F, dense_rows(F, _law_rows(A, 2), d2), d2),
               "quasiderivations": Matrix(F, qrows, 2 * d2),
               "leibniz-3": Matrix(F, dense_rows(F, _law_rows(A, 3), d2), d2)}


def test_gagola_operator_kernels_are_byte_identical_to_full_elimination():
    A, systems = gagola_systems()
    F = A.field
    for name, m in systems.items():
        assert m.nrows > m.ncols, name
        assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows), name


def test_gagola_leibniz_3_eliminates_only_the_rows_picked_at_the_point(monkeypatch):
    from altalg import linalg
    from altalg.catalog import build
    from altalg.operators import _law_rows, leibniz_space
    A = build("gagola-B").algebra
    assert len(_law_rows(A, 3)) == 1802
    sizes, solves = [], []
    real_rref, real_vectors = linalg._rref_ratfun2, linalg._kernel_vectors
    monkeypatch.setattr(linalg, "_rref_ratfun2", lambda F, rows, nc: (
        sizes.append(len(rows)), real_rref(F, rows, nc))[1])
    monkeypatch.setattr(linalg, "_kernel_vectors", lambda F, rows, nc: (
        solves.append(len(rows)), real_vectors(F, rows, nc))[1])
    S = leibniz_space(A, 3)
    rank = A.dim ** 2 - S.space.dim
    assert rank == 49 and solves == [rank]
    assert max(sizes) <= rank


def monomial_den_entry(F, rng):
    """Like ``ratfun_entry``, with a one-term denominator s^i t^j, which
    vanishes at no point with both coordinates nonzero."""
    num = Poly2(F.p, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, F.p)
                      for _ in range(rng.choice([0, 1, 2]))})
    return RatFun(num, Poly2(F.p, {(rng.randrange(2), rng.randrange(2)): 1}))


def minus_one_exponent(p):
    n = fields._gf_table(p)[0]
    return n if p == 2 else n // 2


@pytest.mark.parametrize("p", [2, 3])
def test_a_row_vanishing_at_the_point_falls_back_to_full_elimination(p, rng, monkeypatch):
    # base rows of rank 2 in 4 columns, repeated, and one more independent
    # row times (1 + s): it vanishes at s = -1, so there the rank is 2
    from altalg import linalg
    F = RatFunField(p)
    one_plus_s = F.poly({(0, 0): 1, (1, 0): 1})
    for _ in range(3):
        base = [[monomial_den_entry(F, rng) for _ in range(4)] for _ in range(3)]
        rows = base[:2] * 3 + [[F.mul(one_plus_s, a) for a in base[2]]]
        m = Matrix(F, rows, 4)
        want = full_kernel(m)
        if rref(Matrix(F, base, 4))[1] < 3:
            continue
        solves = []
        real_vectors = linalg._kernel_vectors
        monkeypatch.setattr(linalg, "_kernel_vectors", lambda F, rows, nc: (
            solves.append(len(rows)), real_vectors(F, rows, nc))[1])
        monkeypatch.setattr(linalg, "_points", lambda n: [(minus_one_exponent(p), 5)])
        got = kernel(m)
        assert solves == [2, m.nrows] and got.dim == 1
        assert encoded(F, got.rows) == encoded(F, want.rows)
        return
    pytest.fail("no independent base rows drawn")


@pytest.mark.parametrize("p", [2, 3])
def test_a_failing_certification_falls_back_to_full_elimination(p, rng, monkeypatch):
    # the point picks one pivot row too few: the kernel of the rest is too
    # large, a dropped row does not vanish on it, and every row is eliminated
    from altalg import linalg
    F = RatFunField(p)
    real_rows, real_vectors = linalg._point_rows, linalg._kernel_vectors
    monkeypatch.setattr(linalg, "_point_rows", lambda *a: real_rows(*a)[:-1])
    checked = 0
    for m in tall_systems(F, rng):
        rank = rref(m)[1]
        solves = []
        monkeypatch.setattr(linalg, "_kernel_vectors", lambda F, rows, nc: (
            solves.append(len(rows)), real_vectors(F, rows, nc))[1])
        assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows)
        assert solves == [rank - 1, m.nrows]
        checked += 1
    assert checked


def test_a_vanishing_denominator_moves_to_the_next_point(rng, monkeypatch):
    from altalg import linalg
    F = RatFunField(3)
    rows = [[monomial_den_entry(F, rng) for _ in range(3)] for _ in range(5)]
    rows[3][1] = RatFun(Poly2(3, {(0, 1): 1}), Poly2(3, {(0, 0): 1, (1, 0): 1}))
    m = Matrix(F, rows, 3)
    drawn = []
    real_points = linalg._points

    def points(n):
        for pt in itertools.chain([(minus_one_exponent(3), 7)], real_points(n)):
            drawn.append(pt)
            yield pt
    monkeypatch.setattr(linalg, "_points", points)
    assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows)
    assert len(drawn) == 2


def test_a_denominator_vanishing_at_every_point_takes_the_full_path():
    # s^65535 + 1 = s^n - 1 over GF(2), n = 2^16 - 1, vanishes on all of
    # GF(2^16)*, where every point of ``_points`` lies
    from altalg import linalg
    from altalg.algebra import Algebra
    from altalg.operators import _law_rows, derivation_space
    F = RatFunField(2)
    c = RatFun(Poly2(2, {(1, 0): 1}), Poly2(2, {(65535, 0): 1, (0, 0): 1}))
    A = Algebra(F, 2, {(0, 0): [(1, c)], (1, 1): [(0, F.one)], (0, 1): [(1, F.t())]})
    m = Matrix(F, dense_rows(F, _law_rows(A, 2), 4), 4)
    assert m.nrows > m.ncols and linalg._point_rows(F, nonzero_entries(m.rows), 4) is None
    want = encoded(F, full_kernel(m).rows)
    assert encoded(F, kernel(m).rows) == want
    assert encoded(F, derivation_space(A).space.rows) == want


def test_ratfun2_above_the_table_bound_eliminates_every_row(rng, monkeypatch):
    from altalg import linalg
    F = RatFunField(65537)
    assert F.p > fields._GF_Q_MAX
    monkeypatch.setattr(linalg, "_point_rows", lambda *a: pytest.fail("point taken"))
    for m in tall_systems(F, rng)[:4]:
        assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows)


def test_ratfun2_kernels_with_rows_at_most_columns_take_no_point(rng, monkeypatch):
    from altalg import linalg
    monkeypatch.setattr(linalg, "_point_rows", lambda *a: pytest.fail("point taken"))
    F = RatFunField(2)
    for nr, nc in [(3, 4), (4, 4), (2, 8)]:
        m = Matrix(F, [[ratfun_entry(F, rng) for _ in range(nc)] for _ in range(nr)], nc)
        assert encoded(F, kernel(m).rows) == encoded(F, full_kernel(m).rows)


def test_tall_ratfun2_kernel_rejects_mixed_characteristic():
    F = RatFunField(2)
    rows = [[F.s(), F.t()], [F.one, F.one], [F.one, RatFunField(3).s()]]
    with pytest.raises(FieldError):
        kernel(Matrix(F, rows, 2))
