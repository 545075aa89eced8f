"""The routines built on elimination, against the hand-rolled bodies they
replaced: one RREF of [sources | images] for ``_map_from_images``, one
``Subspace._closure`` for ``generated`` and ``mult_lie_algebra``, operator
and transposed blocks for ``find_unit`` and ``special_subspace``, and
``linalg._combine`` for every sum c*v.

Subspaces and maps must be equal (by field equality); the unit, and every
combination that ``_combine`` forms, must be byte-identical under
``F.encode``, which pins the unreduced GF(2)(s, t) forms too."""

import json
import os
import random

import pytest
from conftest import random_nonzero, reference_dedupe_rows

from altalg.algebra import (Algebra, algebra_from_json, generated, special_subspace,
                            subspace_product)
from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.linalg import Matrix, Subspace, kernel, solve
from altalg.operators import (_map_from_images, flatten_map, mult_lie_algebra,
                              quasider_space, quasider_witness_q, unflatten_map)
from altalg.quadratic import zorn

FIELDS = pytest.mark.parametrize(
    "F", [PrimeField(2), PrimeField(3), RationalField(), RatFunField(2)],
    ids=["gf2", "gf3", "q", "ratfun2"])


def encoded(F, rows):
    return None if rows is None else [[F.encode(a) for a in r] for r in rows]


# ---- the bodies replaced -----------------------------------------------------

def reference_map_from_images(A, sources, images):
    """One solve per column: column k sums the images weighted by the
    coordinates of e_k in the sources."""
    F = A.field
    d = A.dim
    bmat = Matrix(F, [[src[r] for src in sources] for r in range(d)], d)
    weighted = [(c, img) for c, img in enumerate(images) if not A.is_zero_vec(img)]
    phi = Matrix.zeros(F, d, d)
    for k in range(d):
        coords = solve(bmat, A.basis_vec(k))
        col = A.zero()
        for c, img in weighted:
            if not F.is_zero(coords[c]):
                col = A.vadd(col, A.smul(coords[c], img))
        for r in range(d):
            phi.rows[r][k] = col[r]
    return phi


def reference_generated(A, kind, gens):
    S = Subspace.from_vectors(A.field, A.dim, [list(g) for g in gens])
    full = A.dim
    while True:
        if kind == "subalgebra":
            grown = S.add(subspace_product(A, S, S))
        else:
            amb = Subspace.full(A.field, A.dim)
            grown = S.add(subspace_product(A, amb, S)).add(subspace_product(A, S, amb))
        if grown.dim == S.dim:
            return grown
        S = grown
        if S.dim == full:
            return S


def reference_mult_lie_algebra(A):
    F = A.field
    d = A.dim
    seeds = []
    for i in range(d):
        e = A.basis_vec(i)
        seeds.append(A.mult_operator("left", e))
        seeds.append(A.mult_operator("right", e))
    space = Subspace.from_vectors(F, d * d, [flatten_map(m) for m in seeds])
    while True:
        mats = [unflatten_map(F, d, row) for row in space.rows]
        commutators = []
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                c = mats[a].matmul(mats[b])
                cc = mats[b].matmul(mats[a])
                commutators.append([F.sub(x, y) for x, y in
                                    zip(flatten_map(c), flatten_map(cc))])
        grown = space.add(Subspace.from_vectors(F, d * d, commutators))
        if grown.dim == space.dim:
            return grown
        space = grown
        if space.dim == d * d:
            return space


def reference_find_unit(A):
    F = A.field
    rows, rhs = [], []
    for i in range(A.dim):
        e = A.basis_vec(i)
        for side in ("left", "right"):
            # sum_a x_a (e_a e_i) = e_i   /   sum_a x_a (e_i e_a) = e_i
            cols = [A.mul(A.basis_vec(a), e) if side == "left"
                    else A.mul(e, A.basis_vec(a))
                    for a in range(A.dim)]
            for m in range(A.dim):
                rows.append([cols[a][m] for a in range(A.dim)])
                rhs.append(e[m])
    return solve(Matrix(F, rows, A.dim), rhs)


def reference_special_subspace(A, kind):
    F = A.field
    d = A.dim
    e = A.basis()
    rows = []
    if kind == "nucleus":
        for i in range(d):
            for j in range(d):
                slots = (
                    [A.associator(e[a], e[i], e[j]) for a in range(d)],
                    [A.associator(e[i], e[a], e[j]) for a in range(d)],
                    [A.associator(e[i], e[j], e[a]) for a in range(d)],
                )
                for vecs in slots:
                    for m in range(d):
                        rows.append([vecs[a][m] for a in range(d)])
    elif kind == "commutative-center":
        for i in range(d):
            vecs = [A.commutator(e[a], e[i]) for a in range(d)]
            for m in range(d):
                rows.append([vecs[a][m] for a in range(d)])
    elif kind == "center":
        return reference_intersect(reference_special_subspace(A, "nucleus"),
                                   reference_special_subspace(A, "commutative-center"))
    elif kind == "annihilator":
        for i in range(d):
            for vecs in ([A.mul(e[a], e[i]) for a in range(d)],
                         [A.mul(e[i], e[a]) for a in range(d)]):
                for m in range(d):
                    rows.append([vecs[a][m] for a in range(d)])
    rows = reference_dedupe_rows(F, rows)
    return kernel(Matrix(F, rows, d))


def reference_intersect(U, V):
    F = U.field
    k, m = U.dim, V.dim
    if k == 0 or m == 0:
        return Subspace.zero(F, U.ambient)
    cols = []
    for i in range(U.ambient):
        cols.append([U.rows[r][i] for r in range(k)]
                    + [F.neg(V.rows[r][i]) for r in range(m)])
    ker = kernel(Matrix(F, cols, k + m))
    vecs = []
    for kv in ker.rows:
        v = [F.zero] * U.ambient
        for r in range(k):
            a = kv[r]
            if not F.is_zero(a):
                for i in range(U.ambient):
                    v[i] = F.add(v[i], F.mul(a, U.rows[r][i]))
        vecs.append(v)
    return Subspace.from_vectors(F, U.ambient, vecs)


def reference_quasider_witness_q(S, fmap):
    pairs = S.pair_space
    F = S.algebra.field
    nf = S.algebra.dim ** 2
    if pairs.dim == 0:
        return None
    cols = Matrix(F, [[row[i] for row in pairs.rows] for i in range(nf)], pairs.dim)
    sol = solve(cols, flatten_map(fmap))
    if sol is None:
        return None
    q = [F.zero] * nf
    for c, row in zip(sol, pairs.rows):
        if F.is_zero(c):
            continue
        for i in range(nf):
            q[i] = F.add(q[i], F.mul(c, row[nf + i]))
    return unflatten_map(F, S.algebra.dim, q)


# ---- random algebras ---------------------------------------------------------

def random_algebra(F, d, rng, unital=False):
    """Sparse random products; with ``unital``, e_0 is the unit of
    span(e_0 .. e_{d-2}) and e_{d-1} spans a field summand, so the unit is
    e_0 + e_{d-1}, not a basis vector."""
    m = d - 1 if unital else d
    lo = 1 if unital else 0
    table = {}
    for i in range(lo, m):
        for j in range(lo, m):
            if rng.random() < 0.5:
                ks = rng.sample(range(m), rng.randint(1, 2))
                table[(i, j)] = [(k, random_nonzero(F, rng)) for k in ks]
    if unital:
        for i in range(m):
            table[(0, i)] = table[(i, 0)] = [(i, F.one)]
        table[(m, m)] = [(m, F.one)]
    return Algebra(F, d, table)


def noncommutative(A):
    e = A.basis()
    return any(not A.is_zero_vec(A.commutator(x, y)) for x in e for y in e)


# ---- the comparisons ---------------------------------------------------------

@FIELDS
def test_map_from_images_matches_reference(F):
    rng = random.Random(11)
    compared = 0
    for d in (2, 3, 4):
        A = Algebra(F, d, {})
        for _ in range(3):
            sources = [A.random_element(rng) for _ in range(d)]
            if Subspace.from_vectors(F, d, sources).dim < d:
                assert _map_from_images(A, sources, sources) is None
                continue
            images = [A.random_element(rng) for _ in range(d - 1)] + [A.zero()]
            rng.shuffle(images)
            phi = _map_from_images(A, sources, images)
            assert phi.eq(reference_map_from_images(A, sources, images))
            assert all(A.veq(phi.mulvec(s), y) for s, y in zip(sources, images))
            compared += 1
    assert compared >= 3
    # all images zero: the zero map
    A = Algebra(F, 3, {})
    sources = [[F.one, F.one, F.zero], [F.zero, F.one, F.one], [F.one, F.zero, F.zero]]
    assert _map_from_images(A, sources, [A.zero()] * 3).is_zero()


@FIELDS
def test_generated_matches_reference(F):
    rng = random.Random(5)
    grew = 0
    # at d = 4 the GF(2)(s, t) subalgebras run past the term budget
    for d in (3,) if F.kind == "ratfun2" else (3, 4):
        for unital in (False, True):
            A = random_algebra(F, d, rng, unital)
            gens = [A.vadd(*(A.basis_vec(i) for i in rng.sample(range(d), 2)))]
            for kind in ("subalgebra", "ideal"):
                got = generated(A, kind, gens)
                assert got == reference_generated(A, kind, gens)
                grew += noncommutative(A) and kind == "ideal" and got.dim > 1
    assert grew     # an ideal of a non-commutative algebra, past its generator


@FIELDS
def test_mult_lie_algebra_matches_reference(F):
    rng = random.Random(0)
    dims = []
    for d in (2, 3):
        for unital in (False, True):
            A = random_algebra(F, d, rng, unital)
            got = mult_lie_algebra(A).space
            assert got == reference_mult_lie_algebra(A)
            dims.append(got.dim)
    # the 6 seeds of a 3-dim algebra reach all 9 dimensions of End only
    # through commutators
    if F.kind != "ratfun2":
        assert dims[2] == 9 and dims[3] < 9


@pytest.mark.parametrize("name", ["zorn-Q", "q_fractional", "zorn-GF3"])
def test_mult_lie_algebra_of_zorn_and_fractional_constants_matches_reference(name):
    # the generators read from the lifted table: Dc = 1 for zorn, Dc > 1
    # for the fixture's constants
    if name == "q_fractional":
        path = os.path.join(os.path.dirname(__file__), "fixtures", "q_fractional.json")
        with open(path) as fh:
            A = algebra_from_json(json.load(fh))
        assert A._lifted[1] > 1
    else:
        A = zorn(RationalField() if name == "zorn-Q" else PrimeField(3)).algebra
    got = mult_lie_algebra(A).space
    assert got == reference_mult_lie_algebra(A)
    if name == "zorn-Q":
        assert got.dim == 29


@FIELDS
def test_find_unit_matches_reference(F):
    rng = random.Random(8)
    algebras = [random_algebra(F, d, rng, unital) for d in (2, 3, 4)
                for unital in (False, True)]
    if F.kind != "ratfun2":
        algebras.append(zorn(F).algebra)
    units = 0
    for A in algebras:
        got, want = A.find_unit(), reference_find_unit(A)
        assert encoded(F, got and [got]) == encoded(F, want and [want])
        units += got is not None
    assert units >= 3


@FIELDS
@pytest.mark.parametrize("kind", ["nucleus", "commutative-center", "center",
                                  "annihilator"])
def test_special_subspace_matches_reference(F, kind):
    rng = random.Random(4)
    for d in (2, 3):
        for unital in (False, True):
            A = random_algebra(F, d, rng, unital)
            assert special_subspace(A, kind) == reference_special_subspace(A, kind)


@FIELDS
def test_intersect_matches_reference(F):
    rng = random.Random(6)
    for n in (2, 3, 4):
        for _ in range(4):
            U, V = (Subspace.from_vectors(F, n, [[F.random_element(rng) for _ in range(n)]
                                                 for _ in range(rng.randint(0, n))])
                    for _ in range(2))
            assert (encoded(F, U.intersect(V).rows)
                    == encoded(F, reference_intersect(U, V).rows))


@FIELDS
def test_quasider_witness_q_matches_reference(F):
    rng = random.Random(9)
    for d in (2, 3):
        A = random_algebra(F, d, rng)
        S = quasider_space(A)
        maps = S.basis_maps() + [Matrix(F, [A.random_element(rng) for _ in range(d)], d)]
        for f in maps:
            got = quasider_witness_q(S, f)
            want = reference_quasider_witness_q(S, f)
            assert encoded(F, got and got.rows) == encoded(F, want and want.rows)
