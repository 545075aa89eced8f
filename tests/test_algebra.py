import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from conftest import (LEFT_ALTERNATIVE, RIGHT_ALTERNATIVE, mat2, random_nonzero,
                      restricted_algebra, vneg)

from altalg import scan
from altalg.algebra import (IDENTITY_NAMES, _LAWS, Algebra, IdentityReport,
                            IdentityWitness, TableFormatError, algebra_from_json,
                            algebra_to_json, check_identity, derived_algebra,
                            evaluate_identity, generated, permuted,
                            power_chain, search,
                            special_subspace, subspace_product)
from altalg.catalog import build, zero_algebra
from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.linalg import Subspace, rref
from altalg.quadratic import zorn


# --- independent oracle for the Zorn matrix product ------------------------
# Evaluates the vector-matrix formula directly on (alpha, u, v, beta) parts,
# with its own dot/cross code, independent of the structure-constant path.

def oracle_zorn_mul(F, x, y):
    def dot(u, v):
        s = F.zero
        for a, b in zip(u, v):
            s = F.add(s, F.mul(a, b))
        return s

    def cross(u, v):
        return [F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
                F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
                F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0]))]

    al, be, u, v = x[0], x[1], x[2:5], x[5:8]
    ga, de, t, w = y[0], y[1], y[2:5], y[5:8]
    tl = F.add(F.mul(al, ga), dot(u, w))
    br = F.add(F.mul(be, de), dot(v, t))
    cvw = cross(v, w)
    tr = [F.sub(F.add(F.mul(al, t[i]), F.mul(de, u[i])), cvw[i]) for i in range(3)]
    cut = cross(u, t)
    bl = [F.add(F.add(F.mul(ga, v[i]), F.mul(be, w[i])), cut[i]) for i in range(3)]
    return [tl, br] + tr + bl


@pytest.fixture(scope="module")
def z3():
    return zorn(PrimeField(3)).algebra


def test_zorn_multiply_matches_oracle_on_basis_pairs(z3):
    F = z3.field
    for i in range(8):
        for j in range(8):
            x, y = z3.basis_vec(i), z3.basis_vec(j)
            assert z3.veq(z3.mul(x, y), oracle_zorn_mul(F, x, y))


def test_zorn_multiply_matches_oracle_on_random_elements(z3, rng):
    F = z3.field
    for _ in range(64):
        x, y = z3.random_element(rng), z3.random_element(rng)
        assert z3.veq(z3.mul(x, y), oracle_zorn_mul(F, x, y))


def test_zorn_unit_absorbs(z3, rng):
    unit = z3.find_unit()
    assert unit == [1, 1, 0, 0, 0, 0, 0, 0]
    x = z3.random_element(rng)
    assert z3.veq(z3.mul(unit, x), x) and z3.veq(z3.mul(x, unit), x)


def test_zorn_u1_v1_products(z3):
    u1, v1 = z3.basis_vec(2), z3.basis_vec(5)
    assert z3.mul(u1, v1) == [1, 0, 0, 0, 0, 0, 0, 0]    # E11
    assert z3.mul(v1, u1) == [0, 1, 0, 0, 0, 0, 0, 0]    # E22


def test_zorn_diagonal_product(z3, rng):
    F = z3.field
    for _ in range(16):
        a, b, c, d = (F.random_element(rng) for _ in range(4))
        x = [a, b] + [F.zero] * 6
        y = [c, d] + [F.zero] * 6
        assert z3.mul(x, y) == [F.mul(a, c), F.mul(b, d)] + [F.zero] * 6


def test_zorn_associator_example(z3):
    # (u1, u2, v2) associates to u1 by the oracle computation
    u1, u2, v2 = z3.basis_vec(2), z3.basis_vec(3), z3.basis_vec(6)
    F = z3.field
    ab = oracle_zorn_mul(F, u1, u2)
    lhs = oracle_zorn_mul(F, ab, v2)
    rhs = oracle_zorn_mul(F, u1, oracle_zorn_mul(F, u2, v2))
    expected = z3.vsub(lhs, rhs)
    got = z3.associator(u1, u2, v2)
    assert z3.veq(got, expected)
    assert not z3.is_zero_vec(got)
    assert got == z3.basis_vec(2)


def test_zorn_jordan_example(z3):
    got = z3.jordan_product(z3.basis_vec(2), z3.basis_vec(5))
    assert got == z3.find_unit()


def test_commutator_of_element_with_itself_vanishes(z3, rng):
    x = z3.random_element(rng)
    assert z3.is_zero_vec(z3.commutator(x, x))


def test_make_algebra_validation():
    F = PrimeField(3)
    with pytest.raises(TableFormatError):
        Algebra(F, 8, {(0, 0): [(9, 1)]})
    with pytest.raises(TableFormatError):
        Algebra(F, 2, {(0, 3): [(0, 1)]})
    with pytest.raises(TableFormatError):
        Algebra(F, 2, {(0, 0): [(1, 1), (1, 2)]})   # duplicate k


def test_zero_table_multiplies_to_zero():
    A = zero_algebra(PrimeField(3), 2)
    assert A.is_zero_vec(A.mul([1, 2], [2, 2]))


def test_mult_operator_unit_is_identity(z3):
    L = z3.mult_operator("left", z3.find_unit())
    from altalg.linalg import Matrix

    assert L.eq(Matrix.identity(z3.field, 8))


def test_mult_operator_nilpotent_kills():
    A = build("trivial-nilpotent").algebra
    Lf = A.mult_operator("left", A.basis_vec(1))
    assert Lf.is_zero()


def test_mult_operator_rank_of_left_idempotent(z3):
    L = z3.mult_operator("left", z3.basis_vec(0))    # L_{E11}
    _, rank, _ = rref(L)
    assert rank == 4


def reference_mult_operator(A, side, a):
    """Field operations over the table, entry by entry: independent of
    Algebra.mul, whose products are the columns of mult_operator."""
    from altalg.linalg import Matrix

    F = A.field
    m = Matrix.zeros(F, A.dim, A.dim)
    for c in range(A.dim):
        for i, s in enumerate(a):
            if F.is_zero(s):
                continue
            for k, coeff in A.table.get((i, c) if side == "left" else (c, i), ()):
                m.rows[k][c] = F.add(m.rows[k][c], F.mul(s, coeff))
    return m


@pytest.mark.parametrize("F", [PrimeField(3), RationalField(), RatFunField(2)],
                         ids=["gf3", "rationals", "ratfun2"])
def test_mult_operator_matches_column_by_column_products(F):
    # equal encodings also pin the unreduced GF(2)(s,t) forms
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 4)
        table = {(i, j): [(k, random_nonzero(F, rng))
                          for k in rng.sample(range(d), rng.randint(1, d))]
                 for i in range(d) for j in range(d) if rng.random() < 0.5}
        A = Algebra(F, d, table)
        a = A.random_element(rng)
        for side in ("left", "right"):
            got = A.mult_operator(side, a).rows
            want = reference_mult_operator(A, side, a).rows
            assert ([[F.encode(v) for v in row] for row in got]
                    == [[F.encode(v) for v in row] for row in want])
    with pytest.raises(ValueError):
        A.mult_operator("left", a + a)


def test_find_unit_none_for_zero_algebra():
    assert zero_algebra(PrimeField(3), 2).find_unit() is None


def test_find_unit_none_for_nilpotent():
    assert build("trivial-nilpotent").algebra.find_unit() is None


def test_invert_unit(z3):
    assert z3.invert_element(z3.find_unit()) == z3.find_unit()


def test_invert_diag_1_2_self_inverse(z3):
    x = [1, 2, 0, 0, 0, 0, 0, 0]
    assert z3.mul(x, x) == z3.find_unit()
    assert z3.invert_element(x) == x


def test_invert_idempotent_fails(z3):
    assert z3.invert_element(z3.basis_vec(0)) is None    # diag(1,0), norm 0


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        build("trivial-nilpotent").algebra.invert_element([1, 0])


def test_inverse_is_involutive(z3, rng):
    for _ in range(32):
        x = z3.random_element(rng)
        y = z3.invert_element(x)
        if y is not None:
            assert z3.invert_element(y) == x


def test_inverse_associator_vanishes(z3, rng):
    # (x^{-1}, x, y) = 0: the relation behind two-sided inverses in
    # alternative algebras; checked on sampled invertible x and basis y
    for _ in range(48):
        x = z3.random_element(rng)
        xinv = z3.invert_element(x)
        if xinv is None:
            continue
        for j in range(8):
            assert z3.is_zero_vec(z3.associator(xinv, x, z3.basis_vec(j)))


def test_product_of_invertibles_is_invertible(z3, rng):
    for _ in range(32):
        x, y = z3.random_element(rng), z3.random_element(rng)
        if z3.invert_element(x) is not None and z3.invert_element(y) is not None:
            assert z3.invert_element(z3.mul(x, y)) is not None


def test_multiply_bilinear(z3, rng):
    F = z3.field
    for _ in range(32):
        a = F.random_element(rng)
        x, y, z = (z3.random_element(rng) for _ in range(3))
        lhs = z3.mul(z3.vadd(z3.smul(a, x), y), z)
        rhs = z3.vadd(z3.smul(a, z3.mul(x, z)), z3.mul(y, z))
        assert z3.veq(lhs, rhs)


def test_zorn_associator_alternating_on_basis_triples(z3):
    e = z3.basis()
    for i, j, k in itertools.product(range(8), repeat=3):
        base = z3.associator(e[i], e[j], e[k])
        assert z3.veq(z3.associator(e[j], e[i], e[k]), vneg(z3, base))
        assert z3.veq(z3.associator(e[i], e[k], e[j]), vneg(z3, base))


def test_identity_verdicts_on_zorn(z3):
    for name in ("left-alternative", "right-alternative", "flexible"):
        r = check_identity(z3, name)
        assert r.holds and r.provenance == "certified"
    r = check_identity(z3, "associative")
    assert not r.holds
    assert not z3.is_zero_vec(evaluate_identity(z3, "associative", r.witness.args))


def test_identity_scan_agrees_with_certified_on_zorn(swept):
    for p in (2, 3):
        A = zorn(PrimeField(p)).algebra
        assert check_identity(A, "left-alternative").holds
        assert swept(A, "left-alternative", LEFT_ALTERNATIVE) is None
        assert check_identity(A, "right-alternative").holds
        assert swept(A, "right-alternative", RIGHT_ALTERNATIVE) is None


def test_identity_scan_agrees_on_failing_algebra(swept):
    F = PrimeField(3)
    A = Algebra(F, 3, {(0, 0): [(1, 1)], (1, 0): [(0, 1)], (0, 2): [(1, 2)]})
    cert = check_identity(A, "left-alternative")
    witness = swept(A, "left-alternative", LEFT_ALTERNATIVE)
    assert not cert.holds and witness is not None
    assert not A.is_zero_vec(evaluate_identity(A, "left-alternative", witness))


def test_identities_all_pass_on_zero_algebra():
    from altalg.algebra import IDENTITY_NAMES

    A = zero_algebra(PrimeField(3), 2)
    for name in IDENTITY_NAMES:
        assert check_identity(A, name).holds, name


def test_sampled_provenance_over_rationals():
    A = zorn(RationalField()).algebra
    r = check_identity(A, "middle-moufang")
    assert r.holds and r.provenance == "sampled"
    r = check_identity(A, "jordan")
    assert r.holds and r.provenance == "sampled"


def test_special_subspaces_zero_algebra():
    A = zero_algebra(PrimeField(3), 2)
    assert special_subspace(A, "annihilator").dim == 2


def test_center_of_zorn_is_unit_line(z3):
    c = special_subspace(z3, "center")
    assert c.dim == 1
    assert c.contains_vector(z3.find_unit())


def test_nucleus_of_associative_algebra_is_everything():
    A = mat2(PrimeField(3))
    assert special_subspace(A, "nucleus").dim == 4


def test_subspace_product_remark22():
    inst = build("remark22")
    A = inst.algebra
    full = Subspace.full(A.field, 7)
    sq = subspace_product(A, full, full)
    expected = Subspace.from_vectors(A.field, 7, [A.basis_vec(i) for i in (3, 4, 5, 6)])
    assert sq == expected


def test_subspace_product_unit_line(z3):
    one = Subspace.from_vectors(z3.field, 8, [z3.find_unit()])
    assert subspace_product(z3, one, one) == one


def test_generated_subalgebra_of_unit(z3):
    assert generated(z3, "subalgebra", [z3.find_unit()]).dim == 1


def test_generated_ideal_in_trivial_nilpotent():
    A = build("trivial-nilpotent").algebra
    ideal = generated(A, "ideal", [A.basis_vec(1)])
    assert ideal.dim == 1 and ideal.contains_vector(A.basis_vec(1))


def test_power_chain_remark22():
    chain, s = power_chain(build("remark22").algebra)
    assert [c.dim for c in chain] == [7, 4, 2, 1, 0] and s == 5


def test_power_chain_zorn_not_nilpotent(z3):
    chain, s = power_chain(z3)
    assert s is None and chain[-1].dim == 8


def test_power_chain_zero_algebra():
    chain, s = power_chain(zero_algebra(PrimeField(3), 4))
    assert [c.dim for c in chain] == [4, 0] and s == 2


def test_left_normed_products():
    A = build("trivial-nilpotent").algebra
    e = A.basis_vec(0)
    assert A.left_normed_product([e]) == e
    assert A.is_zero_vec(A.left_normed_product([e, e, e]))
    R = build("remark22").algebra
    e1 = R.basis_vec(0)
    assert R.left_normed_product([e1, e1, e1, e1]) == R.basis_vec(6)   # w
    with pytest.raises(ValueError):
        A.left_normed_product([])


def test_derived_minus_of_commutative_is_zero():
    F = PrimeField(5)
    A = Algebra(F, 2, {(0, 0): [(1, 1)], (0, 1): [(0, 2)], (1, 0): [(0, 2)]})
    assert check_identity(A, "commutative").holds
    minus = derived_algebra(A, "minus")
    assert not minus.table


def test_plus_algebra_of_mat2_is_jordan():
    plus = derived_algebra(mat2(PrimeField(5)), "plus")
    assert check_identity(plus, "commutative").holds
    assert check_identity(plus, "jordan").holds


def test_plus_algebra_of_zorn_is_jordan():
    plus = derived_algebra(zorn(PrimeField(3)).algebra, "plus")
    assert check_identity(plus, "commutative").holds
    r = check_identity(plus, "jordan")
    assert r.holds and r.provenance == "exhaustive"


def test_permuted_algebra_is_relabeling(z3, rng):
    perm = list(range(8))
    random.Random(7).shuffle(perm)
    AP = permuted(z3, perm)
    for _ in range(16):
        x, y = z3.random_element(rng), z3.random_element(rng)
        xp = [x[perm[a]] for a in range(8)]
        yp = [y[perm[a]] for a in range(8)]
        zp = AP.mul(xp, yp)
        z = z3.mul(x, y)
        assert zp == [z[perm[a]] for a in range(8)]


def test_restricted_algebra_roundtrip():
    inst = build("gagola-B")
    B = restricted_algebra(inst.algebra, inst.b_space)
    assert B.dim == 4
    assert check_identity(B, "commutative").holds
    assert check_identity(B, "associative").holds


def test_restricted_gagola_b_table_is_byte_identical():
    # the unreduced GF(2)(s, t) constants are read off the subspace's pivot
    # columns; this digest pins every term of them
    inst = build("gagola-B")
    doc = algebra_to_json(restricted_algebra(inst.algebra, inst.b_space))
    digest = hashlib.md5(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "aa7c20472e26d116e240c3f691f96568"


def test_restricted_algebra_rejects_unclosed():
    A = build("remark22").algebra
    S = Subspace.from_vectors(A.field, 7, [A.basis_vec(0)])   # e1^2 = u1 not in S
    with pytest.raises(ValueError):
        restricted_algebra(A, S)


def test_json_roundtrip(z3):
    doc = algebra_to_json(z3)
    back = algebra_from_json(doc)
    assert back.dim == z3.dim and back.table == z3.table and back.names == z3.names


def test_json_roundtrip_random_algebras(any_field, rng):
    import json

    F = any_field
    for _ in range(8):
        dim = rng.randint(1, 4)
        table = {}
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            c = F.random_element(rng)
            if F.is_zero(c):
                continue
            table.setdefault((i, j), []).append((rng.randrange(dim), c))
        try:
            A = Algebra(F, dim, table)
        except TableFormatError:        # duplicate k within one (i, j)
            continue
        doc = json.loads(json.dumps(algebra_to_json(A)))    # through real JSON
        back = algebra_from_json(doc)
        assert back.dim == A.dim
        for key in set(A.table) | set(back.table):
            ta = dict(A.table.get(key, ()))
            tb = dict(back.table.get(key, ()))
            assert set(ta) == set(tb)
            for k in ta:
                assert F.eq(ta[k], tb[k])


def test_json_rejects_bad_documents():
    F = {"kind": "prime", "p": 3}
    with pytest.raises(TableFormatError):
        algebra_from_json({"field": F, "dim": -1, "table": []})
    with pytest.raises(TableFormatError):
        algebra_from_json({"field": F, "dim": 2,
                           "table": [{"i": 0, "j": 0, "terms": [{"k": 9, "c": "1"}]}]})
    with pytest.raises(TableFormatError):
        algebra_from_json({"field": F, "dim": 2, "table": [
            {"i": 0, "j": 0, "terms": []}, {"i": 0, "j": 0, "terms": []}]})
    with pytest.raises(TableFormatError):
        algebra_from_json({"field": F, "dim": 2})


# --- the hand-written basis conditions as an oracle for the law table ------

def reference_check_certified(A, name):
    """Per-identity diag/cross basis conditions, as the certified route
    spelled them out before it became one loop over the law table."""
    from altalg.algebra import IdentityReport, IdentityWitness

    d = A.dim
    e = A.basis()

    def nz(v):
        return not A.is_zero_vec(v)

    def fail(args):
        return IdentityReport(name, False, "certified", IdentityWitness(
            list(args), evaluate_identity(A, name, args)))

    if name == "associative":
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if nz(A.associator(e[i], e[j], e[k])):
                        return fail((e[i], e[j], e[k]))
        return IdentityReport(name, True, "certified")
    if name == "commutative":
        for i in range(d):
            for j in range(i + 1, d):
                if nz(A.commutator(e[i], e[j])):
                    return fail((e[i], e[j]))
        return IdentityReport(name, True, "certified")
    if name == "anticommutative":
        for i in range(d):
            if nz(A.mul(e[i], e[i])):
                return fail((e[i],))
        for i in range(d):
            for j in range(i + 1, d):
                if nz(A.vadd(A.mul(e[i], e[j]), A.mul(e[j], e[i]))):
                    return fail((A.vadd(e[i], e[j]),))
        return IdentityReport(name, True, "certified")
    # (diag(i, k), cross(i, j, k), diag witness, cross witness)
    asc = A.associator
    laws = {
        "left-alternative": (
            lambda i, k: asc(e[i], e[i], e[k]),
            lambda i, j, k: A.vadd(asc(e[i], e[j], e[k]), asc(e[j], e[i], e[k])),
            lambda i, k: (e[i], e[k]),
            lambda i, j, k: (A.vadd(e[i], e[j]), e[k])),
        "right-alternative": (
            lambda i, k: asc(e[k], e[i], e[i]),
            lambda i, j, k: A.vadd(asc(e[k], e[i], e[j]), asc(e[k], e[j], e[i])),
            lambda i, k: (e[k], e[i]),
            lambda i, j, k: (e[k], A.vadd(e[i], e[j]))),
        "flexible": (
            lambda i, k: asc(e[i], e[k], e[i]),
            lambda i, j, k: A.vadd(asc(e[i], e[k], e[j]), asc(e[j], e[k], e[i])),
            lambda i, k: (e[i], e[k]),
            lambda i, j, k: (A.vadd(e[i], e[j]), e[k])),
    }
    diag, cross, diag_wit, cross_wit = laws[name]
    for i in range(d):
        for k in range(d):
            if nz(diag(i, k)):
                return fail(diag_wit(i, k))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                if nz(cross(i, j, k)):
                    return fail(cross_wit(i, j, k))
    return IdentityReport(name, True, "certified")


CERTIFIED_LAWS = ("left-alternative", "right-alternative", "flexible",
                  "associative", "commutative", "anticommutative")


def random_law_algebra(F, d, rng):
    """Sparse table at a random density, optionally symmetric or
    antisymmetric, so that every certified law both holds and fails."""
    density = rng.choice((0.05, 0.2, 0.5, 0.9))
    shape = rng.choice(("free", "free", "symmetric", "antisymmetric"))
    table = {}
    for i in range(d):
        for j in range(i if shape != "free" else 0, d):
            if rng.random() >= density or (shape == "antisymmetric" and i == j):
                continue
            ks = rng.sample(range(d), rng.randint(1, min(2, d)))
            table[(i, j)] = [(k, random_nonzero(F, rng)) for k in ks]
            if shape != "free" and i != j:
                table[(j, i)] = [(k, c if shape == "symmetric" else F.neg(c))
                                 for k, c in table[(i, j)]]
    return Algebra(F, d, table)


def encoded_report(F, r):
    w = r.witness
    return (r.holds, r.provenance, None if w is None else
            ([[F.encode(a) for a in v] for v in w.args], [F.encode(a) for a in w.value]))


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), RationalField(),
                               RatFunField(2)],
                         ids=["gf2", "gf3", "rationals", "ratfun2"])
def test_certified_route_matches_hand_written_basis_conditions(F):
    # 4 fields x 104 algebras: verdicts and witnesses byte-identical
    rng = random.Random(11)
    outcomes = set()
    for n in range(104):
        A = random_law_algebra(F, 1 + n % 4, rng)
        for name in CERTIFIED_LAWS:
            got = check_identity(A, name)
            assert encoded_report(F, got) == encoded_report(
                F, reference_check_certified(A, name)), (name, A.table)
            outcomes.add((name, got.holds))
    assert outcomes == {(name, h) for name in CERTIFIED_LAWS for h in (True, False)}


def test_certified_route_matches_reference_on_zorn():
    for p in (2, 3, 5):
        A = zorn(PrimeField(p)).algebra
        for name in CERTIFIED_LAWS:
            assert (encoded_report(A.field, check_identity(A, name))
                    == encoded_report(A.field, reference_check_certified(A, name)))


# --- every identity route against values by field operations -------------

def reference_check_identity(A, name, **kw):
    """check_identity with every law value computed on A by field
    operations, as it was before the laws ran on lifted integers."""
    law = _LAWS[name]

    def first_failure(xs):
        for x in xs:
            for lin in itertools.product(A.basis(), repeat=law.linear):
                args = (*lin, x) if law.last else (x, *lin)
                if not A.is_zero_vec(law.evaluate(A, *args)):
                    return args
        return None

    if law.contraction is None:
        provenance = "certified"
        args = first_failure(A.probes() if law.degree == 2 else A.basis())
    else:
        args, provenance = search(
            A.field, A.dim, lambda *a: not A.is_zero_vec(law.evaluate(A, *a)),
            arity=1 + law.linear, rows=scan.sweep(A, law), **kw)
        if args is not None and provenance == "exhaustive":
            args = first_failure(args)
    return IdentityReport(name, args is None, provenance, None if args is None
                          else IdentityWitness(list(args), law.evaluate(A, *args)))


IDENTITY_FIELDS = {"gf2": PrimeField(2), "gf3": PrimeField(3), "gf5": PrimeField(5),
                   "gf7": PrimeField(7), "q-integral": RationalField(),
                   "q-fractional": RationalField(), "ratfun2": RatFunField(2),
                   "ratfun2-gf3": RatFunField(3)}


@pytest.mark.parametrize("kind", list(IDENTITY_FIELDS))
def test_identity_routes_match_field_operation_reference(kind):
    # all eight laws: the certified probe walk, the sampled hit (over GF(p)
    # forced by enum_cap=0) and the basis search after a failed sweep give
    # the verdict, tag, witness and encoded value of field operations
    F = IDENTITY_FIELDS[kind]
    rng = random.Random(29)
    seen, denominators = set(), set()
    for n in range(40):
        A = random_law_algebra(F, 1 + n % 4, rng)
        if kind == "q-integral":
            A = Algebra(F, A.dim, {key: [(k, Fraction(round(c * 3))) for k, c in terms]
                                   for key, terms in A.table.items()})
        denominators.add(A._lifted[1])
        caps = (0, 2 ** 20) if F.is_finite else (2 ** 20,)
        for name, cap in itertools.product(IDENTITY_NAMES, caps):
            kw = {"seed": n, "samples": 16, "enum_cap": cap}
            got = check_identity(A, name, **kw)
            assert encoded_report(F, got) == encoded_report(
                F, reference_check_identity(A, name, **kw)), (name, A.table)
            seen.add((got.provenance, got.holds))
    assert {("certified", True), ("certified", False), ("sampled", False)} <= seen
    if F.is_finite:
        assert ("exhaustive", False) in seen
    if kind == "q-integral":
        assert denominators == {1}
    elif kind == "q-fractional":
        assert max(denominators) >= 360


def test_identity_routes_on_fractional_constants_match_reference():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "q_fractional.json")
    with open(path) as fh:
        A = algebra_from_json(json.load(fh))
    assert A._lifted[1] == 1260
    for name in IDENTITY_NAMES:
        assert encoded_report(A.field, check_identity(A, name)) == encoded_report(
            A.field, reference_check_identity(A, name))


# --- the evidence search ---------------------------------------------------

@pytest.mark.parametrize("F, n", [(PrimeField(2), 1), (PrimeField(2), 4),
                                  (PrimeField(3), 1), (PrimeField(3), 3),
                                  (PrimeField(5), 0)])
def test_search_enumerates_in_elements_order(F, n):
    # F^0 holds one vector, the empty one
    order = (list(Algebra(F, n, {}).elements()) if n else [[]])
    seen = []
    assert search(F, n, lambda x: seen.append(x), enum_cap=F.order ** n) == (
        None, "exhaustive")
    assert seen == order
    assert all(type(c) is int for x in seen for c in x)
    # the first hit wins, also when a later vector would hit too
    targets = [order[len(order) // 3], order[-1]]
    assert search(F, n, lambda x: x in targets, enum_cap=10 ** 6) == (
        (targets[0],), "exhaustive")


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), RationalField(),
                               RatFunField(2)], ids=["gf2", "gf3", "q", "ratfun2"])
@pytest.mark.parametrize("arity", [1, 2, 4])
def test_search_samples_draw_as_random_element(F, arity, monkeypatch):
    n, samples = 3, 7
    draws = []
    real = F.random_element
    monkeypatch.setattr(F, "random_element",
                        lambda rng: draws.append(1) or real(rng))
    seen = []
    # below |F|^n (or over an infinite field) the search samples
    cap = F.order ** n - 1 if F.is_finite else 10 ** 6
    got = search(F, n, lambda *a: seen.append(a), arity=arity, seed=5,
                 samples=samples, enum_cap=cap)
    assert got == (None, "sampled")
    assert len(draws) == samples * arity * n
    A, rng = Algebra(F, n, {}), random.Random(5)
    expected = [tuple(A.random_element(rng) for _ in range(arity))
                for _ in range(samples)]

    def enc(args):
        return [[F.encode(a) for a in x] for x in args]

    assert [enc(args) for args in seen] == [enc(args) for args in expected]
    got, provenance = search(F, n, lambda *a: enc(a) == enc(seen[4]),
                             arity=arity, seed=5, samples=samples)
    assert enc(got) == enc(seen[4]) and provenance == "sampled"


@pytest.mark.parametrize("block", [1, 7, None], ids=["block1", "block7", "default"])
@pytest.mark.parametrize("p, n", [(3, 4), (2, 16)])
def test_search_rows_walk_matches_hit_walk(p, n, block, monkeypatch):
    # the block form of a predicate must find what the element-wise form
    # finds, with the same tag, whichever block the hit falls in
    if block is not None:
        monkeypatch.setattr(scan, "BLOCK", block)
    F, total = PrimeField(p), p ** n
    blocks = []
    rng = random.Random(p + n)
    for k in (0, 1, 3):
        indices = sorted(rng.sample(range(total), k))
        if k == 1:
            indices = [total - 1]       # the last vector, in the last block
        targets = {tuple(int(c) for c in digits) for digits in (
            [(i // p ** (n - 1 - j)) % p for j in range(n)] for i in indices)}

        def rows(X):
            blocks.append(len(X))
            found = [i for i, x in enumerate(X.astype(int).tolist())
                     if tuple(x) in targets]
            return found[0] if found else -1

        want = search(F, n, lambda x: tuple(x) in targets, enum_cap=total)
        got = search(F, n, None, enum_cap=total, rows=rows)
        assert got == want
        assert got[1] == "exhaustive" and (got[0] is None) == (k == 0)
        if got[0] is not None:
            assert all(type(c) is int for c in got[0][0])
    # blocks of p^k rows, the largest such that p^k <= BLOCK (and k <= n)
    assert max(blocks) == max(p ** k for k in range(n + 1)
                              if p ** k <= (block or scan.BLOCK))
    # below the cap the walk samples with hit, and rows is never called
    blocks.clear()
    assert search(F, n, lambda x: False, enum_cap=total - 1, samples=3,
                  rows=rows) == (None, "sampled")
    assert blocks == []


def test_search_needs_a_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            search(PrimeField(3), 2, lambda x: False, samples=samples)


def test_search_rejects_a_cap_past_int64():
    # 2^64 vectors of GF(2)^64 would be walked, numbered in int64
    with pytest.raises(ValueError, match="enum_cap must be at most"):
        search(PrimeField(2), 64, lambda x: False, enum_cap=2 ** 64)
    assert search(PrimeField(2), 64, lambda x: False, enum_cap=2 ** 63 - 1,
                  samples=2) == (None, "sampled")
