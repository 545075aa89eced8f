"""The checks every algebra constructor runs, on lifted values, against the
field-operation loops they replaced: the quadratic relation of
``QuadraticAlgebra``, the involution laws of ``InvolutiveAlgebra``, the
unit system of ``Algebra.find_unit`` and the table and involution that
``cd_double`` builds.  The ``reference_*`` functions are those loops.

Outcomes and error messages must agree, so a planted fault is reported at
the same first probe or basis pair; units, tables and involutions must be
byte-identical under ``F.encode``, which pins the unreduced GF(p)(s, t)
forms too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import algebras, elements

from altalg.algebra import Algebra, algebra_to_json
from altalg.catalog import build
from altalg.fields import Poly2, PrimeField, RatFun, RatFunField, RationalField
from altalg.linalg import Matrix, solve
from altalg.quadratic import (InvolutiveAlgebra, QuadraticAlgebra, cd_double,
                              ground_field, zorn)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


# ---- the loops replaced --------------------------------------------------------

def reference_find_unit(A):
    rows, rhs = [], []
    for e in A.basis():
        # R_{e_i} x = x e_i = e_i, then L_{e_i} x = e_i x = e_i
        for side in ("right", "left"):
            rows.extend(A.mult_operator(side, e).rows)
            rhs.extend(e)
    return solve(Matrix(A.field, rows, A.dim), rhs)


def reference_quadratic_relation(q):
    A = q.algebra
    for x in A.probes():
        if not A.is_zero_vec(q.quadratic_residual(x)):
            raise ValueError("quadratic relation fails on probe element "
                             + A.fmt(x))


def reference_quadratic(A, trace_vec, qform):
    """QuadraticAlgebra(A, trace_vec, qform), its checks by the loops here."""
    F = A.field
    unit = reference_find_unit(A)
    if unit is None:
        raise ValueError("quadratic algebra must be unital")
    q = QuadraticAlgebra.__new__(QuadraticAlgebra)
    q.algebra, q.unit = A, unit
    q.trace_vec, q.qform = list(trace_vec), [list(r) for r in qform]
    q._lift_forms()
    if not F.eq(q.trace(unit), F.add(F.one, F.one)):
        raise ValueError("trace of the unit must be 2")
    if not F.eq(q.norm(unit), F.one):
        raise ValueError("norm of the unit must be 1")
    reference_quadratic_relation(q)
    return q


def reference_involution(A, sigma):
    """InvolutiveAlgebra's checks of sigma, one mulvec per application."""
    if reference_find_unit(A) is None:
        raise ValueError("involutive algebra must be unital")
    e = A.basis()
    for i in range(A.dim):
        if not A.veq(sigma.mulvec(sigma.mulvec(e[i])), e[i]):
            raise ValueError("involution does not square to the identity")
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = sigma.mulvec(A.mul(e[i], e[j]))
            rhs = A.mul(sigma.mulvec(e[j]), sigma.mulvec(e[i]))
            if not A.veq(lhs, rhs):
                raise ValueError("involution is not an anti-automorphism "
                                 f"on the basis pair ({i},{j})")


def reference_cd_double(B, gamma):
    """The table and involution of cd_double(B, gamma), each basis product
    by A.mul: (table entries as algebra_to_json writes them, sigma)."""
    A = B.algebra
    F = A.field
    m = A.dim
    d = 2 * m
    e = A.basis()
    sig = [B.sigma.mulvec(x) for x in e]
    table = {}

    def put(i, j, first, second):
        table[(i, j)] = list(enumerate(first + second))

    zero = A.zero()
    for i in range(m):
        for j in range(m):
            put(i, j, A.mul(e[i], e[j]), zero)
            put(i, m + j, zero, A.mul(sig[i], e[j]))
            put(m + i, j, zero, A.mul(e[j], e[i]))
            put(m + i, m + j, A.smul(gamma, A.mul(e[j], sig[i])), zero)
    sigma = Matrix.zeros(F, d, d)
    for j in range(m):
        for i in range(m):
            sigma.rows[i][j] = sig[j][i]
        sigma.rows[m + j][m + j] = F.neg(F.one)
    return algebra_to_json(Algebra(F, d, table))["table"], sigma


def outcome(make):
    """("ok", value) or ("error", message) of make()."""
    try:
        return "ok", make()
    except ValueError as exc:
        return "error", str(exc)


def encoded(F, rows):
    return None if rows is None else [[F.encode(a) for a in r] for r in rows]


def same_construction(B, gamma):
    """cd_double(B, gamma) against the reference: table and sigma bytes,
    the unit, and the outcome of both constructor checks."""
    D = cd_double(B, gamma)
    F = D.algebra.field
    table, sigma = reference_cd_double(B, gamma)
    assert algebra_to_json(D.algebra)["table"] == table
    assert encoded(F, D.sigma.rows) == encoded(F, sigma.rows)
    assert encoded(F, [D.algebra.find_unit()]) == encoded(
        F, [reference_find_unit(D.algebra)])
    assert outcome(lambda: reference_involution(D.algebra, D.sigma)) == ("ok", None)
    q = D.quadratic
    assert outcome(lambda: reference_quadratic(D.algebra, q.trace_vec, q.qform))[0] == "ok"
    return D


# ---- random algebras ------------------------------------------------------------

@st.composite
def unitized(draw):
    """F 1 + A for a random algebra A of ``strategies.algebras``: e_0 is the
    unit, e_{i+1} the basis vectors of A."""
    A = draw(algebras(max_dim=3))
    F, d = A.field, A.dim + 1
    table = {(0, 0): [(0, F.one)]}
    for i in range(1, d):
        table[(0, i)] = table[(i, 0)] = [(i, F.one)]
    for (i, j), terms in A.table.items():
        table[(i + 1, j + 1)] = [(k + 1, c) for k, c in terms]
    return Algebra(F, d, table)


@PROPERTY
@given(st.data())
def test_quadratic_checks_match_the_field_operation_loops(data):
    # random forms on random and on unital algebras; with t(1) = 2 and
    # n(1) = 1 planted, the relation check runs and names its first probe
    A = data.draw(st.one_of(algebras(), unitized()))
    F, d = A.field, A.dim
    trace_vec = data.draw(st.lists(elements(F), min_size=d, max_size=d))
    qform = data.draw(st.lists(st.lists(elements(F), min_size=d, max_size=d),
                               min_size=d, max_size=d))
    if data.draw(st.booleans()) and A.table.get((0, 0)) == ((0, F.one),):
        trace_vec[0] = F.add(F.one, F.one)
        qform[0][0] = F.one
        for j in range(1, d):
            qform[0][j] = F.zero
    got = outcome(lambda: QuadraticAlgebra(A, trace_vec, qform))
    want = outcome(lambda: reference_quadratic(A, trace_vec, qform))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert encoded(F, [got[1].unit]) == encoded(F, [want[1].unit])


@PROPERTY
@given(st.data())
def test_involution_checks_match_the_field_operation_loops(data):
    # a diagonal sigma of signs squares to 1, so the anti-automorphism law
    # runs; a random sigma mostly fails sigma^2 = 1 first
    A = data.draw(st.one_of(algebras(), unitized()))
    F, d = A.field, A.dim
    if data.draw(st.booleans()):
        signs = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        sigma = Matrix.identity(F, d)
        for i, s in enumerate(signs):
            if s:
                sigma.rows[i][i] = F.neg(F.one)
    else:
        sigma = Matrix(F, data.draw(st.lists(
            st.lists(elements(F), min_size=d, max_size=d), min_size=d, max_size=d)), d)
    got = outcome(lambda: InvolutiveAlgebra(A, sigma) and None)
    assert got == outcome(lambda: reference_involution(A, sigma))


@PROPERTY
@given(algebras())
def test_find_unit_matches_the_operator_rows(A):
    F = A.field
    got, want = A.find_unit(), reference_find_unit(A)
    assert encoded(F, got and [got]) == encoded(F, want and [want])


# ---- catalog algebras and doubling towers ----------------------------------------

def ratfun(F, num, den):
    return RatFun(Poly2(F.p, num), Poly2(F.p, den))


def tower_gammas(F):
    """Doubling parameters: over Q with denominators, so that the tables
    of the doubles have a common denominator Dc > 1; over GF(p)(s, t)
    fractions in s and t."""
    if F.kind == "rationals":
        return [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    if F.kind == "ratfun2":
        return [F.s(), ratfun(F, {(0, 1): 1}, {(0, 0): 1, (1, 0): 1}), F.from_int(-1)]
    return [F.from_int(-1), F.from_int(2 if F.p > 2 else 1), F.one]


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(7),
                               RationalField(), RatFunField(2), RatFunField(3)],
                         ids=["gf2", "gf3", "gf7", "q", "ratfun2", "ratfun3"])
def test_doubling_towers_match_the_reference(F):
    B = ground_field(F)
    for gamma in tower_gammas(F):
        B = same_construction(B, gamma)
    assert B.algebra.dim == 8
    if F.kind == "rationals":
        assert B.algebra._lifted[1] > 1


@pytest.mark.parametrize("name, gammas", [("quaternions-Q", (-1, -1)),
                                          ("split-octonions-Q", (-1, -1, 1))])
def test_catalog_towers_match_the_reference(name, gammas):
    # the catalog's tower, each double against the reference
    F = RationalField()
    B = ground_field(F)
    for gamma in gammas:
        B = same_construction(B, F.from_int(gamma))
    assert algebra_to_json(B.algebra) == algebra_to_json(build(name).algebra)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), RationalField(),
                               RatFunField(2)], ids=["gf2", "gf3", "q", "ratfun2"])
def test_zorn_and_gagola_b_checks_match_the_reference(F):
    algebras_ = [zorn(F)]
    if F.kind == "ratfun2":
        algebras_.append(build("gagola-B").quadratic)
    for q in algebras_:
        A = q.algebra
        assert encoded(F, [A.find_unit()]) == encoded(F, [reference_find_unit(A)])
        want = reference_quadratic(A, q.trace_vec, q.qform)
        assert encoded(F, [q.unit]) == encoded(F, [want.unit])
        inv = q.as_involutive()
        assert outcome(lambda: reference_involution(A, inv.sigma)) == ("ok", None)


# ---- planted faults ----------------------------------------------------------------

def zorn_parts(F):
    q = zorn(F)
    return q.algebra, list(q.trace_vec), [list(r) for r in q.qform]


@pytest.mark.parametrize("F", [PrimeField(3), RationalField(), RatFunField(2)],
                         ids=["gf3", "q", "ratfun2"])
def test_norm_cross_term_off_by_one_is_reported_at_the_first_probe(F):
    A, trace_vec, qform = zorn_parts(F)
    qform[3][6] = F.add(qform[3][6], F.one)     # the u2 v2 cross term
    want = outcome(lambda: reference_quadratic(A, trace_vec, qform))
    assert want == ("error", "quadratic relation fails on probe element u2 + v2")
    assert outcome(lambda: QuadraticAlgebra(A, trace_vec, qform)) == want


@pytest.mark.parametrize("F", [PrimeField(3), RationalField(), RatFunField(2)],
                         ids=["gf3", "q", "ratfun2"])
def test_trace_entry_off_by_one_is_reported_at_the_first_probe(F):
    A, trace_vec, qform = zorn_parts(F)
    trace_vec[4] = F.add(trace_vec[4], F.one)   # t(u3) = 1
    want = outcome(lambda: reference_quadratic(A, trace_vec, qform))
    assert want == ("error", "quadratic relation fails on probe element u3")
    assert outcome(lambda: QuadraticAlgebra(A, trace_vec, qform)) == want


@pytest.mark.parametrize("name", ["quaternions-Q", "split-octonions-Q"])
def test_involution_with_a_sign_flipped_is_reported_at_the_first_pair(name):
    inv = build(name).involutive
    A, F = inv.algebra, inv.algebra.field
    sigma = inv.sigma.copy()
    sigma.rows[2][2] = F.neg(sigma.rows[2][2])  # sigma^2 is still 1
    want = outcome(lambda: reference_involution(A, sigma))
    assert want[0] == "error" and "anti-automorphism on the basis pair" in want[1]
    assert outcome(lambda: InvolutiveAlgebra(A, sigma) and None) == want
    twice = Matrix.identity(F, A.dim)
    twice.rows[1][1] = F.from_int(2)
    want = outcome(lambda: reference_involution(A, twice))
    assert want == ("error", "involution does not square to the identity")
    assert outcome(lambda: InvolutiveAlgebra(A, twice) and None) == want


@pytest.mark.parametrize("F", [PrimeField(3), RationalField(), RatFunField(2)],
                         ids=["gf3", "q", "ratfun2"])
def test_non_unital_tables_are_rejected(F):
    A, trace_vec, qform = zorn_parts(F)
    table = {k: v for k, v in A.table.items() if k != (0, 0)}   # E11 E11 = 0
    N = Algebra(F, 8, table)
    assert N.find_unit() is None and reference_find_unit(N) is None
    want = outcome(lambda: reference_quadratic(N, trace_vec, qform))
    assert want == ("error", "quadratic algebra must be unital")
    assert outcome(lambda: QuadraticAlgebra(N, trace_vec, qform)) == want
    assert outcome(lambda: InvolutiveAlgebra(N, Matrix.identity(F, 8))) == (
        "error", "involutive algebra must be unital")


def test_forms_and_involutions_of_the_wrong_size_are_rejected():
    F = PrimeField(3)
    A, trace_vec, qform = zorn_parts(F)
    for bad in (trace_vec[:7], trace_vec + [F.zero]):
        with pytest.raises(ValueError, match="trace vector must have length 8"):
            QuadraticAlgebra(A, bad, qform)
    for bad in (qform[:7], [row[:7] for row in qform]):
        with pytest.raises(ValueError, match="norm form must be a 8x8 matrix"):
            QuadraticAlgebra(A, trace_vec, bad)
    for rows, cols in ((7, 7), (8, 9), (9, 8)):
        with pytest.raises(ValueError, match="involution must be a 8x8 matrix"):
            InvolutiveAlgebra(A, Matrix.zeros(F, rows, cols))
