import random
from fractions import Fraction

import pytest

from altalg.algebra import check_identity
from altalg.catalog import build
from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.linalg import Subspace
from altalg.quadratic import (QuadraticAlgebra, cd_double, cd_tower, cd_inverse,
                              find_isotropic, ground_field, orthocomplement,
                              zorn)


@pytest.fixture(scope="module")
def zq():
    return zorn(RationalField())


@pytest.fixture(scope="module")
def z3():
    return zorn(PrimeField(3))


def test_zorn_shape(z3):
    assert z3.dim == 8
    assert z3.algebra.find_unit() == [1, 1, 0, 0, 0, 0, 0, 0]


def test_zorn_trace_of_diagonal(zq, rng):
    F = zq.field
    for _ in range(16):
        a, b = F.random_element(rng), F.random_element(rng)
        x = [a, b] + [F.zero] * 6
        assert F.eq(zq.trace(x), F.add(a, b))


def test_zorn_norm_examples(z3):
    F = z3.field
    # n(diag(2,2)) = 4 = 1 over GF(3)
    assert z3.norm([2, 2, 0, 0, 0, 0, 0, 0]) == 1
    # n = alpha beta - (u, v)
    assert z3.norm([0, 0, 1, 0, 0, 1, 0, 0]) == F.neg(1)


def test_quadratic_relation_exhaustive_gf2():
    Z = zorn(PrimeField(2))
    count = 0
    for x in Z.algebra.elements():
        assert Z.algebra.is_zero_vec(Z.quadratic_residual(x))
        count += 1
    assert count == 256


def test_quadratic_data_unit(zq):
    u = zq.unit
    assert zq.trace(u) == Fraction(2) and zq.norm(u) == Fraction(1)
    assert zq.conjugate(u) == u


def test_conjugate_of_diagonal(zq):
    F = zq.field
    x = [Fraction(5), Fraction(7)] + [F.zero] * 6
    assert zq.conjugate(x) == [Fraction(7), Fraction(5)] + [F.zero] * 6


def test_x_times_conjugate_is_norm(zq, rng):
    A = zq.algebra
    for _ in range(32):
        x = A.random_element(rng)
        assert A.veq(A.mul(x, zq.conjugate(x)), A.smul(zq.norm(x), zq.unit))


def test_bilinear_f_unit(zq):
    assert zq.bilinear(zq.unit, zq.unit) == Fraction(2)


def test_bilinear_f_unit_char2():
    Z = zorn(PrimeField(2))
    assert Z.bilinear(Z.unit, Z.unit) == 0


def test_bilinear_u1_v1(zq):
    u1, v1 = zq.algebra.basis_vec(2), zq.algebra.basis_vec(5)
    assert zq.bilinear(u1, v1) == Fraction(-1)


def test_bilinear_matches_polarization(zq, rng):
    A = zq.algebra
    F = zq.field
    for _ in range(64):
        x, y = A.random_element(rng), A.random_element(rng)
        pol = F.sub(F.sub(zq.norm(A.vadd(x, y)), zq.norm(x)), zq.norm(y))
        assert F.eq(zq.bilinear(x, y), pol)
        assert F.eq(zq.bilinear(x, y), zq.bilinear(y, x))


def test_orthocomplement_of_unit_line(zq):
    one = Subspace.from_vectors(zq.field, 8, [zq.unit])
    perp = orthocomplement(zq, one)
    assert perp.dim == 7
    for row in perp.rows:
        assert zq.trace(list(row)) == 0


def test_orthocomplement_of_full_space_is_zero(zq):
    assert orthocomplement(zq, Subspace.full(zq.field, 8)).dim == 0


def test_orthocomplement_gagola_b_self_dual():
    inst = build("gagola-B")
    B = inst.b_space
    assert orthocomplement(inst.quadratic, B) == B


def test_cd_inverse_matches_linear_solve_everywhere():
    Z = zorn(PrimeField(3))
    A = Z.algebra
    for x in A.elements():
        lin = A.invert_element(x)
        cd = cd_inverse(Z, x)
        assert (lin is None) == (cd is None)
        if lin is not None:
            assert A.veq(lin, cd)


def test_cd_inverse_self_inverse_diag(z3):
    x = [1, 2, 0, 0, 0, 0, 0, 0]
    assert cd_inverse(z3, x) == x
    assert cd_inverse(z3, z3.algebra.basis_vec(0)) is None


def test_ground_field_double_gives_v_squared_gamma():
    F = RationalField()
    c2 = cd_double(ground_field(F), Fraction(-1))
    A = c2.algebra
    v = A.basis_vec(1)
    assert A.mul(v, v) == [Fraction(-1), Fraction(0)]
    assert check_identity(A, "commutative").holds


def test_double_rejects_zero_gamma():
    with pytest.raises(ValueError):
        cd_double(ground_field(RationalField()), Fraction(0))


def test_quaternions_are_associative_and_anisotropic_sampled():
    inst = build("quaternions-Q")
    assert check_identity(inst.algebra, "associative").holds
    res = find_isotropic(inst.quadratic)
    assert res.witness is None and res.provenance == "sampled"


def test_split_octonions_norm_of_one_plus_v():
    inst = build("split-octonions-Q")
    A = inst.algebra
    x = A.vadd(A.basis_vec(0), A.basis_vec(4))
    assert inst.quadratic.norm(x) == 0


def test_tower_identity_suite_matches_zorn():
    inst = build("split-octonions-Q")
    A = inst.algebra
    for name in ("left-alternative", "right-alternative", "flexible"):
        assert check_identity(A, name).holds
    assert not check_identity(A, "associative").holds


def test_tower_isomorphic_to_zorn_via_constructed_frame():
    from altalg.quadratic import zorn_isomorphism

    inst = build("split-octonions-Q")
    P = zorn_isomorphism(inst.quadratic)        # raises unless fully certified
    assert P.rank() == 8


def test_zorn_frame_self_consistency():
    from altalg.quadratic import zorn_frame

    for F in (PrimeField(3), PrimeField(5), RationalField()):
        Z = zorn(F)
        frame = zorn_frame(Z)
        A = Z.algebra
        e1, e2 = frame[0], frame[1]
        assert A.veq(A.mul(e1, e1), e1) and A.veq(A.mul(e2, e2), e2)
        assert A.is_zero_vec(A.mul(e1, e2))
        assert A.veq(A.vadd(e1, e2), Z.unit)


def test_zorn_frame_rejects_char2_and_division_algebras():
    from altalg.quadratic import zorn_frame, zorn_isomorphism

    with pytest.raises(ValueError):
        zorn_frame(zorn(PrimeField(2)))
    with pytest.raises(ValueError):
        zorn_isomorphism(build("quaternions-Q").quadratic)


def test_doubling_norm_is_norm_minus_gamma_norm(rng):
    quat = build("quaternions-Q").involutive
    F = quat.algebra.field
    dbl = cd_double(quat, Fraction(1))
    q8, q4 = dbl.quadratic, quat.quadratic
    for _ in range(32):
        a = quat.algebra.random_element(rng)
        b = quat.algebra.random_element(rng)
        z = list(a) + list(b)
        assert F.eq(q8.norm(z), F.sub(q4.norm(a), q4.norm(b)))
        assert F.eq(q8.trace(z), q4.trace(a))


def test_find_isotropic_exhaustive_on_split():
    for p in (2, 3):
        Z = zorn(PrimeField(p))
        res = find_isotropic(Z)
        assert res.provenance == "exhaustive"
        assert res.witness is not None
        assert Z.field.is_zero(Z.norm(res.witness))
        assert not Z.algebra.is_zero_vec(res.witness)
        xbar = Z.conjugate(res.witness)
        assert Z.algebra.is_zero_vec(Z.algebra.mul(res.witness, xbar))


def test_norm_multiplicativity_sampled(rng):
    for F in (PrimeField(5), RationalField()):
        q = zorn(F)
        A = q.algebra
        for _ in range(64):
            x, y = A.random_element(rng), A.random_element(rng)
            assert F.eq(q.norm(A.mul(x, y)), F.mul(q.norm(x), q.norm(y)))


def test_involution_is_antiautomorphism(z3):
    inv = z3.as_involutive()
    A = z3.algebra
    rng = random.Random(3)
    for _ in range(32):
        x, y = A.random_element(rng), A.random_element(rng)
        assert A.veq(inv.apply(A.mul(x, y)),
                     A.mul(inv.apply(y), inv.apply(x)))
        assert A.veq(inv.apply(inv.apply(x)), x)


def test_quadratic_constructor_rejects_wrong_trace():
    F = RationalField()
    A = zorn(F).algebra
    with pytest.raises(ValueError):
        QuadraticAlgebra(A, [F.one] + [F.zero] * 7, [[F.zero] * 8 for _ in range(8)])


def test_zorn_over_ratfun2_quadratic_relation_on_probes():
    # construction itself certifies the relation on basis + pair probes
    Z = zorn(RatFunField(2))
    assert Z.dim == 8


def reference_find_isotropic(C, *, seed=42, samples=128, enum_cap=2 ** 20):
    """The enumeration and sampling loops find_isotropic had before it went
    through algebra.search; kept as the reference for its witnesses."""
    A = C.algebra
    F = C.field
    count = A.element_count()
    if count is not None and count <= enum_cap:
        for x in A.elements():
            if not A.is_zero_vec(x) and F.is_zero(C.norm(x)):
                return x, "exhaustive"
        return None, "exhaustive"
    rng = random.Random(seed)
    for _ in range(samples):
        x = A.random_element(rng)
        if not A.is_zero_vec(x) and F.is_zero(C.norm(x)):
            return x, "sampled"
    return None, "sampled"


@pytest.mark.parametrize("label", [
    "zorn-gf2", "zorn-gf3", "zorn-q", "zorn-ratfun2", "quaternions-gf3",
    "quaternions-q", "gagola-B"])
@pytest.mark.parametrize("enum_cap", [2 ** 20, 0])
def test_find_isotropic_matches_reference(label, enum_cap):
    C = {
        "zorn-gf2": lambda: zorn(PrimeField(2)),
        "zorn-gf3": lambda: zorn(PrimeField(3)),
        "zorn-q": lambda: zorn(RationalField()),
        "zorn-ratfun2": lambda: zorn(RatFunField(2)),
        "quaternions-gf3": lambda: cd_tower(PrimeField(3), (-1, -1)).quadratic,
        "quaternions-q": lambda: build("quaternions-Q").quadratic,
        "gagola-B": lambda: build("gagola-B").quadratic,
    }[label]()
    F = C.field
    outcomes = set()
    for seed in (1, 2, 3):
        want, want_tag = reference_find_isotropic(C, seed=seed, samples=24,
                                                  enum_cap=enum_cap)
        got = find_isotropic(C, seed=seed, samples=24, enum_cap=enum_cap)
        assert got.provenance == want_tag
        enc = (lambda v: None if v is None else [F.encode(a) for a in v])
        assert enc(got.witness) == enc(want)
        outcomes.add(want is None)
    if label == "quaternions-q":
        assert outcomes == {True}       # anisotropic: nothing is found
    if label in ("zorn-gf2", "zorn-gf3", "quaternions-gf3"):
        assert outcomes == {False}      # split: a witness is found
