import pytest
from conftest import mat2, restricted_algebra, vneg

from altalg.algebra import check_identity, power_chain
from altalg.catalog import (CATALOG_NAMES, Instance, UnknownInstanceError,
                            build, field_algebra, gagola_generators,
                            zero_algebra)
from altalg.fields import PrimeField
from altalg.operators import is_derivation
from altalg.quadratic import cd_tower, orthocomplement


def test_all_catalog_names_build():
    for name in CATALOG_NAMES:
        inst = build(name)
        assert isinstance(inst, Instance)
        assert inst.algebra.dim >= 1


def test_every_builder_rejects_a_parameter_it_does_not_take():
    for name in CATALOG_NAMES:
        with pytest.raises(TypeError):
            build(name, no_such_parameter=1)
    with pytest.raises(TypeError):
        build("quaternions-Q", field=PrimeField(3))


def test_basis_names_are_unique():
    for name in CATALOG_NAMES:
        names = build(name).algebra.names
        assert len(set(names)) == len(names), name
    # the k-th doubling adds the generator v<k>
    assert build("quaternions-Q").algebra.names == ["1", "v1", "v2", "v1v2"]
    names = cd_tower(PrimeField(3), [2, 2, 2]).algebra.names
    assert names == ["1", "v1", "v2", "v1v2", "v3", "v1v3", "v2v3", "v1v2v3"]


def test_unknown_name_rejected():
    with pytest.raises(UnknownInstanceError):
        build("octonions-over-the-reals")


def test_zorn_instance():
    inst = build("zorn")
    assert inst.algebra.dim == 8
    assert inst.algebra.field.char == 3
    assert inst.quadratic is not None


def test_zorn_other_field():
    inst = build("zorn", field={"kind": "prime", "p": 5})
    assert inst.algebra.field.char == 5


def test_quaternions_dim4_associative():
    inst = build("quaternions-Q")
    assert inst.algebra.dim == 4
    assert check_identity(inst.algebra, "associative").holds


def test_split_octonions_dim8():
    inst = build("split-octonions-Q")
    assert inst.algebra.dim == 8
    assert not check_identity(inst.algebra, "associative").holds


def test_gagola_b_structure():
    inst = build("gagola-B")
    B = inst.b_space
    assert B.dim == 4
    assert orthocomplement(inst.quadratic, B) == B
    balg = restricted_algebra(inst.algebra, B)
    assert check_identity(balg, "commutative").holds
    assert check_identity(balg, "associative").holds
    # the generators are trace-zero with norms s and t, and lie in B
    F = inst.algebra.field
    g1, g2 = gagola_generators(F)
    assert B.contains_vector(g1) and B.contains_vector(g2)
    assert F.is_zero(inst.quadratic.trace(g1))
    assert F.eq(inst.quadratic.norm(g1), F.neg(F.s()))
    assert F.eq(inst.quadratic.norm(g2), F.neg(F.t()))


def test_gagola_b_requires_ratfun2():
    # gagola-B lives over GF(2)(s, t) and takes no field
    with pytest.raises(TypeError):
        build("gagola-B", field={"kind": "prime", "p": 2})


def test_lemma23_instance():
    inst = build("lemma23-Dx")
    A, d = inst.algebra, inst.derivation
    assert A.dim == 4 and A.field.char == 2
    assert is_derivation(A, d)
    # d(x) = 1 for a = 0
    x = A.basis_vec(2)
    assert d.mulvec(x) == A.basis_vec(0)


def test_lemma23_nonzero_parameter():
    inst = build("lemma23-Dx", a=(1, 0))
    A, d = inst.algebra, inst.derivation
    assert is_derivation(A, d)
    # d(x) = 1 + x
    assert d.mulvec(A.basis_vec(2)) == A.vadd(A.basis_vec(0), A.basis_vec(2))


def test_remark22_table_facts():
    inst = build("remark22")
    A = inst.algebra
    assert A.dim == 7 and A.field.char == 3
    e1, e2, e3, u1, u2, v, w = (A.basis_vec(i) for i in range(7))
    assert A.mul(e1, e1) == u1
    assert A.mul(e2, e2) == u2
    assert A.mul(e2, e3) == vneg(A, v) and A.mul(e3, e2) == vneg(A, v)
    assert A.mul(e3, e1) == u2 and A.mul(e1, e3) == u2
    assert A.mul(e1, u1) == v and A.mul(u1, e1) == v
    assert A.mul(e2, u2) == w and A.mul(u2, e2) == w
    assert A.mul(e1, v) == w and A.mul(v, e1) == w
    assert A.mul(u1, u1) == w
    assert A.is_zero_vec(A.mul(w, w))


def test_remark22_chain():
    chain, s = power_chain(build("remark22").algebra)
    assert [c.dim for c in chain] == [7, 4, 2, 1, 0] and s == 5


def test_trivial_nilpotent_and_upper3():
    tn = build("trivial-nilpotent").algebra
    assert tn.dim == 2 and tn.mul(tn.basis_vec(0), tn.basis_vec(0)) == tn.basis_vec(1)
    u3 = build("upper3").algebra
    assert u3.dim == 3
    assert u3.mul(u3.basis_vec(0), u3.basis_vec(2)) == u3.basis_vec(1)
    assert u3.is_zero_vec(u3.mul(u3.basis_vec(2), u3.basis_vec(0)))


def test_helper_algebras():
    fa = field_algebra(PrimeField(5))
    assert fa.find_unit() == [1]
    za = zero_algebra(PrimeField(5), 3)
    assert za.find_unit() is None
    m = mat2(PrimeField(3))
    assert check_identity(m, "associative").holds
    assert m.find_unit() == [1, 0, 0, 1]
