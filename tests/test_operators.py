import itertools
import random
from fractions import Fraction

import pytest
from conftest import reference_dedupe_rows, reference_normal_rows

from altalg.algebra import Algebra
from altalg.catalog import build, field_algebra, mat2, zero_algebra
from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.linalg import Matrix, Subspace, kernel
from altalg.operators import (InvertibilityVerdict, InvertibleValuesVerdict,
                              OperatorSpace, derivation_space, flatten_map,
                              invertible_in_space, invertible_values_check,
                              is_derivation, is_inner, is_leibniz,
                              leibniz_space, lemma22_derivation,
                              moens_construction, mult_lie_algebra,
                              qder_equals_end, quasider_condition_rows,
                              quasider_space, quasider_witness_q,
                              unflatten_map)
from altalg.quadratic import cd_double, zorn


def test_derivation_space_zero_algebra_is_all_maps():
    A = zero_algebra(PrimeField(3), 2)
    assert derivation_space(A).dim == 4


def test_derivation_space_of_field_is_zero():
    assert derivation_space(field_algebra(PrimeField(5))).dim == 0


def test_derivation_space_zorn_rationals_dim_14():
    D = derivation_space(zorn(RationalField()).algebra)
    assert D.dim == 14


def test_derivation_basis_maps_satisfy_law():
    A = zorn(PrimeField(3)).algebra
    D = derivation_space(A)
    for M in D.basis_maps():
        assert is_derivation(A, M)


def test_derivation_space_dim_14_in_every_catalog_characteristic():
    for p in (2, 3, 5):
        assert derivation_space(zorn(PrimeField(p)).algebra).dim == 14


def test_derivation_space_stable_under_unknown_reordering():
    # independent solve: reverse the d^2 unknown columns, solve, map back
    for A in (build("remark22").algebra, mat2(PrimeField(3))):
        F = A.field
        d = A.dim
        e = A.basis()
        P = [[A.mul(e[r], e[j]) for j in range(d)] for r in range(d)]
        rows = []
        for i in range(d):
            for j in range(d):
                terms = A.table.get((i, j), ())
                for m in range(d):
                    row = [F.zero] * (d * d)
                    for k, c in terms:
                        row[m * d + k] = F.add(row[m * d + k], c)
                    for r in range(d):
                        row[r * d + i] = F.sub(row[r * d + i], P[r][j][m])
                        row[r * d + j] = F.sub(row[r * d + j], P[i][r][m])
                    rows.append(row)
        rows = reference_dedupe_rows(F, rows)
        ker_p = kernel(Matrix(F, [row[::-1] for row in rows], d * d))
        oracle = Subspace.from_vectors(F, d * d, [row[::-1] for row in ker_p.rows])
        assert oracle == derivation_space(A).space


def reference_leibniz_rows(A, n, q_offset=0):
    """The tuple-by-tuple builder the prefix-trie builder replaced: every
    basis n-tuple from scratch with Algebra.mul, dense rows, then
    reference_normal_rows over GF(p) and Q and reference_dedupe_rows over
    GF(p)(s,t).  q_offset moves the phi([x1..xn]) block, as for the Q
    unknowns of quasiderivations."""
    F = A.field
    d = A.dim
    e = A.basis()
    rows = []
    for idx in itertools.product(range(d), repeat=n):
        prefixes = [e[idx[0]]]
        for t in range(1, n):
            prefixes.append(A.mul(prefixes[-1], e[idx[t]]))
        total = prefixes[-1]
        slot_vecs = []
        for t in range(n):
            vecs_t = []
            for r in range(d):
                v = e[r] if t == 0 else A.mul(prefixes[t - 1], e[r])
                for u in range(t + 1, n):
                    v = A.mul(v, e[idx[u]])
                vecs_t.append(v)
            slot_vecs.append(vecs_t)
        for m in range(d):
            row = [F.zero] * (q_offset + d * d)
            for k in range(d):
                if not F.is_zero(total[k]):
                    col = q_offset + m * d + k
                    row[col] = F.add(row[col], total[k])
            for t in range(n):
                for r in range(d):
                    a = slot_vecs[t][r][m]
                    if not F.is_zero(a):
                        col = r * d + idx[t]
                        row[col] = F.sub(row[col], a)
            rows.append(row)
    if F.kind == "ratfun2":
        return reference_dedupe_rows(F, rows)
    return reference_normal_rows(F, rows)


def random_sparse_algebra(F, d, rng):
    table = {}
    for i in range(d):
        for j in range(d):
            if rng.random() < 0.4:
                ks = rng.sample(range(d), rng.randint(1, 2))
                table[(i, j)] = [(k, F.random_nonzero(rng)) for k in ks]
    return Algebra(F, d, table)


def encoded(F, rows):
    return [[F.encode(a) for a in row] for row in rows]


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(5),
                               PrimeField(7), RationalField(), RatFunField(2),
                               RatFunField(3)],
                         ids=["gf2", "gf3", "gf5", "gf7", "rationals", "ratfun2",
                              "ratfun2-gf3"])
def test_trie_builder_matches_tuple_by_tuple_reference(F):
    # over GF(p) and Q the rows are the reference rows in normal form, the
    # first of each kept; over GF(2)(s,t) and GF(3)(s,t) byte-identical
    # encodings also pin the unreduced forms.  The kernels are the same
    # either way.
    from altalg.operators import _law_rows

    rng = random.Random(7)
    shapes = [(d, n) for d in (2, 3, 4) for n in (2, 3, 4) if d ** n <= 81]
    denominators = set()
    for d, n in shapes:
        A = random_sparse_algebra(F, d, rng)
        denominators.add(A._lifted[1])
        ref = reference_leibniz_rows(A, n)
        assert encoded(F, _law_rows(A, n)) == encoded(F, ref)
        want = encoded(F, kernel(Matrix(F, ref, d * d)).rows)
        assert encoded(F, leibniz_space(A, n).space.rows) == want
        if n == 2:
            assert encoded(F, derivation_space(A).space.rows) == want
            assert (encoded(F, quasider_condition_rows(A))
                    == encoded(F, reference_leibniz_rows(A, 2, q_offset=d * d)))
    if F.kind == "rationals":     # non-integral constants: Dc > 1
        assert max(denominators) > 1


def test_law_rows_of_a_nilpotent_algebra_stop_at_zero_products():
    # from the nilpotency index on (remark22: 5, trivial-nilpotent: 3) every
    # left-normed product of n basis vectors is zero, so there are no rows
    # and every map is a Leibniz-derivation of order n
    from altalg.operators import _law_rows

    cases = {"remark22": (5, (10, 20, 37, 49, 49)),
             "trivial-nilpotent": (3, (2, 4, 4))}
    for name, (nil, dims) in cases.items():
        A = build(name).algebra
        for n, dim in enumerate(dims, start=2):
            assert (_law_rows(A, n) == []) == (n >= nil)
            assert leibniz_space(A, n).dim == dim


def test_derivations_kill_unit():
    A = zorn(RationalField()).algebra
    unit = A.find_unit()
    for M in derivation_space(A).basis_maps():
        assert A.is_zero_vec(M.mulvec(unit))


def test_leibniz_equals_derivations_at_order_two():
    for A in (zorn(PrimeField(3)).algebra, build("remark22").algebra,
              build("trivial-nilpotent").algebra, mat2(PrimeField(3))):
        assert leibniz_space(A, 2).space == derivation_space(A).space


def test_leibniz_trivial_nilpotent_dim_two():
    A = build("trivial-nilpotent").algebra
    L = leibniz_space(A, 2)
    assert L.dim == 2
    for M in L.basis_maps():
        ok, _ = is_leibniz(A, M, 2)
        assert ok


def test_leibniz_rejects_low_order():
    A = build("trivial-nilpotent").algebra
    with pytest.raises(ValueError):
        leibniz_space(A, 1)
    with pytest.raises(ValueError):
        is_leibniz(A, Matrix.identity(A.field, 2), 1)


def test_leibniz_order4_contains_identity_on_remark22():
    A = build("remark22").algebra
    L = leibniz_space(A, 4)
    assert L.contains(Matrix.identity(A.field, 7))


def test_unital_leibniz_constraint():
    # (n-1) phi(1) = 0 for every basis map of a unital algebra
    A = mat2(PrimeField(3))
    unit = A.find_unit()
    for n in (2, 3):
        S = leibniz_space(A, n)
        scale = A.field.from_int(n - 1)
        for M in S.basis_maps():
            assert A.is_zero_vec(A.smul(scale, M.mulvec(unit)))


def test_moens_map_is_leibniz_on_e2f():
    A = build("trivial-nilpotent").algebra
    F = A.field
    phi = Matrix(F, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]], 2)
    ok, _ = is_leibniz(A, phi, 2)
    assert ok


def test_identity_fails_leibniz2_on_e2f_with_witness():
    A = build("trivial-nilpotent").algebra
    ok, wit = is_leibniz(A, Matrix.identity(A.field, 2), 2)
    assert not ok
    idx, diff = wit
    assert idx == (0, 0)        # first failure at (e, e)
    assert not A.is_zero_vec(diff)


def test_identity_is_leibniz_order4_over_gf3():
    A = build("remark22").algebra
    ok, _ = is_leibniz(A, Matrix.identity(A.field, 7), 4)
    assert ok


def test_quasider_space_dims():
    assert quasider_space(field_algebra(PrimeField(5))).dim == 1
    assert quasider_space(zero_algebra(PrimeField(5), 2)).dim == 4
    assert quasider_space(zorn(PrimeField(5)).algebra).dim == 15


def test_qder_equals_end():
    assert qder_equals_end(field_algebra(PrimeField(5)))
    assert qder_equals_end(zero_algebra(PrimeField(5), 2))
    assert not qder_equals_end(zorn(PrimeField(5)).algebra)


def test_quasider_witness_q_certifies():
    A = zorn(PrimeField(5)).algebra
    S = quasider_space(A)
    e = A.basis()
    for fvec in S.space.rows[:4]:
        f = unflatten_map(A.field, 8, fvec)
        Q = quasider_witness_q(S, f)
        assert Q is not None
        for i in range(8):
            for j in range(8):
                lhs = Q.mulvec(A.mul(e[i], e[j]))
                rhs = A.vadd(A.mul(f.mulvec(e[i]), e[j]),
                             A.mul(e[i], f.mulvec(e[j])))
                assert A.veq(lhs, rhs)


def test_derivations_embed_in_quasiderivations():
    for A in (zorn(PrimeField(5)).algebra, build("remark22").algebra,
              mat2(PrimeField(3))):
        D = derivation_space(A)
        S = quasider_space(A)
        for row in D.space.rows:
            assert S.space.contains_vector(row)


def test_mult_lie_algebra_small_cases():
    assert mult_lie_algebra(field_algebra(PrimeField(5))).dim == 1
    assert mult_lie_algebra(zero_algebra(PrimeField(3), 2)).dim == 0
    assert mult_lie_algebra(build("trivial-nilpotent").algebra).dim == 1


def test_mult_lie_algebra_of_mat2_is_seven_dimensional():
    # L + R spans of the full 2x2 matrix algebra overlap in the scalars and
    # commutators stay inside, so the closure has dimension 4 + 4 - 1
    assert mult_lie_algebra(mat2(PrimeField(5))).dim == 7


def test_inner_ad_on_mat2():
    A = mat2(PrimeField(3))
    a = A.basis_vec(1)            # E12
    L = A.mult_operator("left", a)
    R = A.mult_operator("right", a)
    ad = Matrix(A.field, [[A.field.sub(x, y) for x, y in zip(lr, rr)]
                          for lr, rr in zip(L.rows, R.rows)], 4)
    assert is_inner(A, ad)


def test_zero_map_is_inner():
    A = mat2(PrimeField(3))
    assert is_inner(A, Matrix.zeros(A.field, 4, 4))


def test_lemma23_derivation_is_outer():
    inst = build("lemma23-Dx")
    assert not is_inner(inst.algebra, inst.derivation)


def test_is_inner_rejects_non_derivations():
    A = mat2(PrimeField(3))
    not_a_derivation = Matrix.identity(A.field, 4)
    with pytest.raises(ValueError):
        is_inner(A, not_a_derivation)


def test_moens_on_e2f():
    r = moens_construction(build("trivial-nilpotent").algebra)
    assert r.order == 2 and r.nilpotency_index == 3
    assert r.map.rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert r.map.rank() == 2 and not r.notes


def test_moens_on_upper3():
    A = build("upper3").algebra
    r = moens_construction(A)
    assert r.order == 2 and r.map.rank() == 3
    e13 = A.mul(A.basis_vec(0), A.basis_vec(2))
    assert A.veq(r.map.mulvec(e13), A.smul(A.field.from_int(2), e13))


def test_moens_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        moens_construction(zorn(RationalField()).algebra)


def test_moens_characteristic_notes():
    # order 2 over GF(2): phi multiplies A^2 by 2 = 0, singular; reported
    A = build("trivial-nilpotent", field=PrimeField(2)).algebra
    r = moens_construction(A)
    assert any("divides n=2" in note for note in r.notes)
    assert r.map.rank() < 2


def test_invertible_in_space_zorn_derivations_common_kernel():
    A = zorn(PrimeField(3)).algebra
    v = invertible_in_space(derivation_space(A))
    assert v.kind == "none-certified" and v.reason == "common-kernel"
    one = Subspace.from_vectors(A.field, 8, [A.find_unit()])
    assert one.contains_vector(v.kernel_vector)


def test_invertible_in_space_finds_witness_on_e2f():
    A = build("trivial-nilpotent", field=PrimeField(3)).algebra
    v = invertible_in_space(derivation_space(A))
    assert v.kind == "witness" and v.provenance == "exhaustive"
    assert v.witness_map.rank() == 2


def test_invertible_in_space_zero_space():
    A = field_algebra(PrimeField(3))
    v = invertible_in_space(derivation_space(A))
    assert v.kind == "none-certified" and v.reason == "common-kernel"


def test_invertible_in_space_sampled_witness_over_rationals():
    A = build("trivial-nilpotent").algebra
    v = invertible_in_space(derivation_space(A))
    assert v.kind == "witness" and v.provenance == "sampled"
    assert v.witness_map.rank() == 2


def test_invertible_values_lemma23_exhaustive():
    inst = build("lemma23-Dx")
    v = invertible_values_check(inst.algebra, inst.derivation, "exhaustive")
    assert v.kind == "pass-exhaustive"


def test_invertible_values_fail_on_inner_mat2():
    A = mat2(PrimeField(3))
    a = A.basis_vec(1)
    L = A.mult_operator("left", a)
    R = A.mult_operator("right", a)
    ad = Matrix(A.field, [[A.field.sub(x, y) for x, y in zip(lr, rr)]
                          for lr, rr in zip(L.rows, R.rows)], 4)
    v = invertible_values_check(A, ad, "exhaustive")
    assert v.kind == "fail"
    x, dx = v.witness
    assert not A.is_zero_vec(dx)
    assert A.invert_element(dx) is None


def test_invertible_values_rejects_zero_map():
    A = mat2(PrimeField(3))
    with pytest.raises(ValueError):
        invertible_values_check(A, Matrix.zeros(A.field, 4, 4), "exhaustive")


def test_invertible_values_sample_mode():
    inst = build("lemma23-Dx")
    v = invertible_values_check(inst.algebra, inst.derivation, "sample")
    assert v.kind == "pass-sampled"


def test_lemma22_case1_construction():
    quat = build("quaternions-Q").involutive
    C = cd_double(quat, Fraction(1))
    A = C.algebra
    u = A.basis_vec(1)
    dmap, cert = lemma22_derivation(C, "I", u=u)
    assert is_derivation(A, dmap)
    assert kernel(dmap) == cert.b_space
    assert cert.gamma == Fraction(1)
    v = invertible_values_check(A, dmap, "norm-certificate", certificate=cert)
    assert v.kind == "pass-certified"


def test_norm_certificate_mode_needs_a_certificate():
    # without lemma22 data there is nothing to check: a usage error, not a
    # verdict carrying a tag for evidence nobody gathered
    inst = build("lemma23-Dx")
    with pytest.raises(ValueError, match="needs a lemma22 certificate"):
        invertible_values_check(inst.algebra, inst.derivation, "norm-certificate")


def test_lemma22_case1_rejects_bad_u():
    quat = build("quaternions-Q").involutive
    C = cd_double(quat, Fraction(1))
    A = C.algebra
    with pytest.raises(ValueError):
        lemma22_derivation(C, "I", u=A.find_unit())      # t(u) = 2
    with pytest.raises(ValueError):
        lemma22_derivation(C, "I", u=A.zero())           # u = 0
    with pytest.raises(ValueError):
        lemma22_derivation(C, "I", u=A.basis_vec(5))     # u outside B


def test_lemma22_case2_construction():
    inst = build("gagola-B")
    B = inst.extras["b_space"]
    dmap, cert = lemma22_derivation(inst.quadratic, "II", b_space=B)
    A = inst.algebra
    assert is_derivation(A, dmap)
    assert kernel(dmap) == B
    # d(a + xb) = b: applying d to x * b for b in B returns b
    for b in B.rows:
        xb = A.mul(cert.x, list(b))
        assert A.veq(dmap.mulvec(xb), list(b))
    v = invertible_values_check(A, dmap, "norm-certificate", certificate=cert)
    assert v.kind == "pass-certified"


def test_lemma22_case2_rejects_wrong_characteristic():
    q = zorn(PrimeField(3))
    B = Subspace.from_vectors(q.field, 8, [q.algebra.basis_vec(i) for i in range(4)])
    with pytest.raises(ValueError):
        lemma22_derivation(q, "II", b_space=B)


def test_lemma22_case2_rejects_non_selfdual_b():
    q = zorn(PrimeField(2))
    # span(E11, E22, u1, v1) is not totally isotropic (f(u1, v1) = 1)
    B = Subspace.from_vectors(q.field, 8, [q.algebra.basis_vec(i)
                                           for i in (0, 1, 2, 5)])
    with pytest.raises(ValueError):
        lemma22_derivation(q, "II", b_space=B)


def test_lemma22_unknown_case():
    with pytest.raises(ValueError):
        lemma22_derivation(None, "III")


def test_operator_space_contains():
    A = zorn(PrimeField(3)).algebra
    D = derivation_space(A)
    for M in D.basis_maps():
        assert D.contains(M)
    assert not D.contains(Matrix.identity(A.field, 8))


# --- derivation law: is_derivation against the old pair-by-pair loop -------

def reference_is_derivation(A, m):
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all basis pairs, written out
    as is_derivation did before it became a call to is_leibniz(., 2)."""
    e = A.basis()
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = m.mulvec(A.mul(e[i], e[j]))
            rhs = A.vadd(A.mul(m.mulvec(e[i]), e[j]), A.mul(e[i], m.mulvec(e[j])))
            if not A.veq(lhs, rhs):
                return False
    return True


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), RationalField(),
                               RatFunField(2)],
                         ids=["gf2", "gf3", "rationals", "ratfun2"])
def test_is_derivation_matches_pairwise_reference(F):
    rng = random.Random(5)
    verdicts = set()
    for n in range(24):
        d = 2 + n % 3
        A = random_sparse_algebra(F, d, rng)
        maps = [Matrix(F, [[F.random_element(rng) for _ in range(d)]
                           for _ in range(d)], d),
                Matrix.zeros(F, d, d)]
        for M in derivation_space(A).basis_maps():
            maps.append(M)
            bent = Matrix(F, [list(row) for row in M.rows], d)
            r, c = rng.randrange(d), rng.randrange(d)
            bent.rows[r][c] = F.add(bent.rows[r][c], F.one)
            maps.append(bent)
        for M in maps:
            got = is_derivation(A, M)
            assert got == reference_is_derivation(A, M)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_is_derivation_on_known_derivations():
    for A, maps in ((zorn(RationalField()).algebra, None),
                    (build("lemma23-Dx").algebra, [build("lemma23-Dx").derivation])):
        for M in maps or derivation_space(A).basis_maps():
            assert is_derivation(A, M) and reference_is_derivation(A, M)
    A = build("trivial-nilpotent").algebra
    ident = Matrix.identity(A.field, 2)
    assert not is_derivation(A, ident) and not reference_is_derivation(A, ident)


@pytest.mark.parametrize("F", [PrimeField(3), RationalField(), RatFunField(2)],
                         ids=["gf3", "rationals", "ratfun2"])
def test_map_from_images_sends_each_source_to_its_image(F):
    from altalg.operators import _map_from_images

    # unit upper-triangular sources (independent, and cheap to solve over
    # GF(2)(s,t)) in shuffled order; one image is zero
    rng = random.Random(3)
    A = zero_algebra(F, 4)
    for _ in range(6):
        sources = [[F.one if c == r else F.random_element(rng) if c > r else F.zero
                    for c in range(4)] for r in range(4)]
        rng.shuffle(sources)
        images = [A.random_element(rng) for _ in range(3)] + [A.zero()]
        phi = _map_from_images(A, sources, images)
        for src, img in zip(sources, images):
            assert A.veq(phi.mulvec(src), img)


def test_invertible_values_provenance_follows_what_was_done():
    inst = build("lemma23-Dx")
    v = invertible_values_check(inst.algebra, inst.derivation, "exhaustive")
    assert (v.kind, v.provenance) == ("pass-exhaustive", "exhaustive")
    v = invertible_values_check(inst.algebra, inst.derivation, "sample")
    assert (v.kind, v.provenance) == ("pass-sampled", "sampled")
    # the norm factorisation is checked on seeded samples only
    quat = build("quaternions-Q").involutive
    C = cd_double(quat, Fraction(1))
    dmap, cert = lemma22_derivation(C, "I", u=C.algebra.basis_vec(1))
    v = invertible_values_check(C.algebra, dmap, "norm-certificate",
                                certificate=cert)
    assert (v.kind, v.provenance) == ("pass-certified", "sampled")
    A = zorn(PrimeField(3)).algebra
    M = derivation_space(A).basis_maps()[0]
    v = invertible_values_check(A, M, "sample")
    assert (v.kind, v.provenance) == ("fail", "sampled")
    v = invertible_values_check(A, M, "exhaustive")
    assert (v.kind, v.provenance) == ("fail", "exhaustive")


# --- the sampled loops that now go through algebra.search ------------------

def reference_invertible_values_sample(A, dmap, *, seed=42, samples=128):
    """invertible_values_check(mode='sample') before algebra.search."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = A.random_element(rng)
        v = dmap.mulvec(x)
        if A.is_zero_vec(v):
            continue
        if A.invert_element(v) is None:
            return InvertibleValuesVerdict("fail", "sampled", witness=(x, v))
    return InvertibleValuesVerdict(
        "pass-sampled", "sampled",
        detail=f"{samples} seeded samples, no witness")


def reference_invertible_in_space_sampled(S, *, seed=42, samples=128):
    """The seeded-combination stage of invertible_in_space before
    algebra.search."""
    A = S.algebra
    F = A.field
    d = A.dim
    rng = random.Random(seed)
    for _ in range(samples):
        coeffs = [F.random_element(rng) for _ in range(S.dim)]
        vec = [F.zero] * (d * d)
        for c, row in zip(coeffs, S.space.rows):
            if F.is_zero(c):
                continue
            for i in range(d * d):
                vec[i] = F.add(vec[i], F.mul(c, row[i]))
        m = unflatten_map(F, d, vec)
        if m.rank() == d:
            return InvertibilityVerdict("witness", "sampled",
                                        witness_map=m, witness_coeffs=coeffs)
    return InvertibilityVerdict("inconclusive", "sampled", samples_tried=samples)


def _encoded(F, v):
    if v is None:
        return None
    if isinstance(v, Matrix):
        return [[F.encode(a) for a in row] for row in v.rows]
    if v and isinstance(v[0], (list, tuple)):
        return [_encoded(F, x) for x in v]
    return [F.encode(a) for a in v]


def _derivation_case(label):
    if label.startswith("zorn-"):
        F = {"zorn-gf2": PrimeField(2), "zorn-gf3": PrimeField(3),
             "zorn-q": RationalField()}[label]
        A = zorn(F).algebra
        return A, derivation_space(A).basis_maps()[-1]
    if label == "lemma23-gf3":
        inst = build("lemma23-Dx")
        return inst.algebra, inst.derivation
    if label == "lemma22-I-q":
        C = cd_double(build("quaternions-Q").involutive, Fraction(1))
        return C.algebra, lemma22_derivation(C, "I", u=C.algebra.basis_vec(1))[0]
    # ad_a = L_a - R_a on 2x2 matrices over GF(2)(s,t), a = E11: the value at
    # x is [[0, x12], [-x21, 0]], invertible iff x12 and x21 are nonzero
    A = mat2(RatFunField(2))
    L = A.mult_operator("left", A.basis_vec(0))
    R = A.mult_operator("right", A.basis_vec(0))
    return A, Matrix(A.field, [[A.field.sub(x, y) for x, y in zip(lr, rr)]
                               for lr, rr in zip(L.rows, R.rows)], 4)


@pytest.mark.parametrize("label", ["zorn-gf2", "zorn-gf3", "lemma23-gf3",
                                   "zorn-q", "lemma22-I-q", "mat2-ad-ratfun2"])
def test_invertible_values_sample_matches_reference(label):
    A, dmap = _derivation_case(label)
    F = A.field
    kinds = set()
    for seed in (1, 2):
        want = reference_invertible_values_sample(A, dmap, seed=seed, samples=12)
        got = invertible_values_check(A, dmap, "sample", seed=seed, samples=12)
        assert (got.kind, got.provenance, got.detail) == (
            want.kind, want.provenance, want.detail)
        assert _encoded(F, got.witness) == _encoded(F, want.witness)
        kinds.add(want.kind)
    expected = {"zorn-gf2": {"fail"}, "zorn-gf3": {"fail"},
                "lemma23-gf3": {"pass-sampled"}, "lemma22-I-q": {"pass-sampled"},
                "mat2-ad-ratfun2": {"fail", "pass-sampled"}}
    if label in expected:
        assert kinds == expected[label]


def _operator_space(F, d, maps):
    if maps is None:    # two seeded random maps (not monomial over GF(2)(s,t))
        rng = random.Random(7)
        vecs = [[F.random_element(rng) for _ in range(d * d)] for _ in range(2)]
    else:
        vecs = [[F.from_int(a) for a in m] for m in maps]
    return OperatorSpace(zero_algebra(F, d), "test",
                         Subspace.from_vectors(F, d * d, vecs))


# flattened d x d maps whose span has no common kernel vector:
# the alternating 3x3 maps are all singular (odd size), the swaps
# a E12 + b E21 are invertible iff a b != 0, and the diagonal maps
# iff every entry is nonzero
_SPACES = {
    "random-3": (3, None),
    "alternating-3": (3, [[0, 1, 0, -1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0],
                          [0, 0, 0, 0, 0, 1, 0, -1, 0]]),
    "swap-2": (2, [[0, 1, 0, 0], [0, 0, 1, 0]]),
    "diagonal-3": (3, [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0, 0, 0, 0, 1]]),
}


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), RationalField(),
                               RatFunField(2)], ids=["gf2", "gf3", "q", "ratfun2"])
@pytest.mark.parametrize("space", list(_SPACES))
def test_invertible_in_space_sampling_matches_reference(F, space):
    d, maps = _SPACES[space]
    S = _operator_space(F, d, maps)
    kinds = set()
    for seed in (1, 2, 3):
        want = reference_invertible_in_space_sampled(S, seed=seed, samples=6)
        # enum_cap=0 keeps the finite fields off the numpy enumeration
        got = invertible_in_space(S, seed=seed, samples=6, enum_cap=0)
        assert (got.kind, got.provenance, got.samples_tried) == (
            want.kind, want.provenance, want.samples_tried)
        assert _encoded(F, got.witness_coeffs) == _encoded(F, want.witness_coeffs)
        assert _encoded(F, got.witness_map) == _encoded(F, want.witness_map)
        kinds.add(want.kind)
    if space == "alternating-3":
        assert kinds == {"inconclusive"}
    if space != "alternating-3" and not F.is_finite:
        assert kinds == {"witness"}
