"""Acceptance criteria, one test per criterion.

All arithmetic is exact: every tolerance is identity-to-zero / equality.
Each test prints one pass/fail line (visible with `pytest -s` or in captured
output on failure) and asserts the criterion, including its runtime bound
where one is stated.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from altalg.algebra import check_identity, evaluate_identity, permuted, power_chain
from altalg.catalog import build, field_algebra, zero_algebra
from altalg.fields import PrimeField, RationalField
from altalg.linalg import Matrix, Subspace, kernel
from altalg.operators import (derivation_space, flatten_map,
                              invertible_combination, invertible_in_space,
                              invertible_values_check, is_inner, is_leibniz,
                              leibniz_space, lemma22_derivation,
                              moens_construction, qder_equals_end,
                              quasider_condition_rows, quasider_space)
from altalg.quadratic import cd_double, cd_inverse, orthocomplement, zorn

SEED = 42
SAMPLES = 128


def _report(num, name, ok, note=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    print(line)
    assert ok, line


def test_criterion_01_quadratic_relation():
    t0 = time.perf_counter()
    ok = True
    counts = {}
    for p in (2, 3):
        Z = zorn(PrimeField(p))
        n = 0
        for x in Z.algebra.elements():
            if not Z.algebra.is_zero_vec(Z.quadratic_residual(x)):
                ok = False
            n += 1
        counts[p] = n
    elapsed = time.perf_counter() - t0
    ok = ok and counts == {2: 256, 3: 6561} and elapsed < 5.0
    _report(1, "quadratic relation x^2 - t(x)x + n(x) = 0", ok,
            f"{counts[2]} + {counts[3]} elements in {elapsed:.2f}s < 5s")


def test_criterion_02_norm_multiplicativity():
    Z2 = zorn(PrimeField(2))
    A = Z2.algebra
    F = A.field
    elements = list(A.elements())
    ok = True
    for x in elements:
        nx = Z2.norm(x)
        for y in elements:
            if Z2.norm(A.mul(x, y)) != (nx * Z2.norm(y)) % 2:
                ok = False
                break
        if not ok:
            break
    pairs = len(elements) ** 2
    for Fs in (PrimeField(5), RationalField()):
        q = zorn(Fs)
        rng = random.Random(SEED)
        for _ in range(SAMPLES):
            x, y = q.algebra.random_element(rng), q.algebra.random_element(rng)
            if not Fs.eq(q.norm(q.algebra.mul(x, y)),
                         Fs.mul(q.norm(x), q.norm(y))):
                ok = False
    _report(2, "norm multiplicativity n(xy) = n(x)n(y)", ok,
            f"{pairs} exact pairs over GF(2); {SAMPLES} samples each over "
            "GF(5) and Q")


def test_criterion_03_invertibility_criterion():
    Z = zorn(PrimeField(3))
    A = Z.algebra
    F = A.field
    ok = True
    count = 0
    for x in A.elements():
        count += 1
        inv = A.invert_element(x)
        if (inv is not None) != (not F.is_zero(Z.norm(x))):
            ok = False
            break
        cd = cd_inverse(Z, x)
        if (cd is None) != (inv is None):
            ok = False
            break
        if cd is not None and not A.veq(cd, inv):
            ok = False
            break
    _report(3, "invertible iff n(x) != 0; cd_inverse agrees", ok,
            f"all {count} elements of Zorn/GF(3)")


def test_criterion_04_identity_suite():
    ok = True
    notes = []
    for label, F in (("GF2", PrimeField(2)), ("GF3", PrimeField(3)),
                     ("GF5", PrimeField(5)), ("Q", RationalField())):
        A = zorn(F).algebra
        for name in ("left-alternative", "right-alternative"):
            r = check_identity(A, name)
            if not (r.holds and r.provenance == "certified"):
                ok = False
        if not check_identity(A, "flexible").holds:
            ok = False
        r = check_identity(A, "middle-moufang", seed=SEED, samples=SAMPLES)
        want = "exhaustive" if F.is_finite and F.order ** 8 <= 2 ** 20 else "sampled"
        if not (r.holds and r.provenance == want):
            ok = False
        notes.append(f"{label}:moufang-{r.provenance}")
        r = check_identity(A, "associative")
        if r.holds or r.witness is None:
            ok = False
        elif A.is_zero_vec(evaluate_identity(A, "associative", r.witness.args)):
            ok = False       # witness must reproduce the failure
    _report(4, "Zorn identity suite over GF(2),GF(3),GF(5),Q", ok,
            ", ".join(notes))


def test_criterion_05_derivation_dimension_14():
    t0 = time.perf_counter()
    A = zorn(RationalField()).algebra
    F = A.field
    D = derivation_space(A)
    ok = D.dim == 14
    perm = list(reversed(range(8)))
    AP = permuted(A, perm)
    DP = derivation_space(AP)
    ok = ok and DP.dim == 14
    P = Matrix.zeros(F, 8, 8)
    for a, pa in enumerate(perm):
        P.rows[pa][a] = F.one
    back = [flatten_map(P.matmul(M).matmul(P.transpose()))
            for M in DP.basis_maps()]
    ok = ok and Subspace.from_vectors(F, 64, back) == D.space
    unit = A.find_unit()
    ok = ok and all(A.is_zero_vec(M.mulvec(unit)) for M in D.basis_maps())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(5, "dim Der(Zorn/Q) = 14, permuted-basis oracle, unit killed", ok,
            f"{elapsed:.2f}s < 10s")


def test_criterion_06_lemma22_case1():
    quat = build("quaternions-Q").involutive
    C = cd_double(quat, Fraction(1))
    A = C.algebra
    q = C.quadratic
    F = A.field
    u = A.basis_vec(1)      # the quaternion i; t(u) = 0
    dmap, cert = lemma22_derivation(C, "I", u=u)
    e = A.basis()
    ok = all(
        A.veq(dmap.mulvec(A.mul(e[i], e[j])),
              A.vadd(A.mul(dmap.mulvec(e[i]), e[j]),
                     A.mul(e[i], dmap.mulvec(e[j]))))
        for i in range(8) for j in range(8))
    rng = random.Random(SEED)
    nu = q.norm(u)
    for _ in range(SAMPLES):
        z = A.random_element(rng)
        b = list(z[4:]) + [F.zero] * 4
        expected = F.neg(F.mul(cert.gamma, F.mul(q.norm(b), nu)))
        if not F.eq(q.norm(dmap.mulvec(z)), expected):
            ok = False
            break
    ok = ok and kernel(dmap) == cert.b_space
    try:
        lemma22_derivation(C, "I", u=A.find_unit())
        ok = False
    except ValueError:
        pass
    _report(6, "split-double derivation d(a+vb) = v(bu) over the Q-quaternions", ok,
            f"64 basis pairs exact; {SAMPLES} norm-certificate samples")


def test_criterion_07_lemma22_case2():
    t0 = time.perf_counter()
    inst = build("gagola-B")
    q = inst.quadratic
    Z = inst.algebra
    F = Z.field
    B = inst.extras["b_space"]
    ok = B.dim == 4
    ok = ok and orthocomplement(q, B) == B
    ok = ok and all(Z.is_zero_vec(Z.commutator(list(a), list(b)))
                    for a in B.rows for b in B.rows)
    ok = ok and all(Z.is_zero_vec(Z.associator(list(a), list(b), list(c)))
                    for a in B.rows for b in B.rows for c in B.rows)
    dmap, cert = lemma22_derivation(q, "II", b_space=B)
    e = Z.basis()
    ok = ok and all(
        Z.veq(dmap.mulvec(Z.mul(e[i], e[j])),
              Z.vadd(Z.mul(dmap.mulvec(e[i]), e[j]),
                     Z.mul(e[i], dmap.mulvec(e[j]))))
        for i in range(8) for j in range(8))
    unit = Z.find_unit()
    x = cert.x
    for a in B.rows:
        if not Z.veq(Z.commutator(x, list(a)),
                     Z.smul(q.bilinear(list(a), x), unit)):
            ok = False
    for a in B.rows:
        for c in B.rows:
            av, cv = list(a), list(c)
            rhs = Z.smul(q.bilinear(cv, x), av)
            rhs = Z.vadd(rhs, Z.smul(q.bilinear(av, x), cv))
            rhs = Z.vadd(rhs, Z.smul(q.bilinear(x, Z.mul(av, cv)), unit))
            if not Z.veq(Z.associator(av, cv, x), rhs):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, "projection derivation d(a+xb) = b over GF(2)(s,t) with the gagola-B subfield",
            ok, f"{elapsed:.2f}s < 60s, unreduced fractions")


def test_criterion_08_lemma23_instance():
    inst = build("lemma23-Dx")        # a = 0, D = GF(4) as a 2-dim algebra
    A, d = inst.algebra, inst.derivation
    v = invertible_values_check(A, d, "exhaustive")
    ok = v.kind == "pass-exhaustive"
    ok = ok and not is_inner(A, d)
    ker = kernel(d)
    ok = ok and ker == inst.extras["kernel_space"]
    for coeffs in itertools.product((0, 1), repeat=ker.dim):
        x = A.zero()
        for c, row in zip(coeffs, ker.rows):
            if c:
                x = A.vadd(x, list(row))
        if not A.is_zero_vec(x) and A.invert_element(x) is None:
            ok = False
    _report(8, "lemma23-Dx instance: invertible values, outer, kernel a field",
            ok, "exhaustive over all 16 elements")


def test_criterion_09_remark22_singular():
    inst = build("remark22")
    A = inst.algebra
    F = A.field
    chain, s = power_chain(A)
    ok = [c.dim for c in chain] == [7, 4, 2, 1, 0] and s == 5
    for name in ("left-alternative", "right-alternative", "flexible"):
        if not check_identity(A, name).holds:
            ok = False
    D = derivation_space(A)
    a4 = chain[3]
    ok = ok and all(
        a4.contains_vector([M.rows[r][col] for r in range(7)])
        for M in D.basis_maps() for col in (5, 6))
    combos = F.order ** D.dim
    assert combos <= 2 ** 20, "exhaustive branch expected for this instance"
    scan_verdict = invertible_combination(D)
    ok = ok and (scan_verdict.kind, scan_verdict.provenance) == (
        "none-certified", "exhaustive")
    verdict = invertible_in_space(D, seed=SEED, samples=SAMPLES)
    ok = ok and verdict.kind == "none-certified"
    _report(9, "remark22 instance: every derivation is singular", ok,
            f"dim Der = {D.dim}, {combos} combinations scanned")


def test_criterion_10_identity_map_leibniz_order4():
    t0 = time.perf_counter()
    A = build("remark22").algebra
    ok, witness = is_leibniz(A, Matrix.identity(A.field, 7), 4)
    elapsed = time.perf_counter() - t0
    ok = ok and witness is None and elapsed < 5.0
    _report(10, "identity map is a Leibniz-derivation of order char+1 = 4",
            ok, f"2401 basis tuples in {elapsed:.2f}s < 5s")


def test_criterion_11_moens_construction_and_forward():
    ok = True
    for name in ("trivial-nilpotent", "upper3"):
        A = build(name).algebra
        r = moens_construction(A)
        if r.order != 2 or r.map.rank() != A.dim:
            ok = False
        leib, _ = is_leibniz(A, r.map, r.order)
        ok = ok and leib
    try:
        moens_construction(zorn(RationalField()).algebra)
        ok = False
    except ValueError:
        pass
    ZQ = zorn(RationalField()).algebra
    L2 = leibniz_space(ZQ, 2)
    verdict = invertible_in_space(L2, seed=SEED, samples=SAMPLES)
    one = Subspace.from_vectors(ZQ.field, 8, [ZQ.find_unit()])
    ok = (ok and verdict.kind == "none-certified"
          and verdict.reason == "common-kernel"
          and verdict.kernel_vector is not None
          and one.contains_vector(verdict.kernel_vector))
    _report(11, "nilpotent Leibniz-derivation construction and forward desk check", ok,
            "n = s//2 + 1 maps invertible; Zorn rejected; common kernel = <1>")


def test_criterion_12_qder_classification_desk_checks():
    F5 = PrimeField(5)
    ok = qder_equals_end(field_algebra(F5))
    ok = ok and qder_equals_end(zero_algebra(F5, 2))
    Z5 = zorn(F5).algebra
    S = quasider_space(Z5)
    ok = ok and S.dim == 15 and not qder_equals_end(Z5)
    rows = quasider_condition_rows(Z5)
    n = 128
    rev = list(reversed(range(n)))
    rows_p = [[row[rev[c]] for c in range(n)] for row in rows]
    ker_p = kernel(Matrix(F5, rows_p, n))
    unperm = [[row[rev.index(c)] for c in range(n)] for row in ker_p.rows]
    oracle = Subspace.from_vectors(F5, 64, [r[:64] for r in unperm])
    ok = ok and oracle == S.space
    _report(12, "QDer = End desk checks: field and zero algebra yes, Zorn no",
            ok, f"dim QDer(Zorn/GF5) = {S.dim}, permuted-unknown oracle agrees")
