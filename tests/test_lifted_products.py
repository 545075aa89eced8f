"""The integer-lifted product and forms against the field-op loops they
replaced: over GF(p) and Q, ``Algebra.mul`` and ``QuadraticAlgebra.trace``,
``norm`` and ``bilinear`` sum exact integers and normalise once per
coordinate; over GF(p)(s, t) the same loops sum the fractions with
``RatFun``'s operators.  The ``reference_*`` functions below are the former
loops, one field operation per structure-constant term.  Values, Python types and
``F.encode`` bytes must agree."""

import json
import os
import random
from fractions import Fraction

import pytest
from conftest import random_nonzero

from altalg.algebra import Algebra, algebra_from_json, check_identity, evaluate_identity
from altalg.fields import Poly2, PrimeField, RatFun, RatFunField, RationalField
from altalg.quadratic import QuadraticAlgebra, cd_tower, zorn


def reference_mul(A, x, y):
    if len(x) != A.dim or len(y) != A.dim:
        raise ValueError("element dimension mismatch")
    F = A.field
    out = [F.zero] * A.dim
    for i, xi in enumerate(x):
        if F.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if F.is_zero(yj):
                continue
            terms = A.table.get((i, j))
            if not terms:
                continue
            s = F.mul(xi, yj)
            for k, c in terms:
                out[k] = F.add(out[k], F.mul(s, c))
    return out


def reference_trace(q, x):
    F = q.field
    s = F.zero
    for t, a in zip(q.trace_vec, x):
        if not F.is_zero(t) and not F.is_zero(a):
            s = F.add(s, F.mul(t, a))
    return s


def reference_norm(q, x):
    F = q.field
    s = F.zero
    for i, row in enumerate(q.qform):
        xi = x[i]
        if F.is_zero(xi):
            continue
        for j in range(i, len(row)):
            c = row[j]
            if not F.is_zero(c) and not F.is_zero(x[j]):
                s = F.add(s, F.mul(c, F.mul(xi, x[j])))
    return s


def reference_bilinear(q, x, y):
    F = q.field
    s = F.zero
    for i, row in enumerate(q.qform):
        for j in range(i, len(row)):
            c = row[j]
            if F.is_zero(c):
                continue
            cross = F.add(F.mul(x[i], y[j]), F.mul(x[j], y[i]))
            if not F.is_zero(cross):
                s = F.add(s, F.mul(c, cross))
    return s


FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
          RationalField()]
IDS = ["gf2", "gf3", "gf5", "gf7", "rationals"]
BIG = 2 ** 64 + 13
Q_CONSTANTS = [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(2, 9),
               Fraction(-1, 4), Fraction(7, 5), Fraction(BIG, 3), -BIG, 1, -2]


def constant(F, rng):
    """A nonzero table constant: over GF(p) a raw int, often negative or
    unreduced; over Q a Fraction or an int, some above 2**64."""
    if F.kind == "prime":
        while True:
            c = rng.randint(-3 * F.p, 3 * F.p)
            if c % F.p:
                return c
    return rng.choice(Q_CONSTANTS)


def scalar(F, rng):
    """A vector entry: over GF(p) mostly a residue, sometimes a negative or
    unreduced int; over Q a Fraction, an int or an entry above 2**64
    (sometimes 0)."""
    if F.kind == "prime":
        return rng.randrange(F.p) if rng.random() < 0.8 else rng.randint(-2 * F.p, 2 * F.p)
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return Fraction(rng.choice([1, -1]) * BIG * rng.randint(1, 9),
                        rng.randint(1, 12))
    return F.random_element(rng)


def vector(F, d, rng):
    return [scalar(F, rng) for _ in range(d)]


def random_algebra(F, d, rng):
    table = {}
    for i in range(d):
        for j in range(d):
            if rng.random() < 0.6:
                ks = rng.sample(range(d), rng.randint(1, d))
                table[(i, j)] = [(k, constant(F, rng)) for k in ks]
    return Algebra(F, d, table)


def random_form(A, rng):
    """A quadratic algebra shell with random forms, bypassing the
    construction checks (the forms need not satisfy any relation here)."""
    F, d = A.field, A.dim
    q = QuadraticAlgebra.__new__(QuadraticAlgebra)
    q.algebra = A
    q.trace_vec = [constant(F, rng) if rng.random() < 0.6 else F.zero
                   for _ in range(d)]
    q.qform = [[constant(F, rng) if rng.random() < 0.5 else F.zero
                for _ in range(d)] for _ in range(d)]
    q._lift_forms()
    return q


def assert_same(F, got, want):
    """Equal values of the same canonical Python type, encoded alike."""
    if F.kind == "prime":
        assert type(got) is int and 0 <= got < F.p, got
    else:
        assert type(got) is Fraction, got
    assert type(got) is type(want)
    assert got == want
    assert F.encode(got) == F.encode(want)


def assert_same_vec(F, got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(F, a, b)


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_mul_matches_reference_on_random_algebras(F):
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 5)
        A = random_algebra(F, d, rng)
        for _ in range(12):
            x, y = vector(F, d, rng), vector(F, d, rng)
            assert_same_vec(F, A.mul(x, y), reference_mul(A, x, y))


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_forms_match_reference_on_random_forms(F):
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 5)
        q = random_form(random_algebra(F, d, rng), rng)
        for _ in range(12):
            x, y = vector(F, d, rng), vector(F, d, rng)
            assert_same(F, q.trace(x), reference_trace(q, x))
            assert_same(F, q.norm(x), reference_norm(q, x))
            assert_same(F, q.bilinear(x, y), reference_bilinear(q, x, y))


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_zero_vectors_and_zero_products(F):
    rng = random.Random(3)
    A = random_algebra(F, 4, rng)
    q = random_form(A, rng)
    zero, x = [0] * 4, vector(F, 4, rng)
    for a, b in ((zero, x), (x, zero), (zero, zero), (A.zero(), A.zero())):
        assert_same_vec(F, A.mul(a, b), reference_mul(A, a, b))
        assert_same(F, q.bilinear(a, b), reference_bilinear(q, a, b))
    assert_same(F, q.norm(zero), reference_norm(q, zero))
    assert_same(F, q.trace(zero), reference_trace(q, zero))
    # an empty table, and a product whose terms cancel
    E = Algebra(F, 3, {})
    assert_same_vec(F, E.mul(x[:3], x[:3]), reference_mul(E, x[:3], x[:3]))
    one = F.one
    C = Algebra(F, 2, {(0, 0): [(0, one)], (1, 1): [(0, F.neg(one))]})
    assert_same_vec(F, C.mul([one, one], [one, one]),
                    reference_mul(C, [one, one], [one, one]))
    assert C.mul([one, one], [one, one]) == [F.zero, F.zero]


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_catalog_forms_match_reference(F):
    """zorn(F), and over Q a doubling tower with non-integral parameters."""
    rng = random.Random(5)
    quads = [zorn(F)]
    if F.kind == "rationals":
        quads.append(cd_tower(F, [Fraction(1, 2), Fraction(-3, 7),
                                  Fraction(5, 3)]).quadratic)
    for q in quads:
        A = q.algebra
        for _ in range(30):
            x, y = vector(F, A.dim, rng), vector(F, A.dim, rng)
            assert_same_vec(F, A.mul(x, y), reference_mul(A, x, y))
            assert_same(F, q.trace(x), reference_trace(q, x))
            assert_same(F, q.norm(x), reference_norm(q, x))
            assert_same(F, q.bilinear(x, y), reference_bilinear(q, x, y))


@pytest.mark.parametrize("F", FIELDS + [RatFunField(2)], ids=IDS + ["ratfun2"])
def test_dimension_mismatch_raises(F):
    A = Algebra(F, 3, {(0, 0): [(1, F.one)]})
    for x, y in ((A.zero()[:2], A.zero()), (A.zero(), A.zero() + [F.one])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            A.mul(x, y)
        with pytest.raises(ValueError, match="dimension mismatch"):
            reference_mul(A, x, y)


def ratfun_scalar(F, rng, nonzero=False):
    """A GF(p)(s, t) entry: often a multi-term fraction, sometimes 0/1 or a
    zero fraction over a denominator other than 1, which an unreduced sum
    must not absorb."""
    p = F.p
    kind = rng.randrange(6 if nonzero else 8)
    if kind == 6:
        return F.zero
    if kind == 7:
        return RatFun(Poly2(p, {}), Poly2(p, {(0, 0): 1, (rng.randint(0, 2), 1): 1}))
    if kind < 2:
        return random_nonzero(F, rng)

    def poly(nterms, box):
        return Poly2(p, {(rng.randint(0, box), rng.randint(0, box)):
                         rng.randint(1, p - 1) for _ in range(nterms)})

    return RatFun(poly(rng.randint(1, 3), 2), poly(rng.randint(1, 2), 1))


def test_ratfun_product_replays_field_ops():
    """Over GF(p)(s, t) the lifted loops run on the fractions themselves:
    the product and the three forms give the reference's unreduced
    fractions term for term.  Odd p shows a sign slip that GF(2) hides."""
    for p in (2, 3, 5):
        F = RatFunField(p)
        rng = random.Random(9 + p)
        for _ in range(12):
            d = rng.randint(1, 3)
            table = {(i, j): [(k, ratfun_scalar(F, rng, nonzero=True))
                              for k in rng.sample(range(d), rng.randint(1, d))]
                     for i in range(d) for j in range(d) if rng.random() < 0.6}
            A = Algebra(F, d, table)
            q = QuadraticAlgebra.__new__(QuadraticAlgebra)
            q.algebra = A
            q.trace_vec = [ratfun_scalar(F, rng) for _ in range(d)]
            q.qform = [[ratfun_scalar(F, rng) for _ in range(d)] for _ in range(d)]
            q._lift_forms()
            for _ in range(4):
                x = [ratfun_scalar(F, rng) for _ in range(d)]
                y = [ratfun_scalar(F, rng) for _ in range(d)]
                assert ([F.encode(a) for a in A.mul(x, y)]
                        == [F.encode(a) for a in reference_mul(A, x, y)])
                for got, want in ((q.trace(x), reference_trace(q, x)),
                                  (q.norm(x), reference_norm(q, x)),
                                  (q.bilinear(x, y), reference_bilinear(q, x, y))):
                    assert F.encode(got) == F.encode(want)
        # sums whose terms cancel keep their unreduced zero 0/den (over
        # GF(2) the cross terms of bilinear(x, x) are 2ab = 0, and skipped)
        a = RatFun(Poly2(p, {(1, 0): 1}), Poly2(p, {(0, 0): 1, (0, 1): 1}))
        c = F.neg(a)
        C = Algebra(F, 2, {(0, 0): [(0, a)], (1, 1): [(0, c)]})
        q = QuadraticAlgebra.__new__(QuadraticAlgebra)
        q.algebra, q.trace_vec, q.qform = C, [a, c], [[a, F.zero], [F.zero, c]]
        q._lift_forms()
        x = [a, a]
        for got, want in ((C.mul(x, x)[0], reference_mul(C, x, x)[0]),
                          (q.trace(x), reference_trace(q, x)),
                          (q.norm(x), reference_norm(q, x)),
                          (q.bilinear(x, x), reference_bilinear(q, x, x))):
            assert F.is_zero(got)
            assert F.encode(got) == F.encode(want)
            assert len(got.den.terms) > 1 or (p == 2 and got is F.zero)


def test_fractional_fixture_fails_by_sampling_with_fractional_witnesses(monkeypatch):
    """tests/fixtures/q_fractional.json, whose CLI output CI gates: sampled
    middle-Moufang and Jordan failures with non-integral printed entries,
    whose values the field-op product reproduces."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "q_fractional.json")
    with open(path) as fh:
        A = algebra_from_json(json.load(fh))
    reports = [check_identity(A, name) for name in ("middle-moufang", "jordan")]
    monkeypatch.setattr(Algebra, "mul", reference_mul)
    for r in reports:
        assert not r.holds and r.provenance == "sampled"
        args, value = r.witness.args, r.witness.value
        assert any(a.denominator != 1 for v in args for a in v)
        assert any(a.denominator != 1 for a in value)
        assert_same_vec(A.field, value, evaluate_identity(A, r.name, args))
