import itertools
import random
import time

import pytest

from altalg import fields
from altalg.fields import (FieldError, Poly2, PrimeField, RatFun, RatFunField,
                           RationalField, TermBudgetError, is_prime, make_field)
from conftest import random_nonzero, sample_elements
from ratfun_reference import (reference_add, reference_mul, reference_neg,
                              reference_poly_mul, reference_sub)


def test_make_field_prime():
    f = make_field({"kind": "prime", "p": 3})
    assert f.char == 3 and f.order == 3


def test_make_field_rationals_char_zero():
    f = make_field({"kind": "rationals"})
    assert f.char == 0 and not f.is_finite


def test_make_field_rejects_composite():
    with pytest.raises(FieldError):
        make_field({"kind": "prime", "p": 4})
    with pytest.raises(FieldError):
        PrimeField(1)
    with pytest.raises(FieldError):
        RatFunField(6)


def test_is_prime_matches_sympy_below_1e5():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(-2, 10 ** 5) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n, prime", [
    (10 ** 14 + 31, True),
    (10 ** 18 + 9, True),
    # a strong pseudoprime to every base 2..23: only bases 29..41 catch it
    (3825123056546413051, False),
    (3317044064679887385961981 - 2, False),
])
def test_is_prime_large(n, prime):
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(n) is prime
    t0 = time.perf_counter()
    assert is_prime(n) is prime
    assert time.perf_counter() - t0 < 0.1


def test_is_prime_refuses_beyond_the_deterministic_bound():
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(FieldError, match="cannot decide"):
            is_prime(n)
    with pytest.raises(FieldError):
        make_field({"kind": "prime", "p": 2 ** 89 - 1})


def test_make_field_rejects_unknown_kind():
    with pytest.raises(FieldError):
        make_field({"kind": "padic"})


def test_gf3_add():
    f = PrimeField(3)
    assert f.add(2, 2) == 1


def test_rational_inverse():
    from fractions import Fraction

    f = RationalField()
    assert f.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_ratfun_s_over_t_times_t_over_s_is_one():
    f = RatFunField(2)
    s, t = f.s(), f.t()
    prod = f.mul(f.div(s, t), f.div(t, s))
    assert f.is_one(prod)
    # the representative is not reduced, only cross-multiplication equal
    assert prod.num.terms != {(0, 0): 1}


def test_ratfun_cross_multiplication_equality():
    f = RatFunField(2)
    s, t = f.s(), f.t()
    a = f.div(s, t)                     # s/t
    b = f.div(f.mul(s, t), f.mul(t, t))  # st/t^2
    assert f.eq(a, b)
    assert not f.eq(s, t)


def test_rationals_canonical_equality():
    f = RationalField()
    assert f.eq(f.parse("2/4"), f.parse("1/2"))


def test_inverse_of_zero_raises(any_field):
    with pytest.raises(ZeroDivisionError):
        any_field.inv(any_field.zero)


def test_enumerate_small_fields():
    assert list(PrimeField(2).elements()) == [0, 1]
    assert len(list(PrimeField(3).elements())) == 3


def test_enumerate_infinite_raises():
    with pytest.raises(FieldError):
        list(RationalField().elements())
    with pytest.raises(FieldError):
        list(RatFunField(2).elements())


def test_characteristic_additive_order():
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        acc = f.zero
        for n in range(1, p):
            acc = f.add(acc, f.one)
            assert not f.is_zero(acc), f"n={n} < p={p} with n*1 = 0"
        assert f.is_zero(f.add(acc, f.one))


def test_field_axioms(any_field, rng):
    f = any_field
    xs = sample_elements(f, rng, 8)
    for a, b, c in itertools.product(xs, repeat=3):
        assert f.eq(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
        assert f.eq(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
        assert f.eq(f.add(a, b), f.add(b, a))
        assert f.eq(f.mul(a, b), f.mul(b, a))
        assert f.eq(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    for a in xs:
        assert f.eq(f.add(a, f.neg(a)), f.zero)
        assert f.eq(f.mul(a, f.one), a)
        if not f.is_zero(a):
            assert f.eq(f.mul(a, f.inv(a)), f.one)


def test_ratfun_eq_is_congruence(rng):
    f = RatFunField(2)
    for _ in range(64):
        a = f.random_element(rng)
        c = f.random_element(rng)
        # a equals a rescaled representative of itself
        scale = random_nonzero(f, rng)
        b = RatFun(a.num.mul(scale.num), a.den.mul(scale.num))
        assert f.eq(a, b)
        assert f.eq(f.add(a, c), f.add(b, c))
        assert f.eq(f.mul(a, c), f.mul(b, c))


def test_ratfun_eq_equivalence_relation(rng):
    f = RatFunField(3)
    xs = [f.random_element(rng) for _ in range(24)]
    for a in xs:
        assert f.eq(a, a)
    for a, b in itertools.product(xs, repeat=2):
        assert f.eq(a, b) == f.eq(b, a)
    for a, b, c in itertools.product(xs[:8], repeat=3):
        if f.eq(a, b) and f.eq(b, c):
            assert f.eq(a, c)


def test_term_budget_guard(monkeypatch):
    monkeypatch.setattr(fields, "TERM_BUDGET", 8)
    f = RatFunField(2)
    dense = f.poly({(i, j): 1 for i in range(3) for j in range(3)})
    with pytest.raises(TermBudgetError):
        f.mul(dense, dense)


def test_prime_encoding_roundtrip():
    f = PrimeField(7)
    for a in f.elements():
        assert f.parse(f.encode(a)) == a
    assert f.parse("12") == 5
    with pytest.raises(FieldError):
        f.parse("x")


def test_prime_parse_takes_signed_ascii_integers():
    f = PrimeField(7)
    assert [f.parse(s) for s in ("-1", "+3", "12", "0", "007", 12, -1)] == \
        [6, 3, 5, 0, 0, 5, 6]


@pytest.mark.parametrize("obj", [" 7 ", "1_0", "+3\n", "\u0663", "7\n", "", "+",
                                 "1.0", "1/2", "0x1", "1" * 5000, True, 1.0,
                                 None, [1]])
def test_prime_parse_rejects_forms_outside_grammar(obj):
    # int() alone takes the first four as 0, 3, 3 and 3
    with pytest.raises(FieldError, match="bad GF\\(7\\) element encoding"):
        PrimeField(7).parse(obj)


def test_rational_encoding_roundtrip(rng):
    f = RationalField()
    for _ in range(32):
        a = f.random_element(rng)
        assert f.parse(f.encode(a)) == a
    assert f.encode(f.parse("3")) == "3"
    assert f.encode(f.parse("-4/6")) == "-2/3"
    assert [f.encode(f.parse(s)) for s in ("+3", "12", "2/4", 7)] == \
        ["3", "12", "1/2", "7"]


def test_rational_draws_are_the_fractions_of_two_randint_calls():
    # the table of draws makes the same two RNG calls per draw, in order,
    # and yields the same canonical Fraction
    from fractions import Fraction

    f = RationalField()
    for seed in (0, 7, 42):
        got, want = random.Random(seed), random.Random(seed)
        draws = [f.random_element(got) for _ in range(10_000)]
        assert draws == [Fraction(want.randint(-9, 9), want.randint(1, 9))
                         for _ in range(10_000)]
        assert got.getstate() == want.getstate()
        assert all(type(a) is Fraction for a in draws)


def test_ratfun_times_the_int_one_keeps_its_terms():
    # lifted GF(p)(s, t) values are scaled by the common denominator 1
    a = RatFun(Poly2(3, {(1, 0): 2}), Poly2(3, {(0, 0): 1, (0, 1): 1}))
    assert 1 * a is a
    with pytest.raises(TypeError):
        2 * a


@pytest.mark.parametrize("obj", ["1e99999999", "1e9999999", "1.5", "1_0", " 7 ",
                                 "7\n", "1/0", "", "1/", "/2", "1" * 5000,
                                 True, 1.5, None])
def test_rational_parse_rejects_forms_outside_grammar(obj):
    # only "int" and "num/den" are documented; an exponent must be refused
    # before Fraction expands it
    t0 = time.perf_counter()
    with pytest.raises(FieldError):
        RationalField().parse(obj)
    assert time.perf_counter() - t0 < 1.0


def test_ratfun_encoding_roundtrip(rng):
    for p in (2, 5):
        f = RatFunField(p)
        for _ in range(32):
            a = f.random_element(rng)
            assert f.eq(f.parse(f.encode(a)), a)
    f = RatFunField(2)
    enc = f.encode(f.div(f.s(), f.t()))
    assert enc == {"num": [[1, 0]], "den": [[0, 1]]}
    # odd characteristic carries explicit coefficients
    f5 = RatFunField(5)
    three_s = f5.poly({(1, 0): 3})
    assert f5.encode(three_s)["num"] == [{"e": [1, 0], "c": 3}]


def test_ratfun_parse_rejects_garbage():
    f = RatFunField(2)
    with pytest.raises(FieldError):
        f.parse({"num": [[1]], "den": [[0, 0]]})
    with pytest.raises(FieldError):
        f.parse("s/t")
    with pytest.raises(ZeroDivisionError):
        f.parse({"num": [[0, 0]], "den": []})


def test_descriptor_roundtrip(any_field):
    assert make_field(any_field.descriptor()) == any_field


def test_poly2_normalizes_zero_coefficients():
    p = Poly2(3, {(0, 0): 3, (1, 1): 2})
    assert p.terms == {(1, 1): 2}


def test_mixed_field_ratfun_operands_rejected():
    f2, f3 = RatFunField(2), RatFunField(3)
    with pytest.raises(FieldError):
        f2.eq(f2.s(), f3.s())
    with pytest.raises(FieldError):
        f2.add(f2.s(), f3.t())


# Sized products and the term-dict arithmetic must reproduce the schoolbook
# product term for term (see tests/ratfun_reference.py).

SMALL_PRIMES = (2, 3, 7)
# 2**31 - 1: the largest coefficients the sorted-key path takes; 2**61 - 1:
# the dict-loop fallback
ALL_PRIMES = SMALL_PRIMES + (2 ** 31 - 1, 2 ** 61 - 1)


def random_poly(rng, p, nterms, box=(12, 9), subst=None):
    """nterms distinct monomials in a box, nonzero coefficients; ``subst`` =
    (a, b, c, d) maps exponents (i, j) -> (a i + c j, b i + d j)."""
    a, b, c, d = subst or (1, 0, 0, 1)
    terms = {}
    while len(terms) < min(nterms, box[0] * box[1]):
        i, j = rng.randrange(box[0]), rng.randrange(box[1])
        terms[(a * i + c * j, b * i + d * j)] = rng.randrange(1, p)
    return Poly2(p, terms)


@pytest.fixture
def sorted_key_calls(monkeypatch):
    """Counts the sorted-key products that ran (returned a dict)."""
    calls = []
    real = fields._mul_sorted_keys

    def spy(p, a, b):
        out = real(p, a, b)
        calls.append(out is not None)
        return out
    monkeypatch.setattr(fields, "_mul_sorted_keys", spy)
    return calls


@pytest.mark.parametrize("p", ALL_PRIMES)
def test_poly_mul_matches_schoolbook_on_both_sides_of_the_threshold(
        p, rng, monkeypatch, sorted_key_calls):
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 64)
    sizes = (0, 1, 2, 3, 7, 8, 9, 10, 31, 40)
    for n, m in itertools.product(sizes, repeat=2):
        for subst in (None, (2, 1, 1, 2), (3, 0, 2, 1)):
            a, b = random_poly(rng, p, n, subst=subst), random_poly(rng, p, m, subst=subst)
            assert a.mul(b).terms == reference_poly_mul(a, b).terms, (p, n, m, subst)
    ran = sum(sorted_key_calls)
    assert ran == 0 if p >= 2 ** 31 else ran > 0


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_sorted_key_product_in_blocks_matches_schoolbook(p, rng, monkeypatch,
                                                         sorted_key_calls):
    # blocks of 16 term pairs: every product is combined from many parts
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 1)
    monkeypatch.setattr(fields, "_SORTED_KEY_BLOCK", 16)
    for n, m in [(2, 2), (5, 40), (40, 5), (30, 30), (60, 70)]:
        a, b = random_poly(rng, p, n, box=(9, 9)), random_poly(rng, p, m, box=(9, 9))
        assert a.mul(b).terms == reference_poly_mul(a, b).terms
    assert all(sorted_key_calls) and len(sorted_key_calls) == 5


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_poly_mul_batch_sized_operands(p, rng, sorted_key_calls):
    # the default threshold, operands spread like the benchmark's substituted
    # 6x6 eliminations: exponent boxes of thousands by hundreds
    for n, m in [(60, 80), (200, 150), (484, 522)]:
        a = random_poly(rng, p, n, box=(40, 30), subst=(2, 1, 1, 2))
        b = random_poly(rng, p, m, box=(40, 30), subst=(2, 1, 1, 2))
        assert a.mul(b).terms == reference_poly_mul(a, b).terms
    assert sorted_key_calls == [True] * 3


def test_monomial_and_zero_operands():
    for p in ALL_PRIMES:
        c = 3 % p or 1
        mono = Poly2(p, {(2, 5): c})
        poly = Poly2(p, {(0, 0): 1, (1, 3): p - 1, (4, 0): 2 % p or 1})
        zero = Poly2(p, {})
        for a, b in [(mono, poly), (poly, mono), (mono, mono), (mono, zero),
                     (zero, poly), (zero, zero)]:
            assert a.mul(b).terms == reference_poly_mul(a, b).terms


def shifted(poly, di, dj):
    return Poly2(poly.p, {(i + di, j + dj): c for (i, j), c in poly.terms.items()})


def test_gf2_products_count_parities_of_shifted_keys(rng, monkeypatch, sorted_key_calls):
    # operands far from the origin in a small box: their shifted keys span
    # at most as many values as there are term pairs, so the parities are
    # counted, in one block and (blocks of 64 pairs) in several, not sorted
    import numpy as np
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 1)
    calls = []
    for name in ("bincount", "unique"):
        monkeypatch.setattr(np, name, lambda *a, real=getattr(np, name), name=name, **k: (
            calls.append(name), real(*a, **k))[1])
    far = 10 ** 6
    for block in (fields._SORTED_KEY_BLOCK, 64):
        monkeypatch.setattr(fields, "_SORTED_KEY_BLOCK", block)
        for _ in range(20):
            a = shifted(random_poly(rng, 2, 7, box=(3, 3)), far, 3 * far)
            b = shifted(random_poly(rng, 2, rng.choice([14, 16]), box=(4, 4)), 5, far)
            assert a.mul(b).terms == reference_poly_mul(a, b).terms
        if block > 64:
            assert calls == ["bincount"] * 20
    assert calls.count("bincount") >= 20 + 2 * 20
    assert len(sorted_key_calls) == 40 and all(sorted_key_calls)
    # spread-out operands span more keys than they have term pairs: sorted
    a = Poly2(2, {(far, 0): 1, (far + 40, 3): 1, (far + 7, 30): 1})
    b = Poly2(2, {(0, far): 1, (50, far + 2): 1, (3, far + 60): 1})
    calls.clear()
    assert a.mul(b).terms == reference_poly_mul(a, b).terms
    assert calls == ["unique"]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_a_product_by_one_is_the_other_operand(p, rng):
    one = {(0, 0): 1}
    for n in (1, 1, 2, 5, 40, 600):
        a = random_poly(rng, p, n, box=(30, 30)).terms
        assert fields._mul_terms(p, a, dict(one)) is a
        assert fields._mul_terms(p, dict(one), a) is a
    a = dict(one)
    assert fields._mul_terms(p, a, dict(one)) is a


@pytest.mark.parametrize("big", [2 ** 40, 2 ** 63 + 5])
def test_key_overflow_falls_back_to_the_dict_loop(big, rng, monkeypatch,
                                                  sorted_key_calls):
    # 2**40 in both variables packs past 2**62; past 2**63 it leaves int64
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 1)
    for p in (2, 7):
        a = Poly2(p, {(big + i, big + j): c for (i, j), c in
                      random_poly(rng, p, 12).terms.items()})
        b = random_poly(rng, p, 9, subst=(1, 0, 0, 1))
        b = Poly2(p, {(big - i, big + 3 * j): c for (i, j), c in b.terms.items()})
        assert a.mul(b).terms == reference_poly_mul(a, b).terms
    assert sorted_key_calls == [False, False]


def random_ratfun(F, rng, n=4):
    p = F.p
    num = random_poly(rng, p, rng.choice([0, 1, 2, n]))
    den = random_poly(rng, p, rng.choice([1, 1, 2, n]))
    return RatFun(num, den)


@pytest.mark.parametrize("p", ALL_PRIMES)
def test_ratfun_arithmetic_matches_reference(p, rng, monkeypatch):
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 8)
    F = RatFunField(p)
    ops = [(F.add, reference_add), (F.sub, reference_sub), (F.mul, reference_mul)]
    for _ in range(60):
        a, b = random_ratfun(F, rng), random_ratfun(F, rng)
        for op, ref in ops:
            got, want = op(a, b), ref(a, b)
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
            assert F.encode(got) == F.encode(want)
        assert F.encode(F.neg(a)) == F.encode(reference_neg(a))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ratfun_eq_over_one_denominator_matches_cross_multiplication(p, rng):
    F = RatFunField(p)
    same_den = {True: 0, False: 0}
    for _ in range(300):
        a = random_ratfun(F, rng)
        kind = rng.randrange(4)
        if kind == 0:       # one denominator, another numerator
            b = RatFun(random_poly(rng, p, rng.choice([0, 1, 2])), a.den)
        elif kind == 1:     # the same term dicts, other objects
            b = RatFun(Poly2(p, dict(a.num.terms)), Poly2(p, dict(a.den.terms)))
        elif kind == 2:     # the same fraction over another denominator
            k = random_poly(rng, p, rng.choice([1, 2]))
            b = RatFun(reference_poly_mul(a.num, k), reference_poly_mul(a.den, k))
        else:
            b = random_ratfun(F, rng)
        want = (reference_poly_mul(a.num, b.den).terms
                == reference_poly_mul(b.num, a.den).terms)
        assert F.eq(a, b) == want and F.eq(b, a) == want
        if a.den.terms == b.den.terms:
            same_den[want] += 1
    assert same_den[True] and same_den[False]


def test_every_product_path_rejects_mixed_characteristic(monkeypatch):
    monkeypatch.setattr(fields, "_SORTED_KEY_PAIRS", 16)
    box = [(i, j) for i in range(5) for j in range(5)]
    one, few, many = ({e: 1 for e in box[:n]} for n in (1, 3, 20))
    # one-term, dict-loop and sorted-key operands
    for a, b in [(one, few), (few, few), (many, many)]:
        with pytest.raises(FieldError):
            Poly2(2, a).mul(Poly2(3, b))
        with pytest.raises(FieldError):
            Poly2(3, a).mul(Poly2(2, b))
    f2, f3 = RatFunField(2), RatFunField(3)
    for a, b in [(one, one), (one, few), (many, many)]:
        x = RatFun(Poly2(2, a), Poly2(2, b))
        y = RatFun(Poly2(3, b), Poly2(3, a))
        for op in (f2.add, f2.sub, f2.mul):
            with pytest.raises(FieldError):
                op(x, y)
            with pytest.raises(FieldError):
                op(y, x)
    with pytest.raises(FieldError):
        f3.mul(f3.s(), RatFun(Poly2(3, one), Poly2(2, one)))


@pytest.mark.parametrize("p", SMALL_PRIMES + (5,))
def test_ratfun_operators_are_the_field_operations(p, rng):
    """+, -, *, unary -, 0 + a, sum() and truthiness give the term dicts of
    the RatFunField methods and of the schoolbook reference."""
    F = RatFunField(p)
    zero_over = RatFun(Poly2(p, {}), Poly2(p, {(0, 0): 1, (1, 2): 1}))
    for _ in range(40):
        a, b = random_ratfun(F, rng), random_ratfun(F, rng)
        for got, method, ref in ((a + b, F.add(a, b), reference_add(a, b)),
                                 (a - b, F.sub(a, b), reference_sub(a, b)),
                                 (a * b, F.mul(a, b), reference_mul(a, b)),
                                 (-a, F.neg(a), reference_neg(a)),
                                 (0 + a, F.add(F.zero, a), a),
                                 (a + zero_over, F.add(a, zero_over),
                                  reference_add(a, zero_over))):
            assert (got.num.terms, got.den.terms) == (method.num.terms,
                                                      method.den.terms)
            assert F.encode(got) == F.encode(method) == F.encode(ref)
        c = random_ratfun(F, rng)
        assert F.encode(sum([a, b, c])) == F.encode(F.add(F.add(a, b), c))
        assert bool(a) is not F.is_zero(a)
    assert not zero_over and not F.zero and F.one
    assert F.encode(sum([zero_over])) == F.encode(zero_over)
    assert sum([]) == 0 and type(sum([])) is int


def test_ratfun_operators_guard_the_budget_and_the_field(monkeypatch):
    f2, f3 = RatFunField(2), RatFunField(3)
    # 9 terms over 1 and over 1 + t: the product, sum and difference have
    # 18, 8 and 11 terms in all
    square = {(i, j): 1 for i in range(3) for j in range(3)}
    a = RatFun(Poly2(3, square), Poly2.const(3, 1))
    b = RatFun(Poly2(3, square), Poly2(3, {(0, 0): 1, (0, 1): 1}))
    ops = (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y)
    assert [len(c.num.terms) + len(c.den.terms)
            for c in (op(a, b) for op in ops)] == [18, 8, 11]
    monkeypatch.setattr(fields, "TERM_BUDGET", 7)
    for op in ops:
        with pytest.raises(TermBudgetError):
            op(a, b)
    monkeypatch.undo()
    for op in ops:
        with pytest.raises(FieldError):
            op(f2.s(), f3.s())
        with pytest.raises(FieldError):
            op(f3.t(), f2.t())
    with pytest.raises(FieldError):
        f2.neg(f3.s())
    with pytest.raises(FieldError):
        f2.s() + RatFun(Poly2(2, {(0, 0): 1}), Poly2(3, {(0, 0): 1}))
    with pytest.raises(TypeError):
        1 + f2.s()


def naive_mulmod(a, b, f, p):
    """Schoolbook product of two coefficient lists (from degree 0) mod the
    monic f over GF(p)."""
    k = len(f) - 1
    c = [0] * (2 * k)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    for d in range(2 * k - 1, k - 1, -1):
        for i in range(k):
            c[d - k + i] = (c[d - k + i] - c[d] * f[i]) % p
    return c[:k]


def naive_power(e, f, p):
    """x^e in GF(p)[x]/(f), by square and multiply."""
    k = len(f) - 1
    out, base = [1] + [0] * (k - 1), ([0, 1] + [0] * (k - 2)) if k > 1 else [-f[0] % p]
    while e:
        if e & 1:
            out = naive_mulmod(out, base, f, p)
        base, e = naive_mulmod(base, base, f, p), e >> 1
    return out


GF_TABLE_CASES = [(2, 16), (3, 10), (5, 6), (7, 5), (17, 3)]


@pytest.mark.parametrize("p,k", GF_TABLE_CASES)
def test_gf_table_generator_has_order_q_minus_1(p, k):
    n, zech, logc = fields._gf_table(p)
    assert n == p ** k - 1 and len(zech) == n and len(logc) == p
    f = fields._primitive_poly(p, k)
    one = [1] + [0] * (k - 1)
    assert len(f) == k + 1 and f[-1] == 1
    assert naive_power(n, f, p) == one
    for r in (r for r in range(2, n + 1) if n % r == 0 and is_prime(r)):
        assert naive_power(n // r, f, p) != one, r


@pytest.mark.parametrize("p,k", GF_TABLE_CASES)
def test_gf_table_products_and_zech_sums_match_polynomial_basis(p, k, rng):
    # exponent e stands for x^e mod f, f the table's primitive polynomial
    n, zech, logc = fields._gf_table(p)
    f = fields._primitive_poly(p, k)
    zero = [0] * k

    def elem(e):
        return zero if e == 0 else naive_power(e, f, p)

    for c in range(p):
        assert elem(logc[c]) == [c] + [0] * (k - 1)
    minus_one = n if p == 2 else n // 2
    assert zech[minus_one % n] == 0 and elem(minus_one) == [p - 1] + [0] * (k - 1)
    for _ in range(40):
        a, b = rng.randint(1, n), rng.randint(1, n)
        u, v = elem(a), elem(b)
        assert naive_mulmod(u, v, f, p) == elem((a + b) % n or n)
        z = zech[(b - a) % n]
        total = [(x + y) % p for x, y in zip(u, v)]
        assert total == (zero if z == 0 else elem((a + z) % n or n))
    assert all(z or d == minus_one % n for d, z in enumerate(zech))


def test_gf_table_is_built_once_per_p(monkeypatch):
    monkeypatch.setattr(fields, "_GF_TABLES", {})
    first = fields._gf_table(5)
    assert fields._gf_table(5) is first and list(fields._GF_TABLES) == [5]


def test_gf_table_of_a_prime_near_the_bound_is_the_prime_field():
    p = 65521
    n, zech, logc = fields._gf_table(p)
    g = -fields._primitive_poly(p, 1)[0] % p
    assert n == p - 1
    for c in (1, 2, 3, 4096, p - 1):
        assert pow(g, logc[c], p) == c
    for d in (1, 7, 40000):
        assert pow(g, zech[d], p) == (1 + pow(g, d, p)) % p
