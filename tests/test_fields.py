import itertools
import random
import time

import pytest

from altalg import fields
from altalg.fields import (FieldError, Poly2, PrimeField, RatFun, RatFunField,
                           RationalField, TermBudgetError, is_prime, make_field)
from conftest import sample_elements
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
        scale = f.random_nonzero(rng)
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
