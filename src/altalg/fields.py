"""Exact scalar arithmetic for the three coefficient domains.

Everything downstream (matrices, structure constants, operator spaces) is
generic over a ``Field`` handle.  Elements are plain values:

* prime field GF(p)            -- ``int`` residues in ``[0, p)``
* rationals                    -- ``fractions.Fraction``
* GF(p)(s, t) rational funcs   -- ``RatFun`` pairs of sparse ``Poly2``

Rational-function fractions are deliberately *not* reduced (no multivariate
GCD); equality is decided by cross-multiplication, and a term budget aborts
runaway growth.

A ``Poly2`` is the dict of its nonzero terms, so two equal polynomials have
equal term dicts however they were computed.  Products pick their method
from the operand sizes:

* a zero operand gives the empty product;
* a factor 1 gives the other term dict itself (none is written into);
* another one-term operand shifts the other's exponents and scales its
  coefficients in one comprehension (one dict entry when both operands are
  one-term): the shift is injective and a product of nonzero residues is
  nonzero mod p, so no terms meet or cancel;
* below ``_SORTED_KEY_PAIRS`` term pairs, the schoolbook dict loop;
* from there on, the packed-exponent product of Monagan and Pearce
  (CASC 2007): each exponent (i, j), less its operand's least exponents,
  becomes the int64 key i*W + j, with W one more than the largest such j
  of the product, so all term pairs are one outer sum of key vectors and
  one outer product of coefficient vectors, which are sorted and their
  equal keys summed mod p (for p = 2 a key survives when it occurs an odd
  number of times, counted by ``np.bincount`` if there are at most as many
  possible keys as term pairs).  For p >= 2**31, or when a key of the
  unshifted exponents could reach 2**62, the dict loop runs instead.

Every method yields the canonical term dict of the product, so the results
are term-identical to the schoolbook product.  ``RatFun`` arithmetic is its
operators ``+``, ``-``, ``*``, unary ``-`` and truthiness (numerator
nonzero), on the term dicts with ``_mul_terms`` and ``_add_terms``, which
the GF(p)(s, t) elimination in ``linalg`` also uses; ``RatFunField.add``,
``sub``, ``mul`` and ``neg`` check the operands' field and apply them.  The
helpers are private because they run once per product:
``perfbench/tracer.py`` records a span for every call of a public function.

So GF(p)(s, t) values combine like the integers of GF(p) and Q: ``_lift``
hands them on as they are (D = 1), and every sum of products in
``algebra``, ``operators`` and ``quadratic`` is one loop over ``_lift``
and ``_lower`` for all three field kinds.
"""

from __future__ import annotations

import re
from array import array
from fractions import Fraction
from itertools import chain, count
from math import isqrt, lcm
from operator import itemgetter
from typing import Iterator


class FieldError(ValueError):
    """Bad field descriptor, mixed-field operands, or unsupported request."""


class TermBudgetError(FieldError):
    """A rational-function operand outgrew the configured term budget."""


class ZeroDenominatorError(FieldError, ZeroDivisionError):
    """A decoded rational function whose denominator is zero."""


# Terms a GF(p)(s, t) fraction, and a product inside elimination, may have;
# read at call time, so a test can lower it
TERM_BUDGET = 2 ** 16


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017), 985-1003)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a FieldError above ``_MR_LIMIT``, where
    these bases no longer decide primality."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise FieldError(f"cannot decide whether {n} is prime: "
                         f"only p < {_MR_LIMIT} is supported")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_json_int(obj) -> bool:
    """Whether a decoded JSON value is an integer (a bool is a Python int,
    but not a JSON number)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _lift(F, xs) -> tuple:
    """(ints, D) with xs[i] = ints[i] / D: over GF(p) the residues and
    D = 1, over Q the numerators over the lcm D of the denominators (an int
    entry counts as denominator 1), over GF(p)(s, t) the fractions
    themselves and D = 1.  Sums of products of lifted entries are sums
    started from the int 0, which ``_lower`` turns back into one element."""
    if F.kind == "prime":
        p = F.p
        return [a % p for a in xs], 1
    if F.kind == "rationals":
        D = lcm(*[a.denominator for a in xs])
        if D == 1:
            return [a.numerator for a in xs], 1
        return [a.numerator * (D // a.denominator) for a in xs], D
    return list(xs), 1


def _lower(F, v, D: int):
    """The element v / D: the residue v % p, the canonical Fraction (F.zero
    for v = 0), or over GF(p)(s, t) the accumulated fraction as it stands
    (F.zero for a sum that received no term, still the int 0)."""
    if F.kind == "prime":
        return v % F.p
    if F.kind == "rationals":
        return Fraction(v, D) if v else F.zero
    return F.zero if type(v) is int else v


# Products of at least this many term pairs are formed from sorted packed
# keys; below it the dict loop is faster (crossover measured on GF(2) and
# GF(3) operands of the sizes GF(p)(s, t) elimination produces).
_SORTED_KEY_PAIRS = 512
# Term pairs the sorted-key product materialises at once, so a product's
# temporary arrays stay a few tens of MB however large its operands.
_SORTED_KEY_BLOCK = 2 ** 20


def _mul_terms(p: int, a: dict, b: dict) -> dict:
    """Term dict of the product of two GF(p) polynomials given by their
    term dicts {(i, j): c} with 0 < c < p; see the module docstring."""
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) > 1:
        a, b = b, a
    if len(b) == 1:
        ((i2, j2), c2), = b.items()
        if (i2, j2, c2) == (0, 0, 1):
            return a
        if len(a) == 1:
            ((i1, j1), c1), = a.items()
            return b if (i1, j1, c1) == (0, 0, 1) else {(i1 + i2, j1 + j2): c1 * c2 % p}
        return {(i1 + i2, j1 + j2): c1 * c2 % p for (i1, j1), c1 in a.items()}
    if len(a) * len(b) >= _SORTED_KEY_PAIRS and p < 2 ** 31:
        out = _mul_sorted_keys(p, a, b)
        if out is not None:
            return out
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _add_terms(p: int, a: dict, b: dict, sign: int = 1) -> dict:
    """Term dict of a + sign*b for GF(p) polynomial term dicts a and b."""
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + sign * c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul_sorted_keys(p: int, a: dict, b: dict) -> dict | None:
    """The sorted-key product, or None when an exponent is negative or a
    packed key could reach 2**62 (the dict loop then runs instead)."""
    import numpy as np

    try:
        ea = np.fromiter(chain.from_iterable(a), np.int64, 2 * len(a)).reshape(-1, 2)
        eb = np.fromiter(chain.from_iterable(b), np.int64, 2 * len(b)).reshape(-1, 2)
    except OverflowError:
        return None
    (la, ma), (lb, mb) = ea.min(0).tolist(), eb.min(0).tolist()
    if min(la, ma, lb, mb) < 0:
        return None
    (ia, ja), (ib, jb) = ea.max(0).tolist(), eb.max(0).tolist()
    if (ia + ib + 1) * (ja + jb + 1) > 2 ** 62:
        return None
    w = ja + jb - ma - mb + 1   # exponents less each operand's least: keys < span
    span = (ia + ib - la - lb + 1) * w
    ka = ea[:, 0] * w + ea[:, 1] - (la * w + ma)
    kb = eb[:, 0] * w + eb[:, 1] - (lb * w + mb)
    ca = cb = None
    if p != 2:
        ca = np.fromiter(a.values(), np.int64, len(a))
        cb = np.fromiter(b.values(), np.int64, len(b))
    step = max(1, _SORTED_KEY_BLOCK // len(b))
    parts = []
    for lo in range(0, len(a), step):
        keys = (ka[lo:lo + step, None] + kb).ravel()
        coefs = None if p == 2 else (ca[lo:lo + step, None] * cb).ravel()
        parts.append(_combine_keys(p, keys, coefs, span))
    if len(parts) == 1:
        keys, coefs = parts[0]
    else:
        keys, coefs = _combine_keys(
            p, np.concatenate([k for k, _ in parts]),
            None if p == 2 else np.concatenate([c for _, c in parts]), span)
    i, j = np.divmod(keys, w)
    exps = zip((i + la + lb).tolist(), (j + ma + mb).tolist())
    if p == 2:
        return dict.fromkeys(exps, 1)
    return dict(zip(exps, coefs.tolist()))


def _combine_keys(p: int, keys, coefs, span: int):
    """Sum the coefficients of equal keys mod p and drop the zero sums; for
    p = 2 (coefs None, every coefficient 1) keep the keys seen an odd number
    of times, by ``np.bincount`` if there are ``span`` keys or more."""
    import numpy as np

    if p == 2:
        if span <= len(keys):
            return np.flatnonzero(np.bincount(keys, minlength=span) & 1), None
        keys, counts = np.unique(keys, return_counts=True)
        return keys[(counts & 1).astype(bool)], None
    if len(coefs) * (p - 1) ** 2 >= 2 ** 63:
        coefs %= p
    order = np.argsort(keys)
    keys, coefs = keys[order], coefs[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(coefs, starts) % p
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def _poly(p: int, terms: dict) -> "Poly2":
    """A Poly2 around a term dict that is already canonical."""
    res = Poly2.__new__(Poly2)
    res.p = p
    res.terms = terms
    return res


class Poly2:
    """Sparse bivariate polynomial over GF(p): map (i, j) -> nonzero coeff."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict):
        self.p = p
        self.terms = {e: c % p for e, c in terms.items() if c % p}

    @classmethod
    def const(cls, p: int, c: int) -> "Poly2":
        return cls(p, {(0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Poly2"):
        if not isinstance(other, Poly2) or self.p != other.p:
            raise FieldError("mixed-field polynomial operands")

    def add(self, other: "Poly2") -> "Poly2":
        self._check(other)
        return _poly(self.p, _add_terms(self.p, self.terms, other.terms))

    def neg(self) -> "Poly2":
        p = self.p
        return _poly(p, {e: p - c for e, c in self.terms.items()})

    def mul(self, other: "Poly2") -> "Poly2":
        self._check(other)
        return _poly(self.p, _mul_terms(self.p, self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.p == other.p and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_mono_str(e, c) for e, c in sorted(self.terms.items()))


def _mono_str(exps, c) -> str:
    i, j = exps
    parts = []
    if c != 1 or (i == 0 and j == 0):
        parts.append(str(c))
    if i:
        parts.append("s" if i == 1 else f"s^{i}")
    if j:
        parts.append("t" if j == 1 else f"t^{j}")
    return "*".join(parts)


class RatFun:
    """Unreduced fraction of two ``Poly2`` with nonzero denominator; its
    operators are the GF(p)(s, t) field operations."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def of(cls, p: int, num: dict, den: dict) -> "RatFun":
        """The fraction of two canonical GF(p) term dicts; ``den`` must be
        nonzero (a product of nonzero denominators always is)."""
        res = cls.__new__(cls)
        res.num = _poly(p, num)
        res.den = _poly(p, den)
        return res

    def _terms(self, other) -> tuple:
        """p and the four term dicts of two operands over one GF(p)."""
        p = self.num.p
        if not (isinstance(other, RatFun)
                and self.den.p == other.num.p == other.den.p == p):
            raise FieldError("mixed-field rational-function operands")
        return p, self.num.terms, self.den.terms, other.num.terms, other.den.terms

    def _plus(self, other, sign: int) -> "RatFun":
        # num*other.den + sign*other.num*den over den*other.den
        p, an, ad, bn, bd = self._terms(other)
        num = _add_terms(p, _mul_terms(p, an, bd), _mul_terms(p, bn, ad), sign)
        # the guard is looked up on the class per call, where
        # perfbench/tracer.py wraps it
        return RatFunField._guard(None, RatFun.of(p, num, _mul_terms(p, ad, bd)))

    def __add__(self, other) -> "RatFun":
        return self._plus(other, 1)

    def __radd__(self, other) -> "RatFun":
        # sums start from the int 0, and 0 + a has the term dicts of a
        if type(other) is int and other == 0:
            return self
        return NotImplemented

    def __sub__(self, other) -> "RatFun":
        return self._plus(other, -1)

    def __mul__(self, other) -> "RatFun":
        p, an, ad, bn, bd = self._terms(other)
        return RatFunField._guard(
            None, RatFun.of(p, _mul_terms(p, an, bn), _mul_terms(p, ad, bd)))

    def __rmul__(self, other) -> "RatFun":
        # lifted values are scaled by their common denominator, here the int 1
        return self if type(other) is int and other == 1 else NotImplemented

    def __neg__(self) -> "RatFun":
        return RatFun(self.num.neg(), self.den)

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __repr__(self) -> str:
        if self.den.terms == {(0, 0): 1}:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class Field:
    """Common interface for the scalar domains; see concrete subclasses."""

    kind: str
    char: int
    is_finite: bool
    order: int | None

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def is_one(self, a) -> bool:
        return self.eq(a, self.one)

    def from_int(self, n: int):
        raise NotImplementedError

    def elements(self) -> Iterator:
        """All field elements, each exactly once, in a deterministic order."""
        raise FieldError(f"cannot enumerate the infinite field {self.kind}")

    def random_element(self, rng):
        raise NotImplementedError

    def parse(self, obj):
        """Decode the JSON/text element encoding into an element."""
        raise NotImplementedError

    def encode(self, a):
        """Encode an element in the normative JSON/text form."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        return str(a)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __repr__(self) -> str:
        return f"<field {self.kind}>"


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# the 171 values of RationalField.random_element: row a + 9, column b - 1
_Q_DRAWS = tuple(tuple(Fraction(a, b) for b in range(1, 10)) for a in range(-9, 10))


class PrimeField(Field):
    """GF(p) for prime p; elements are int residues in [0, p)."""

    kind = "prime"
    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def random_element(self, rng):
        return rng.randrange(self.p)

    def parse(self, obj):
        # an int or "[+-]?[0-9]+": int() alone also takes " 7 ", "1_0" and
        # non-ASCII digits
        if is_json_int(obj) or isinstance(obj, str) and _INTEGER.fullmatch(obj):
            try:
                return int(obj) % self.p
            except ValueError:      # a string past Python's digit limit
                pass
        raise FieldError(f"bad GF({self.p}) element encoding: {obj!r}")

    def encode(self, a):
        return str(a % self.p)

    def descriptor(self):
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"<field GF({self.p})>"


class RationalField(Field):
    """Arbitrary-precision rationals in canonical reduced form."""

    kind = "rationals"
    char = 0
    is_finite = False
    order = None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return Fraction(n)

    def random_element(self, rng):
        # Fraction(rng.randint(-9, 9), rng.randint(1, 9)), read from a table
        return _Q_DRAWS[rng.randint(-9, 9) + 9][rng.randint(1, 9) - 1]

    def parse(self, obj):
        # only "int" and "num/den": Fraction alone also takes "1.5", " 7 "
        # and "1e99999999", the last after minutes of expanding the power
        if isinstance(obj, int) and not isinstance(obj, bool):
            return Fraction(obj)
        if isinstance(obj, str) and _RATIONAL.fullmatch(obj):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError):
                pass
        raise FieldError(f"bad rational encoding: {obj!r}")

    def encode(self, a):
        return str(a)

    def descriptor(self):
        return {"kind": "rationals"}

    def __repr__(self):
        return "<field Q>"


class RatFunField(Field):
    """GF(p)(s, t): fractions of sparse bivariate polynomials, unreduced."""

    kind = "ratfun2"
    is_finite = False
    order = None

    def __init__(self, p: int, var_names=("s", "t")):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if len(var_names) != 2:
            raise FieldError("ratfun2 takes exactly two variable names")
        self.p = p
        self.char = p
        self.var_names = tuple(var_names)
        self.zero = RatFun(Poly2(p, {}), Poly2.const(p, 1))
        self.one = RatFun(Poly2.const(p, 1), Poly2.const(p, 1))

    def _guard(self, a: RatFun) -> RatFun:
        """a, or a TermBudgetError past ``TERM_BUDGET`` terms; every result
        of the ``RatFun`` operators passes here (``self`` is unused)."""
        n = len(a.num.terms) + len(a.den.terms)
        if n > TERM_BUDGET:
            raise TermBudgetError(
                f"rational function grew to {n} terms "
                f"(budget {TERM_BUDGET}); aborting"
            )
        return a

    def poly(self, terms: dict) -> RatFun:
        return RatFun(Poly2(self.p, terms), Poly2.const(self.p, 1))

    def s(self) -> RatFun:
        return self.poly({(1, 0): 1})

    def t(self) -> RatFun:
        return self.poly({(0, 1): 1})

    def _check(self, a):
        """a, which must be over this GF(p); the operators check the other
        operand against it."""
        if not (isinstance(a, RatFun) and a.num.p == a.den.p == self.p):
            raise FieldError("mixed-field rational-function operands")
        return a

    def add(self, a, b):
        return self._check(a) + b

    def sub(self, a, b):
        return self._check(a) - b

    def neg(self, a):
        return -self._check(a)

    def mul(self, a, b):
        return self._check(a) * b

    def inv(self, a):
        if a.num.is_zero():
            raise ZeroDivisionError("inverse of 0 rational function")
        return RatFun(a.den, a.num)

    def eq(self, a, b):
        if a.den.terms == b.den.terms and a.num.p == b.num.p == a.den.p == b.den.p:
            return a.num.terms == b.num.terms       # over one nonzero denominator
        return a.num.mul(b.den) == b.num.mul(a.den)

    def is_zero(self, a):
        return a.num.is_zero()

    def from_int(self, n):
        return RatFun(Poly2.const(self.p, n), Poly2.const(self.p, 1))

    def random_element(self, rng):
        # monomial/monomial keeps sampled computations inside the unreduced
        # arithmetic envelope; general fractions arise from composition anyway
        if rng.random() < 0.15:
            return RatFun(Poly2(self.p, {}), Poly2.const(self.p, 1))
        num = Poly2(self.p, {(rng.randint(0, 2), rng.randint(0, 2)):
                             rng.randint(1, self.p - 1)})
        den = Poly2(self.p, {(rng.randint(0, 1), rng.randint(0, 1)):
                             rng.randint(1, self.p - 1)})
        return RatFun(num, den)

    def parse(self, obj):
        if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
            raise FieldError(f"bad ratfun2 element encoding: {obj!r}")
        den = self._parse_poly(obj["den"])
        if den.is_zero():
            raise ZeroDenominatorError(f"ratfun2 element with zero denominator: {obj!r}")
        return RatFun(self._parse_poly(obj["num"]), den)

    def _parse_poly(self, monos) -> Poly2:
        if not isinstance(monos, list):
            raise FieldError(f"bad ratfun2 polynomial encoding: {monos!r}")
        terms: dict = {}
        for m in monos:
            if isinstance(m, dict):
                e, c = m.get("e"), m.get("c", 1)
            else:
                e, c = m, 1
            if (not isinstance(e, (list, tuple)) or len(e) != 2
                    or not all(is_json_int(x) and x >= 0 for x in e)
                    or not is_json_int(c)):
                raise FieldError(f"bad ratfun2 monomial: {m!r}")
            key = (e[0], e[1])
            terms[key] = (terms.get(key, 0) + c) % self.p
        return Poly2(self.p, terms)

    def encode(self, a):
        return {"num": self._encode_poly(a.num), "den": self._encode_poly(a.den)}

    def _encode_poly(self, poly: Poly2) -> list:
        out = []
        for (i, j), c in sorted(poly.terms.items()):
            out.append([i, j] if c == 1 else {"e": [i, j], "c": c})
        return out

    def fmt(self, a):
        return repr(a)

    def descriptor(self):
        return {"kind": "ratfun2", "p": self.p, "vars": list(self.var_names)}

    def __repr__(self):
        return f"<field GF({self.p})({self.var_names[0]},{self.var_names[1]})>"


def make_field(desc) -> Field:
    """Build a field from a descriptor dict (or pass a Field through)."""
    if isinstance(desc, Field):
        return desc
    if not isinstance(desc, dict) or "kind" not in desc:
        raise FieldError(f"bad field descriptor: {desc!r}")
    kind = desc["kind"]
    if kind == "prime":
        if not is_json_int(desc.get("p")):
            raise FieldError(f"prime field descriptor needs integer p: {desc!r}")
        return PrimeField(desc["p"])
    if kind == "rationals":
        return RationalField()
    if kind == "ratfun2":
        if not is_json_int(desc.get("p")):
            raise FieldError(f"ratfun2 descriptor needs integer p: {desc!r}")
        names = desc.get("vars", ["s", "t"])
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise FieldError(f"ratfun2 'vars' must be a list of two names: {desc!r}")
        return RatFunField(desc["p"], tuple(names))
    raise FieldError(f"unknown field kind {kind!r}")


# GF(q), q = p^k the largest power of p up to _GF_Q_MAX, by Zech logarithms:
# the field of the point at which ``linalg.kernel`` picks its rows
_GF_Q_MAX = 2 ** 16
_GF_TABLES: dict = {}


def _gf_table(p: int) -> tuple:
    """(n, zech, logc) for GF(q), n = q - 1, built on first use for each p.

    An element of GF(q) is 0 or an exponent e in 1..n, which stands for
    g^e, g a root of ``_primitive_poly(p, k)``: a product adds exponents
    mod n, and g^x + g^v = g^(x + zech[(v - x) % n]), where zech[d] is the
    exponent of 1 + g^d (0 if that is 0).  logc[c] is the exponent of the
    constant c of GF(p).

    The powers of g are listed once, each as the base-p number W(y) with
    digits L(y), L(g y), ..., L(g^(k-1) y) from the lowest, where L is the
    GF(p)-linear form with L(g^i) = 1 for i = k - 1 and 0 for smaller i.
    W is a linear bijection onto 0..q-1 with W(c) = c*p^(k-1), so 1 + y
    adds 1 to the top digit, and W(g y) drops the lowest digit of W(y) and
    takes L(g^k y) = -sum f_i L(g^i y) as its new top digit."""
    if p not in _GF_TABLES:
        k = next(k for k in count(1) if p ** (k + 1) > _GF_Q_MAX)
        q, top, f = p ** k, p ** (k - 1), _primitive_poly(p, k)
        feed = [0]          # feed[W(y)] = L(g^k y), built digit by digit
        for a in f[:k]:
            feed = [(d * -a + x) % p for d in range(p) for x in feed] if a else feed * p
        w, log = top, [0] * q
        exp = [w := w // p + top * feed[w] for _ in range(q - 1)]  # W(g^1..g^n)
        for e, w in enumerate(exp, 1):
            log[w] = e
        # W(1 + y) = (W(y) + top) mod q, so the rotated log gives log(1 + y)
        zech = array("H", itemgetter(*exp)(log[top:] + log[:top]))
        _GF_TABLES[p] = (q - 1, zech[-1:] + zech[:-1],
                         array("H", [log[c * top] for c in range(p)]))
    return _GF_TABLES[p]


def _primitive_poly(p: int, k: int) -> list:
    """The first monic f of degree k over GF(p) whose root x has order
    n = p^k - 1 (x^n = 1, and x^(n/r) != 1 for each prime r | n), as its
    coefficients from degree 0; the candidates are counted by f - x^k as a
    base-p number, from x on, and those with a root in GF(p) are skipped."""
    n, one = p ** k - 1, [1] + [0] * (k - 1)
    primes, m = [], n
    for r in range(2, isqrt(n) + 1):
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
    primes += [m] if m > 1 else []
    for code in count(p):
        f = [code // p ** i % p for i in range(k)] + [1]
        if k > 1 and not all(sum(a * c ** i for i, a in enumerate(f)) % p
                             for c in range(p)):
            continue
        if _xpow(n, f, p) == one and all(_xpow(n // r, f, p) != one for r in primes):
            return f


def _xpow(e: int, f: list, p: int) -> list:
    """x^e mod the monic f over GF(p), as its k coefficients from degree 0;
    left to right over the bits of e, squaring and multiplying by x."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, [0, 1], f, p)
    return out


def _mulmod(a: list, b: list, f: list, p: int) -> list:
    """a*b mod the monic f over GF(p), on coefficient lists from degree 0."""
    k = len(f) - 1
    c = [0] * (len(a) + len(b) + k)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    taps = [i for i in range(k) if f[i]]
    for d in range(len(c) - 1, k - 1, -1):
        t = c[d] % p
        if t:
            for i in taps:
                c[d - k + i] -= t * f[i]
    return [x % p for x in c[:k]]


GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()
