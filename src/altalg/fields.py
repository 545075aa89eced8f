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
* a one-term operand shifts the other's exponents and scales its
  coefficients in one comprehension (one dict entry when both operands are
  one-term): the shift is injective and a product of nonzero residues is
  nonzero mod p, so no terms meet or cancel;
* below ``_SORTED_KEY_PAIRS`` term pairs, the schoolbook dict loop;
* from there on, the packed-exponent product of Monagan and Pearce
  (CASC 2007): each exponent (i, j) becomes the int64 key i*W + j, with W
  one more than the largest j of the product, so all term pairs are one
  outer sum of key vectors and one outer product of coefficient vectors,
  which are sorted and their equal keys summed mod p (for p = 2 a key
  survives when it occurs an odd number of times).  For p >= 2**31, or
  when a key could reach 2**62, the dict loop runs instead.

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
from fractions import Fraction
from itertools import chain
from math import lcm
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
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((i2, j2), c2), = b.items()
        if len(a) == 1:
            ((i1, j1), c1), = a.items()
            return {(i1 + i2, j1 + j2): c1 * c2 % p}
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
    if min(ea.min(), eb.min()) < 0:
        return None
    (ia, ja), (ib, jb) = ea.max(0).tolist(), eb.max(0).tolist()
    w = ja + jb + 1
    if (ia + ib + 1) * w > 2 ** 62:
        return None
    ka = ea[:, 0] * w + ea[:, 1]
    kb = eb[:, 0] * w + eb[:, 1]
    ca = cb = None
    if p != 2:
        ca = np.fromiter(a.values(), np.int64, len(a))
        cb = np.fromiter(b.values(), np.int64, len(b))
    step = max(1, _SORTED_KEY_BLOCK // len(b))
    parts = []
    for lo in range(0, len(a), step):
        keys = (ka[lo:lo + step, None] + kb).ravel()
        coefs = None if p == 2 else (ca[lo:lo + step, None] * cb).ravel()
        parts.append(_combine_keys(p, keys, coefs))
    if len(parts) == 1:
        keys, coefs = parts[0]
    else:
        keys, coefs = _combine_keys(
            p, np.concatenate([k for k, _ in parts]),
            None if p == 2 else np.concatenate([c for _, c in parts]))
    exps = zip(*(x.tolist() for x in np.divmod(keys, w)))
    if p == 2:
        return dict.fromkeys(exps, 1)
    return dict(zip(exps, coefs.tolist()))


def _combine_keys(p: int, keys, coefs):
    """Sum the coefficients of equal keys mod p and drop the zero sums; for
    p = 2 (coefs None, every coefficient 1) keep the keys seen an odd number
    of times."""
    import numpy as np

    if p == 2:
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

    @classmethod
    def variable(cls, p: int, index: int) -> "Poly2":
        return cls(p, {(1, 0) if index == 0 else (0, 1): 1})

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

    def random_nonzero(self, rng):
        while True:
            a = self.random_element(rng)
            if not self.is_zero(a):
                return a

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
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

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


GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()
