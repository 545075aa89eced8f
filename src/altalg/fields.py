"""Exact scalar arithmetic for the three coefficient domains.

Everything downstream (matrices, structure constants, operator spaces) is
generic over a ``Field`` handle.  Elements are plain values:

* prime field GF(p)            -- ``int`` residues in ``[0, p)``
* rationals                    -- ``fractions.Fraction``
* GF(p)(s, t) rational funcs   -- ``RatFun`` pairs of sparse ``Poly2``

Rational-function fractions are deliberately *not* reduced (no multivariate
GCD); equality is decided by cross-multiplication, and a term budget aborts
runaway growth.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator


class FieldError(ValueError):
    """Bad field descriptor, mixed-field operands, or unsupported request."""


class TermBudgetError(FieldError):
    """A rational-function operand outgrew the configured term budget."""


class ZeroDenominatorError(FieldError, ZeroDivisionError):
    """A decoded rational function whose denominator is zero."""


DEFAULT_TERM_BUDGET = 2 ** 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    k = 5
    while k * k <= n:
        if n % k == 0 or n % (k + 2) == 0:
            return False
        k += 6
    return True


def is_json_int(obj) -> bool:
    """Whether a decoded JSON value is an integer (a bool is a Python int,
    but not a JSON number)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


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
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % self.p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Poly2.__new__(Poly2)
        res.p = self.p
        res.terms = out
        return res

    def neg(self) -> "Poly2":
        return Poly2(self.p, {e: -c for e, c in self.terms.items()})

    def mul(self, other: "Poly2") -> "Poly2":
        self._check(other)
        p = self.p
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = Poly2.__new__(Poly2)
        res.p = p
        res.terms = out
        return res

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
    """Unreduced fraction of two ``Poly2`` with nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

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
    hashable_elements: bool

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


class PrimeField(Field):
    """GF(p) for prime p; elements are int residues in [0, p)."""

    kind = "prime"
    is_finite = True
    hashable_elements = True

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
        if isinstance(obj, bool) or not isinstance(obj, (int, str)):
            raise FieldError(f"bad GF({self.p}) element encoding: {obj!r}")
        try:
            return int(obj) % self.p
        except ValueError:
            raise FieldError(f"bad GF({self.p}) element encoding: {obj!r}") from None

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
    hashable_elements = True

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
        if isinstance(obj, bool):
            raise FieldError(f"bad rational encoding: {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError):
                raise FieldError(f"bad rational encoding: {obj!r}") from None
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
    hashable_elements = False

    def __init__(self, p: int, var_names=("s", "t"), term_budget: int = DEFAULT_TERM_BUDGET):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if len(var_names) != 2:
            raise FieldError("ratfun2 takes exactly two variable names")
        self.p = p
        self.char = p
        self.var_names = tuple(var_names)
        self.term_budget = term_budget
        self.zero = RatFun(Poly2(p, {}), Poly2.const(p, 1))
        self.one = RatFun(Poly2.const(p, 1), Poly2.const(p, 1))

    def _guard(self, a: RatFun) -> RatFun:
        n = len(a.num.terms) + len(a.den.terms)
        if n > self.term_budget:
            raise TermBudgetError(
                f"rational function grew to {n} terms "
                f"(budget {self.term_budget}); aborting"
            )
        return a

    def poly(self, terms: dict) -> RatFun:
        return RatFun(Poly2(self.p, terms), Poly2.const(self.p, 1))

    def s(self) -> RatFun:
        return self.poly({(1, 0): 1})

    def t(self) -> RatFun:
        return self.poly({(0, 1): 1})

    def add(self, a, b):
        num = a.num.mul(b.den).add(b.num.mul(a.den))
        return self._guard(RatFun(num, a.den.mul(b.den)))

    def neg(self, a):
        return RatFun(a.num.neg(), a.den)

    def mul(self, a, b):
        return self._guard(RatFun(a.num.mul(b.num), a.den.mul(b.den)))

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
