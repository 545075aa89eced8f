"""Structure-constant algebras: products, identity checkers, distinguished
subspaces, powers, and generated subalgebras/ideals.

An algebra is a field, a dimension d, and a sparse table
``c[(i, j)] = ((k, coeff), ...)`` meaning ``e_i e_j = sum coeff * e_k``;
unspecified basis pairs multiply to zero; elements are lists of d coefficients.

Each algebra also keeps a lifted form of its table, built once at
construction: over Q the constants as integers over one common denominator,
over GF(p) residues and over GF(p)(s, t) the fractions themselves, over 1.
A product lifts both factors over the lcm of their denominators, sums
products per output coordinate from the int 0 and lowers each coordinate
once (``fields._lift`` and ``fields._lower``).  ``Fraction`` is canonical
and residues are reduced, so the values are those of one field operation
per term; GF(p)(s, t) fractions combine by ``RatFun``'s operators, so a
coordinate keeps the unreduced term form of those field operations.
``check_identity`` never lowers: it evaluates each law on lifted values
(``_Lifted``) and recomputes only a witness's value by field operations.

Elimination is ``linalg``'s: a distinguished subspace is the kernel of its
basis conditions, put in normal form by ``linalg._condition_rows``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import scan
from .fields import Field, _lift, _lower, is_json_int, make_field
from .linalg import Matrix, Subspace, _condition_rows, _kernel, solve


class TableFormatError(ValueError):
    """Malformed structure-constant data (bad index, duplicate entry, ...)."""


_UNSET = object()


class Algebra:
    __slots__ = ("field", "dim", "table", "names", "_unit", "_lifted")

    def __init__(self, field: Field, dim: int, table: dict, names=None):
        if not is_json_int(dim) or dim < 1:
            raise TableFormatError(f"dimension must be a positive integer, got {dim!r}")
        F = make_field(field)
        clean: dict = {}
        for key, terms in table.items():
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise TableFormatError(f"basis pair ({i},{j}) out of range for dim {dim}")
            seen = set()
            kept = []
            for k, c in terms:
                if not (0 <= k < dim):
                    raise TableFormatError(
                        f"target index {k} out of range in product ({i},{j})")
                if k in seen:
                    raise TableFormatError(
                        f"duplicate term index {k} in product ({i},{j})")
                seen.add(k)
                if not F.is_zero(c):
                    kept.append((k, c))
            if kept:
                clean[(i, j)] = tuple(kept)
        if names is not None:
            names = [str(n) for n in names]
            if len(names) != dim:
                raise TableFormatError("basis name count does not match dimension")
        self.field = F
        self.dim = dim
        self.table = clean
        self.names = names
        self._unit = _UNSET
        # the table never changes, so its lifted form is built once here
        self._lifted = _lift_table(F, dim, clean)

    # ---- element helpers -------------------------------------------------

    def zero(self) -> list:
        return [self.field.zero] * self.dim

    def basis_vec(self, i: int) -> list:
        v = self.zero()
        v[i] = self.field.one
        return v

    def basis(self) -> list:
        return [self.basis_vec(i) for i in range(self.dim)]

    def probes(self) -> list:
        """The basis, then e_i + e_j for i < j: where a quadratic map is decided."""
        e = self.basis()
        return e + [self.vadd(a, b) for a, b in itertools.combinations(e, 2)]

    def is_zero_vec(self, x) -> bool:
        return all(self.field.is_zero(a) for a in x)

    def veq(self, x, y) -> bool:
        return all(self.field.eq(a, b) for a, b in zip(x, y))

    def vadd(self, x, y) -> list:
        return [self.field.add(a, b) for a, b in zip(x, y)]

    def vsub(self, x, y) -> list:
        return [self.field.sub(a, b) for a, b in zip(x, y)]

    def smul(self, c, x) -> list:
        return [self.field.mul(c, a) for a in x]

    def random_element(self, rng) -> list:
        return [self.field.random_element(rng) for _ in range(self.dim)]

    def fmt(self, x) -> str:
        F = self.field
        parts = []
        for i, a in enumerate(x):
            if F.is_zero(a):
                continue
            name = self.names[i] if self.names else f"e{i}"
            parts.append(name if F.is_one(a) else f"{F.fmt(a)}*{name}")
        return " + ".join(parts) if parts else "0"

    # ---- products --------------------------------------------------------

    def mul(self, x, y) -> list:
        """xy: sums over the lifted table (see the module docstring)."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        F = self.field
        X, Dx = _lift(F, x)
        Y, Dy = _lift(F, y)
        D = Dx * Dy * self._lifted[1]
        return [_lower(F, v, D) for v in self._mul_lifted(X, Y)]

    def _mul_lifted(self, X, Y) -> list:
        """XY on lifted coordinates: sums over the lifted table from the int 0."""
        acc = [0] * self.dim
        for xi, row in zip(X, self._lifted[0]):
            if not xi:
                continue
            for j, terms in row:
                yj = Y[j]
                if yj:
                    s = xi * yj
                    for k, c in terms:
                        acc[k] += s * c
        return acc

    def commutator(self, x, y) -> list:
        return self.vsub(self.mul(x, y), self.mul(y, x))

    def associator(self, x, y, z) -> list:
        return self.vsub(self.mul(self.mul(x, y), z), self.mul(x, self.mul(y, z)))

    def jordan_product(self, x, y) -> list:
        return self.vadd(self.mul(x, y), self.mul(y, x))

    def left_normed_product(self, xs) -> list:
        """((x1 x2) x3) ... xn; the n-fold product read left to right."""
        xs = list(xs)
        if not xs:
            raise ValueError("left-normed product of an empty list")
        acc = xs[0]
        for x in xs[1:]:
            acc = self.mul(acc, x)
        return acc

    # ---- operators and unit ----------------------------------------------

    def mult_operator(self, side: str, a) -> Matrix:
        """Matrix of L_a (side='left') or R_a (side='right') on the basis."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if len(a) != self.dim:
            raise ValueError("element dimension mismatch")
        # column c is a e_c (left) or e_c a (right)
        cols = [self.mul(a, e) if side == "left" else self.mul(e, a)
                for e in self.basis()]
        return Matrix(self.field, cols, self.dim).transpose()

    def find_unit(self):
        """The two-sided unit element, or None.  Cached."""
        if self._unit is not _UNSET:
            return None if self._unit is None else list(self._unit)
        F, d, rows, rhs = self.field, self.dim, [], []
        for i, e in enumerate(self.basis()):
            # R_{e_i} x = x e_i = e_i, then L_{e_i} x = e_i x = e_i: row k
            # holds the e_k coefficients of e_c e_i (e_i e_c), from the table
            for right in (True, False):
                block = [[F.zero] * d for _ in range(d)]
                for c in range(d):
                    for k, v in self.table.get((c, i) if right else (i, c), ()):
                        block[k][c] = v
                rows.extend(block)
                rhs.extend(e)
        x = solve(Matrix(F, rows, d), rhs)
        self._unit = None if x is None else tuple(x)
        return None if x is None else list(x)

    def invert_element(self, x):
        """Two-sided inverse via linear solves, or None if x is not invertible."""
        unit = self.find_unit()
        if unit is None:
            raise ValueError("invert_element requires a unital algebra")
        left = solve(self.mult_operator("left", x), unit)
        if left is None:
            return None
        right = solve(self.mult_operator("right", x), unit)
        if right is None or not self.veq(left, right):
            return None
        return left

    # ---- enumeration ------------------------------------------------------

    def element_count(self):
        return None if not self.field.is_finite else self.field.order ** self.dim

    def elements(self):
        """All elements of a finite-field algebra, deterministic order.

        The program walks F^d through ``scan.vector_blocks`` in
        ``algebra.search``; this generator is the plain ``itertools.product``
        order that walk must reproduce, and tests check it against this."""
        scalars = list(self.field.elements())
        for combo in itertools.product(scalars, repeat=self.dim):
            yield list(combo)

    def __repr__(self) -> str:
        return f"<algebra dim {self.dim} over {self.field!r}>"


def _lift_table(F: Field, dim: int, table: dict) -> tuple:
    """(rows, Dc): the constants of a table lifted over one common
    denominator Dc (``fields._lift``), with rows[i] the pairs
    (j, ((k, c), ...)) of the products e_i e_j."""
    keys = sorted(table)
    ints, Dc = _lift(F, [c for key in keys for _, c in table[key]])
    it = iter(ints)
    rows = [[] for _ in range(dim)]
    for i, j in keys:
        rows[i].append((j, tuple((k, next(it)) for k, _ in table[(i, j)])))
    return rows, Dc


class _Lifted:
    """A stand-in for A on lifted coordinates (``fields._lift``) for the laws
    of ``_LAWS``: products sum over the lifted table and are never lowered.
    In such a law every term has the same degree in each argument and the
    same number of products, so one nonzero factor scales the whole value
    and the zero test (mod p over GF(p)) is exact; the constructor checks of
    ``quadratic`` and the sampled laws of ``suites`` scale their sides alike."""

    associator = Algebra.associator
    commutator = Algebra.commutator
    mul = Algebra._mul_lifted

    def __init__(self, A: Algebra):
        self.field, self.dim, self._lifted = A.field, A.dim, A._lifted
        self._p = A.field.p if A.field.kind == "prime" else 0

    def lift(self, x) -> list:
        return _lift(self.field, x)[0]

    def vsub(self, x, y) -> list:
        # over GF(p)(s, t) a coordinate may be the int 0: 0 - b is -b
        return [(a - b if a else -b) if b else a for a, b in zip(x, y)]

    def smul(self, c, x) -> list:
        return [c * a if a else 0 for a in x] if c else [0] * len(x)

    def is_zero_vec(self, x) -> bool:
        return not any(a % self._p for a in x) if self._p else not any(x)


# ---- evidence search ----------------------------------------------------------

# scan.vector_blocks numbers the vectors of an exhaustive walk in int64
MAX_ENUM_CAP = 2 ** 63 - 1


def search(F: Field, n: int, hit, *, arity: int = 1, seed: int = 42,
           samples: int = 128, enum_cap: int = 0, rows=None):
    """(first ``args`` with ``hit(*args)``, or None; provenance): when
    |F|^n <= enum_cap, all of F^n in ``Algebra.elements()`` order, walked in
    the blocks of ``scan.vector_blocks`` ('exhaustive'; every finite field
    here is a GF(p)), else ``samples`` tuples of ``arity`` vectors drawn as
    ``Algebra.random_element`` draws them, from one Random(seed) ('sampled').

    The walk hands ``hit`` each vector as a list of ints, at arity 1 only;
    or ``rows``, the block form of the test, returns the index of the first
    hit in a (b, n) residue block, or -1.  ``rows`` decides the claim for
    each vector on its own, so with it the walk is exhaustive at any arity.
    ``hit`` may be None where every walk is exhaustive."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if enum_cap > MAX_ENUM_CAP:
        raise ValueError(f"enum_cap must be at most {MAX_ENUM_CAP}, got {enum_cap}")
    if (F.is_finite and F.order ** n <= enum_cap
            and (rows is not None or arity == 1)):
        if rows is None:
            def rows(X):
                return next((i for i, x in enumerate(X.astype(int).tolist())
                             if hit(x)), -1)
        for _, X in scan.vector_blocks(F.p, n):
            i = rows(X)
            if i >= 0:
                return ([int(v) for v in X[i]],), "exhaustive"
        return None, "exhaustive"
    rng = random.Random(seed)
    for _ in range(samples):
        args = tuple([F.random_element(rng) for _ in range(n)]
                     for _ in range(arity))
        if hit(*args):
            return args, "sampled"
    return None, "sampled"


# ---- identity checking ----------------------------------------------------

class _Law(NamedTuple):
    degree: int             # in the swept argument x
    linear: int             # number of arguments the law is linear in
    last: bool              # x is the last argument
    evaluate: Callable      # f(A, *args), the discrepancy (0 = holds)
    # for a scanned or sampled law: signed einsum contractions of copies of
    # the structure tensor, as scan.coefficients reads them
    contraction: tuple | None = None


# Laws of degree <= 2 in x are decided by basis conditions over every field;
# middle Moufang is quadratic but is scanned or sampled by the enumeration
# policy, as is Jordan (degree 3, where basis linearization is not
# conservative in small characteristic).
_LAWS = {
    "left-alternative": _Law(2, 1, False, lambda A, x, y: A.associator(x, x, y)),
    "right-alternative": _Law(2, 1, True, lambda A, y, x: A.associator(y, x, x)),
    "flexible": _Law(2, 1, False, lambda A, x, y: A.associator(x, y, x)),
    # (xy)(zx) = (x(yz))x, left-bracketed reading of the right side
    "middle-moufang": _Law(2, 2, False, lambda A, x, y, z: A.vsub(
        A.mul(A.mul(x, y), A.mul(z, x)), A.mul(A.mul(x, A.mul(y, z)), x)),
        ((1, "aju,kbv,uvm->abjkm"), (-1, "jku,auv,vbm->abjkm"))),
    "jordan": _Law(3, 1, False, lambda A, x, y: A.associator(A.mul(x, x), y, x),
                   ((1, "abu,ujv,vcm->abcjm"), (-1, "abu,jcv,uvm->abcjm"))),
    "associative": _Law(1, 2, False, Algebra.associator),
    "commutative": _Law(1, 1, False, Algebra.commutator),
    "anticommutative": _Law(2, 0, False, lambda A, x: A.mul(x, x)),
}
IDENTITY_NAMES = tuple(_LAWS)


@dataclass
class IdentityWitness:
    args: list          # actual argument elements reproducing the failure
    value: list         # the nonzero discrepancy


@dataclass
class IdentityReport:
    name: str
    holds: bool
    provenance: str     # certified | exhaustive | sampled
    witness: IdentityWitness | None = None


def evaluate_identity(A: Algebra, name: str, args) -> list:
    """Discrepancy of the named identity at concrete arguments (0 = holds)."""
    if name not in _LAWS:
        raise ValueError(f"unknown identity {name!r}")
    return _LAWS[name].evaluate(A, *args)


def _first_failure(A: Algebra, law: _Law, xs, ys=None, L=None):
    """The first arguments at which ``law`` fails, or None: x runs over xs,
    the linear arguments over tuples of ys (default the basis) in
    lexicographic order.  With L, A's ``_Lifted`` stand-in (for a law of
    ``_LAWS``), the law is evaluated there, on arguments lifted once."""
    ys = A.basis() if ys is None else ys
    L, lift = (A, lambda v: v) if L is None else (L, L.lift)
    pairs = [(y, lift(y)) for y in ys]
    for x in xs:
        X = lift(x)
        for lin in itertools.product(pairs, repeat=law.linear):
            vals = [v for _, v in lin]
            if not L.is_zero_vec(law.evaluate(
                    L, *((*vals, X) if law.last else (X, *vals)))):
                lin = [y for y, _ in lin]
                return (*lin, x) if law.last else (x, *lin)
    return None


def check_identity(A: Algebra, name: str, *, seed: int = 42, samples: int = 128,
                   enum_cap: int = 2 ** 20) -> IdentityReport:
    """Check a polynomial identity; see IDENTITY_NAMES for the vocabulary.

    Verdict provenance is 'certified' when basis conditions decide the law
    over any field, 'exhaustive' for a full finite scan, 'sampled' otherwise.
    The law is evaluated on A's ``_Lifted`` stand-in; a witness's value is
    recomputed by field operations.

    Certified: a law f of degree <= 2 in x and linear in its other arguments
    vanishes identically iff it vanishes with those arguments on basis
    vectors and x at every e_i, then (degree 2) at every e_i + e_j, i < j:
    once the square coefficients f(e_i) are zero, f(e_i + e_j) is the cross
    coefficient.  This holds over every field, characteristic 2 included.
    """
    if name not in _LAWS:
        raise ValueError(f"unknown identity {name!r}")
    law = _LAWS[name]
    L = _Lifted(A)
    if law.contraction is None:
        xs = A.probes() if law.degree == 2 else A.basis()
        args, provenance = _first_failure(A, law, xs, L=L), "certified"
    else:
        args, provenance = search(
            A.field, A.dim,
            lambda *a: not L.is_zero_vec(law.evaluate(L, *map(L.lift, a))),
            arity=1 + law.linear, seed=seed, samples=samples, enum_cap=enum_cap,
            rows=scan.sweep(A, law))
        if args is not None and provenance == "exhaustive":
            # the first failing x of the sweep, then its first failing basis tuple
            args = _first_failure(A, law, args, L=L)
    witness = None if args is None else IdentityWitness(
        list(args), evaluate_identity(A, name, args))
    return IdentityReport(name, witness is None, provenance, witness)


# ---- distinguished subspaces ----------------------------------------------

def special_subspace(A: Algebra, kind: str) -> Subspace:
    """nucleus / commutative-center / center / annihilator as a Subspace."""
    F = A.field
    d = A.dim
    e = A.basis()

    def block(f):
        # the matrix of the linear map f: column a is f(e_a)
        return Matrix(F, [f(x) for x in e], d).transpose().rows

    rows = []
    if kind == "nucleus":
        for i, j in itertools.product(range(d), repeat=2):
            rows += block(lambda a: A.associator(a, e[i], e[j]))
            rows += block(lambda a: A.associator(e[i], a, e[j]))
            rows += block(lambda a: A.associator(e[i], e[j], a))
    elif kind == "commutative-center":
        for i in range(d):
            rows += block(lambda a: A.commutator(a, e[i]))
    elif kind == "center":
        return special_subspace(A, "nucleus").intersect(
            special_subspace(A, "commutative-center"))
    elif kind == "annihilator":
        for x in e:
            rows += A.mult_operator("right", x).rows + A.mult_operator("left", x).rows
    else:
        raise ValueError(f"unknown special subspace {kind!r}")
    return _kernel(F, _condition_rows(F, (dict(enumerate(r)) for r in rows)), d)


def subspace_product(A: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of {x*y : x in basis(u), y in basis(v)}."""
    vecs = [A.mul(x, y) for x in u.rows for y in v.rows]
    return Subspace.from_vectors(A.field, A.dim, vecs)


def generated(A: Algebra, kind: str, gens) -> Subspace:
    """Closure of span(gens) to a subalgebra or (two-sided) ideal."""
    if kind not in ("subalgebra", "ideal"):
        raise ValueError(f"unknown closure kind {kind!r}")
    S = Subspace.from_vectors(A.field, A.dim, [list(g) for g in gens])
    if kind == "subalgebra":
        return S._closure(lambda T: subspace_product(A, T, T))
    amb = Subspace.full(A.field, A.dim)
    return S._closure(lambda T: subspace_product(A, amb, T).add(
        subspace_product(A, T, amb)))


def power_chain(A: Algebra):
    """Chain A^1 in A^2 in ... with A^n = sum_{i+j=n} A^i A^j.

    Returns (chain, s) where s is the least n with A^n = 0, or (chain, None)
    when the chain stabilizes at a nonzero subspace (not nilpotent).
    """
    chain = [Subspace.full(A.field, A.dim)]
    while True:
        n = len(chain) + 1
        nxt = Subspace.zero(A.field, A.dim)
        for i in range(1, n):
            nxt = nxt.add(subspace_product(A, chain[i - 1], chain[n - i - 1]))
        if nxt.dim == 0:
            chain.append(nxt)
            return chain, len(chain)
        if nxt == chain[-1]:
            return chain, None
        chain.append(nxt)


def derived_algebra(A: Algebra, sign: str) -> Algebra:
    """Same space with product x o y = xy + yx ('plus') or [x, y] ('minus')."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    table = {}
    for i in range(A.dim):
        for j in range(A.dim):
            a = A.mul(A.basis_vec(i), A.basis_vec(j))
            b = A.mul(A.basis_vec(j), A.basis_vec(i))
            v = A.vadd(a, b) if sign == "plus" else A.vsub(a, b)
            table[(i, j)] = list(enumerate(v))
    return Algebra(A.field, A.dim, table, A.names)


def permuted(A: Algebra, perm) -> Algebra:
    """Relabeled algebra with new basis e'_a = e_{perm[a]}."""
    perm = list(perm)
    if sorted(perm) != list(range(A.dim)):
        raise ValueError("perm must be a permutation of range(dim)")
    inv = [0] * A.dim
    for a, p in enumerate(perm):
        inv[p] = a
    table = {}
    for (i, j), terms in A.table.items():
        table[(inv[i], inv[j])] = [(inv[k], c) for k, c in terms]
    names = [A.names[p] for p in perm] if A.names else None
    return Algebra(A.field, A.dim, table, names)


# ---- normative JSON format --------------------------------------------------

def algebra_to_json(A: Algebra) -> dict:
    F = A.field
    entries = []
    for (i, j) in sorted(A.table):
        entries.append({
            "i": i, "j": j,
            "terms": [{"k": k, "c": F.encode(c)} for k, c in A.table[(i, j)]],
        })
    out = {"field": F.descriptor(), "dim": A.dim, "table": entries}
    if A.names:
        out["basis"] = list(A.names)
    return out


def algebra_from_json(data) -> Algebra:
    if not isinstance(data, dict):
        raise TableFormatError("algebra document must be a JSON object")
    for key in ("field", "dim", "table"):
        if key not in data:
            raise TableFormatError(f"missing required key {key!r}")
    F = make_field(data["field"])
    dim = data["dim"]
    if not is_json_int(dim) or dim < 1:
        raise TableFormatError(f"bad dimension {dim!r}")
    names = data.get("basis")
    if names is not None and (not isinstance(names, list)
                              or not all(isinstance(n, str) for n in names)):
        raise TableFormatError("'basis' must be a list of names")
    if not isinstance(data["table"], list):
        raise TableFormatError("'table' must be a list of product entries")
    table: dict = {}
    for pos, entry in enumerate(data["table"]):
        if not isinstance(entry, dict) or not {"i", "j", "terms"} <= set(entry):
            raise TableFormatError(f"table entry #{pos} must have keys i, j, terms")
        i, j = entry["i"], entry["j"]
        if not is_json_int(i) or not is_json_int(j):
            raise TableFormatError(f"table entry #{pos}: indices must be integers")
        if (i, j) in table:
            raise TableFormatError(f"table entry #{pos}: duplicate product ({i},{j})")
        if not isinstance(entry["terms"], list):
            raise TableFormatError(f"table entry #{pos}: 'terms' must be a list")
        terms = []
        for term in entry["terms"]:
            if not isinstance(term, dict) or "k" not in term or "c" not in term:
                raise TableFormatError(
                    f"table entry #{pos}: terms need keys k and c")
            if not is_json_int(term["k"]):
                raise TableFormatError(
                    f"table entry #{pos}: term index k must be an integer")
            terms.append((term["k"], F.parse(term["c"])))
        table[(i, j)] = terms
    return Algebra(F, dim, table, names)
