"""Structure-constant algebras: products, identity checkers, distinguished
subspaces, powers, and generated subalgebras/ideals.

An algebra is a field, a dimension d, and a sparse table
``c[(i, j)] = ((k, coeff), ...)`` meaning ``e_i e_j = sum coeff * e_k``;
unspecified basis pairs multiply to zero.  Elements are plain coefficient
lists of length d.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .fields import Field, is_json_int, make_field
from .linalg import Matrix, Subspace, kernel, solve


class TableFormatError(ValueError):
    """Malformed structure-constant data (bad index, duplicate entry, ...)."""


_UNSET = object()


class Algebra:
    __slots__ = ("field", "dim", "table", "names", "_unit")

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

    # ---- element helpers -------------------------------------------------

    def zero(self) -> list:
        return [self.field.zero] * self.dim

    def basis_vec(self, i: int) -> list:
        v = self.zero()
        v[i] = self.field.one
        return v

    def basis(self) -> list:
        return [self.basis_vec(i) for i in range(self.dim)]

    def is_zero_vec(self, x) -> bool:
        return all(self.field.is_zero(a) for a in x)

    def veq(self, x, y) -> bool:
        return all(self.field.eq(a, b) for a, b in zip(x, y))

    def vadd(self, x, y) -> list:
        return [self.field.add(a, b) for a, b in zip(x, y)]

    def vsub(self, x, y) -> list:
        return [self.field.sub(a, b) for a, b in zip(x, y)]

    def vneg(self, x) -> list:
        return [self.field.neg(a) for a in x]

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
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        F = self.field
        tab = self.table
        out = [F.zero] * self.dim
        for i, xi in enumerate(x):
            if F.is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if F.is_zero(yj):
                    continue
                terms = tab.get((i, j))
                if not terms:
                    continue
                s = F.mul(xi, yj)
                for k, c in terms:
                    out[k] = F.add(out[k], F.mul(s, c))
        return out

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
        F = self.field
        tab = self.table
        m = Matrix.zeros(F, self.dim, self.dim)
        rows = m.rows
        # column c is a e_c (left) or e_c a (right)
        for c in range(self.dim):
            for i, s in enumerate(a):
                if F.is_zero(s):
                    continue
                for k, coeff in tab.get((i, c) if side == "left" else (c, i), ()):
                    rows[k][c] = F.add(rows[k][c], F.mul(s, coeff))
        return m

    def find_unit(self):
        """The two-sided unit element, or None.  Cached."""
        if self._unit is not _UNSET:
            return None if self._unit is None else list(self._unit)
        F = self.field
        rows, rhs = [], []
        for i in range(self.dim):
            e = self.basis_vec(i)
            for side in ("left", "right"):
                # sum_a x_a (e_a e_i) = e_i   /   sum_a x_a (e_i e_a) = e_i
                cols = [self.mul(self.basis_vec(a), e) if side == "left"
                        else self.mul(e, self.basis_vec(a))
                        for a in range(self.dim)]
                for m in range(self.dim):
                    rows.append([cols[a][m] for a in range(self.dim)])
                    rhs.append(e[m])
        x = solve(Matrix(F, rows, self.dim), rhs)
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
        """All elements of a finite-field algebra, deterministic order."""
        scalars = list(self.field.elements())
        for combo in itertools.product(scalars, repeat=self.dim):
            yield list(combo)

    def __repr__(self) -> str:
        return f"<algebra dim {self.dim} over {self.field!r}>"


def make_algebra(field, dim, table, names=None) -> Algebra:
    return Algebra(field, dim, table, names)


def special_product(A: Algebra, kind: str, *args) -> list:
    if kind == "commutator":
        if len(args) != 2:
            raise ValueError("commutator takes 2 arguments")
        return A.commutator(*args)
    if kind == "associator":
        if len(args) != 3:
            raise ValueError("associator takes 3 arguments")
        return A.associator(*args)
    if kind == "jordan":
        if len(args) != 2:
            raise ValueError("jordan product takes 2 arguments")
        return A.jordan_product(*args)
    raise ValueError(f"unknown special product {kind!r}")


# ---- evidence search ----------------------------------------------------------

def search(F: Field, n: int, hit, *, arity: int = 1, seed: int = 42,
           samples: int = 128, enum_cap: int = 0):
    """(first ``args`` with ``hit(*args)``, or None; provenance): with arity 1
    and |F|^n <= enum_cap, all of F^n in ``Algebra.elements()`` order
    ('exhaustive'), else ``samples`` tuples of ``arity`` vectors drawn as
    ``Algebra.random_element`` draws them, from one Random(seed) ('sampled')."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if arity == 1 and F.is_finite and F.order ** n <= enum_cap:
        for combo in itertools.product(list(F.elements()), repeat=n):
            x = list(combo)
            if hit(x):
                return (x,), "exhaustive"
        return None, "exhaustive"
    rng = random.Random(seed)
    for _ in range(samples):
        args = tuple([F.random_element(rng) for _ in range(n)]
                     for _ in range(arity))
        if hit(*args):
            return args, "sampled"
    return None, "sampled"


# ---- identity checking ----------------------------------------------------

# name -> (degree of the swept argument x, number of arguments the law is
# linear in, whether x is the last argument).  Laws of degree <= 2 in x are
# decided by basis conditions over every field; middle Moufang is quadratic
# but is scanned or sampled by the enumeration policy, as is Jordan (degree 3,
# where basis linearization is not conservative in small characteristic).
_LAWS = {
    "left-alternative": (2, 1, False),      # (x, x, y)
    "right-alternative": (2, 1, True),      # (y, x, x)
    "flexible": (2, 1, False),              # (x, y, x)
    "middle-moufang": (2, 2, False),        # (xy)(zx) - (x(yz))x
    "jordan": (3, 1, False),                # (x^2, y, x)
    "associative": (1, 2, False),           # (x, y, z)
    "commutative": (1, 1, False),           # [x, y]
    "anticommutative": (2, 0, False),       # x x
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
    if name == "left-alternative":
        x, y = args
        return A.associator(x, x, y)
    if name == "right-alternative":
        x, y = args
        return A.associator(x, y, y)
    if name == "flexible":
        x, y = args
        return A.associator(x, y, x)
    if name == "associative":
        return A.associator(*args)
    if name == "commutative":
        x, y = args
        return A.commutator(x, y)
    if name == "anticommutative":
        (x,) = args
        return A.mul(x, x)
    if name == "middle-moufang":
        # (xy)(zx) = (x(yz))x, left-bracketed reading of the right side
        x, y, z = args
        lhs = A.mul(A.mul(x, y), A.mul(z, x))
        rhs = A.mul(A.mul(x, A.mul(y, z)), x)
        return A.vsub(lhs, rhs)
    if name == "jordan":
        x, y = args
        return A.associator(A.mul(x, x), y, x)
    raise ValueError(f"unknown identity {name!r}")


def _fail(A, name, provenance, args):
    return IdentityReport(name, False, provenance,
                          IdentityWitness(list(args), evaluate_identity(A, name, args)))


def _check_certified(A: Algebra, name: str) -> IdentityReport:
    """A law f of degree <= 2 in x and linear in its other arguments vanishes
    identically iff it vanishes with those arguments on basis vectors and x
    at every e_i, then (degree 2) at every e_i + e_j, i < j: once the square
    coefficients f(e_i) are zero, f(e_i + e_j) is the cross coefficient.
    This holds over every field, characteristic 2 included."""
    degree, n_linear, last = _LAWS[name]
    e = A.basis()
    sums = (A.vadd(a, b) for a, b in itertools.combinations(e, 2))
    for x in itertools.chain(e, sums if degree == 2 else ()):
        for ys in itertools.product(e, repeat=n_linear):
            args = (*ys, x) if last else (x, *ys)
            if not A.is_zero_vec(evaluate_identity(A, name, args)):
                return _fail(A, name, "certified", args)
    return IdentityReport(name, True, "certified")


def _check_scanned(A: Algebra, name: str, seed: int, samples: int,
                   enum_cap: int) -> IdentityReport:
    F = A.field
    if F.kind == "prime" and A.element_count() <= enum_cap:
        from . import scan

        args = (scan.scan_middle_moufang(A) if name == "middle-moufang"
                else scan.scan_jordan(A))
        provenance = "exhaustive"
    else:
        args, provenance = search(
            F, A.dim, lambda *a: not A.is_zero_vec(evaluate_identity(A, name, a)),
            arity=1 + _LAWS[name][1], seed=seed, samples=samples)
    if args is None:
        return IdentityReport(name, True, provenance)
    return _fail(A, name, provenance, args)


def check_identity(A: Algebra, name: str, *, seed: int = 42, samples: int = 128,
                   enum_cap: int = 2 ** 20) -> IdentityReport:
    """Check a polynomial identity; see IDENTITY_NAMES for the vocabulary.

    Verdict provenance is 'certified' when basis conditions decide the law
    over any field, 'exhaustive' for a full finite scan, 'sampled' otherwise.
    """
    if name not in _LAWS:
        raise ValueError(f"unknown identity {name!r}")
    if _LAWS[name][0] > 2 or name == "middle-moufang":
        return _check_scanned(A, name, seed, samples, enum_cap)
    return _check_certified(A, name)


# ---- distinguished subspaces ----------------------------------------------

def special_subspace(A: Algebra, kind: str) -> Subspace:
    """nucleus / commutative-center / center / annihilator as a Subspace."""
    F = A.field
    d = A.dim
    e = A.basis()
    rows = []
    if kind == "nucleus":
        for i in range(d):
            for j in range(d):
                slots = (
                    [A.associator(e[a], e[i], e[j]) for a in range(d)],
                    [A.associator(e[i], e[a], e[j]) for a in range(d)],
                    [A.associator(e[i], e[j], e[a]) for a in range(d)],
                )
                for vecs in slots:
                    for m in range(d):
                        rows.append([vecs[a][m] for a in range(d)])
    elif kind == "commutative-center":
        for i in range(d):
            vecs = [A.commutator(e[a], e[i]) for a in range(d)]
            for m in range(d):
                rows.append([vecs[a][m] for a in range(d)])
    elif kind == "center":
        return special_subspace(A, "nucleus").intersect(
            special_subspace(A, "commutative-center"))
    elif kind == "annihilator":
        for i in range(d):
            for vecs in ([A.mul(e[a], e[i]) for a in range(d)],
                         [A.mul(e[i], e[a]) for a in range(d)]):
                for m in range(d):
                    rows.append([vecs[a][m] for a in range(d)])
    else:
        raise ValueError(f"unknown special subspace {kind!r}")
    rows = _dedupe_rows(F, rows)
    return kernel(Matrix(F, rows, d))


def _dedupe_rows(F: Field, rows: list) -> list:
    """Drop zero and duplicate condition rows (hashable fields only)."""
    out = []
    if F.hashable_elements:
        seen = set()
        for r in rows:
            if all(F.is_zero(a) for a in r):
                continue
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                out.append(r)
    else:
        for r in rows:
            if not all(F.is_zero(a) for a in r):
                out.append(r)
    return out


def subspace_product(A: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of {x*y : x in basis(u), y in basis(v)}."""
    vecs = [A.mul(x, y) for x in u.rows for y in v.rows]
    return Subspace.from_vectors(A.field, A.dim, vecs)


def generated(A: Algebra, kind: str, gens) -> Subspace:
    """Closure of span(gens) to a subalgebra or (two-sided) ideal."""
    if kind not in ("subalgebra", "ideal"):
        raise ValueError(f"unknown closure kind {kind!r}")
    S = Subspace.from_vectors(A.field, A.dim, [list(g) for g in gens])
    full = A.dim
    while True:
        if kind == "subalgebra":
            grown = S.add(subspace_product(A, S, S))
        else:
            amb = Subspace.full(A.field, A.dim)
            grown = S.add(subspace_product(A, amb, S)).add(subspace_product(A, S, amb))
        if grown.dim == S.dim:
            return grown
        S = grown
        if S.dim == full:
            return S


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
    F = A.field
    table = {}
    for i in range(A.dim):
        for j in range(A.dim):
            a = A.mul(A.basis_vec(i), A.basis_vec(j))
            b = A.mul(A.basis_vec(j), A.basis_vec(i))
            v = A.vadd(a, b) if sign == "plus" else A.vsub(a, b)
            terms = [(k, c) for k, c in enumerate(v) if not F.is_zero(c)]
            if terms:
                table[(i, j)] = terms
    return Algebra(F, A.dim, table, A.names)


def restricted_algebra(A: Algebra, S: Subspace, names=None) -> Algebra:
    """The multiplication of A restricted to a multiplicatively closed
    subspace, as a structure-constant algebra on the RREF basis of S."""
    F = A.field
    m = S.dim
    table = {}
    for i in range(m):
        for j in range(m):
            prod = A.mul(list(S.rows[i]), list(S.rows[j]))
            resid = S.reduce_vector(prod)
            if not all(F.is_zero(a) for a in resid):
                raise ValueError("subspace is not closed under multiplication")
            # RREF rows have unit pivots, so coordinates read off at pivots
            coords = [prod[_pivot_of(F, S.rows[r])] for r in range(m)]
            terms = [(k, c) for k, c in enumerate(coords) if not F.is_zero(c)]
            if terms:
                table[(i, j)] = terms
    return Algebra(F, m, table, names)


def _pivot_of(F: Field, row) -> int:
    for j, a in enumerate(row):
        if not F.is_zero(a):
            return j
    raise ValueError("zero basis row")


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
