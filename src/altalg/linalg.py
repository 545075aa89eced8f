"""Exact linear algebra over any Field: RREF, kernels, solving, subspaces.

``Matrix`` is the dense public type, row-major lists of field elements.
Subspaces are stored as reduced row-echelon bases, so two subspaces are
equal iff their stored rows are equal (entrywise, by field equality).

Elimination runs on sparse rows {column: value}: int residues over GF(p),
integers over Q (``fields._lift``), and over GF(p)(s, t) every entry but
0/1.  ``rref`` and ``kernel`` convert a dense ``Matrix`` once
(``_sparse``); ``_condition_rows`` hands a condition system on in that
form, for the operator systems and the distinguished subspaces.

GF(p) and Q share one echelon routine, ``_echelon``: each row is reduced at
its leading column by that column's pivot row while there is one, and kept
as a pivot row if it is then nonzero; back-substitution clears the later
pivot columns of each pivot row, last first.  Over GF(p) pivot rows are
scaled to leading entry 1 when kept, so the step is x - b*y mod p (b the
row's entry in the pivot column); over Q it is the gcd-reduced a*x - b*y (a
the pivot) over its content, and pivot rows become Fractions at the end.
The RREF is unique, so this equals textbook elimination.

GF(p)(s, t) fractions are not reduced, so their bytes depend on the path.
They keep one Gauss-Jordan loop, ``_gauss_jordan`` (the leftmost column
with a nonzero entry at or below the rank, its first such row as pivot
row), with a fused step; each pivot row is scaled by its inverse at the
end.  Row x becomes piv*x - f*y (piv the pivot, f the row's entry in the
pivot column, y the pivot row).  Once per row the step forms
P1 = piv.num*f.den, P2 = f.num*piv.den and D = piv.den*f.den; then each
entry gets

    num = P1*(x.num*y.den) - P2*(y.num*x.den),    den = D*(x.den*y.den)

on the term dicts: the polynomials of ``F.sub(F.mul(piv, x), F.mul(f, y))``
term for term, as GF(p)[s, t] is commutative and associative.  Each
product is checked against ``fields.TERM_BUDGET`` and each stored entry
goes through ``F._guard``.  A row is its stored entries and one z for the
rest, each 0/z (z starts as 1): the step visits the columns stored in x or
y and forms the new z = D*(z_x*z_y) once if needed, so it forms each
product of the dense step and no other.

``kernel`` solves a GF(p)(s, t) system with more rows than columns, p up to
2^16, on few of its rows: it evaluates the nonzero entries at the first of
four fixed points of GF(q) (``fields._gf_table``) where no denominator
vanishes, runs ``_gauss_jordan`` there, and eliminates exactly only that
run's pivot rows, in pivot order.  Pivot rows change only through pivot
rows, so unless an entry vanishes at the point but not over GF(p)(s, t),
the bytes are those of the full run.  The kernel of the rows kept contains
the true one; every distinct dropped row must vanish on it, by exact dot
products, or, as when no point is usable, all rows are eliminated.

A ``Subspace`` keeps the pivot columns of its RREF basis, which
``reduce_vector`` reads.  ``_combine`` is
the one sum c*v; unlike ``Matrix.mulvec`` it does not skip zero entries,
which would change unreduced GF(p)(s, t) sums.  ``Subspace._closure`` is
the one fixpoint loop S -> S + grow(S).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from random import Random

from . import fields
from .fields import (_GF_Q_MAX, Field, FieldError, RatFun, RatFunField,
                     TermBudgetError, _add_terms, _gf_table, _lift, _lower,
                     _mul_terms)


class Matrix:
    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field: Field, rows: list, ncols: int | None = None):
        if ncols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows in matrix")
        self.field = field
        self.rows = [list(r) for r in rows]
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.ncols)

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def mulvec(self, v: list) -> list:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        F = self.field
        out = []
        for row in self.rows:
            s = F.zero
            for a, x in zip(row, v):
                if not F.is_zero(a) and not F.is_zero(x):
                    s = F.add(s, F.mul(a, x))
            out.append(s)
        return out

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        F = self.field
        out = Matrix.zeros(F, self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            orow = out.rows[i]
            for k, a in enumerate(row):
                if F.is_zero(a):
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if not F.is_zero(b):
                        orow[j] = F.add(orow[j], F.mul(a, b))
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], self.nrows)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(a) for r in self.rows for a in r)

    def eq(self, other: "Matrix") -> bool:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        F = self.field
        return all(F.eq(a, b) for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def rank(self) -> int:
        return rref(self)[1]

    def __repr__(self) -> str:
        F = self.field
        body = "; ".join("[" + ", ".join(F.fmt(a) for a in r) + "]" for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _sparse(F: Field, rows: list) -> list:
    """Dense field rows as sparse rows (module docstring)."""
    if F.kind == "prime":
        return [{j: r for j, a in enumerate(row) if (r := a % F.p)} for row in rows]
    if F.kind == "rationals":
        return [{j: a for j, a in enumerate(_lift(F, row)[0]) if a} for row in rows]
    return _ratfun_rows(F.p, [dict(enumerate(row)) for row in rows])


def _ratfun_rows(p: int, rows: list) -> list:
    """GF(p)(s, t) rows {column: fraction} without their 0/1 entries; every
    entry must be over GF(p)."""
    if not all(x.num.p == x.den.p == p
               for x in set(chain.from_iterable(row.values() for row in rows))):
        raise FieldError("mixed-field entries in a GF(p)(s, t) matrix")
    one = {(0, 0): 1}
    return [{j: x for j, x in row.items() if x.num.terms or x.den.terms != one}
            for row in rows]


def _dense(F: Field, rows: list, ncols: int) -> list:
    """Sparse rows as dense field rows, each value lowered by ``_lower``."""
    return [[_lower(F, row[j], 1) if j in row else F.zero for j in range(ncols)]
            for row in rows]


def _echelon(p: int, rows) -> tuple:
    """(pivot rows, pivots) of the RREF of sparse rows over GF(p), or Q for
    p = 0: sparse rows of residues over GF(p), of Fractions over Q."""
    def step(x, y, c):
        a, b = y[c], x[c]
        g = gcd(a, b)
        a, b = a // g, b // g
        out = dict(x) if a == 1 else {j: a * v for j, v in x.items()}
        for j, v in y.items():
            w = out.get(j, 0) - b * v
            if p:
                w %= p
            if w:
                out[j] = w
            else:
                del out[j]
        if not p and out and (g := gcd(*out.values())) > 1:
            out = {j: v // g for j, v in out.items()}
        return out

    piv = {}
    for x in rows:
        while x:
            c = min(x)
            if c not in piv:
                if p:
                    inv = pow(x[c], p - 2, p)
                    x = {j: v * inv % p for j, v in x.items()}
                piv[c] = x
                break
            x = step(x, piv[c], c)
    pivots = sorted(piv)
    for c in reversed(pivots):
        x = piv[c]
        for j in [j for j in x if j != c and j in piv]:
            x = step(x, piv[j], j)
        piv[c] = x
    if p:
        return [piv[c] for c in pivots], pivots
    return [{j: Fraction(v, piv[c][c]) for j, v in piv[c].items()} for c in pivots], pivots


def _gauss_jordan(rows: list, ncols: int, nonzero, step):
    """The GF(p)(s, t) elimination loop (module docstring), in place on
    `rows`: every row but the pivot row with a nonzero entry in pivot column
    c becomes step(prow, c, row); pivot rows are left unscaled.  Returns
    (rows, rank, pivots)."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if nonzero(rows[pr][c]):
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        for i in range(nrows):
            if i != r and nonzero(rows[i][c]):
                rows[i] = step(prow, c, rows[i])
        pivots.append(c)
        r += 1
    return rows, r, pivots


class _SparseRow(dict):
    """Stored entries {column: fraction}; other columns read ``zero``, uninserted."""

    __slots__ = ("zero",)

    def __missing__(self, c):
        return self.zero


def _rref_ratfun2(F: RatFunField, rows: list, ncols: int):
    """The GF(p)(s, t) RREF of sparse rows by the fused step (module
    docstring): (dense rows, rank, pivots)."""
    p, budget, guard, one = F.p, fields.TERM_BUDGET, F._guard, {(0, 0): 1}

    def mul(a: dict, b: dict) -> dict:
        ab = _mul_terms(p, a, b)
        if len(ab) > budget:
            raise TermBudgetError(f"elimination product grew to {len(ab)} terms "
                                  f"(budget {budget}); aborting")
        return ab

    def step(prow, c, row):
        pn, pd = prow[c].num.terms, prow[c].den.terms
        fn, fd = row[c].num.terms, row[c].den.terms
        p1, p2, d = mul(pn, fd), mul(fn, pd), mul(pd, fd)
        out = _SparseRow()
        for j in sorted(row.keys() | prow.keys()):
            x, y = row[j], prow[j]
            xn, xd, yn, yd = x.num.terms, x.den.terms, y.num.terms, y.den.terms
            # a zero numerator only empties its products: skip them
            a = mul(p1, mul(xn, yd)) if xn else {}
            b = mul(p2, mul(yn, xd)) if yn else {}
            out[j] = guard(RatFun.of(p, _add_terms(p, a, b, -1) if b else a,
                                     mul(d, mul(xd, yd))))
        zx, zy = row.zero, prow.zero    # the columns zero in both rows, if any
        out.zero = (guard(RatFun.of(p, {}, mul(d, mul(zx.den.terms, zy.den.terms))))
                    if len(out) < ncols else None)
        return out

    zero = guard(RatFun.of(p, {}, one))
    sparse = [_SparseRow(row) for row in rows]
    for row in sparse:
        row.zero = zero if len(row) < ncols else None
    rows, r, pivots = _gauss_jordan(sparse, ncols, lambda x: x.num.terms, step)
    for i, row in enumerate(rows):
        zero, stored = row.zero, row
        if i < r:
            inv = F.inv(row[pivots[i]])
            zero = None if zero is None else F.mul(inv, zero)
            stored = {j: F.mul(inv, x) for j, x in row.items()}
        rows[i] = [stored.get(j, zero) for j in range(ncols)]
    return rows, r, pivots


def _points(n: int) -> list:
    """The fixed points (g^a, g^b) that ``kernel`` tries, in order."""
    rng = Random(n)
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4)]


def _point_rows(F: RatFunField, nonzero: list, ncols: int):
    """Indices of the pivot rows, in pivot order, of ``_gauss_jordan`` on
    rows with nonzero (column, entry) lists ``nonzero``, at the first of
    ``_points`` where none of their denominators vanishes (GF(q) elements
    as in ``fields._gf_table``); None if there is no such point."""
    n, zech, logc = _gf_table(F.p)

    def value(terms, a, b):
        acc = 0
        for (i, j), c in terms.items():
            e = (logc[c] + i * a + j * b) % n or n
            z = zech[(e - acc) % n] if acc else e
            acc = z and ((acc + z) % n or n)
        return acc
    for a, b in _points(n):
        vals = [[(j, value(x.num.terms, a, b), value(x.den.terms, a, b)) for j, x in nz]
                for nz in nonzero]
        if all(d for row in vals for _, _, d in row):
            break
    else:
        return None
    minus, held = (n if n % 2 else n // 2), [None]

    def step(prow, c, row):
        # row + m*prow, m = -row[c]/prow[c]: the zeros of the row step
        if held[0] is not prow:
            held[:] = prow, [(j, y) for j, y in zip(range(ncols), prow) if y]
        m, out = row[c] - prow[c] + minus, row.copy()
        for j, y in held[1]:
            v, x = (m + y) % n or n, out[j]
            z = zech[(v - x) % n] if x else v
            out[j] = z and ((x + z) % n or n)
        return out

    pt = [[0] * ncols + [i] for i in range(len(vals))]
    for row, cells in zip(pt, vals):
        for j, u, d in cells:
            row[j] = u and ((u - d) % n or n)
    pt, r, _ = _gauss_jordan(pt, ncols, bool, step)
    return [row[ncols] for row in pt[:r]]


def rref(m: Matrix):
    """Reduced row-echelon form: returns (Matrix, rank, pivot columns)."""
    F, nc = m.field, m.ncols
    rows = _sparse(F, m.rows)
    if F.kind == "ratfun2":
        red, rank, pivots = _rref_ratfun2(F, rows, nc)
    else:
        red, pivots = _echelon(F.p if F.kind == "prime" else 0, rows)
        rank = len(pivots)
        red = _dense(F, red, nc) + [[F.zero] * nc for _ in range(m.nrows - rank)]
    return Matrix(F, red, nc), rank, pivots


def _condition_rows(F: Field, rows) -> list:
    """The condition rows {column: value} in sparse form (module docstring).
    Over GF(p) and Q each row is lifted (``fields._lift``, which also takes
    the plain integers of ``operators._law_rows``) to a normal form, leading
    entry 1 over GF(p) and primitive integers with a positive leading entry
    over Q, and dropped if it is zero or its normal form was seen before (a
    multiple of an earlier row).  Over GF(p)(s, t) zero rows are dropped."""
    if F.kind == "ratfun2":
        return _ratfun_rows(F.p, [row for row in rows
                                  if any(a.num.terms for a in row.values())])
    out = []
    p = F.p if F.kind == "prime" else 0
    seen, met = set(), set()
    for row in rows:
        # a row met before as it stands has the same normal form: skip it
        # before lifting, which most rows of a high-order system are
        raw = frozenset(row.items())
        if raw in met:
            continue
        met.add(raw)
        ints, _ = _lift(F, list(row.values()))
        pairs = sorted((c, a) for c, a in zip(row, ints) if a)
        if not pairs:
            continue
        lead = pairs[0][1]
        if p:
            inv = pow(lead, p - 2, p)
            key = tuple((c, a * inv % p) for c, a in pairs)
        else:
            g = gcd(*(a for _, a in pairs))
            g = g if lead > 0 else -g
            key = tuple((c, a // g) for c, a in pairs)
        if key in seen:
            continue
        seen.add(key)
        out.append(dict(key))
    return out


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of {x : m @ x = 0}; dim = ncols - rank."""
    return _kernel(m.field, _sparse(m.field, m.rows), m.ncols)


def _kernel(F: Field, rows: list, nc: int) -> "Subspace":
    """``kernel`` of the sparse rows ``rows`` with ``nc`` columns."""
    if F.kind == "ratfun2" and len(rows) > nc and F.p <= _GF_Q_MAX:
        nonzero = [[(j, x) for j, x in sorted(row.items()) if x.num.terms] for row in rows]
        kept = _point_rows(F, nonzero, nc)
        if kept is not None:
            vecs = _kernel_vectors(F, [rows[i] for i in kept], nc)
            done = {_terms_key(nonzero[i]) for i in kept}
            rest = {k: nz for nz in nonzero if (k := _terms_key(nz)) not in done}
            if not any(sum(x * v[j] for j, x in nz if v[j])
                       for nz in rest.values() for v in vecs):
                return Subspace.from_vectors(F, nc, vecs)
    return Subspace.from_vectors(F, nc, _kernel_vectors(F, rows, nc))


def _span(F: Field, rows: list, nc: int) -> "Subspace":
    """The span of sparse rows in ``_condition_rows``' form, by one RREF."""
    if F.kind == "ratfun2":
        red, rank, pivots = _rref_ratfun2(F, rows, nc)
        return Subspace(F, nc, red[:rank], pivots)
    red, pivots = _echelon(F.p if F.kind == "prime" else 0, rows)
    return Subspace(F, nc, _dense(F, red, nc), pivots)


def _terms_key(nz: list) -> tuple:
    """Equal for two lists of (column, entry) iff their term dicts are."""
    return tuple((j, frozenset(x.num.terms.items()), frozenset(x.den.terms.items()))
                 for j, x in nz)


def _kernel_vectors(F: Field, rows: list, nc: int) -> list:
    """One kernel vector per free column c of the RREF of the sparse rows:
    1 at c, minus the column's RREF entries at the pivot columns."""
    if F.kind == "ratfun2":
        red, rank, pivots = _rref_ratfun2(F, rows, nc)
        red = [{j: a for j, a in enumerate(row) if not F.is_zero(a)} for row in red[:rank]]
    else:
        red, pivots = _echelon(F.p if F.kind == "prime" else 0, rows)
    pivot_set = set(pivots)
    vecs = {c: [F.zero] * nc for c in range(nc) if c not in pivot_set}
    for c, v in vecs.items():
        v[c] = F.one
    for row, pc in zip(red, pivots):
        for c, a in row.items():
            if c != pc:
                vecs[c][pc] = F.neg(a)
    return list(vecs.values())


def solve(m: Matrix, b: list):
    """One solution of m @ x = b (free variables 0), or None if inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side length mismatch")
    F = m.field
    aug = Matrix(F, [row + [bv] for row, bv in zip(m.rows, b)], m.ncols + 1)
    red, rank, pivots = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [F.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return x

class Subspace:
    """Subspace of F^n stored as an RREF basis (canonical representation),
    with the pivot column of each basis row."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field: Field, ambient: int, rref_rows: list, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rref_rows
        self._pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vecs: list) -> "Subspace":
        if not vecs:
            return cls.zero(field, ambient)
        red, rank, pivots = rref(Matrix(field, vecs, ambient))
        return cls(field, ambient, red.rows[:rank], pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [], ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).rows, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        """The pivot column of each basis row, in row order."""
        return self._pivots

    def basis(self) -> list:
        return [list(r) for r in self.rows]

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        # x in U∩V iff x = a·U = b·V; solve for (a, b) in the kernel of
        # the matrix whose columns are U-basis vectors and negated V-basis.
        self._check_ambient(other)
        F = self.field
        if not self.rows or not other.rows:
            return Subspace.zero(F, self.ambient)
        k = self.dim
        cols = Matrix(F, self.rows + [[F.neg(a) for a in r] for r in other.rows],
                      self.ambient).transpose()
        vecs = [_combine(F, kv[:k], self.rows, self.ambient)
                for kv in kernel(cols).rows]
        return Subspace.from_vectors(F, self.ambient, vecs)

    def _closure(self, grow) -> "Subspace":
        """S + grow(S), from S = this space, until a step adds nothing or S
        is the whole ambient space; returns that last S."""
        S = self
        while True:
            grown = S.add(grow(S))
            if grown.dim == S.dim:
                return grown
            S = grown
            if S.dim == S.ambient:
                return S

    def reduce_vector(self, v: list) -> list:
        """Residual of v after elimination against the basis rows."""
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        F = self.field
        v = list(v)
        for row, pc in zip(self.rows, self._pivots):
            a = v[pc]
            if not F.is_zero(a):
                v = [F.sub(x, F.mul(a, y)) for x, y in zip(v, row)]
        return v

    def contains_vector(self, v: list) -> bool:
        F = self.field
        return all(F.is_zero(x) for x in self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        F = self.field
        return all(F.eq(a, b) for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


def _combine(F: Field, coeffs, vecs, n: int) -> list:
    """sum c*v over the pairs of coeffs and length-n vecs: from F.zero, each
    pair with c nonzero adds F.mul(c, x) to every entry x of v, in order."""
    acc = [F.zero] * n
    for c, v in zip(coeffs, vecs):
        if not F.is_zero(c):
            acc = [F.add(a, F.mul(c, x)) for a, x in zip(acc, v)]
    return acc


def _multiple(F: Field, w: list, v: list):
    """The scalar l with w = l*v, read at the first nonzero entry of v, or
    None if there is none (v = 0 or w is not on the line of v)."""
    for x, y in zip(w, v):
        if not F.is_zero(y):
            lam = F.div(x, y)
            return lam if all(F.eq(a, F.mul(lam, b)) for a, b in zip(w, v)) else None
    return None
