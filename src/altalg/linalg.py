"""Exact dense linear algebra over any Field: RREF, kernels, solving,
and subspace calculus.

Matrices are row-major lists of field elements.  Subspaces are always stored
as reduced row-echelon bases, so two subspaces are equal iff their stored
rows are equal (entrywise, by field equality).

Every RREF runs through one Gauss-Jordan loop, ``_gauss_jordan``: the
leftmost column with a nonzero entry at or below the current rank is the
pivot column, the first such row is the pivot row, and every other row with
a nonzero entry in that column is replaced by the field's row step, which
never divides by the pivot.  Each field supplies only how it prepares the rows, its
row step, and how it scales each pivot row once at the end.  The RREF is
unique, so the result equals textbook elimination over the field.
- GF(p): rows are reduced to int residues once; the step is a*x - b*y mod p
  (a the pivot, b the row's entry in the pivot column); pivot rows are
  scaled by a^(p-2).
- Q: rows are scaled to primitive integer vectors; the step is the
  gcd-reduced cross-multiplication, divided by the row's content again;
  pivot rows become Fractions.
- GF(p)(s, t): the fused step below keeps entries polynomial for as long
  as possible; pivot rows are scaled by their inverse.

The GF(p)(s, t) row step is fused.  Row x is replaced by piv*x - f*y, where
piv is the pivot, f the row's entry in the pivot column and y the pivot
row.  Once per row it forms P1 = piv.num*f.den, P2 = f.num*piv.den and
D = piv.den*f.den.  Then each entry gets

    num = P1*(x.num*y.den) - P2*(y.num*x.den),    den = D*(x.den*y.den),

on the term dicts, with no intermediate fractions.  These are the same
polynomials as the numerator and denominator of
``F.sub(F.mul(piv, x), F.mul(f, y))``, because GF(p)[s, t] is commutative
and associative and a polynomial has one term dict.  So the unreduced
fractions, and every encoded output, match that formula term for term.
Each product is checked against ``fields.TERM_BUDGET``, and each stored
entry goes through ``F._guard``.

Everything built on elimination lives here too.  ``_combine`` is the one
sum c*v of vectors; it skips zero coefficients but, unlike
``Matrix.mulvec``, not zero entries, since that would change the unreduced
GF(p)(s, t) sums.  ``Subspace._closure`` is the one fixpoint loop S ->
S + grow(S), for generated subalgebras and ideals and the multiplication
Lie algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import fields
from .fields import (Field, FieldError, RatFun, RatFunField, TermBudgetError,
                     _add_terms, _mul_terms)


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


def _gauss_jordan(rows: list, ncols: int, nonzero, step):
    """The one elimination loop, in place on `rows`: the leftmost column
    with a nonzero entry at or below the current rank, and the first such
    row as pivot row, swapped up; every other row with a nonzero entry in
    that column becomes step(prow, c, row).  Pivot rows are left unscaled.
    Returns (rows, rank, pivots)."""
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


def _rref_prime(p: int, rows: list, ncols: int):
    # int residues; ~5x faster than going through Field calls
    def step(prow, c, row):
        a, b = prow[c], row[c]
        return [(a * x - b * y) % p for x, y in zip(row, prow)]

    rows, r, pivots = _gauss_jordan([[x % p for x in row] for row in rows],
                                    ncols, bool, step)
    for i, c in enumerate(pivots):
        inv = pow(rows[i][c], p - 2, p)
        rows[i] = [(x * inv) % p for x in rows[i]]
    return rows, r, pivots


def _rref_rationals(rows: list, ncols: int):
    # fraction-free on primitive integer rows, in the spirit of Bareiss
    def step(prow, c, row):
        g = gcd(prow[c], row[c])
        a, b = prow[c] // g, row[c] // g
        return _primitive([a * x - b * y for x, y in zip(row, prow)])

    irows = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        irows.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    irows, r, pivots = _gauss_jordan(irows, ncols, bool, step)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(irows, pivots)]
    out.extend([Fraction(0)] * ncols for _ in range(len(irows) - r))
    return out, r, pivots


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_ratfun2(F: RatFunField, rows: list, ncols: int):
    """GF(p)(s, t) with the fused row step of the module docstring; each
    pivot row is scaled by its inverse at the end."""
    p, budget, guard = F.p, fields.TERM_BUDGET, F._guard
    if not all(x.num.p == x.den.p == p for row in rows for x in row):
        raise FieldError("mixed-field entries in a GF(p)(s, t) matrix")

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
        out = []
        for x, y in zip(row, prow):
            xn, xd, yn, yd = x.num.terms, x.den.terms, y.num.terms, y.den.terms
            # a zero numerator only empties its products: skip them
            a = mul(p1, mul(xn, yd)) if xn else {}
            b = mul(p2, mul(yn, xd)) if yn else {}
            out.append(guard(RatFun.of(p, _add_terms(p, a, b, -1) if b else a,
                                       mul(d, mul(xd, yd)))))
        return out

    rows, r, pivots = _gauss_jordan([list(row) for row in rows], ncols,
                                    lambda x: x.num.terms, step)
    for i, c in enumerate(pivots):
        inv = F.inv(rows[i][c])
        rows[i] = [F.mul(inv, x) for x in rows[i]]
    return rows, r, pivots


def rref(m: Matrix):
    """Reduced row-echelon form: returns (Matrix, rank, pivot columns)."""
    F = m.field
    if F.kind == "prime":
        rows, rank, pivots = _rref_prime(F.p, m.rows, m.ncols)
    elif F.kind == "rationals":
        rows, rank, pivots = _rref_rationals(m.rows, m.ncols)
    else:
        rows, rank, pivots = _rref_ratfun2(F, m.rows, m.ncols)
    return Matrix(F, rows, m.ncols), rank, pivots


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of {x : m @ x = 0}; dim = ncols - rank."""
    F = m.field
    red, rank, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    vecs = []
    for fc in free:
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            a = red.rows[r][fc]
            if not F.is_zero(a):
                v[pc] = F.neg(a)
        vecs.append(v)
    return Subspace.from_vectors(F, m.ncols, vecs)


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
    """Subspace of F^n stored as an RREF basis (canonical representation)."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: Field, ambient: int, rref_rows: list):
        self.field = field
        self.ambient = ambient
        self.rows = rref_rows

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vecs: list) -> "Subspace":
        if not vecs:
            return cls(field, ambient, [])
        red, rank, _ = rref(Matrix(field, vecs, ambient))
        return cls(field, ambient, red.rows[:rank])

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

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
        for row in self.rows:
            pc = _pivot_col(F, row)
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


def _pivot_col(F: Field, row: list) -> int:
    for j, a in enumerate(row):
        if not F.is_zero(a):
            return j
    raise ValueError("zero row in subspace basis")


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


def subspace_op(kind: str, u: Subspace, v):
    """Dispatch façade: sum / intersect / contains / equal."""
    if kind == "sum":
        return u.add(v)
    if kind == "intersect":
        return u.intersect(v)
    if kind == "contains":
        if isinstance(v, Subspace):
            return u.contains(v)
        return u.contains_vector(v)
    if kind == "equal":
        return u == v
    raise ValueError(f"unknown subspace operation {kind!r}")
