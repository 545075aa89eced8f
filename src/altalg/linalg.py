"""Exact dense linear algebra over any Field: RREF, kernels, solving,
and subspace calculus.

Matrices are row-major lists of field elements.  Subspaces are always stored
as reduced row-echelon bases, so two subspaces are equal iff their stored
rows are equal (entrywise, by field equality).  Elimination is Gauss-Jordan
with the leftmost-nonzero pivot column and first-nonzero-row tie-breaking.
GF(p) runs on plain int residues.  Over Q each row is scaled to integers and
eliminated fraction-free (cross-multiplication, then division by the row's
content), and pivot rows become Fractions only at the end; the RREF is
unique, so this equals elimination over Fractions.  Over rational-function
fields rows are cross-multiplied instead of divided and only normalized at
the end, which keeps entries polynomial for as long as possible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field


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


def _rref_prime(p: int, rows: list, ncols: int):
    # int-specialized Gauss-Jordan; ~5x faster than going through Field calls
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c] % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, pivots


def _rref_rationals(rows: list, ncols: int):
    # Gauss-Jordan over Q on integer rows, fraction-free in the spirit of
    # Bareiss: each row is scaled to a primitive integer vector, eliminated
    # by cross-multiplication and divided by its content again, and pivot
    # rows become Fractions only at the end.  The RREF is unique, so this
    # equals elimination over Fractions entrywise.
    irows = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        irows.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    nrows = len(irows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if irows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            irows[r], irows[pr] = irows[pr], irows[r]
        prow = irows[r]
        piv = prow[c]
        for i in range(nrows):
            f = irows[i][c]
            if f and i != r:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                irows[i] = _primitive([a * x - b * y for x, y in zip(irows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(irows, pivots)]
    out.extend([Fraction(0)] * ncols for _ in range(nrows - r))
    return out, r, pivots


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_generic(F: Field, rows: list, ncols: int):
    """Gauss-Jordan without division during elimination (row_i := piv * row_i
    - f * pivot row); each pivot row is scaled by its inverse at the end."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if F.is_zero(f):
                continue
            rows[i] = [F.sub(F.mul(piv, x), F.mul(f, y))
                       for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
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
        rows, rank, pivots = _rref_generic(F, m.rows, m.ncols)
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
        k, m = self.dim, other.dim
        if k == 0 or m == 0:
            return Subspace.zero(F, self.ambient)
        cols = []
        for i in range(self.ambient):
            cols.append([self.rows[r][i] for r in range(k)]
                        + [F.neg(other.rows[r][i]) for r in range(m)])
        ker = kernel(Matrix(F, cols, k + m))
        vecs = []
        for kv in ker.rows:
            v = [F.zero] * self.ambient
            for r in range(k):
                a = kv[r]
                if not F.is_zero(a):
                    for i in range(self.ambient):
                        v[i] = F.add(v[i], F.mul(a, self.rows[r][i]))
            vecs.append(v)
        return Subspace.from_vectors(F, self.ambient, vecs)

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
