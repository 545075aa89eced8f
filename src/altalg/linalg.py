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
- Q: rows are lifted to integers (``fields._lift``, as products are) and
  made primitive; the step is the gcd-reduced cross-multiplication,
  divided by the row's content again; pivot rows become Fractions.
- GF(p)(s, t): the fused step below keeps entries polynomial for as long
  as possible, on sparse rows; pivot rows are scaled by their inverse.

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

Rows are sparse: stored entries, and one z for the implicit rest, each 0/z
(an input 0/1 is implicit; z starts as 1).  The step visits the columns
stored in x or y; elsewhere the formula gives 0/(D*(z_x*z_y)), the new z,
formed once if needed.  So a step forms each product of the dense step and
no other, and the term budget stops the same step.

``kernel`` solves a GF(p)(s, t) matrix with more rows than columns, p up
to 2^16, on few of its rows.  It evaluates the entries at the first of four
fixed points (a, b) of GF(q) (``fields._gf_table``) where no denominator
vanishes, runs ``_gauss_jordan`` there, and eliminates exactly only the
pivot rows of that run, in pivot order.  Pivot rows change only through
pivot rows, so unless an entry vanishes at the point but not over
GF(p)(s, t), the full run picks the same rows and makes the same fused
steps: the bytes are the same.  Rows independent at the point are
independent over GF(p)(s, t), so the kernel found contains the true one.
It is certified: every distinct dropped row must vanish on its basis, by
exact dot products over the nonzero entries the point read.  If one does
not, or no point is usable, all rows are eliminated, so the kernel is
always exact and a bad point costs only time.

Everything built on elimination lives here too.  ``_condition_rows`` puts
the sparse rows of a condition system in the normal form that ``kernel``
is fed, for the operator systems and the distinguished subspaces.  A
``Subspace`` keeps the pivot columns its RREF basis came with, which
``reduce_vector`` and ``algebra.restricted_algebra`` read.  ``_combine`` is
the one sum c*v of vectors; it skips zero coefficients but, unlike
``Matrix.mulvec``, not zero entries, since that would change the unreduced
GF(p)(s, t) sums.  ``Subspace._closure`` is the one fixpoint loop S ->
S + grow(S), for generated subalgebras and ideals and the multiplication
Lie algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from random import Random

from . import fields
from .fields import (_GF_Q_MAX, Field, FieldError, RatFun, RatFunField,
                     TermBudgetError, _add_terms, _gf_table, _lift, _mul_terms)


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

    irows = [_primitive(_lift(fields.QQ, row)[0]) for row in rows]
    irows, r, pivots = _gauss_jordan(irows, ncols, bool, step)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(irows, pivots)]
    out.extend([Fraction(0)] * ncols for _ in range(len(irows) - r))
    return out, r, pivots


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _SparseRow(dict):
    """Stored entries {column: fraction}; other columns read ``zero``, uninserted."""

    __slots__ = ("zero",)

    def __missing__(self, c):
        return self.zero


def _rref_ratfun2(F: RatFunField, rows: list, ncols: int):
    """GF(p)(s, t) with the fused row step of the module docstring, on
    sparse rows; each pivot row is scaled by its inverse at the end."""
    p, budget, guard, one = F.p, fields.TERM_BUDGET, F._guard, {(0, 0): 1}
    _check_ratfun2(p, rows)

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
    sparse = [_SparseRow((j, x) for j, x in enumerate(row)
                         if x.num.terms or x.den.terms != one) for row in rows]
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


def _check_ratfun2(p: int, rows: list):
    if not all(x.num.p == x.den.p == p for x in set(chain.from_iterable(rows))):
        raise FieldError("mixed-field entries in a GF(p)(s, t) matrix")


def _points(n: int) -> list:
    """The fixed points (g^a, g^b) that ``kernel`` tries, in order."""
    rng = Random(n)
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4)]


def _point_rows(F: RatFunField, nonzero: list, ncols: int):
    """Indices of the pivot rows, in pivot order, of ``_gauss_jordan`` on
    the rows with nonzero entries ``nonzero`` (``_nonzero_entries``) at the
    first of ``_points`` where none of their denominators vanishes (GF(q)
    elements as in ``fields._gf_table``); None if there is no such point."""
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


def _nonzero_entries(p: int, rows: list) -> list:
    """Each row's nonzero (column, entry) pairs, all entries checked."""
    _check_ratfun2(p, rows)
    return [[(j, x) for j, x in enumerate(row) if x.num.terms] for row in rows]


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


def _condition_rows(F: Field, ncols: int, rows) -> list:
    """The dense form of the sparse condition rows ``{column: value}``.

    Over GF(p) and Q each row is lifted (``fields._lift``, which also takes
    plain integers, as ``operators._law_rows`` hands them) and put in a
    normal form, its sorted nonzero (column, value) pairs: over GF(p) with
    leading entry 1, over Q as primitive integers with a positive leading
    entry, handed on as ``Fraction``.  Zero rows and rows whose normal form
    was already seen, that is nonzero multiples of an earlier row, are
    dropped.  Over GF(p)(s, t) the rows are kept as they are, zero rows
    dropped."""
    zero = F.zero
    out = []
    if F.kind == "ratfun2":
        for row in rows:
            if not all(F.is_zero(a) for a in row.values()):
                dense = [zero] * ncols
                for c, a in row.items():
                    dense[c] = a
                out.append(dense)
        return out
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
        dense = [zero] * ncols
        for c, a in key:
            dense[c] = a if p else Fraction(a)
        out.append(dense)
    return out


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of {x : m @ x = 0}; dim = ncols - rank.  Tall
    GF(p)(s, t) matrices are solved at a point first (module docstring)."""
    F, rows, nc = m.field, m.rows, m.ncols
    if F.kind == "ratfun2" and len(rows) > nc and F.p <= _GF_Q_MAX:
        nonzero = _nonzero_entries(F.p, rows)
        kept = _point_rows(F, nonzero, nc)
        if kept is not None:
            vecs = _kernel_vectors(Matrix(F, [rows[i] for i in kept], nc))
            done = {_terms_key(nonzero[i]) for i in kept}
            rest = {k: nz for nz in nonzero if (k := _terms_key(nz)) not in done}
            if not any(sum(x * v[j] for j, x in nz if v[j])
                       for nz in rest.values() for v in vecs):
                return Subspace.from_vectors(F, nc, vecs)
    return Subspace.from_vectors(F, nc, _kernel_vectors(m))


def _terms_key(nz: list) -> tuple:
    """Equal for two lists of (column, entry) iff their term dicts are."""
    return tuple((j, frozenset(x.num.terms.items()), frozenset(x.den.terms.items()))
                 for j, x in nz)


def _kernel_vectors(m: Matrix) -> list:
    """One kernel vector per free column c of rref(m): 1 at c, minus the
    column's RREF entries at the pivot columns."""
    F = m.field
    red, rank, pivots = rref(m)
    pivot_set = set(pivots)
    vecs = []
    for fc in (c for c in range(m.ncols) if c not in pivot_set):
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            a = red.rows[r][fc]
            if not F.is_zero(a):
                v[pc] = F.neg(a)
        vecs.append(v)
    return vecs


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
