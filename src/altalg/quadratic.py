"""Quadratic algebras: the split octonion (Zorn vector-matrix) algebra, the
doubling construction, trace/norm/bilinear forms, conjugation, norm-based
inversion, and orthogonal complements.

The norm is stored as upper-triangular quadratic-form coefficients and
evaluated directly, which stays meaningful in characteristic 2 where the
symmetric-matrix representation degenerates; the bilinear form is its
polarization f(x, y) = n(x+y) - n(x) - n(y).  The trace, norm and
bilinear form are sums over lifted forms of the form data, lowered once, as
``Algebra.mul`` is.  They skip zero coordinates and zero cross terms: that
changes no integer sum, and it keeps the GF(p)(s, t) term forms, since
adding 0/den to an unreduced fraction multiplies its denominator by den.

The constructors test their laws on lifted values, each side brought to
the common scale of Dc (the table's denominator), Dt, Dq (the forms'), Ds
(the involution's) and Du (the unit's); ``cd_double`` forms each product
of the double from lifted basis vectors and involution columns.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .algebra import Algebra, _Lifted, search
from .fields import Field, _lift, _lower, make_field
from .linalg import Matrix, Subspace, _multiple, kernel


class QuadraticAlgebra:
    """A unital algebra with trace functional, norm form, and conjugation.

    Construction verifies t(1) = 2, n(1) = 1 and the quadratic relation
    x^2 - t(x) x + n(x) 1 = 0 on basis vectors and basis pair sums; those
    probe points determine the (quadratic) relation for every element over
    any field.
    """

    __slots__ = ("algebra", "trace_vec", "qform", "unit", "_lifted")

    def __init__(self, algebra: Algebra, trace_vec: list, qform: list):
        F, d = algebra.field, algebra.dim
        if len(trace_vec) != d:
            raise ValueError(f"trace vector must have length {d}")
        if len(qform) != d or any(len(r) != d for r in qform):
            raise ValueError(f"norm form must be a {d}x{d} matrix")
        unit = algebra.find_unit()
        if unit is None:
            raise ValueError("quadratic algebra must be unital")
        self.algebra = algebra
        self.trace_vec = list(trace_vec)
        self.qform = [list(r) for r in qform]
        self._lift_forms()
        self.unit = unit
        two = F.add(F.one, F.one)
        if not F.eq(self.trace(unit), two):
            raise ValueError("trace of the unit must be 2")
        if not F.eq(self.norm(unit), F.one):
            raise ValueError("norm of the unit must be 1")
        self._verify_quadratic_relation()

    def _lift_forms(self):
        """The lifted forms, once per algebra: the nonzero (i, t) of the
        trace vector over Dt, and (i, j, q) of the upper triangle of the
        norm form over Dq.  Code that edits trace_vec or qform in place
        calls this again."""
        F = self.field
        T, Dt = _lift(F, self.trace_vec)
        cells = [(i, j) for i, row in enumerate(self.qform) for j in range(i, len(row))]
        Q, Dq = _lift(F, [self.qform[i][j] for i, j in cells])
        self._lifted = ([(i, t) for i, t in enumerate(T) if t], Dt,
                        [(i, j, q) for (i, j), q in zip(cells, Q) if q], Dq)

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def trace(self, x):
        X, Dx = _lift(self.field, x)
        return _lower(self.field, self._trace_lifted(X), self._lifted[1] * Dx)

    def norm(self, x):
        X, Dx = _lift(self.field, x)
        return _lower(self.field, self._norm_lifted(X), self._lifted[3] * Dx * Dx)

    def bilinear(self, x, y):
        """f(x, y) = n(x+y) - n(x) - n(y), evaluated from the form data."""
        X, Dx = _lift(self.field, x)
        Y, Dy = _lift(self.field, y)
        return _lower(self.field, self._bilinear_lifted(X, Y),
                      self._lifted[3] * Dx * Dy)

    # on lifted X and Y, never lowered: t(x) Dt Dx, n(x) Dq Dx^2, f(x, y) Dq Dx Dy
    def _trace_lifted(self, X):
        return sum(t * X[i] for i, t in self._lifted[0] if X[i])

    def _norm_lifted(self, X):
        return sum(q * X[i] * X[j] for i, j, q in self._lifted[2] if X[i] and X[j])

    def _bilinear_lifted(self, X, Y):
        return sum(q * c for i, j, q in self._lifted[2]
                   if (c := X[i] * Y[j] + X[j] * Y[i]))

    def conjugate(self, x) -> list:
        t = self.trace(x)
        return self.algebra.vsub(self.algebra.smul(t, self.unit), x)

    def conjugation_matrix(self) -> Matrix:
        A = self.algebra
        return Matrix(A.field, [self.conjugate(e) for e in A.basis()],
                      A.dim).transpose()

    def as_involutive(self) -> "InvolutiveAlgebra":
        return InvolutiveAlgebra(self.algebra, self.conjugation_matrix(), self)

    def _verify_quadratic_relation(self):
        # a probe lifts over 1: x^2, t(x) x and n(x) 1 are over Dc, Dt, Dq Du
        A = self.algebra
        L, (_, Dt, _, Dq), Dc = _Lifted(A), self._lifted, A._lifted[1]
        U, Du = _lift(self.field, self.unit)
        for x in A.probes():
            X = L.lift(x)
            r = L.vsub([Dt * Dq * Du * v for v in L.mul(X, X)], L.vsub(
                L.smul(Dc * Dq * Du * self._trace_lifted(X), X),
                L.smul(Dc * Dt * self._norm_lifted(X), U)))
            if not L.is_zero_vec(r):
                raise ValueError("quadratic relation fails on probe element "
                                 + A.fmt(x))

    def quadratic_residual(self, x) -> list:
        """x^2 - t(x) x + n(x) 1; the zero vector iff the relation holds at x."""
        A = self.algebra
        sq = A.mul(x, x)
        r = A.vsub(sq, A.smul(self.trace(x), x))
        return A.vadd(r, A.smul(self.norm(x), self.unit))

    def __repr__(self):
        return f"<quadratic algebra dim {self.dim} over {self.field!r}>"


class InvolutiveAlgebra:
    """A unital algebra with an involution; input to the doubling process."""

    __slots__ = ("algebra", "sigma", "quadratic")

    def __init__(self, algebra: Algebra, sigma: Matrix,
                 quadratic: QuadraticAlgebra | None = None):
        if sigma.nrows != algebra.dim or sigma.ncols != algebra.dim:
            raise ValueError(f"involution must be a {algebra.dim}x{algebra.dim} matrix")
        if algebra.find_unit() is None:
            raise ValueError("involutive algebra must be unital")
        self.algebra = algebra
        self.sigma = sigma
        self.quadratic = quadratic
        self._verify()

    def apply(self, x) -> list:
        return self.sigma.mulvec(x)

    def _verify(self):
        # sigma(e_i) is column S_i of sigma over Ds, sigma(e_i e_j) combines
        # them by the table terms of e_i e_j (Dc Ds), S_j S_i is over Dc Ds^2
        A = self.algebra
        F, d = A.field, A.dim
        L = _Lifted(A)
        ints, Ds = _lift(F, [a for row in self.sigma.rows for a in row])
        cols = [ints[i::d] for i in range(d)]
        (one,), _ = _lift(F, [F.one])

        def image(terms):       # the sum of c S_k over the terms (k, c)
            return [sum(c * cols[k][r] for k, c in terms if c and cols[k][r])
                    for r in range(d)]

        for i in range(d):
            e = [Ds * Ds * one if r == i else 0 for r in range(d)]
            if not L.is_zero_vec(L.vsub(image(list(enumerate(cols[i]))), e)):
                raise ValueError("involution does not square to the identity")
        table = [dict(row) for row in A._lifted[0]]
        for i in range(d):
            for j in range(d):
                lhs = [Ds * v for v in image(table[i].get(j, ()))]
                if not L.is_zero_vec(L.vsub(lhs, L.mul(cols[j], cols[i]))):
                    raise ValueError("involution is not an anti-automorphism "
                                     f"on the basis pair ({i},{j})")

    def __repr__(self):
        return f"<involutive algebra dim {self.algebra.dim}>"


# ---- split octonions as Zorn vector matrices --------------------------------

ZORN_BASIS = ("E11", "E22", "u1", "u2", "u3", "v1", "v2", "v3")


@functools.cache
def _zorn_ints() -> tuple:
    """The Zorn structure constants, all in {-1, 0, 1}: entry 64 i + 8 j + k
    is the e_k coefficient of e_i e_j, worked out once on ints.  For x =
    [alpha u; v beta] = (x0, x1, x2..x4, x5..x7) and y = [gamma t; w delta],
    xy = [alpha gamma + (u, w)       alpha t + delta u - v x w]
         [gamma v + beta w + u x t   beta delta + (v, t)]."""
    def cross(x, y):
        return [x[r - 2] * y[r - 1] - x[r - 1] * y[r - 2] for r in range(3)]

    out = []
    e = [[int(k == i) for k in range(8)] for i in range(8)]
    for (alpha, beta, *uv), (gamma, delta, *tw) in itertools.product(e, repeat=2):
        u, v, t, w = uv[:3], uv[3:], tw[:3], tw[3:]
        vw, ut = cross(v, w), cross(u, t)
        out += [alpha * gamma + sum(map(operator.mul, u, w)),
                beta * delta + sum(map(operator.mul, v, t))]
        out += [alpha * t[r] + delta * u[r] - vw[r] for r in range(3)]
        out += [gamma * v[r] + beta * w[r] + ut[r] for r in range(3)]
    return tuple(out)


def zorn(field) -> QuadraticAlgebra:
    """The split Cayley-Dickson algebra as 8-dim Zorn vector matrices.

    Basis order (E11, E22, u1, u2, u3, v1, v2, v3); unit E11 + E22;
    t(x) = alpha + beta, n(x) = alpha*beta - (u, v).
    """
    F = make_field(field)
    c = _zorn_ints()
    const = {v: F.from_int(v) for v in (-1, 1)}
    table = {(i, j): [(k, const[v]) for k in range(8) if (v := c[64 * i + 8 * j + k])]
             for i in range(8) for j in range(8)}
    A = Algebra(F, 8, table, list(ZORN_BASIS))
    trace_vec = [F.one, F.one] + [F.zero] * 6
    qform = [[F.zero] * 8 for _ in range(8)]
    qform[0][1] = F.one
    for i in range(3):
        qform[2 + i][5 + i] = F.neg(F.one)
    return QuadraticAlgebra(A, trace_vec, qform)


# ---- Cayley-Dickson doubling -------------------------------------------------

def ground_field(field) -> InvolutiveAlgebra:
    """The field itself as a 1-dim algebra with the identity involution."""
    F = make_field(field)
    A = Algebra(F, 1, {(0, 0): [(0, F.one)]}, ["1"])
    quad = QuadraticAlgebra(A, [F.add(F.one, F.one)], [[F.one]])
    return InvolutiveAlgebra(A, Matrix.identity(F, 1), quad)


def cd_double(B: InvolutiveAlgebra, gamma) -> InvolutiveAlgebra:
    """Double B to B + vB with v^2 = gamma != 0:

        (a1 + v b1)(a2 + v b2) = (a1 a2 + gamma b2 conj(b1))
                                 + v(conj(a1) b2 + a2 b1)

    The involution sends a + vb to conj(a) - vb.  When B carries a norm the
    double gets n(a + vb) = n(a) - gamma n(b) and t(a + vb) = t(a).
    """
    A = B.algebra
    F = A.field
    if F.is_zero(gamma):
        raise ValueError("doubling parameter gamma must be nonzero")
    m = A.dim
    d = 2 * m
    # the lifted basis vectors E_j and columns S_i = sigma(e_i), over Ds
    ints, Ds = _lift(F, [a for row in B.sigma.rows for a in row])
    S = [ints[i::m] for i in range(m)]
    (one,), _ = _lift(F, [F.one])
    (G,), Dg = _lift(F, [gamma])
    E = [[one if k == j else 0 for k in range(m)] for j in range(m)]
    mul, Dc = A._mul_lifted, A._lifted[1]

    def lowered(v, scale, shift):
        return [(shift + k, _lower(F, a, scale)) for k, a in enumerate(v) if a]

    table = {}
    for i in range(m):
        for j in range(m):
            gb = [G * a if a else 0 for a in mul(E[j], S[i])]
            table[(i, j)] = lowered(mul(E[i], E[j]), Dc, 0)             # a1 a2
            table[(i, m + j)] = lowered(mul(S[i], E[j]), Ds * Dc, m)    # v(conj(a1) b2)
            table[(m + i, j)] = lowered(mul(E[j], E[i]), Dc, m)         # v(a2 b1)
            table[(m + i, m + j)] = lowered(gb, Dg * Ds * Dc, 0)        # gamma b2 conj(b1)

    names = None
    if A.names:
        # the k-th doubling adds the generator v<k> (B holds v1 .. v<k-1>),
        # and the vector v<k> e of each basis vector e of B is named e v<k>
        k = 1 + sum(n[:1] == "v" and n[1:].isdigit() for n in A.names)
        names = list(A.names) + [f"v{k}" if n == "1" else f"{n}v{k}" for n in A.names]
    D = Algebra(F, d, table, names)

    sigma = Matrix.zeros(F, d, d)
    for j in range(m):
        for i in range(m):
            if S[j][i]:
                sigma.rows[i][j] = _lower(F, S[j][i], Ds)
        sigma.rows[m + j][m + j] = F.neg(F.one)

    quad = None
    if B.quadratic is not None:
        q = B.quadratic
        trace_vec = list(q.trace_vec) + [F.zero] * m
        qform = [[F.zero] * d for _ in range(d)]
        for i in range(m):
            for j in range(i, m):
                qform[i][j] = q.qform[i][j]
                qform[m + i][m + j] = F.neg(F.mul(gamma, q.qform[i][j]))
        quad = QuadraticAlgebra(D, trace_vec, qform)
    return InvolutiveAlgebra(D, sigma, quad)


def cd_tower(field, gammas) -> InvolutiveAlgebra:
    """Iterated doubling of the ground field with the given parameters."""
    F = make_field(field)
    alg = ground_field(F)
    for g in gammas:
        alg = cd_double(alg, g if not isinstance(g, int) else F.from_int(g))
    return alg


# ---- derived operations ------------------------------------------------------

def orthocomplement(C: QuadraticAlgebra, M: Subspace) -> Subspace:
    """{x : f(x, m) = 0 for all m in M}."""
    if M.ambient != C.dim:
        raise ValueError("subspace ambient mismatch")
    F = C.field
    e = [C.algebra.basis_vec(i) for i in range(C.dim)]
    rows = [[C.bilinear(e[i], m) for i in range(C.dim)] for m in M.rows]
    if not rows:
        return Subspace.full(F, C.dim)
    return kernel(Matrix(F, rows, C.dim))


def cd_inverse(C: QuadraticAlgebra, x):
    """n(x)^{-1} (t(x) 1 - x) when n(x) != 0, else None."""
    F = C.field
    n = C.norm(x)
    if F.is_zero(n):
        return None
    return C.algebra.smul(F.inv(n), C.conjugate(x))


def zorn_frame(C: QuadraticAlgebra) -> list:
    """A Zorn vector-matrix frame inside a split 8-dimensional quadratic
    algebra over a field of characteristic != 2: two orthogonal idempotents
    and dual triples (u_i), (v_i) reproducing the standard basis relations.

    Frame order matches ZORN_BASIS.  Raises if no isotropic trace-nonzero
    probe exists or the Peirce decomposition does not have the split shape.
    """
    A = C.algebra
    F = C.field
    if A.dim != 8:
        raise ValueError("frame construction needs an 8-dimensional algebra")
    if F.char == 2:
        raise ValueError("frame construction divides by traces; char 2 unsupported")
    probes = [A.basis_vec(i) for i in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            probes.append(A.vadd(A.basis_vec(i), A.basis_vec(j)))
            probes.append(A.vsub(A.basis_vec(i), A.basis_vec(j)))
    x = next((c for c in probes
              if F.is_zero(C.norm(c)) and not F.is_zero(C.trace(c))), None)
    if x is None:
        raise ValueError("no isotropic element with nonzero trace among probes")
    e1 = A.smul(F.inv(C.trace(x)), x)
    e2 = A.vsub(C.unit, e1)
    L1, R1, L2, R2 = (A.mult_operator(side, e) for e in (e1, e2)
                      for side in ("left", "right"))
    # e1 + e2 = 1, so e1 x = x iff e2 x = 0, and x e1 = x iff x e2 = 0
    u_space = kernel(L2.stack(R1))          # e1 x = x, x e1 = 0
    v_space = kernel(L1.stack(R2))          # e1 x = 0, x e1 = x
    if u_space.dim != 3 or v_space.dim != 3:
        raise ValueError("Peirce components do not have the split octonion shape")
    a1, a2, a3 = (list(r) for r in u_space.rows)
    # a1 (a2 a3) = delta e1 with delta the (nonzero) determinant of the basis
    delta = _multiple(F, A.mul(a1, A.mul(a2, a3)), e1)
    if delta is None or F.is_zero(delta):
        raise ValueError("degenerate triple product on the Peirce component")
    a1 = A.smul(F.inv(delta), a1)
    v1 = A.mul(a2, a3)
    v2 = A.mul(a3, a1)
    v3 = A.mul(a1, a2)
    return [e1, e2, a1, a2, a3, v1, v2, v3]


def zorn_isomorphism(C: QuadraticAlgebra) -> Matrix:
    """Change-of-basis matrix P from the standard Zorn basis onto a frame in
    C, certified: P carries every Zorn basis product, the trace vector, and
    the norm form (on quadratic probe points) to C's.  Raises on any failure.
    """
    A = C.algebra
    F = C.field
    frame = zorn_frame(C)
    P = Matrix(F, frame, 8).transpose()     # column j is frame[j]
    Z = zorn(F)
    for i in range(8):
        for j in range(8):
            if not A.veq(A.mul(frame[i], frame[j]),
                         P.mulvec(Z.algebra.mul(Z.algebra.basis_vec(i),
                                                Z.algebra.basis_vec(j)))):
                raise ValueError(f"frame product ({i},{j}) deviates from the "
                                 "Zorn table")
    for i in range(8):
        if not F.eq(C.trace(frame[i]), Z.trace(Z.algebra.basis_vec(i))):
            raise ValueError("trace functional does not transport")
    for p in Z.algebra.probes():
        if not F.eq(C.norm(P.mulvec(p)), Z.norm(p)):
            raise ValueError("norm form does not transport")
    if P.rank() != 8:
        raise ValueError("frame is not a basis")
    return P


@dataclass
class IsotropicResult:
    witness: list | None
    provenance: str     # exhaustive | sampled


def find_isotropic(C: QuadraticAlgebra, *, seed: int = 42, samples: int = 128,
                   enum_cap: int = 2 ** 20) -> IsotropicResult:
    """Search for x != 0 with n(x) = 0 (a zero divisor certificate)."""
    A = C.algebra
    F = C.field
    args, provenance = search(
        F, A.dim, lambda x: not A.is_zero_vec(x) and F.is_zero(C.norm(x)),
        seed=seed, samples=samples, enum_cap=enum_cap)
    return IsotropicResult(None if args is None else args[0], provenance)
