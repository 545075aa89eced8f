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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, search
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
        F = algebra.field
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
        F = self.field
        T, Dt, _, _ = self._lifted
        X, Dx = _lift(F, x)
        return _lower(F, sum(t * X[i] for i, t in T if X[i]), Dt * Dx)

    def norm(self, x):
        F = self.field
        _, _, Q, Dq = self._lifted
        X, Dx = _lift(F, x)
        return _lower(F, sum(q * X[i] * X[j] for i, j, q in Q if X[i] and X[j]),
                      Dq * Dx * Dx)

    def bilinear(self, x, y):
        """f(x, y) = n(x+y) - n(x) - n(y), evaluated from the form data."""
        F = self.field
        _, _, Q, Dq = self._lifted
        X, Dx = _lift(F, x)
        Y, Dy = _lift(F, y)
        return _lower(F, sum(q * c for i, j, q in Q
                             if (c := X[i] * Y[j] + X[j] * Y[i])), Dq * Dx * Dy)

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
        A = self.algebra
        for x in A.probes():
            if not A.is_zero_vec(self.quadratic_residual(x)):
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
        if algebra.find_unit() is None:
            raise ValueError("involutive algebra must be unital")
        self.algebra = algebra
        self.sigma = sigma
        self.quadratic = quadratic
        self._verify()

    def apply(self, x) -> list:
        return self.sigma.mulvec(x)

    def _verify(self):
        A = self.algebra
        d = A.dim
        e = [A.basis_vec(i) for i in range(d)]
        for i in range(d):
            if not A.veq(self.apply(self.apply(e[i])), e[i]):
                raise ValueError("involution does not square to the identity")
        for i in range(d):
            for j in range(d):
                lhs = self.apply(A.mul(e[i], e[j]))
                rhs = A.mul(self.apply(e[j]), self.apply(e[i]))
                if not A.veq(lhs, rhs):
                    raise ValueError("involution is not an anti-automorphism "
                                     f"on the basis pair ({i},{j})")

    def __repr__(self):
        return f"<involutive algebra dim {self.algebra.dim}>"


# ---- split octonions as Zorn vector matrices --------------------------------

ZORN_BASIS = ("E11", "E22", "u1", "u2", "u3", "v1", "v2", "v3")


def _dot(F, x, y):
    s = F.zero
    for a, b in zip(x, y):
        s = F.add(s, F.mul(a, b))
    return s


def _cross(F, x, y):
    return [
        F.sub(F.mul(x[1], y[2]), F.mul(x[2], y[1])),
        F.sub(F.mul(x[2], y[0]), F.mul(x[0], y[2])),
        F.sub(F.mul(x[0], y[1]), F.mul(x[1], y[0])),
    ]


def zorn_mul_parts(F, a, b):
    """Vector-matrix product on (alpha, u, v, beta) 4-tuples.

    [alpha u; v beta] * [gamma t; w delta] =
      [alpha*gamma + (u,w)        alpha*t + delta*u - v x w]
      [gamma*v + beta*w + u x t   beta*delta + (v,t)]
    """
    alpha, u, v, beta = a
    gamma, t, w, delta = b
    tl = F.add(F.mul(alpha, gamma), _dot(F, u, w))
    br = F.add(F.mul(beta, delta), _dot(F, v, t))
    cr1 = _cross(F, v, w)
    tr = [F.sub(F.add(F.mul(alpha, t[i]), F.mul(delta, u[i])), cr1[i])
          for i in range(3)]
    cr2 = _cross(F, u, t)
    bl = [F.add(F.add(F.mul(gamma, v[i]), F.mul(beta, w[i])), cr2[i])
          for i in range(3)]
    return tl, tr, bl, br


def _vec_to_parts(v):
    return v[0], v[2:5], v[5:8], v[1]


def _parts_to_vec(tl, tr, bl, br):
    return [tl, br] + list(tr) + list(bl)


def zorn(field) -> QuadraticAlgebra:
    """The split Cayley-Dickson algebra as 8-dim Zorn vector matrices.

    Basis order (E11, E22, u1, u2, u3, v1, v2, v3); unit E11 + E22;
    t(x) = alpha + beta, n(x) = alpha*beta - (u, v).
    """
    F = make_field(field)
    table = {}
    basis_parts = []
    for i in range(8):
        v = [F.zero] * 8
        v[i] = F.one
        basis_parts.append(_vec_to_parts(v))
    for i in range(8):
        for j in range(8):
            table[(i, j)] = list(enumerate(
                _parts_to_vec(*zorn_mul_parts(F, basis_parts[i], basis_parts[j]))))
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
    e = [A.basis_vec(i) for i in range(m)]
    sig = [B.apply(e[i]) for i in range(m)]
    table = {}

    def put(i, j, first, second):
        table[(i, j)] = list(enumerate(first + second))

    zero = A.zero()
    for i in range(m):
        for j in range(m):
            put(i, j, A.mul(e[i], e[j]), zero)                          # a1 a2
            put(i, m + j, zero, A.mul(sig[i], e[j]))                    # v(conj(a1) b2)
            put(m + i, j, zero, A.mul(e[j], e[i]))                      # v(a2 b1)
            put(m + i, m + j, A.smul(gamma, A.mul(e[j], sig[i])), zero) # gamma b2 conj(b1)

    names = None
    if A.names:
        names = list(A.names) + [f"v{n}" for n in A.names]
    D = Algebra(F, d, table, names)

    sigma = Matrix.zeros(F, d, d)
    for j in range(m):
        for i in range(m):
            sigma.rows[i][j] = sig[j][i]
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

def quadratic_data(C: QuadraticAlgebra, x):
    """(t(x), n(x), conjugate) with conjugate = t(x) 1 - x."""
    return C.trace(x), C.norm(x), C.conjugate(x)


def bilinear_f(C: QuadraticAlgebra, x, y):
    return C.bilinear(x, y)


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
    x = None
    probes = [A.basis_vec(i) for i in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            probes.append(A.vadd(A.basis_vec(i), A.basis_vec(j)))
            probes.append(A.vsub(A.basis_vec(i), A.basis_vec(j)))
    for cand in probes:
        if F.is_zero(C.norm(cand)) and not F.is_zero(C.trace(cand)):
            x = cand
            break
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
