"""Operator-space computations: derivations, Leibniz-derivations of order n,
quasiderivations, the multiplication Lie algebra and innerness, invertibility
searches over operator spaces, invertible-value checks, and the two explicit
derivation constructions on split quadratic algebras.

Linear maps live in the d^2-dimensional coordinate space of matrices
(row-major flattening); every defining law is stacked into one linear system
and solved through the exact kernel routine.  Derivations, Leibniz-derivations
and quasiderivations share one system builder: it computes the left-normed
products of basis tuples once per node of their prefix trie and streams its
rows through ``algebra._condition_rows``, which over GF(p) and Q keeps the
first row of each normal form, so zero rows and multiples of earlier rows
never reach elimination (the RREF is unique, so the kernel is the same), and
over GF(p)(s, t) drops zero rows only.  ``is_leibniz`` walks the same trie
for one map, three products per node.  Both sum over the algebra's lifted
table: integers over GF(p) and Q, unreduced ``RatFun`` sums over GF(p)(s, t).
The rest is ``linalg``: combinations of maps are ``_combine``, the
multiplication Lie algebra is a ``Subspace._closure`` under commutators,
and a map given by the images of a basis is read off one RREF of
[sources | images].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from . import scan
from .algebra import Algebra, _condition_rows, search
from .fields import _lift
from .linalg import Matrix, Subspace, _combine, _multiple, kernel, rref, solve
from .quadratic import InvolutiveAlgebra, QuadraticAlgebra, orthocomplement


def flatten_map(m: Matrix) -> list:
    return [a for row in m.rows for a in row]


def unflatten_map(F, d: int, vec) -> Matrix:
    return Matrix(F, [list(vec[r * d:(r + 1) * d]) for r in range(d)], d)


@dataclass
class OperatorSpace:
    algebra: Algebra
    label: str
    space: Subspace                    # subspace of the d^2 map coordinates
    meta: dict = dataclass_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_maps(self) -> list:
        d = self.algebra.dim
        return [unflatten_map(self.algebra.field, d, row) for row in self.space.rows]

    def contains(self, m: Matrix) -> bool:
        return self.space.contains_vector(flatten_map(m))


def _by_col(A: Algebra) -> list:
    """by_col[j][i]: the lifted terms (k, c) of e_i e_j, () when zero."""
    by_col = [[()] * A.dim for _ in range(A.dim)]
    for i, row in enumerate(A._lifted[0]):
        for j, terms in row:
            by_col[j][i] = terms
    return by_col


def _rsum(p: int, *pairs) -> list:
    """Sum of v y over the pairs (v, ops), ops[i] the terms (k, c) of e_i y:
    sparse (index, value) lists of lifted values, reduced mod p when p."""
    out = {}
    for v, ops in pairs:
        for i, x in v:
            for k, c in ops[i]:
                out[k] = out.get(k, 0) + x * c
    if p:
        return [(k, a % p) for k, a in sorted(out.items()) if a % p]
    return [(k, a) for k, a in sorted(out.items()) if a]


def _law_rows(A: Algebra, n: int, q_offset: int = 0) -> list:
    """Rows of phi([x1..xn]) - sum_t [x1.. phi(x_t) ..xn] = 0 over basis
    n-tuples in ``itertools.product`` order, through ``_condition_rows``
    (over GF(p) and Q each row in its normal form, the first of each kept);
    the phi([x1..xn]) block starts at column ``q_offset`` (d^2 for the Q
    unknowns of quasiderivations).  A slot vector [x1.. e_r ..xn] is the
    prefix of another tuple, so each trie node is one right multiplication
    of its parent; vectors are sparse nonzero ``(index, value)`` lists.

    The values are sums over the lifted table, as in ``Algebra.mul``: a
    level-t vector is the true one times Dc^(t-1), so every row, built from
    level-n vectors only, is the true row times Dc^(n-1) (Dc = 1 over GF(p)
    and GF(p)(s, t), whose unreduced entries come out in the form of
    ``Algebra.mul``'s field operations)."""
    F = A.field
    d = A.dim
    (one,), _ = _lift(F, [F.one])
    p = F.p if F.kind == "prime" else 0
    by_col = _by_col(A)
    level = [[(r, one)] for r in range(d)]      # indexed by base-d tuple code
    for _ in range(n - 1):
        level = [_rsum(p, (v, by_col[j])) for v in level for j in range(d)]
    if not any(level):      # every row is built from level-n vectors alone
        return []
    strides = [d ** (n - 1 - t) for t in range(n)]

    def sparse_rows():
        for code, idx in enumerate(itertools.product(range(d), repeat=n)):
            # slot t: the codes of idx with x_t replaced by e_0 .. e_{d-1}
            slots = [level[code - x * s:code + (d - x) * s:s]
                     for x, s in zip(idx, strides)]
            if not level[code] and not any(any(vs) for vs in slots):
                continue
            # per entry: F.zero + total[k], then minus each slot term, in that
            # order; 0 + a is exactly a, and x - a is x + (-a), in every field
            sparse = [{q_offset + m * d + k: a for k, a in level[code]}
                      for m in range(d)]
            for x, vecs in zip(idx, slots):
                for r, v in enumerate(vecs):
                    c = r * d + x
                    for m, a in v:
                        row = sparse[m]
                        row[c] = row[c] - a if c in row else -a
            yield from sparse

    return _condition_rows(F, q_offset + d * d, sparse_rows())


def _law_space(A: Algebra, n: int, label: str) -> OperatorSpace:
    rows = _law_rows(A, n)
    return OperatorSpace(A, label, kernel(Matrix(A.field, rows, A.dim ** 2)))


def derivation_space(A: Algebra) -> OperatorSpace:
    """Kernel of D(e_i e_j) - D(e_i) e_j - e_i D(e_j) = 0 over basis pairs:
    the Leibniz law of order 2."""
    return _law_space(A, 2, "derivations")


def leibniz_space(A: Algebra, n: int) -> OperatorSpace:
    """Maps phi with phi([x1..xn]) = sum_t [x1.. phi(x_t) ..xn] over all
    left-normed basis n-tuples."""
    if n < 2:
        raise ValueError("Leibniz order must be at least 2")
    return _law_space(A, n, f"leibniz({n})")


def quasider_condition_rows(A: Algebra) -> list:
    """Rows of the linear system for pairs (f, Q), unknowns f then Q
    (2 d^2 columns): Q(e_i e_j) - f(e_i) e_j - e_i f(e_j) = 0.  Over GF(p)
    and Q each row is in the normal form of ``algebra._condition_rows``, so
    this is the same system up to row scaling, without rows that are
    multiples of earlier ones."""
    return _law_rows(A, 2, q_offset=A.dim ** 2)


def quasider_space(A: Algebra) -> OperatorSpace:
    """Projection onto f of the pairs (f, Q) with Q(xy) = f(x)y + x f(y).

    The witnessing Q for any f in the space is recoverable through
    ``quasider_witness_q``.
    """
    F = A.field
    nf = A.dim * A.dim
    rows = quasider_condition_rows(A)
    pairs = kernel(Matrix(F, rows, 2 * nf))
    fparts = [row[:nf] for row in pairs.rows]
    proj = Subspace.from_vectors(F, nf, fparts)
    return OperatorSpace(A, "quasiderivations", proj, meta={"pair_space": pairs})


def quasider_witness_q(S: OperatorSpace, fmap: Matrix):
    """A Q with Q(xy) = f(x)y + x f(y) for an f in the space, else None."""
    pairs: Subspace = S.meta["pair_space"]
    F = S.algebra.field
    nf = S.algebra.dim ** 2
    if pairs.dim == 0:
        return None
    cols = Matrix(F, [row[:nf] for row in pairs.rows], nf).transpose()
    sol = solve(cols, flatten_map(fmap))
    if sol is None:
        return None
    q = _combine(F, sol, [row[nf:] for row in pairs.rows], nf)
    return unflatten_map(F, S.algebra.dim, q)


def qder_equals_end(A: Algebra) -> bool:
    return quasider_space(A).dim == A.dim ** 2


def mult_lie_algebra(A: Algebra) -> OperatorSpace:
    """Smallest commutator-closed space containing all L_a and R_a."""
    F = A.field
    d = A.dim
    seeds = [flatten_map(A.mult_operator(side, A.basis_vec(i)))
             for i in range(d) for side in ("left", "right")]

    def commutators(space):
        mats = [unflatten_map(F, d, row) for row in space.rows]
        return Subspace.from_vectors(F, d * d, [
            [F.sub(x, y) for x, y in zip(flatten_map(a.matmul(b)),
                                          flatten_map(b.matmul(a)))]
            for a, b in itertools.combinations(mats, 2)])

    space = Subspace.from_vectors(F, d * d, seeds)._closure(commutators)
    return OperatorSpace(A, "mult-lie-algebra", space)


def is_derivation(A: Algebra, m: Matrix) -> bool:
    return is_leibniz(A, m, 2)[0]


def is_inner(A: Algebra, dmap: Matrix) -> bool:
    """Membership of a (verified) derivation in the multiplication Lie algebra."""
    if not is_derivation(A, dmap):
        raise ValueError("map is not a derivation")
    return mult_lie_algebra(A).contains(dmap)


def is_leibniz(A: Algebra, phi: Matrix, n: int):
    """Exact Leibniz-law check over all d^n basis tuples: (True, None) or
    (False, (tuple_of_indices, discrepancy)) at the first failing tuple in
    ``itertools.product`` order, its discrepancy by field operations.

    A depth-first walk of the tuples' prefix trie over the lifted table:
    node x1..xt carries P = [x1..xt] and Q = sum_s [x1.. phi(x_s) ..xt],
    child j carries P e_j and Q e_j + P phi(e_j), and a leaf passes when
    phi(P) = Q; three products per node, every leaf visited.  Over Q, P
    carries Dc^(t-1), and Q and phi(P) carry Dc^(t-1) times phi's common
    denominator, so the test is exact."""
    if n < 2:
        raise ValueError("Leibniz order must be at least 2")
    F = A.field
    d = A.dim
    if phi.field != F or phi.nrows != d or phi.ncols != d:
        raise ValueError(f"phi must be a {d}x{d} matrix over {F!r}")
    p = F.p if F.kind == "prime" else 0
    (one,), _ = _lift(F, [F.one])
    ints, _ = _lift(F, flatten_map(phi))
    cols = [[(r, ints[r * d + c]) for r in range(d) if ints[r * d + c]]
            for c in range(d)]
    by_col = _by_col(A)
    by_row = list(zip(*by_col))
    # right multiplication by phi(e_j), and e_i -> -phi(e_i e_j)
    by_phi = [[_rsum(p, (cols[j], by_row[i])) for i in range(d)] for j in range(d)]
    neg_cols = [[(r, -a) for r, a in col] for col in cols]
    minus_phi = [[_rsum(p, (by_col[j][i], neg_cols)) for i in range(d)]
                 for j in range(d)]

    def walk(P, Q, idx):
        for j in range(d):
            if len(idx) == n - 1:
                bad = _rsum(p, (Q, by_col[j]), (P, by_phi[j]),
                            (P, minus_phi[j])) and idx + (j,)
            else:
                bad = walk(_rsum(p, (P, by_col[j])),
                           _rsum(p, (Q, by_col[j]), (P, by_phi[j])), idx + (j,))
            if bad:
                return bad
        return None

    for j in range(d):
        idx = walk([(j, one)], cols[j], (j,))
        if idx:
            xs = [A.basis_vec(x) for x in idx]
            rhs = A.zero()
            for t in range(n):
                rhs = A.vadd(rhs, A.left_normed_product(
                    xs[:t] + [phi.mulvec(xs[t])] + xs[t + 1:]))
            return False, (idx, A.vsub(phi.mulvec(A.left_normed_product(xs)), rhs))
    return True, None


def _map_from_images(A: Algebra, sources: list, images: list) -> Matrix:
    """The matrix phi sending each of the d ``sources`` to its image, or
    None if the sources are not a basis.  With S the sources and Y the
    images as rows, phi S^T = Y^T, that is S phi^T = Y, so the RREF of
    [S | Y] is [I | phi^T]."""
    d = A.dim
    red, _, pivots = rref(Matrix(A.field, [s + y for s, y in zip(sources, images)],
                                 2 * d))
    if pivots[:d] != list(range(d)):
        return None
    return Matrix(A.field, [row[d:] for row in red.rows], d).transpose()


@dataclass
class MoensResult:
    map: Matrix
    order: int
    nilpotency_index: int
    notes: list


def moens_construction(A: Algebra) -> MoensResult:
    """The order-(floor(s/2)+1) Leibniz-derivation of a nilpotent algebra:
    identity on a complement W of A^n, multiplication by n on A^n.

    W extends the RREF basis of A^n with standard basis vectors in index
    order.  Characteristic degeneracies (p | n makes the map vanish on A^n,
    p | n-1 makes it the identity) are reported in ``notes``.
    """
    from .algebra import power_chain

    chain, s = power_chain(A)
    if s is None:
        raise ValueError("algebra is not nilpotent; no such construction")
    n = s // 2 + 1
    F = A.field
    d = A.dim
    an = chain[n - 1]
    # e_i joins W iff it is independent of A^n and the e_j before it: the
    # pivot columns of [A^n | I], the basis vectors as columns
    _, _, pivots = rref(Matrix(F, an.rows + A.basis(), d).transpose())
    w = [A.basis_vec(c - an.dim) for c in pivots[an.dim:]]
    n_scalar = F.from_int(n)
    phi = _map_from_images(A, [list(r) for r in an.rows] + w,
                           [A.smul(n_scalar, v) for v in an.rows] + w)
    ok, witness = is_leibniz(A, phi, n)
    if not ok:
        raise ValueError(f"constructed map fails the Leibniz law at {witness[0]}")
    notes = []
    if F.char and n % F.char == 0:
        notes.append(f"char {F.char} divides n={n}: map vanishes on A^{n} (singular)")
    if F.char and (n - 1) % F.char == 0:
        notes.append(f"char {F.char} divides n-1={n - 1}: map degenerates to the identity")
    return MoensResult(phi, n, s, notes)


# ---- invertibility verdicts --------------------------------------------------

@dataclass
class InvertibilityVerdict:
    kind: str                       # witness | none-certified | inconclusive
    provenance: str                 # certified | exhaustive | sampled
    reason: str | None = None
    witness_map: Matrix | None = None
    witness_coeffs: list | None = None
    kernel_vector: list | None = None
    samples_tried: int | None = None


def invertible_in_space(S: OperatorSpace, *, seed: int = 42, samples: int = 128,
                        enum_cap: int = 2 ** 20) -> InvertibilityVerdict:
    """Search for an invertible map in the span of the basis maps.

    Pipeline: (i) a nonzero common kernel vector certifies none exists;
    (ii) otherwise invertible_combination searches the coefficients.
    """
    A = S.algebra
    common = kernel(Matrix(A.field, [r for m in S.basis_maps() for r in m.rows],
                           A.dim))
    if common.dim > 0:
        return InvertibilityVerdict("none-certified", "certified",
                                    reason="common-kernel",
                                    kernel_vector=list(common.rows[0]))
    return invertible_combination(S, seed=seed, samples=samples,
                                  enum_cap=enum_cap)


def invertible_combination(S: OperatorSpace, *, seed: int = 42,
                           samples: int = 128, enum_cap: int = 2 ** 20
                           ) -> InvertibilityVerdict:
    """First full-rank combination of the basis maps that algebra.search
    finds: every coefficient vector when |F|^dim <= enum_cap (a GF(p) walk
    ranks whole blocks in numpy), else seeded samples."""
    F = S.algebra.field
    d = S.algebra.dim

    def combination(coeffs):
        return unflatten_map(F, d, _combine(F, coeffs, S.space.rows, d * d))

    rows = None
    if F.kind == "prime":
        rows = scan.full_rank_rows(S.space.rows, F.p, d)
    args, provenance = search(F, S.dim, lambda c: combination(c).rank() == d,
                              seed=seed, samples=samples, enum_cap=enum_cap,
                              rows=rows)
    if args is not None:
        return InvertibilityVerdict("witness", provenance,
                                    witness_map=combination(args[0]),
                                    witness_coeffs=args[0])
    if provenance == "exhaustive":
        return InvertibilityVerdict("none-certified", provenance,
                                    reason="exhaustive-scan")
    return InvertibilityVerdict("inconclusive", provenance,
                                samples_tried=samples)


@dataclass
class InvertibleValuesVerdict:
    kind: str                       # pass-exhaustive | pass-certified |
                                    # pass-sampled | fail | not-applicable
    provenance: str                 # certified | exhaustive | sampled
    detail: str = ""
    witness: tuple | None = None    # (x, d(x)) with d(x) != 0 not invertible


@dataclass
class Lemma22Certificate:
    case: str
    quadratic: QuadraticAlgebra
    b_space: Subspace
    image_space: Subspace
    gamma: object = None
    u: list | None = None
    x: list | None = None


def invertible_values_check(A: Algebra, dmap: Matrix, mode: str, *,
                            seed: int = 42, samples: int = 128,
                            enum_cap: int = 2 ** 20,
                            certificate: "Lemma22Certificate | None" = None
                            ) -> InvertibleValuesVerdict:
    """Does the derivation take only invertible-or-zero values?

    Modes: 'exhaustive' sweeps every element of a small finite algebra;
    'norm-certificate' verifies the norm factorization supplied by a
    lemma22 constructor on seeded samples; 'sample' is sampling only.
    """
    if A.find_unit() is None:
        raise ValueError("invertible-values analysis requires a unital algebra")
    if all(A.field.is_zero(a) for row in dmap.rows for a in row):
        raise ValueError("the zero derivation is excluded")
    if not is_derivation(A, dmap):
        raise ValueError("map is not a derivation")
    F = A.field

    if mode == "norm-certificate":
        if certificate is None:
            raise ValueError("norm-certificate mode needs a lemma22 certificate")
        return _norm_certificate_check(A, dmap, certificate, seed, samples)
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    count = A.element_count()
    if mode == "exhaustive" and (count is None or count > enum_cap):
        return InvertibleValuesVerdict(
            "not-applicable", "sampled",
            detail="element space too large for exhaustive sweep")

    def hit(x):
        v = dmap.mulvec(x)
        return not A.is_zero_vec(v) and A.invert_element(v) is None

    rows = None
    if mode == "exhaustive":    # a GF(p) walk inverts whole blocks at once
        rows = scan.noninvertible_rows(A, dmap)
    args, provenance = search(F, A.dim, hit, seed=seed, samples=samples,
                              enum_cap=enum_cap if mode == "exhaustive" else 0,
                              rows=rows)
    if args is not None:
        return InvertibleValuesVerdict("fail", provenance,
                                       witness=(args[0], dmap.mulvec(args[0])))
    return InvertibleValuesVerdict(
        f"pass-{provenance}", provenance,
        detail=f"all {count} elements checked" if provenance == "exhaustive"
        else f"{samples} seeded samples, no witness")


def _norm_certificate_check(A, dmap, cert, seed, samples) -> InvertibleValuesVerdict:
    F = A.field
    C = cert.quadratic
    d = A.dim
    # image containment is exact: every column of the map lies in the
    # designated image subspace
    for j in range(d):
        col = dmap.column(j)
        if not cert.image_space.contains_vector(col):
            return InvertibleValuesVerdict(
                "fail", "certified", detail="image leaves the certified subspace",
                witness=(A.basis_vec(j), col))
    if cert.case == "I":
        m = d // 2
        nu = C.norm(cert.u)
        if F.is_zero(nu):
            return InvertibleValuesVerdict("fail", "certified", detail="n(u) = 0",
                                           witness=(cert.u, dmap.mulvec(cert.u)))

        def hit(z):
            b = list(z[m:]) + [F.zero] * m    # the B-part of z, inside B
            expected = F.neg(F.mul(cert.gamma, F.mul(C.norm(b), nu)))
            return not F.eq(C.norm(dmap.mulvec(z)), expected)

        failure = "norm factorization violated"
        passed = ("n(d(a+vb)) = -gamma n(b) n(u) on "
                  f"{samples} seeded samples; anisotropy of the kernel "
                  "subalgebra is sampled evidence, not a certificate")
    elif cert.case == "II":
        from .quadratic import cd_inverse

        unit = A.find_unit()

        def hit(z):
            img = dmap.mulvec(z)
            if A.is_zero_vec(img):
                return False
            y = cd_inverse(C, img)
            return y is None or not A.veq(A.mul(img, y), unit)

        failure = "non-invertible value"
        passed = ("d(C) lies in the kernel subfield (exact); norm-based "
                  f"inverses of {samples} sampled values verified")
    else:
        raise ValueError(f"unknown certificate case {cert.case!r}")
    args, provenance = search(F, d, hit, seed=seed, samples=samples)
    if args is not None:
        return InvertibleValuesVerdict("fail", provenance, detail=failure,
                                       witness=(args[0], dmap.mulvec(args[0])))
    return InvertibleValuesVerdict("pass-certified", provenance, detail=passed)


# ---- the explicit split-algebra derivations ----------------------------------

def lemma22_derivation(target, case: str, **params):
    """Build the case I map d(a + vb) = v(bu) on a doubled algebra, or the
    case II map d(a + xb) = b on a characteristic-2 split algebra with a
    totally isotropic 4-dimensional subfield."""
    if case == "I":
        return _lemma22_case1(target, params["u"])
    if case == "II":
        return _lemma22_case2(target, params["b_space"], params.get("x"))
    raise ValueError(f"case must be 'I' or 'II', got {case!r}")


def _lemma22_case1(double: InvolutiveAlgebra, u):
    C = double.quadratic
    if C is None:
        raise ValueError("case I needs the doubled algebra's quadratic data")
    A = double.algebra
    F = A.field
    d = A.dim
    m = d // 2
    # v^2 = gamma 1: recover it from the table (v = e_m, first doubled unit)
    v = A.basis_vec(m)
    gamma = _multiple(F, A.mul(v, v), A.find_unit())
    if gamma is None:
        raise ValueError("v^2 is not a scalar; not a doubled algebra")
    if A.is_zero_vec(u):
        raise ValueError("u must be nonzero")
    if any(not F.is_zero(a) for a in u[m:]):
        raise ValueError("u must lie in the base subalgebra B")
    if not F.is_zero(C.trace(u)):
        raise ValueError("u must have trace zero")
    dmap = Matrix.zeros(F, d, d)
    for j in range(m):
        bu = A.mul(A.basis_vec(j), u)       # stays in B
        for r in range(m):
            dmap.rows[m + r][m + j] = bu[r]
    if not is_derivation(A, dmap):
        raise ValueError("constructed case I map fails the derivation law")
    bspace = Subspace.from_vectors(F, d, [A.basis_vec(i) for i in range(m)])
    vspace = Subspace.from_vectors(F, d, [A.basis_vec(m + i) for i in range(m)])
    cert = Lemma22Certificate("I", C, bspace, vspace)
    cert.gamma = gamma
    cert.u = list(u)
    return dmap, cert


def _lemma22_case2(C: QuadraticAlgebra, b_space: Subspace, x=None):
    A = C.algebra
    F = A.field
    d = A.dim
    if F.char != 2:
        raise ValueError("case II lives in characteristic 2")
    if b_space.dim * 2 != d:
        raise ValueError("B must have half the ambient dimension")
    if orthocomplement(C, b_space) != b_space:
        raise ValueError("case II requires B to equal its orthogonal complement")
    if x is None:
        x = _select_case2_x(C, b_space)
    else:
        if not F.is_zero(C.trace(x)):
            raise ValueError("x must have trace zero")
        if b_space.contains_vector(x):
            raise ValueError("x must be independent of B")
    bs = [list(b) for b in b_space.rows]
    dmap = _map_from_images(A, bs + [A.mul(x, b) for b in bs],
                            [A.zero() for _ in bs] + bs)
    if dmap is None:
        raise ValueError("B + xB does not span the algebra (no direct sum)")
    if not is_derivation(A, dmap):
        raise ValueError("constructed case II map fails the derivation law")
    cert = Lemma22Certificate("II", C, b_space, b_space)
    cert.x = list(x)
    return dmap, cert


def _select_case2_x(C: QuadraticAlgebra, b_space: Subspace):
    """First standard basis vector with trace 0 that is independent of B."""
    A = C.algebra
    F = A.field
    for i in range(A.dim):
        e = A.basis_vec(i)
        if F.is_zero(C.trace(e)) and not b_space.contains_vector(e):
            return e
    raise ValueError("no trace-zero standard basis vector outside B")
