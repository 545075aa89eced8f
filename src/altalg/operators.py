"""Operator-space computations: derivations, Leibniz-derivations of order n,
quasiderivations, the multiplication Lie algebra and innerness, invertibility
searches over operator spaces, invertible-value checks, and the two explicit
derivation constructions on split quadratic algebras.

Linear maps live in the d^2-dimensional coordinate space of matrices
(row-major flattening); every defining law is stacked into one linear system
and solved through the exact kernel routine.  Derivations, Leibniz-derivations
and quasiderivations share one system builder: it computes the left-normed
products of basis tuples once per node of their prefix trie and drops zero
and repeated rows as they are emitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from .algebra import Algebra, search
from .linalg import Matrix, Subspace, kernel, solve
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


def _law_rows(A: Algebra, n: int, q_offset: int = 0) -> list:
    """Rows of phi([x1..xn]) - sum_t [x1.. phi(x_t) ..xn] = 0 over basis
    n-tuples in ``itertools.product`` order, zero rows and (over hashable
    fields) repeats dropped; the phi([x1..xn]) block starts at column
    ``q_offset`` (d^2 for the Q unknowns of quasiderivations).  A slot
    vector [x1.. e_r ..xn] is the prefix of another tuple, so each trie node
    is one right multiplication of its parent; vectors are sparse nonzero
    ``(index, value)`` lists, ``None`` when zero."""
    F = A.field
    d = A.dim
    zero, one = F.zero, F.one
    is_zero, add, mul = F.is_zero, F.add, F.mul
    by_col = [[A.table.get((i, j)) for i in range(d)] for j in range(d)]

    def rmul(v, j):
        # A.mul(v, e_j), replaying its field operations so that unreduced
        # rational-function entries come out in the same form
        out = {}
        for i, x in v or ():
            if by_col[j][i]:
                s = mul(x, one)
                for k, c in by_col[j][i]:
                    out[k] = add(out.get(k, zero), mul(s, c))
        return [(k, a) for k, a in sorted(out.items()) if not is_zero(a)] or None

    level = [[(r, one)] for r in range(d)]      # indexed by base-d tuple code
    for _ in range(n - 1):
        level = [rmul(v, j) for v in level for j in range(d)]
    negated = [v and [(m, F.neg(a)) for m, a in v] for v in level]
    strides = [d ** (n - 1 - t) for t in range(n)]
    rows, seen = [], set()
    for code, idx in enumerate(itertools.product(range(d), repeat=n)):
        # slot t: the codes of idx with x_t replaced by e_0 .. e_{d-1}
        slots = [negated[code - x * s:code + (d - x) * s:s] for x, s in zip(idx, strides)]
        if level[code] is None and all(vs.count(None) == d for vs in slots):
            continue
        # per entry: F.zero + total[k], then minus each slot term, in that
        # order; 0 + a and 0 - a are exactly a and -a in every field
        sparse = [{q_offset + m * d + k: a for k, a in level[code] or ()}
                  for m in range(d)]
        for x, vecs in zip(idx, slots):
            for r, v in enumerate(vecs):
                c = r * d + x
                for m, na in v or ():
                    row = sparse[m]
                    row[c] = add(row[c], na) if c in row else na
        for row in sparse:
            if F.hashable_elements:
                key = tuple(sorted((c, a) for c, a in row.items() if not is_zero(a)))
                if not key or key in seen:
                    continue
                seen.add(key)
            elif all(is_zero(a) for a in row.values()):
                continue
            dense = [zero] * (q_offset + d * d)
            for c, a in row.items():
                dense[c] = a
            rows.append(dense)
    return rows


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
    (2 d^2 columns): Q(e_i e_j) - f(e_i) e_j - e_i f(e_j) = 0."""
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
    cols = Matrix(F, [[row[i] for row in pairs.rows] for i in range(nf)], pairs.dim)
    sol = solve(cols, flatten_map(fmap))
    if sol is None:
        return None
    q = [F.zero] * nf
    for c, row in zip(sol, pairs.rows):
        if F.is_zero(c):
            continue
        for i in range(nf):
            q[i] = F.add(q[i], F.mul(c, row[nf + i]))
    return unflatten_map(F, S.algebra.dim, q)


def qder_equals_end(A: Algebra) -> bool:
    return quasider_space(A).dim == A.dim ** 2


def mult_lie_algebra(A: Algebra) -> OperatorSpace:
    """Smallest commutator-closed space containing all L_a and R_a."""
    F = A.field
    d = A.dim
    seeds = []
    for i in range(d):
        e = A.basis_vec(i)
        seeds.append(A.mult_operator("left", e))
        seeds.append(A.mult_operator("right", e))
    space = Subspace.from_vectors(F, d * d, [flatten_map(m) for m in seeds])
    while True:
        mats = [unflatten_map(F, d, row) for row in space.rows]
        commutators = []
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                c = mats[a].matmul(mats[b])
                cc = mats[b].matmul(mats[a])
                commutators.append([F.sub(x, y) for x, y in
                                    zip(flatten_map(c), flatten_map(cc))])
        grown = space.add(Subspace.from_vectors(F, d * d, commutators))
        if grown.dim == space.dim:
            return OperatorSpace(A, "mult-lie-algebra", grown)
        space = grown
        if space.dim == d * d:
            return OperatorSpace(A, "mult-lie-algebra", space)


def is_derivation(A: Algebra, m: Matrix) -> bool:
    return is_leibniz(A, m, 2)[0]


def is_inner(A: Algebra, dmap: Matrix) -> bool:
    """Membership of a (verified) derivation in the multiplication Lie algebra."""
    if not is_derivation(A, dmap):
        raise ValueError("map is not a derivation")
    return mult_lie_algebra(A).contains(dmap)


def is_leibniz(A: Algebra, phi: Matrix, n: int):
    """Exact Leibniz-law check over all d^n basis tuples.

    Returns (True, None) or (False, (tuple_of_indices, discrepancy)).
    """
    if n < 2:
        raise ValueError("Leibniz order must be at least 2")
    d = A.dim
    e = A.basis()
    phi_e = [phi.mulvec(e[r]) for r in range(d)]
    for idx in itertools.product(range(d), repeat=n):
        prefixes = [e[idx[0]]]
        for t in range(1, n):
            prefixes.append(A.mul(prefixes[-1], e[idx[t]]))
        lhs = phi.mulvec(prefixes[-1])
        rhs = A.zero()
        for t in range(n):
            v = phi_e[idx[t]] if t == 0 else A.mul(prefixes[t - 1], phi_e[idx[t]])
            for u in range(t + 1, n):
                v = A.mul(v, e[idx[u]])
            rhs = A.vadd(rhs, v)
        diff = A.vsub(lhs, rhs)
        if not A.is_zero_vec(diff):
            return False, (idx, diff)
    return True, None


def _map_from_images(A: Algebra, sources: list, images: list) -> Matrix:
    """The matrix sending each of the d independent ``sources`` to its image:
    column k sums the images weighted by the coordinates of e_k in the
    sources (zero images contribute nothing)."""
    F = A.field
    d = A.dim
    bmat = Matrix(F, [[src[r] for src in sources] for r in range(d)], d)
    weighted = [(c, img) for c, img in enumerate(images) if not A.is_zero_vec(img)]
    phi = Matrix.zeros(F, d, d)
    for k in range(d):
        coords = solve(bmat, A.basis_vec(k))
        col = A.zero()
        for c, img in weighted:
            if not F.is_zero(coords[c]):
                col = A.vadd(col, A.smul(coords[c], img))
        for r in range(d):
            phi.rows[r][k] = col[r]
    return phi


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
    span = Subspace(F, d, [list(r) for r in an.rows])
    w = []
    for i in range(d):
        ei = A.basis_vec(i)
        if not span.contains_vector(ei):
            span = span.add(Subspace.from_vectors(F, d, [ei]))
            w.append(ei)
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
    F = A.field
    d = A.dim
    stacked_rows = []
    for row in S.space.rows:
        stacked_rows.extend(unflatten_map(F, d, row).rows)
    common = kernel(Matrix(F, stacked_rows, d))
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
        vec = [F.zero] * (d * d)
        for c, row in zip(coeffs, S.space.rows):
            if F.is_zero(c):
                continue
            for i in range(d * d):
                vec[i] = F.add(vec[i], F.mul(c, row[i]))
        return unflatten_map(F, d, vec)

    rows = None
    if F.kind == "prime":
        from .scan import full_rank_rows

        rows = full_rank_rows(S.space.rows, F.p, d)
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
        from .scan import noninvertible_rows

        rows = noninvertible_rows(A, dmap)
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
        col = [dmap.rows[r][j] for r in range(d)]
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
    gamma = None
    # v^2 = gamma 1: recover it from the table (v = e_m, first doubled unit)
    v = A.basis_vec(m)
    vsq = A.mul(v, v)
    unit = A.find_unit()
    for i in range(d):
        if not F.is_zero(unit[i]):
            gamma = F.div(vsq[i], unit[i])
            break
    if gamma is None or not A.veq(vsq, A.smul(gamma, unit)):
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
    combined = bs + [A.mul(x, b) for b in bs]
    span = Subspace.from_vectors(F, d, combined)
    if span.dim != d:
        raise ValueError("B + xB does not span the algebra (no direct sum)")
    dmap = _map_from_images(A, combined, [A.zero() for _ in bs] + bs)
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
