"""Push-button verification suites tying each desk-checkable claim to a
named, reproducible check, and the report of each computing verb of the CLI.

Every check carries a verdict provenance: 'certified' (decided by basis
conditions or an exact algebraic argument), 'exhaustive' (a full finite
scan), or 'sampled' (seeded random evidence).  Failures carry JSON-encodable
witnesses.  Suites are deterministic given the configuration seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import scan
from .algebra import (IDENTITY_NAMES, _LAWS, _first_failure, _Law, _Lifted,
                      check_identity, evaluate_identity, permuted, power_chain,
                      search)
from .catalog import build, field_algebra, zero_algebra
from .fields import PrimeField, RationalField
from .linalg import Matrix, Subspace, _kernel, kernel
from .operators import (_law_rows, derivation_space, flatten_map,
                        invertible_combination, invertible_in_space,
                        invertible_values_check, is_derivation, is_inner,
                        is_leibniz, leibniz_space, lemma22_case1,
                        lemma22_case2, moens_construction, mult_lie_algebra,
                        norm_certificate_check, quasider_space)
from .quadratic import (cd_double, cd_tower, find_isotropic, orthocomplement,
                        zorn, zorn_isomorphism)


@dataclass
class Config:
    seed: int = 42
    samples: int = 128
    enum_cap: int = 2 ** 20


@dataclass
class CheckResult:
    name: str
    passed: bool
    provenance: str
    detail: str = ""
    witness: object = None      # already JSON-encodable


@dataclass
class SuiteReport:
    suite: str
    checks: list
    seed: int

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, version: str) -> dict:
        return {
            "suite": self.suite,
            "overall": "pass" if self.overall else "fail",
            "checks": [
                {
                    "name": c.name,
                    "verdict": "pass" if c.passed else "fail",
                    "provenance": c.provenance,
                    **({"detail": c.detail} if c.detail else {}),
                    **({"witness": c.witness} if c.witness is not None else {}),
                }
                for c in self.checks
            ],
            "seed": self.seed,
            "version": version,
        }


def render(reports: list, version: str, as_json: bool) -> str:
    """The report: JSON (a list for several reports), or text lines."""
    if as_json:
        payload = [r.to_json(version) for r in reports]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    lines, checks = [], [c for rep in reports for c in rep.checks]
    for rep in reports:
        lines.append(f"suite: {rep.suite}")
        for c in rep.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  -- {c.detail}" if c.detail else ""
            lines.append(f"  {mark} [{c.provenance:10s}] {c.name}{extra}")
            if not c.passed and c.witness is not None:
                lines.append(f"       witness: {json.dumps(c.witness)}")
        lines.append(f"  overall: {'pass' if rep.overall else 'fail'}")
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


def _enc(F, v):
    """JSON-encode a field element / vector / matrix / nested structure."""
    if v is None:
        return None
    if isinstance(v, Matrix):
        return [[F.encode(a) for a in row] for row in v.rows]
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple, Matrix)):
            return [_enc(F, x) for x in v]
        return [F.encode(a) for a in v]
    return F.encode(v)


def _identity_witness(F, w):
    """The {"args", "value"} witness of an identity check, or None."""
    return None if w is None else {"args": _enc(F, w.args), "value": _enc(F, w.value)}


def _identity_check(name: str, F, r) -> CheckResult:
    """The check of identity verdict ``r``: it passes where the law holds."""
    return CheckResult(name, r.holds, r.provenance,
                       witness=_identity_witness(F, r.witness))


def _values_witness(F, w):
    """The {"x", "dx"} witness of an invertible-values verdict, or None."""
    return None if w is None else {"x": _enc(F, w[0]), "dx": _enc(F, w[1])}


# ---------------------------------------------------------------- suites ----

def _zorn_fields():
    return [("GF2", PrimeField(2)), ("GF3", PrimeField(3)),
            ("GF5", PrimeField(5)), ("Q", RationalField())]


def suite_zorn_identities(cfg: Config) -> list:
    checks = []
    for label, F in _zorn_fields():
        A = zorn(F).algebra
        for name in ("left-alternative", "right-alternative", "flexible",
                     "middle-moufang"):
            r = check_identity(A, name, seed=cfg.seed, samples=cfg.samples,
                               enum_cap=cfg.enum_cap)
            checks.append(_identity_check(f"{label}/{name}", F, r))
        r = check_identity(A, "associative")
        reproduced = (r.witness is not None and not A.is_zero_vec(
            evaluate_identity(A, "associative", r.witness.args)))
        checks.append(CheckResult(
            f"{label}/associative-fails-with-witness",
            (not r.holds) and reproduced, r.provenance,
            detail="witness re-evaluated to a nonzero associator",
            witness=_identity_witness(F, r.witness)))
    # the doubling tower (-1, -1, 1) over Q reproduces the Zorn model:
    # identity verdicts agree, 1 + v is isotropic, and an explicit frame
    # gives a certified isomorphism transporting product, trace, and norm
    tower = cd_tower(RationalField(), (-1, -1, 1))
    TA = tower.algebra
    F = TA.field
    ok = all(check_identity(TA, n).holds
             for n in ("left-alternative", "right-alternative", "flexible"))
    ok = ok and not check_identity(TA, "associative").holds
    checks.append(CheckResult("tower(-1,-1,1)/identity-suite-matches-zorn",
                              ok, "certified"))
    one_plus_v = TA.vadd(TA.basis_vec(0), TA.basis_vec(4))
    nval = tower.quadratic.norm(one_plus_v)
    checks.append(CheckResult("tower(-1,-1,1)/isotropic-vector-1+v",
                              F.is_zero(nval), "certified",
                              witness=_enc(F, one_plus_v)))
    try:
        P = zorn_isomorphism(tower.quadratic)
        checks.append(CheckResult(
            "tower(-1,-1,1)/constructed-isomorphism-onto-zorn", True,
            "certified", detail="frame carries all 64 basis products, t, and n",
            witness=_enc(F, P)))
    except ValueError as e:
        checks.append(CheckResult(
            "tower(-1,-1,1)/constructed-isomorphism-onto-zorn", False,
            "certified", detail=str(e)))
    return checks


def _residual_sweep(Z) -> CheckResult:
    """x^2 - t(x) x + n(x) 1 = 0 on every element of Z over GF(p)."""
    F, d = Z.field, Z.dim
    total = F.order ** d
    bad, provenance = search(F, d, None, enum_cap=total,
                             rows=scan.residual_rows(Z))
    return CheckResult(
        f"GF{F.p}/x^2-t(x)x+n(x)=0-on-all-{total}-elements", bad is None,
        provenance, witness=None if bad is None else _enc(F, bad[0]))


def suite_quadratic_relation(cfg: Config) -> list:
    checks = [_residual_sweep(zorn(PrimeField(p))) for p in (2, 3)]
    # the Jordan-product expansion x o y = t(x) y + t(y) x - f(x, y) 1 on
    # all basis pairs of every catalog quadratic algebra
    quads = [(f"zorn-{lbl}", zorn(F)) for lbl, F in _zorn_fields()]
    quads.append(("quaternions-Q", build("quaternions-Q").quadratic))
    quads.append(("split-octonions-Q", build("split-octonions-Q").quadratic))
    for label, q in quads:
        A = q.algebra
        F = q.field
        # linear in x and in y, so decided on basis pairs, x-major
        expansion = _Law(1, 1, False, lambda A, x, y: A.vsub(
            A.jordan_product(x, y),
            A.vsub(A.vadd(A.smul(q.trace(x), y), A.smul(q.trace(y), x)),
                   A.smul(q.bilinear(x, y), q.unit))))
        args = _first_failure(A, expansion, A.basis())
        bad = None if args is None else tuple(A.basis().index(v) for v in args)
        checks.append(CheckResult(
            f"{label}/jordan-product-expansion-on-basis-pairs", bad is None,
            "certified", witness=bad))

        L, B, Dc, Dq = _Lifted(A), q._bilinear_lifted, A._lifted[1], q._lifted[3]

        def hit(x, z, y, w):    # lifted: the left over Dq^2, the right Dq Dc^2
            X, Z, Y, W = map(L.lift, (x, z, y, w))
            lhs = B(X, Z) * B(Y, W)
            rhs = B(L.mul(X, Y), L.mul(Z, W)) + B(L.mul(X, W), L.mul(Z, Y))
            return not L.is_zero_vec([Dc * Dc * lhs - Dq * rhs])

        bad4, provenance = search(F, A.dim, hit, arity=4, seed=cfg.seed,
                                  samples=cfg.samples)
        checks.append(CheckResult(
            f"{label}/f(x,z)f(y,w)=f(xy,zw)+f(xw,zy)-sampled", bad4 is None,
            provenance, detail=f"{cfg.samples} seeded 4-tuples",
            witness=_enc(F, bad4)))
    return checks


def suite_norm_multiplicativity(cfg: Config) -> list:
    checks = []
    Z2 = zorn(PrimeField(2))
    # one pair (x, y) per row of F^16, x-major
    bad, provenance = search(Z2.field, 16, None, enum_cap=2 ** 16,
                             rows=scan._norm_pair_rows(Z2))
    checks.append(CheckResult(
        "GF2/n(xy)=n(x)n(y)-on-all-65536-pairs", bad is None, provenance,
        witness=None if bad is None else {"x": bad[0][:8], "y": bad[0][8:]}))
    for label, F in (("GF5", PrimeField(5)), ("Q", RationalField())):
        q = zorn(F)
        A = q.algebra
        L, N, Dc, Dq = _Lifted(A), q._norm_lifted, A._lifted[1], q._lifted[3]

        def hit(x, y):          # lifted: n(xy) over Dq Dc^2, n(x)n(y) over Dq^2
            X, Y = L.lift(x), L.lift(y)
            return not L.is_zero_vec([Dq * N(L.mul(X, Y)) - Dc * Dc * N(X) * N(Y)])

        badw, provenance = search(F, A.dim, hit, arity=2, seed=cfg.seed,
                                  samples=cfg.samples)
        checks.append(CheckResult(
            f"{label}/n(xy)=n(x)n(y)-sampled", badw is None, provenance,
            detail=f"{cfg.samples} seeded pairs",
            witness=_enc(F, badw)))
    return checks


def _invertibility_sweep(Z) -> list:
    """On every element x of Z over GF(p): x has a two-sided inverse (by
    linear solves) iff n(x) != 0, and then it is cd_inverse(Z, x).  The
    witness of each check is the element where it failed first."""
    F, d = Z.field, Z.dim
    p, total = F.p, F.order ** d
    bad, provenance = search(F, d, None, enum_cap=total, rows=scan._inverse_rows(Z))
    mismatch = cd_mismatch = None
    if bad is not None:     # which check failed there: rerun it on [x]
        if scan._inverse_mismatches(Z, [bad[0]])[0][0]:
            mismatch = bad[0]
        else:
            cd_mismatch = bad[0]
    return [
        CheckResult(f"GF{p}/invertible-iff-n-nonzero-on-all-{total}-elements",
                    mismatch is None, provenance,
                    witness=_enc(F, mismatch)),
        CheckResult(f"GF{p}/cd-inverse-agrees-with-linear-solve-inverse",
                    mismatch is None and cd_mismatch is None, provenance,
                    witness=_enc(F, cd_mismatch)),
    ]


def suite_invertibility_norm(cfg: Config) -> list:
    Z = zorn(PrimeField(3))
    A = Z.algebra
    F = A.field
    checks = _invertibility_sweep(Z)
    w = find_isotropic(Z, seed=cfg.seed, samples=cfg.samples,
                       enum_cap=cfg.enum_cap)
    ok = w.witness is not None and F.is_zero(Z.norm(w.witness))
    xbar = Z.conjugate(w.witness) if w.witness is not None else None
    if ok:
        ok = A.is_zero_vec(A.mul(w.witness, xbar))
    checks.append(CheckResult(
        "GF3/isotropic-witness-with-x-xbar=0", ok, w.provenance,
        witness=_enc(F, w.witness)))
    return checks


def suite_derivation_dimensions(cfg: Config) -> list:
    q = zorn(RationalField())
    A = q.algebra
    F = A.field
    D = derivation_space(A)
    checks = [CheckResult("Q/dim-Der(zorn)=14", D.dim == 14, "certified",
                          detail=f"dim = {D.dim}")]
    perm = list(reversed(range(8)))
    AP = permuted(A, perm)
    DP = derivation_space(AP)
    # conjugate the permuted-basis solution back and compare spaces
    Pinv = Matrix(F, [A.basis_vec(pa) for pa in perm], 8)
    P = Pinv.transpose()    # the permutation matrix with P e_a = e_perm[a]
    back = [flatten_map(P.matmul(M).matmul(Pinv)) for M in DP.basis_maps()]
    same = (DP.dim == D.dim
            and Subspace.from_vectors(F, 64, back) == D.space)
    checks.append(CheckResult(
        "Q/permuted-basis-oracle-agrees", same, "certified",
        detail=f"permuted dim = {DP.dim}, conjugated space equality"))
    unit = A.find_unit()
    kills = all(A.is_zero_vec(M.mulvec(unit)) for M in D.basis_maps())
    checks.append(CheckResult("Q/every-basis-derivation-kills-the-unit",
                              kills, "certified"))
    law_ok = all(is_derivation(A, M) for M in D.basis_maps())
    checks.append(CheckResult(
        "Q/basis-maps-satisfy-derivation-law-independently", law_ok,
        "certified", detail="re-verified on all basis pairs, solver-independent"))
    T = mult_lie_algebra(A)
    all_inner = all(T.space.contains_vector(row) for row in D.space.rows)
    checks.append(CheckResult(
        "Q/every-derivation-is-inner", all_inner, "certified",
        detail=f"multiplication Lie algebra has dim {T.dim}"))
    return checks


def suite_lemma22_case1(cfg: Config) -> list:
    checks = []
    quat = build("quaternions-Q").involutive
    C = cd_double(quat, quat.algebra.field.one)     # gamma = 1
    A = C.algebra
    F = A.field
    q = C.quadratic
    u = A.basis_vec(1)                              # quaternion i, trace 0
    try:
        dmap, cert = lemma22_case1(C, u)
    except ValueError as e:
        checks.append(CheckResult("construction", False, "certified", detail=str(e)))
        return checks
    checks.append(_derivation_law_check(A, dmap))
    v = norm_certificate_check(A, dmap, cert, seed=cfg.seed, samples=cfg.samples)
    checks.append(CheckResult("norm-certificate-n(d(a+vb))=-gamma-n(b)n(u)",
                              v.kind == "pass-certified", v.provenance,
                              detail=v.detail))
    checks.append(CheckResult("kernel-of-d-equals-B",
                              kernel(dmap) == cert.b_space, "certified"))
    image_ok = orthocomplement(q, cert.b_space) == cert.image_space
    checks.append(CheckResult("image-subspace-vB-equals-B-orthocomplement",
                              image_ok, "certified"))
    bad6, provenance = search(
        F, A.dim, lambda z: not F.is_zero(q.bilinear(z, dmap.mulvec(z))),
        seed=cfg.seed, samples=cfg.samples)
    checks.append(CheckResult("f(a,d(a))=0-sampled", bad6 is None, provenance,
                              detail=f"{cfg.samples} seeded samples",
                              witness=None if bad6 is None else _enc(F, bad6[0])))
    for bad_u, label in ((A.find_unit(), "t(u)-nonzero-rejected"),
                         (A.zero(), "u=0-rejected")):
        try:
            lemma22_case1(C, bad_u)
            checks.append(CheckResult(label, False, "certified"))
        except ValueError as exc:
            checks.append(CheckResult(label, True, "certified", detail=str(exc)))
    return checks


def _derivation_law_check(A, dmap) -> CheckResult:
    """Solver-independent re-check of D(xy) = D(x)y + xD(y) on all basis
    pairs; the witness is the first failing pair."""
    ok, wit = is_leibniz(A, dmap, 2)
    return CheckResult(f"derivation-law-on-all-{A.dim ** 2}-basis-pairs", ok,
                       "certified", witness=None if ok else wit[0])


def suite_lemma22_case2(cfg: Config) -> list:
    checks = []
    inst = build("gagola-B")
    q = inst.quadratic
    Z = inst.algebra
    F = Z.field
    B = inst.b_space
    checks.append(CheckResult("dim-B=4", B.dim == 4, "certified",
                              detail=f"dim = {B.dim}"))
    checks.append(CheckResult("B-equals-B-orthocomplement",
                              orthocomplement(q, B) == B, "certified"))
    for name, label in (("commutative", "pairs"), ("associative", "triples")):
        bad = _first_failure(Z, _LAWS[name], B.rows, B.rows)
        checks.append(CheckResult(f"B-{name}-on-basis-{label}", bad is None,
                                  "certified"))
    try:
        dmap, cert = lemma22_case2(q, B)
    except ValueError as e:
        checks.append(CheckResult("construction", False, "certified", detail=str(e)))
        return checks
    checks.append(CheckResult(
        "x-selection-rule", True, "certified",
        detail="x = first trace-zero standard basis vector independent of B",
        witness=_enc(F, cert.x)))
    checks.append(_derivation_law_check(Z, dmap))
    unit = Z.find_unit()
    # x is the swept argument, fixed at cert.x; a (and c) run over B's basis
    bracket = _Law(1, 1, False, lambda A, x, a: A.vsub(
        A.commutator(x, a), A.smul(q.bilinear(a, x), unit)))
    bad8 = _first_failure(Z, bracket, [cert.x], B.rows)
    checks.append(CheckResult("[x,a]=f(a,x)1-in-center-on-basis-of-B",
                              bad8 is None, "certified",
                              witness=None if bad8 is None else _enc(F, bad8[1])))
    assoc = _Law(1, 2, True, lambda A, a, c, x: A.vsub(
        A.associator(a, c, x),
        A.vadd(A.vadd(A.smul(q.bilinear(c, x), a), A.smul(q.bilinear(a, x), c)),
               A.smul(q.bilinear(x, A.mul(a, c)), unit))))
    bad9 = _first_failure(Z, assoc, [cert.x], B.rows)
    checks.append(CheckResult("(a,c,x)=af(c,x)+f(a,x)c+f(x,ac)1-on-basis-pairs",
                              bad9 is None, "certified",
                              witness=None if bad9 is None else _enc(F, bad9[:2])))
    checks.append(_imperfectness_check())
    checks.append(CheckResult("kernel-of-d-equals-B", kernel(dmap) == B,
                              "certified"))
    return checks


def _imperfectness_check() -> CheckResult:
    """No polynomials a,b,c,d over GF(2) of degree <= 4 (per variable) give
    a^2 + b^2 s + c^2 t + d^2 s t = 0 nontrivially: squaring is GF(2)-linear
    on coefficients, so this is an exact kernel computation at bounded degree
    (evidence for {1, s, t, st} independent over squares, not a full proof)."""
    F2 = PrimeField(2)
    degree_cap = 4
    monos = [(i, j) for i in range(degree_cap + 1) for j in range(degree_cap + 1)]
    ncols = 4 * len(monos)
    target_index = {}
    cols = []
    for block, (ds, dt) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        for (i, j) in monos:
            tgt = (2 * i + ds, 2 * j + dt)
            cols.append(target_index.setdefault(tgt, len(target_index)))
    rows = [[0] * ncols for _ in range(len(target_index))]
    for cidx, tgt_row in enumerate(cols):
        rows[tgt_row][cidx] = 1
    ker = kernel(Matrix(F2, rows, ncols))
    return CheckResult(
        "alpha,beta,alpha*beta-independent-over-squares-bounded-degree",
        ker.dim == 0, "sampled",
        detail=f"kernel trivial for coefficient degrees <= {degree_cap} per variable")


def suite_lemma23_outer(cfg: Config) -> list:
    inst = build("lemma23-Dx")
    A, d = inst.algebra, inst.derivation
    F = A.field
    v = invertible_values_check(A, d, "exhaustive", enum_cap=cfg.enum_cap)
    checks = [CheckResult("invertible-values-exhaustive",
                          v.kind == "pass-exhaustive", v.provenance,
                          detail=v.detail,
                          witness=_values_witness(F, v.witness))]
    checks.append(CheckResult("d-is-outer", not is_inner(A, d), "certified"))
    ker = kernel(d)
    checks.append(CheckResult("kernel-of-d-equals-D",
                              ker == inst.kernel_space, "certified"))
    # kernel elements are the combinations of its basis: columns of span
    span = Matrix(F, ker.rows, A.dim).transpose()
    bad, provenance = search(F, ker.dim, None, enum_cap=F.order ** ker.dim,
                             rows=scan.noninvertible_rows(A, span))
    checks.append(CheckResult("nonzero-kernel-elements-invertible", bad is None,
                              provenance, witness=None if bad is None else
                              _enc(F, span.mulvec(bad[0]))))
    return checks


def suite_remark22_singular(cfg: Config) -> list:
    inst = build("remark22")
    A = inst.algebra
    F = A.field
    chain, s = power_chain(A)
    dims = [c.dim for c in chain]
    checks = [CheckResult("power-chain-dims-(7,4,2,1,0)",
                          dims == [7, 4, 2, 1, 0] and s == 5, "certified",
                          detail=f"dims = {tuple(dims)}, index = {s}")]
    for name in ("left-alternative", "right-alternative", "flexible"):
        checks.append(_identity_check(f"sanity/{name}", F,
                                      check_identity(A, name)))
    checks.append(CheckResult("sanity/not-anticommutative",
                              not check_identity(A, "anticommutative").holds,
                              "certified"))
    # u1, u2, v, w are e_3 .. e_6
    uvw = Subspace.from_vectors(F, 7, [A.basis_vec(i) for i in range(3, 7)])
    checks.append(CheckResult("A^2-=-span(u1,u2,v,w)", chain[1] == uvw, "certified"))
    D = derivation_space(A)
    a4 = chain[3]
    v_idx, w_idx = 5, 6
    contained = all(
        a4.contains_vector(M.column(col))
        for M in D.basis_maps() for col in (v_idx, w_idx))
    checks.append(CheckResult("every-basis-derivation-maps-v,w-into-A^4",
                              contained, "certified",
                              detail=f"dim Der = {D.dim}"))
    if F.order ** D.dim <= cfg.enum_cap:
        v = invertible_combination(D, enum_cap=cfg.enum_cap)
        checks.append(CheckResult(
            "exhaustive-scan-finds-no-invertible-derivation",
            v.kind == "none-certified", v.provenance,
            detail=f"{F.order ** D.dim} combinations scanned"))
    verdict = invertible_in_space(D, seed=cfg.seed, samples=cfg.samples,
                                  enum_cap=cfg.enum_cap)
    checks.append(CheckResult(
        "invertible_in_space-returns-none-certified",
        verdict.kind == "none-certified", verdict.provenance,
        detail=verdict.reason or "",
        witness=_enc(F, verdict.kernel_vector)))
    return checks


def suite_remark23_identity_map(cfg: Config) -> list:
    inst = build("remark22")
    A = inst.algebra
    ident = Matrix.identity(A.field, 7)
    ok, wit = is_leibniz(A, ident, 4)
    checks = [CheckResult(
        "identity-map-is-leibniz-order-4-on-all-2401-tuples", ok, "exhaustive",
        witness=None if wit is None else {"tuple": list(wit[0]),
                                          "value": _enc(A.field, wit[1])})]
    L4 = leibniz_space(A, 4)
    checks.append(CheckResult("leibniz-space-order-4-contains-identity",
                              L4.contains(ident), "certified",
                              detail=f"dim = {L4.dim}"))
    ok2, _ = is_leibniz(A, ident, 2)
    checks.append(CheckResult("identity-map-is-not-a-derivation", not ok2,
                              "exhaustive"))
    return checks


def suite_moens(cfg: Config) -> list:
    checks = []
    tn = build("trivial-nilpotent").algebra
    r = moens_construction(tn)
    F = tn.field
    expect = Matrix(F, [[F.one, F.zero], [F.zero, F.from_int(2)]], 2)
    checks.append(CheckResult(
        "e2=f/order-2-map-diag(1,2)-invertible",
        r.order == 2 and r.map.eq(expect) and r.map.rank() == 2, "certified",
        detail=f"order = {r.order}, nilpotency index = {r.nilpotency_index}"))
    u3 = build("upper3").algebra
    r3 = moens_construction(u3)
    spot = u3.mul(u3.basis_vec(0), u3.basis_vec(2))     # E12 E23 = E13
    ok_spot = u3.veq(r3.map.mulvec(spot), u3.smul(u3.field.from_int(2), spot))
    checks.append(CheckResult(
        "upper3/order-2-full-rank-and-phi(E12E23)=2E13",
        r3.order == 2 and r3.map.rank() == 3 and ok_spot, "certified"))
    try:
        moens_construction(zorn(RationalField()).algebra)
        checks.append(CheckResult("zorn-rejected-not-nilpotent", False, "certified"))
    except ValueError as e:
        checks.append(CheckResult("zorn-rejected-not-nilpotent", True,
                                  "certified", detail=str(e)))
    ZQ = zorn(RationalField()).algebra
    # solved once, then checked without the solver: every basis map obeys
    # the derivation law on all basis pairs, and the dimension is Der's 14
    L2 = leibniz_space(ZQ, 2)
    is_der = L2.dim == 14 and all(is_derivation(ZQ, M) for M in L2.basis_maps())
    checks.append(CheckResult("zorn-Q/leibniz-order-2-equals-derivations",
                              is_der, "certified", detail=f"dim = {L2.dim}"))
    verdict = invertible_in_space(L2, seed=cfg.seed, samples=cfg.samples,
                                  enum_cap=cfg.enum_cap)
    unit = ZQ.find_unit()
    one_span = Subspace.from_vectors(ZQ.field, 8, [unit])
    kv_ok = (verdict.kind == "none-certified"
             and verdict.reason == "common-kernel"
             and verdict.kernel_vector is not None
             and one_span.contains_vector(verdict.kernel_vector))
    checks.append(CheckResult(
        "zorn-Q/no-invertible-leibniz-derivation-common-kernel-is-unit-line",
        kv_ok, "certified",
        witness=_enc(ZQ.field, verdict.kernel_vector)))
    return checks


def suite_qder_classification(cfg: Config) -> list:
    F5 = PrimeField(5)
    checks = []
    fa = quasider_space(field_algebra(F5))
    checks.append(CheckResult("GF5-as-field/QDer=End", fa.dim == fa.algebra.dim ** 2,
                              "certified", detail=f"dim = {fa.dim}"))
    za = quasider_space(zero_algebra(F5, 2))
    checks.append(CheckResult("2-dim-zero-multiplication/QDer=End",
                              za.dim == za.algebra.dim ** 2, "certified",
                              detail=f"dim = {za.dim}"))
    Z5 = zorn(F5).algebra
    S = quasider_space(Z5)
    checks.append(CheckResult("zorn-GF5/dim-QDer=15-strictly-below-End",
                              S.dim == 15 and S.dim < Z5.dim ** 2,
                              "certified", detail=f"dim = {S.dim} < 64"))
    # oracle: re-solve with the 2 d^2 unknowns f then Q in reversed order
    rows = [{127 - c: a for c, a in row.items()}
            for row in _law_rows(Z5, 2, q_offset=64)]
    ker_p = _kernel(Z5.field, rows, 2 * 64)
    fparts = [row[::-1][:64] for row in ker_p.rows]
    oracle = Subspace.from_vectors(Z5.field, 64, fparts)
    checks.append(CheckResult("zorn-GF5/permuted-unknown-oracle-agrees",
                              oracle == S.space, "certified",
                              detail=f"oracle dim = {oracle.dim}"))
    D5 = derivation_space(Z5)
    contained = all(S.space.contains_vector(row) for row in D5.space.rows)
    checks.append(CheckResult("zorn-GF5/derivations-inside-QDer(Q=f)",
                              contained, "certified",
                              detail=f"dim Der = {D5.dim}, 15 = 1 + {D5.dim}"))
    return checks


SUITES = {
    "zorn-identities": suite_zorn_identities,
    "quadratic-relation": suite_quadratic_relation,
    "norm-multiplicativity": suite_norm_multiplicativity,
    "invertibility-norm": suite_invertibility_norm,
    "derivation-dimensions": suite_derivation_dimensions,
    "lemma22-case1": suite_lemma22_case1,
    "lemma22-case2": suite_lemma22_case2,
    "lemma23-outer": suite_lemma23_outer,
    "remark22-singular": suite_remark22_singular,
    "remark23-identity-map": suite_remark23_identity_map,
    "moens": suite_moens,
    "qder-classification": suite_qder_classification,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, cfg: Config | None = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    cfg = cfg or Config()
    return SuiteReport(name, SUITES[name](cfg), cfg.seed)


def run_all(cfg: Config | None = None) -> list:
    return [run_suite(name, cfg) for name in SUITE_ORDER]


# ---------------------------------------------------------- verb reports ----
# The report of each computing verb of the CLI on algebra ``A``, named by
# the ``target`` it was given as (a file path or a catalog name).

def identities(A, target: str, cfg: Config) -> SuiteReport:
    checks = []
    for name in IDENTITY_NAMES:
        r = check_identity(A, name, seed=cfg.seed, samples=cfg.samples,
                           enum_cap=cfg.enum_cap)
        checks.append(_identity_check(name, A.field, r))
    return SuiteReport(f"identities({target})", checks, cfg.seed)


def _space_report(label: str, space, target: str, cfg: Config,
                  **extra) -> SuiteReport:
    """One certified check holding the space's dimension and basis maps."""
    F = space.algebra.field
    witness = {"dim": space.dim,
               "basis_maps": [_enc(F, m) for m in space.basis_maps()], **extra}
    checks = [CheckResult(label, True, "certified",
                          detail=f"dim = {space.dim}", witness=witness)]
    return SuiteReport(f"{label}({target})", checks, cfg.seed)


def derivations(A, target: str, cfg: Config) -> SuiteReport:
    return _space_report("derivations", derivation_space(A), target, cfg)


def leibniz(A, order: int, target: str, cfg: Config) -> SuiteReport:
    space = leibniz_space(A, order)
    ident = Matrix.identity(A.field, A.dim)
    return _space_report(f"leibniz-order-{order}", space, target, cfg,
                         contains_identity=space.contains(ident))


def quasiderivations(A, target: str, cfg: Config) -> SuiteReport:
    space = quasider_space(A)
    return _space_report("quasiderivations", space, target, cfg,
                         equals_end=space.dim == A.dim ** 2)


def powers(A, target: str, cfg: Config) -> SuiteReport:
    chain, s = power_chain(A)
    dims = [c.dim for c in chain]
    detail = (f"dims = {tuple(dims)}, nilpotency index = {s}" if s is not None
              else f"dims = {tuple(dims)}, not nilpotent (chain stabilizes)")
    checks = [CheckResult("power-chain", True, "certified", detail=detail,
                          witness={"dims": dims, "nilpotency_index": s})]
    return SuiteReport(f"powers({target})", checks, cfg.seed)


def inner(A, dmap, target: str, cfg: Config) -> SuiteReport:
    """Raises ValueError if ``dmap`` is not a derivation."""
    ok = is_inner(A, dmap)
    checks = [CheckResult("inner", ok, "certified",
                          detail="map lies in the multiplication Lie algebra"
                          if ok else "map is outer")]
    return SuiteReport(f"inner({target})", checks, cfg.seed)


def invertible_values(A, dmap, mode: str, target: str,
                      cfg: Config) -> SuiteReport:
    """Raises ValueError as ``operators.invertible_values_check`` does."""
    v = invertible_values_check(A, dmap, mode, seed=cfg.seed,
                                samples=cfg.samples, enum_cap=cfg.enum_cap)
    checks = [CheckResult(f"invertible-values[{mode}]",
                          v.kind.startswith("pass"), v.provenance,
                          detail=f"{v.kind}: {v.detail}",
                          witness=_values_witness(A.field, v.witness))]
    return SuiteReport(f"invertible-values({target})", checks, cfg.seed)
