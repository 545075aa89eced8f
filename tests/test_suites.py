import hashlib
import json

import pytest

from altalg import __version__
from altalg.catalog import build
from altalg.suites import (SUITE_ORDER, CheckResult, Config, SuiteReport, render,
                           run_suite)

FAST_SUITES = [n for n in SUITE_ORDER if n != "zorn-identities"]


@pytest.mark.parametrize("name", FAST_SUITES)
def test_suite_passes(name):
    rep = run_suite(name)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.overall, f"{name} failed checks: {failed}"


def test_zorn_identities_suite_passes():
    # separate: this one sweeps all 5^8 vectors for the GF(5) Moufang check
    rep = run_suite("zorn-identities")
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.overall, f"failed checks: {failed}"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_moens_leibniz_order_2_check_fails_on_a_non_derivation(monkeypatch):
    # the solved space is checked by the derivation law, not against a
    # second solve of the same system: a space of the right dimension that
    # holds the identity map (id(xy) != 2xy over Q) fails the check
    from altalg import operators
    from altalg.linalg import Matrix, Subspace

    real = operators._law_space

    def law_space(A, n):
        space = real(A, n).space
        ident = operators.flatten_map(Matrix.identity(A.field, A.dim))
        rows = [ident] + space.rows[1:]
        return operators.OperatorSpace(
            A, Subspace.from_vectors(A.field, A.dim ** 2, rows))

    monkeypatch.setattr(operators, "_law_space", law_space)
    checks = {c.name: c for c in run_suite("moens").checks}
    check = checks["zorn-Q/leibniz-order-2-equals-derivations"]
    assert not check.passed and check.detail == "dim = 14"


def test_report_json_schema():
    rep = run_suite("lemma23-outer")
    doc = rep.to_json(__version__)
    assert set(doc) <= {"suite", "overall", "checks", "seed", "version"}
    assert doc["suite"] == "lemma23-outer"
    assert doc["overall"] in ("pass", "fail")
    assert doc["seed"] == 42 and doc["version"] == __version__
    for c in doc["checks"]:
        assert {"name", "verdict", "provenance"} <= set(c)
        assert c["verdict"] in ("pass", "fail")
        assert c["provenance"] in ("certified", "exhaustive", "sampled")
    json.dumps(doc)     # witnesses must be JSON-serializable


def test_render_writes_the_report_text_and_json():
    ok = SuiteReport("one", [CheckResult("a", True, "certified", detail="dim = 2")], 7)
    bad = SuiteReport("two", [CheckResult("b", False, "sampled", witness={"x": [1]}),
                              CheckResult("c", True, "exhaustive")], 7)
    assert render([ok, bad], "9.9", False) == (
        "suite: one\n"
        "  PASS [certified ] a  -- dim = 2\n"
        "  overall: pass\n"
        "suite: two\n"
        "  FAIL [sampled   ] b\n"
        '       witness: {"x": [1]}\n'
        "  PASS [exhaustive] c\n"
        "  overall: fail\n"
        "2/3 checks passed\n")
    assert render([ok], "9.9", True) == json.dumps(ok.to_json("9.9"), indent=2) + "\n"
    assert render([ok, bad], "9.9", True) == json.dumps(
        [ok.to_json("9.9"), bad.to_json("9.9")], indent=2) + "\n"


def test_reports_are_deterministic():
    a = run_suite("moens", Config(seed=42)).to_json(__version__)
    b = run_suite("moens", Config(seed=42)).to_json(__version__)
    assert json.dumps(a) == json.dumps(b)


def test_overall_reflects_checks():
    rep = run_suite("qder-classification")
    assert rep.overall == all(c.passed for c in rep.checks)


def test_run_all_parallel_order_matches_serial():
    cfg = Config()
    fast = [n for n in ("lemma23-outer", "moens", "qder-classification")]
    serial = [run_suite(n, cfg).to_json(__version__) for n in fast]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=3) as pool:
        futs = {n: pool.submit(run_suite, n, cfg) for n in fast}
        parallel = [futs[n].result().to_json(__version__) for n in fast]
    assert json.dumps(serial) == json.dumps(parallel)


def test_lemma22_case1_law_check_reports_first_failing_pair(monkeypatch):
    # D(e_1) gains an e_0 (unit) component, so the law fails on 19 of the 64
    # basis pairs, first at (1, 1) (i^2 = -1) and last at (7, 6); the check
    # reports the first failing pair
    from altalg import suites
    from altalg.operators import InvertibleValuesVerdict

    real = suites.lemma22_case1

    def broken(double, u):
        dmap, cert = real(double, u)
        F = double.algebra.field
        dmap.rows[0][1] = F.add(dmap.rows[0][1], F.one)
        return dmap, cert

    monkeypatch.setattr(suites, "lemma22_case1", broken)
    monkeypatch.setattr(suites, "norm_certificate_check", lambda *a, **k:
                        InvertibleValuesVerdict("not-applicable", "sampled"))
    doc = run_suite("lemma22-case1").to_json(__version__)
    law = {c["name"]: c for c in doc["checks"]}["derivation-law-on-all-64-basis-pairs"]
    assert law["verdict"] == "fail" and law["provenance"] == "certified"
    assert json.loads(json.dumps(law["witness"])) == [1, 1]


def test_lemma22_case2_associator_check_reports_first_failing_pair(monkeypatch):
    # with x = e_1 in place of the selected x, (a,c,x) = a f(c,x) + f(a,x) c
    # + f(x,ac) 1 fails on all 16 pairs of B's basis; the check reports the
    # first, (b_0, b_0), not the last, (b_3, b_3)
    from dataclasses import replace

    from altalg import suites

    real = suites.lemma22_case2

    def moved(C, b_space):
        dmap, cert = real(C, b_space)
        return dmap, replace(cert, x=C.algebra.basis_vec(1))

    monkeypatch.setattr(suites, "lemma22_case2", moved)
    doc = run_suite("lemma22-case2").to_json(__version__)
    check = {c["name"]: c for c in doc["checks"]}[
        "(a,c,x)=af(c,x)+f(a,x)c+f(x,ac)1-on-basis-pairs"]
    inst = build("gagola-B")
    first = list(inst.b_space.rows[0])
    assert check["verdict"] == "fail" and check["provenance"] == "certified"
    assert check["witness"] == suites._enc(inst.algebra.field, (first, first))


def test_lemma22_case2_bracket_check_reports_the_failing_row(monkeypatch):
    # f(b_2, x) off by one once d is built: [x,a] = f(a,x) 1 then fails at
    # a = b_2 alone, and the check reports that row of B's basis
    from altalg import suites
    from altalg.quadratic import QuadraticAlgebra

    inst = build("gagola-B")
    F = inst.algebra.field
    row = list(inst.b_space.rows[2])
    real_bilinear = QuadraticAlgebra.bilinear
    real = suites.lemma22_case2

    def shifted(C, b_space):
        dmap, cert = real(C, b_space)

        def off(q, a, y):
            value = real_bilinear(q, a, y)
            if suites._enc(F, a) == suites._enc(F, row) and y is cert.x:
                return F.add(value, F.one)
            return value

        monkeypatch.setattr(QuadraticAlgebra, "bilinear", off)
        return dmap, cert

    monkeypatch.setattr(suites, "lemma22_case2", shifted)
    doc = run_suite("lemma22-case2").to_json(__version__)
    check = {c["name"]: c for c in doc["checks"]}[
        "[x,a]=f(a,x)1-in-center-on-basis-of-B"]
    assert check["verdict"] == "fail" and check["provenance"] == "certified"
    assert check["witness"] == suites._enc(F, row)


def test_remark22_a2_check_compares_with_u1_u2_v_w(monkeypatch):
    # swapping e3 and u2 keeps the power-chain dimensions (7, 4, 2, 1, 0),
    # but A^2 is then spanned by e_2, e_3, e_5, e_6, not by e_3 .. e_6
    from dataclasses import replace

    from altalg import suites
    from altalg.algebra import permuted

    real = suites.build

    def relabelled(name, **params):
        inst = real(name, **params)
        if name == "remark22":
            inst = replace(inst, algebra=permuted(inst.algebra, [0, 1, 4, 3, 2, 5, 6]))
        return inst

    monkeypatch.setattr(suites, "build", relabelled)
    checks = {c.name: c for c in run_suite("remark22-singular").checks}
    assert checks["power-chain-dims-(7,4,2,1,0)"].passed
    assert not checks["A^2-=-span(u1,u2,v,w)"].passed


def test_jordan_expansion_check_reports_first_failing_pair(monkeypatch):
    # f(e_2, e_3) and f(e_3, e_1) off by one: x o y = t(x) y + t(y) x
    # - f(x, y) 1 fails on those two basis pairs only, and the check walks
    # x-major, so it reports (2, 3), not (3, 1)
    from altalg.quadratic import QuadraticAlgebra

    real = QuadraticAlgebra.bilinear

    def off(q, x, y):
        e = q.algebra.basis()
        if (x, y) in ((e[2], e[3]), (e[3], e[1])):
            return q.field.add(real(q, x, y), q.field.one)
        return real(q, x, y)

    monkeypatch.setattr(QuadraticAlgebra, "bilinear", off)
    doc = run_suite("quadratic-relation").to_json(__version__)
    expansion = [c for c in doc["checks"]
                 if c["name"].endswith("/jordan-product-expansion-on-basis-pairs")]
    assert len(expansion) == 6
    for check in expansion:
        assert check["verdict"] == "fail" and check["provenance"] == "certified"
        assert json.loads(json.dumps(check["witness"])) == [2, 3]


def test_gf2_norm_witness_is_the_first_failing_pair(monkeypatch):
    # with the product replaced by xy := y, n(xy) = n(x)n(y) fails exactly
    # where n(x) = 0 and n(y) = 1; pairs run x-major, so the witness is
    # x = 0 and the first y of norm 1, as plain JSON integers
    from altalg import scan, suites
    from altalg.fields import PrimeField
    from altalg.quadratic import zorn

    monkeypatch.setattr(scan, "mulrows", lambda A, X, Y: Y)
    Z2 = zorn(PrimeField(2))
    y = next(v for v in Z2.algebra.elements() if Z2.norm(v) == 1)
    check = suites.suite_norm_multiplicativity(Config())[0]
    assert check.name == "GF2/n(xy)=n(x)n(y)-on-all-65536-pairs"
    assert (check.passed, check.provenance) == (False, "exhaustive")
    assert json.dumps(check.witness) == json.dumps({"x": [0] * 8, "y": y})


def reference_sampled_hits(q):
    """The hits of the two sampled laws by field operations: the 4-tuple
    law f(x,z)f(y,w) = f(xy,zw) + f(xw,zy) and n(xy) = n(x)n(y)."""
    A, F = q.algebra, q.field

    def four(x, z, y, w):
        lhs = F.mul(q.bilinear(x, z), q.bilinear(y, w))
        rhs = F.add(q.bilinear(A.mul(x, y), A.mul(z, w)),
                    q.bilinear(A.mul(x, w), A.mul(z, y)))
        return not F.eq(lhs, rhs)

    def norm(x, y):
        return not F.eq(q.norm(A.mul(x, y)), F.mul(q.norm(x), q.norm(y)))

    return four, norm


@pytest.mark.parametrize("fault", [None, "norm"])
def test_sampled_laws_match_the_field_operation_hits(monkeypatch, fault):
    # the lifted hits decide every draw as the field operations do, so the
    # verdicts and witnesses agree, with the u1 v1 cross term of each zorn
    # norm off by one too
    from altalg import suites
    from altalg.algebra import search
    from altalg.fields import PrimeField, RationalField

    real = suites.zorn

    def planted(F):
        q = real(F)
        if fault == "norm":
            q.qform[2][5] = F.add(q.qform[2][5], F.one)
            q._lift_forms()
        return q

    monkeypatch.setattr(suites, "zorn", planted)
    cfg = Config(samples=32)
    checks = {c.name: c for c in suites.suite_quadratic_relation(cfg)
              + suites.suite_norm_multiplicativity(cfg)}
    failed = 0
    for label, F in (("GF2", PrimeField(2)), ("GF3", PrimeField(3)),
                     ("GF5", PrimeField(5)), ("Q", RationalField())):
        four, norm = reference_sampled_hits(planted(F))
        laws = [(f"zorn-{label}/f(x,z)f(y,w)=f(xy,zw)+f(xw,zy)-sampled", four, 4)]
        if label in ("GF5", "Q"):
            laws.append((f"{label}/n(xy)=n(x)n(y)-sampled", norm, 2))
        for name, hit, arity in laws:
            bad, provenance = search(F, 8, hit, arity=arity, seed=cfg.seed,
                                     samples=cfg.samples)
            check = checks[name]
            assert (check.passed, check.provenance) == (bad is None, provenance)
            assert check.witness == suites._enc(F, bad)
            failed += bad is not None
    assert failed == (6 if fault else 0)


# ---- the element-by-element GF(p) sweeps the block predicates replaced -----

def reference_invertibility_checks(Z):
    """The GF(3) invertibility sweep before it was batched, one
    invert_element and one cd_inverse per x: (mismatch, cd_mismatch,
    provenance), the element where each check failed first."""
    from altalg.algebra import search
    from altalg.quadratic import cd_inverse

    A, F = Z.algebra, Z.field
    first = {}

    def hit(x):
        inv = A.invert_element(x)
        n_nonzero = not F.is_zero(Z.norm(x))
        if (inv is not None) != n_nonzero:
            first["mismatch"] = x
            return True
        cd = cd_inverse(Z, x)
        if (cd is None) != (inv is None) or (cd is not None and not A.veq(cd, inv)):
            first["cd_mismatch"] = x
            return True
        return False

    _, provenance = search(F, Z.dim, hit, enum_cap=F.order ** Z.dim)
    return first.get("mismatch"), first.get("cd_mismatch"), provenance


def reference_quadratic_relation(Z):
    """The GF(2)/GF(3) quadratic-relation sweep before it was batched."""
    from altalg.algebra import search

    A = Z.algebra
    return search(A.field, Z.dim,
                  lambda x: not A.is_zero_vec(Z.quadratic_residual(x)),
                  enum_cap=A.field.order ** Z.dim)


def _break(monkeypatch, Z, fault):
    """Plant the same fault in Z for both routes of a sweep."""
    from altalg import scan
    from altalg.quadratic import QuadraticAlgebra

    p = Z.field.p
    if fault == "norm":         # a wrong coefficient of the norm form
        Z.qform[0][1] = (Z.qform[0][1] + 1) % p
    elif fault == "trace":      # a wrong trace, so a wrong conjugate
        Z.trace_vec[2] = (Z.trace_vec[2] + 1) % p
    if fault in ("norm", "trace"):  # the forms are lifted once, at construction
        Z._lift_forms()
    elif fault == "last":       # n(x) off by one at the last vector only
        last = [p - 1] * Z.dim
        norm, norms = QuadraticAlgebra.norm, scan.norms

        def off(q, x):
            return (norm(q, x) + (list(x) == last)) % p

        def offs(q, X):
            return (norms(q, X) + (X == p - 1).all(axis=1)) % p

        monkeypatch.setattr(QuadraticAlgebra, "norm", off)
        monkeypatch.setattr(scan, "norms", offs)


# (p, scan.BLOCK) with None for the default block; GF(3) at block 1 would
# invert 6561 one-row blocks, so block 1 runs over GF(2)'s 256
SWEEP_CASES = [(2, 1), (2, 7), (2, None), (3, 7), (3, None)]


@pytest.mark.parametrize("fault", [None, "norm", "trace", "last"])
def test_invertibility_sweep_matches_reference(monkeypatch, fault):
    from altalg import scan, suites
    from altalg.fields import PrimeField
    from altalg.quadratic import zorn

    seen, default = set(), scan.BLOCK
    for p in (2, 3):
        Z = zorn(PrimeField(p))
        with monkeypatch.context() as m:
            _break(m, Z, fault)
            mismatch, cd_mismatch, provenance = reference_invertibility_checks(Z)
            for block in (b for q, b in SWEEP_CASES if q == p):
                m.setattr(scan, "BLOCK", block or default)
                got = suites._invertibility_sweep(Z)
                want = [(mismatch is None, provenance,
                         suites._enc(Z.field, mismatch)),
                        (mismatch is None and cd_mismatch is None, provenance,
                         suites._enc(Z.field, cd_mismatch))]
                assert [(c.passed, c.provenance, c.witness) for c in got] == want
                json.dumps([c.witness for c in got])
            if fault == "last":
                assert [p - 1] * 8 in (mismatch, cd_mismatch)
        seen.add("mismatch" if mismatch else "cd_mismatch" if cd_mismatch
                 else "pass")
    # a wrong trace only moves the conjugate; the last vector fails one
    # check or the other
    if fault in (None, "trace"):
        assert seen == {"pass" if fault is None else "cd_mismatch"}
    else:
        assert "pass" not in seen and (fault == "last" or "mismatch" in seen)


@pytest.mark.parametrize("fault", [None, "norm", "last"])
def test_quadratic_relation_sweep_matches_reference(monkeypatch, fault):
    from altalg import scan, suites
    from altalg.fields import PrimeField
    from altalg.quadratic import zorn

    default = scan.BLOCK
    for p, block in SWEEP_CASES:
        Z = zorn(PrimeField(p))
        with monkeypatch.context() as m:
            _break(m, Z, fault)
            bad, provenance = reference_quadratic_relation(Z)
            m.setattr(scan, "BLOCK", block or default)
            c = suites._residual_sweep(Z)
        assert (c.passed, c.provenance) == (bad is None, provenance)
        assert c.witness == (None if bad is None else suites._enc(Z.field, bad[0]))
        assert (bad is None) == (fault is None)
        if fault == "last":
            assert bad[0] == [p - 1] * 8


def test_exhaustive_walks_keep_their_arrays_small():
    # each walk's arrays are built on one block of at most scan.BLOCK
    # vectors; on 32 768-row blocks these suites' traced peaks (numpy arrays
    # and Python objects above what was held before) read 6-27 MB
    import tracemalloc

    import numpy  # noqa: F401  (imported before tracing: not a walk's cost)

    peaks = {}
    tracemalloc.start()
    try:
        for name in ("remark22-singular", "norm-multiplicativity",
                     "invertibility-norm", "zorn-identities"):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert run_suite(name).overall
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 8, peaks


def test_verify_all_builds_no_gf_table_and_takes_no_point(monkeypatch, capsys):
    # the north-star output, byte for byte; its GF(p)(s, t) kernels have no
    # more rows than columns, so verify all keeps its cost and its bytes
    from altalg import cli, fields, linalg
    monkeypatch.setattr(fields, "_GF_TABLES", {})
    taken = []
    monkeypatch.setattr(linalg, "_point_rows", lambda *a: taken.append(a))
    assert cli.main(["verify", "all", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "043499262f7f38d1b3f2e6fbd617060d"
    assert [r["suite"] for r in json.loads(out)] == list(SUITE_ORDER)
    assert fields._GF_TABLES == {} and taken == []
