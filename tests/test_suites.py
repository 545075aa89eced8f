import json

import pytest

from altalg import __version__
from altalg.catalog import build
from altalg.suites import SUITE_ORDER, Config, run_all, run_suite

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

    real = suites.lemma22_derivation

    def broken(target, case, **params):
        dmap, cert = real(target, case, **params)
        F = target.algebra.field
        dmap.rows[0][1] = F.add(dmap.rows[0][1], F.one)
        return dmap, cert

    monkeypatch.setattr(suites, "lemma22_derivation", broken)
    monkeypatch.setattr(suites, "invertible_values_check", lambda *a, **k:
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

    real = suites.lemma22_derivation

    def moved(target, case, **params):
        dmap, cert = real(target, case, **params)
        return dmap, replace(cert, x=target.algebra.basis_vec(1))

    monkeypatch.setattr(suites, "lemma22_derivation", moved)
    doc = run_suite("lemma22-case2").to_json(__version__)
    check = {c["name"]: c for c in doc["checks"]}[
        "(a,c,x)=af(c,x)+f(a,x)c+f(x,ac)1-on-basis-pairs"]
    inst = build("gagola-B")
    first = list(inst.extras["b_space"].rows[0])
    assert check["verdict"] == "fail" and check["provenance"] == "certified"
    assert check["witness"] == suites._enc(inst.algebra.field, (first, first))


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
