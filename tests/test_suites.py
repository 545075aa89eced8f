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
