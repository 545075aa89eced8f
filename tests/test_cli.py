import json
import os
import re
import threading
import time

import pytest

from altalg.cli import main, parse_algebra_file

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_zorn_fixture():
    A = parse_algebra_file(fixture("zorn_gf3.json"))
    assert A.dim == 8 and A.field.char == 3
    assert A.find_unit() == [1, 1, 0, 0, 0, 0, 0, 0]


def test_parse_remark22_fixture():
    A = parse_algebra_file(fixture("remark22_gf3.json"))
    assert A.dim == 7 and A.names == ["e1", "e2", "e3", "u1", "u2", "v", "w"]


def test_parse_rejects_negative_dim(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"field": {"kind": "prime", "p": 3},
                             "dim": -1, "table": []}))
    from altalg.cli import CliInputError

    with pytest.raises(CliInputError):
        parse_algebra_file(str(p))


def test_parse_rejects_duplicate_rows(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({
        "field": {"kind": "prime", "p": 3}, "dim": 2,
        "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1"}]},
                  {"i": 0, "j": 0, "terms": [{"k": 0, "c": "1"}]}]}))
    from altalg.cli import CliInputError

    with pytest.raises(CliInputError) as err:
        parse_algebra_file(str(p))
    assert "duplicate" in str(err.value)


def test_parse_reports_json_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"field": {"kind": "prime", "p": 3},\n  "dim": }')
    from altalg.cli import CliInputError

    with pytest.raises(CliInputError) as err:
        parse_algebra_file(str(p))
    assert "line 2" in str(err.value)


def test_cli_verify_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma23-outer")
    assert code == 0
    assert "overall: pass" in out


def test_cli_verify_unknown_suite_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2 and "unknown suite" in err


def test_cli_unknown_target_exit_two(capsys):
    code, _, err = run_cli(capsys, "derivations", "no-such-thing.json")
    assert code == 2


def test_cli_malformed_file_exit_one(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    code, _, err = run_cli(capsys, "powers", str(p))
    assert code == 1 and "malformed JSON" in err


def test_cli_identities_on_failing_algebra_exit_one(capsys):
    code, out, _ = run_cli(capsys, "identities", fixture("zorn_gf3.json"))
    assert code == 1          # associativity and commutativity fail on Zorn
    assert "FAIL" in out and "associative" in out


def test_cli_leibniz_verb(capsys):
    code, out, _ = run_cli(capsys, "leibniz", fixture("remark22_gf3.json"),
                           "--order", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["checks"][0]["witness"]["contains_identity"] is True


def test_cli_leibniz_rejects_order_one(capsys):
    code, _, err = run_cli(capsys, "leibniz", fixture("remark22_gf3.json"),
                           "--order", "1")
    assert code == 2


def test_cli_powers_verb(capsys):
    code, out, _ = run_cli(capsys, "powers", fixture("remark22_gf3.json"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["witness"]["dims"] == [7, 4, 2, 1, 0]
    assert doc["checks"][0]["witness"]["nilpotency_index"] == 5


def test_cli_derivations_catalog_target(capsys):
    code, out, _ = run_cli(capsys, "derivations", "remark22", "--json")
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"]["dim"] == 10


def test_cli_quasiderivations(capsys):
    code, out, _ = run_cli(capsys, "quasiderivations", "trivial-nilpotent",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["witness"]["equals_end"] is False


def test_cli_inner_verb_outer_derivation(capsys):
    code, out, _ = run_cli(capsys, "inner", fixture("lemma23_dx.json"),
                           "--map", fixture("lemma23_dmap.json"))
    assert code == 1          # the map is outer, so the assertion fails
    assert "outer" in out


def test_cli_inner_rejects_non_derivation(capsys, tmp_path):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"matrix": [["1", "0", "0", "0"],
                                        ["0", "1", "0", "0"],
                                        ["0", "0", "1", "0"],
                                        ["0", "0", "0", "1"]]}))
    code, _, err = run_cli(capsys, "inner", fixture("lemma23_dx.json"),
                           "--map", str(p))
    assert code == 1 and "not a derivation" in err


def test_cli_invertible_values(capsys):
    code, out, _ = run_cli(capsys, "invertible-values", fixture("lemma23_dx.json"),
                           "--map", fixture("lemma23_dmap.json"),
                           "--mode", "exhaustive", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["checks"][0]["provenance"] == "exhaustive"


def test_cli_invertible_values_has_no_norm_certificate_mode(capsys):
    # the command line cannot supply lemma22 certificate data
    with pytest.raises(SystemExit) as exc:
        main(["invertible-values", fixture("lemma23_dx.json"), "--map",
              fixture("lemma23_dmap.json"), "--mode", "norm-certificate"])
    assert exc.value.code == 2
    assert "invalid choice: 'norm-certificate'" in capsys.readouterr().err


def test_cli_build_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "zorn.json"
    code, _, _ = run_cli(capsys, "build", "zorn", "--out", str(out_path))
    assert code == 0
    A = parse_algebra_file(str(out_path))
    assert A.dim == 8
    committed = parse_algebra_file(fixture("zorn_gf3.json"))
    assert A.table == committed.table


def test_cli_build_unknown_exit_two(capsys):
    code, _, err = run_cli(capsys, "build", "sedenions")
    assert code == 2 and "unknown catalog instance" in err


def test_cli_json_reports_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "moens", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "moens", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_exit_zero_iff_overall_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "qder-classification", "--json")
    doc = json.loads(out)
    assert (code == 0) == (doc["overall"] == "pass")


def test_cli_no_verb_exit_two(capsys):
    assert main([]) == 2


def test_cli_enum_cap_forces_sampled_verdicts(capsys):
    # with a tiny enumeration cap the degree-3 identity checks fall back to
    # seeded sampling, which must be visible in the provenance tags
    code, out, _ = run_cli(capsys, "identities", fixture("zorn_gf3.json"),
                           "--enum-cap", "10", "--json")
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["middle-moufang"]["provenance"] == "sampled"
    assert by_name["jordan"]["provenance"] == "sampled"
    assert by_name["left-alternative"]["provenance"] == "certified"


@pytest.mark.parametrize("argv, flag", [
    (("verify", "quadratic-relation", "--samples", "-3"), "--samples"),
    (("identities", "zorn", "--samples", "0"), "--samples"),
    (("invertible-values", fixture("lemma23_dx.json"), "--map",
      fixture("lemma23_dmap.json"), "--mode", "sample", "--samples", "0"), "--samples"),
    (("verify", "all", "--enum-cap", "-1"), "--enum-cap"),
    (("identities", "zorn", "--enum-cap", "-10"), "--enum-cap"),
], ids=["verify-samples-negative", "identities-samples-zero",
        "invertible-values-samples-zero", "verify-enum-cap-negative",
        "identities-enum-cap-negative"])
def test_cli_rejects_evidence_flags_below_minimum(capsys, argv, flag):
    # a sampled verdict needs at least one sample, and a negative cap
    # means nothing: both are usage errors, before any check runs
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least")


def test_cli_seed_changes_are_honored(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "moens", "--seed", "7", "--json")
    doc = json.loads(out1)
    assert doc["seed"] == 7 and code1 == 0


def test_cli_parallel_elapsed_is_wall_time(capsys, monkeypatch):
    # --parallel is accepted for compatibility only: the four 0.1 s suites
    # run one after another on the main thread, in suite order, the report
    # equals the serial one, and elapsed: shows the real 0.4 s or more
    from altalg import suites

    ran = []

    def sleepy(name):
        def run(cfg):
            ran.append((name, threading.current_thread() is threading.main_thread()))
            time.sleep(0.1)
            return [suites.CheckResult("slept", True, "certified")]
        return run

    fake = {f"sleep-{i}": sleepy(f"sleep-{i}") for i in range(4)}
    monkeypatch.setattr(suites, "SUITES", fake)
    monkeypatch.setattr(suites, "SUITE_ORDER", tuple(fake))
    _, serial, _ = run_cli(capsys, "verify", "all", "--json")
    ran.clear()
    code, out, err = run_cli(capsys, "verify", "all", "--parallel", "--json")
    assert code == 0 and out == serial
    assert ran == [(name, True) for name in fake]
    elapsed = float(re.search(r"elapsed: ([0-9.]+)s", err).group(1))
    assert elapsed >= 0.4


@pytest.mark.parametrize("argv, dim, key, value", [
    (("leibniz", "remark22", "--order", "5"), 49, "contains_identity", True),
    (("leibniz", "split-octonions-Q", "--order", "4"), 14, "contains_identity", False),
    (("quasiderivations", "split-octonions-Q"), 15, "equals_end", False),
    (("derivations", "split-octonions-Q"), 14, None, None),
], ids=["leibniz-remark22-5", "leibniz-split-octonions-Q-4",
        "quasiderivations-split-octonions-Q", "derivations-split-octonions-Q"])
def test_cli_operator_space_answers(capsys, argv, dim, key, value):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness["dim"] == dim
    if key is not None:
        assert witness[key] is value


def test_cli_invertible_values_sample_fail_is_sampled(capsys, tmp_path):
    # a derivation of the split octonions over GF(3) takes non-invertible
    # values; found by seeded sampling, the verdict is tagged sampled
    from altalg.catalog import build
    from altalg.operators import derivation_space

    A = build("zorn").algebra
    M = derivation_space(A).basis_maps()[0]
    p = tmp_path / "dmap.json"
    p.write_text(json.dumps({"matrix": [[A.field.encode(a) for a in row]
                                        for row in M.rows]}))
    code, out, _ = run_cli(capsys, "invertible-values", "zorn", "--map", str(p),
                           "--mode", "sample", "--json")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["verdict"] == "fail" and check["provenance"] == "sampled"


GF3_DOC = {"field": {"kind": "prime", "p": 3}, "dim": 2, "basis": ["e", "f"],
           "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1"}]}]}
Q_DOC = {"field": {"kind": "rationals"}, "dim": 2,
         "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1/2"}]}]}
RATFUN_DOC = {"field": {"kind": "ratfun2", "p": 2, "vars": ["s", "t"]}, "dim": 2,
              "table": [{"i": 0, "j": 0, "terms": [
                  {"k": 1, "c": {"num": [[0, 0]], "den": [[0, 1]]}}]}]}


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (_with(GF3_DOC, ("table", 0, "terms", 0, "k"), "1"), "k must be an integer"),
    (_with(GF3_DOC, ("table", 0, "terms", 0, "k"), 1.0), "k must be an integer"),
    (_with(GF3_DOC, ("basis",), 5), "'basis' must be a list"),
    (_with(RATFUN_DOC, ("table", 0, "terms", 0, "c", "den"), []), "zero denominator"),
    (_with(GF3_DOC, ("dim",), True), "bad dimension"),
    (_with(GF3_DOC, ("table", 0, "i"), True), "indices must be integers"),
    (_with(GF3_DOC, ("basis",), "ab"), "'basis' must be a list"),
    (_with(RATFUN_DOC, ("field", "vars"), "st"), "'vars' must be a list"),
    (_with(GF3_DOC, ("field", "p"), 2 ** 89 - 1), "cannot decide whether"),
    *[(_with(Q_DOC, ("table", 0, "terms", 0, "c"), c),
       f"bad rational encoding: {c!r}") for c in ("1e99999999", "1.5", "1_0", " 7 ")],
], ids=["k-string", "k-float", "basis-number", "ratfun-empty-den", "dim-true",
        "i-true", "basis-string", "vars-string", "p-beyond-primality-bound",
        "q-exponent", "q-decimal", "q-underscore", "q-padded"])
def test_cli_rejects_malformed_algebra_file(capsys, tmp_path, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "derivations", str(p))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [GF3_DOC, RATFUN_DOC], ids=["gf3", "ratfun2"])
def test_cli_accepts_well_formed_algebra_file(capsys, tmp_path, doc):
    p = tmp_path / "good.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "derivations", str(p))
    assert code == 0


@pytest.mark.parametrize("argv", [("build", "zorn"), ("verify", "moens", "--json")],
                         ids=["build", "verify"])
def test_cli_out_to_unwritable_path_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: No such file or directory\n"


def test_cli_invertible_values_blames_the_rejected_file(capsys, tmp_path):
    # a non-unital algebra is the target's fault; a zero map or a
    # non-derivation is the map's
    target = tmp_path / "nonunital.json"
    target.write_text(json.dumps(GF3_DOC))
    cases = [(str(target), [["0", "0"], ["0", "0"]], "target",
              "invertible-values analysis requires a unital algebra"),
             ("zorn", [["0"] * 8] * 8, "map", "the zero derivation is excluded"),
             ("zorn", [["1" if i == j else "0" for j in range(8)]
                       for i in range(8)], "map", "map is not a derivation"),
             ("split-octonions-Q", [["1e99999999"] * 8] * 8, "map",
              "bad rational encoding: '1e99999999'")]
    for i, (tgt, matrix, blamed, message) in enumerate(cases):
        dmap = tmp_path / f"map{i}.json"
        dmap.write_text(json.dumps({"matrix": matrix}))
        code, out, err = run_cli(capsys, "invertible-values", tgt, "--map", str(dmap))
        path = tgt if blamed == "target" else str(dmap)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" + b"7" * 5001 + b"]"],
                         ids=["not-utf8", "integer-past-digit-limit"])
@pytest.mark.parametrize("role", ["algebra", "map"])
def test_cli_rejects_unreadable_json(capsys, tmp_path, content, role):
    # json.load raises these as ValueError, not JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = (("powers", str(bad)) if role == "algebra"
            else ("inner", "zorn", "--map", str(bad)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: unreadable JSON: ")


def test_cli_and_q_operator_spaces_do_not_load_numpy():
    # numpy serves the GF(p) block scans only; scan imports it on first use,
    # while importing the CLI still imports every module of the package
    import subprocess
    import sys

    code = ("import sys, altalg.cli\n"
            "assert 'altalg.scan' in sys.modules, 'scan not imported'\n"
            "assert 'numpy' not in sys.modules, 'loaded by import'\n"
            "for argv in [['derivations', 'split-octonions-Q'],\n"
            "             ['quasiderivations', 'split-octonions-Q'],\n"
            "             ['leibniz', 'split-octonions-Q', '--order', '4'],\n"
            "             ['leibniz', 'remark22', '--order', '5']]:\n"
            "    altalg.cli.main(argv + ['--json'])\n"
            "    assert 'numpy' not in sys.modules, f'loaded by {argv}'\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
