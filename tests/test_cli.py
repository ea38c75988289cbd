import argparse
import collections
import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import ffec
from ffec import cli, local, weierstrass
from ffec.algebra import field_create, row_reduce
from ffec.berger import BergerData
from ffec.catalog import e1, e7
from ffec.weierstrass import base_change_pow, format_curve_file

TATE_CURVE = """\
p = 5
e = 1
a2 = 1 + t^3
a4 = t^3
"""


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


def by_kind(records, kind):
    return [r for r in records if r["record"] == kind]


def test_analyze_full_report(tmp_path, capsys):
    f = tmp_path / "tate.curve"
    f.write_text(TATE_CURVE)
    code, records, err = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 0
    meta = by_kind(records, "meta")[0]
    assert meta["command"][0] == "analyze"
    assert len(meta["input_sha256"]) == 64
    assert meta["versions"]["ffec"]
    cls = by_kind(records, "classification")[0]
    assert cls["constant"] is False and cls["height"] == 2
    kodairas = {r["place"]: r["kodaira"] for r in by_kind(records, "localdata")}
    assert kodairas["t"] == "I6"
    assert kodairas["t+4"] == "I2"
    assert kodairas["t^2+t+1"] == "I2"
    assert kodairas["inf"] == "I6*"
    cond = by_kind(records, "conductor")[0]
    assert cond["deg"] == 6
    lrep = by_kind(records, "lreport")[0]
    assert lrep["N"] == cond["deg"] - 4
    assert lrep["rh"] is True
    assert by_kind(records, "summary")[0]["ok"] is True


def test_analyze_constant_routed(tmp_path, capsys):
    f = tmp_path / "const.curve"
    f.write_text(format_curve_file(e1(field_create(5))))
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 0
    lrep = by_kind(records, "lreport")[0]
    assert lrep["constant"] is True
    assert lrep["l_reciprocal_factors"]


def test_analyze_singular_model(tmp_path, capsys):
    f = tmp_path / "sing.curve"
    f.write_text("p = 5\ne = 1\na4 = 0\n")
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 1
    assert "not an elliptic curve" in by_kind(records, "error")[0]["message"]


def test_analyze_parse_error_has_line(tmp_path, capsys):
    f = tmp_path / "bad.curve"
    f.write_text("p = 5\ne = 1\na4 = t^^2\n")
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 1
    msg = by_kind(records, "error")[0]["message"]
    assert "line 3" in msg and "position" in msg


def test_analyze_missing_file(capsys):
    code, records, _ = run(capsys, ["analyze", "--curve", "/nonexistent.curve"])
    assert code == 1
    assert by_kind(records, "error")


@pytest.fixture
def e7_file(tmp_path):
    f = tmp_path / "e7.curve"
    f.write_text(format_curve_file(e7(field_create(2))))
    return str(f)


def test_tower_identity_layer(e7_file, capsys):
    code, records, _ = run(capsys, ["tower", "--curve", e7_file, "--d", "1"])
    assert code == 0
    tower_l = by_kind(records, "lreport")[0]
    code, records, _ = run(capsys, ["analyze", "--curve", e7_file])
    assert code == 0
    base_l = by_kind(records, "lreport")[0]
    assert (tower_l["coeffs"], tower_l["N"], tower_l["q"]) == \
        (base_l["coeffs"], base_l["N"], base_l["q"])


def test_tower_bad_d(e7_file, capsys):
    code, records, _ = run(capsys, ["tower", "--curve", e7_file, "--d", "2"])
    assert code == 1
    assert "characteristic" in by_kind(records, "error")[0]["message"]


def test_tower_scan(e7_file, capsys):
    code, records, _ = run(capsys,
                           ["tower", "--curve", e7_file, "--scan", "1"])
    assert code == 0
    rows = by_kind(records, "towerscan")
    assert [r["field"] for r in rows] == ["F_d", "K_d"]
    assert all(r["d"] == 3 for r in rows)
    summary = by_kind(records, "towersummary")[0]
    assert summary["c_obs"] == 1.5


def test_tower_mu_single_layer(e7_file, capsys):
    code, records, _ = run(capsys,
                           ["tower", "--curve", e7_file, "--d", "3", "--mu"])
    assert code == 0
    assert by_kind(records, "lreport")[0]["q"] == 4


def test_points_fixture(capsys):
    code, records, _ = run(capsys, ["points", "--p", "3"])
    assert code == 0
    pts = by_kind(records, "point")
    assert len(pts) == 4
    assert all(r["canonical"] == "3/2" and r["naive"] == 5 for r in pts)
    gram = by_kind(records, "gram")[0]
    assert gram["rank"] == 2
    assert len(gram["kernel"]) == 2


def test_points_checks_the_rank_as_a_circulant(capsys, monkeypatch):
    seen = []

    def wrong(row):
        seen.append(list(row))
        return 3
    monkeypatch.setattr(cli, "circulant_rank", wrong)
    code, records, err = run(capsys, ["points", "--p", "3"])
    assert seen == [by_kind(records, "gram")[0]["matrix"][0]]
    assert code == 1 and "circulant rank" in err
    assert by_kind(records, "summary")[0]["ok"] is False


def test_analyze_fails_when_rh_fails(tmp_path, capsys, monkeypatch):
    f = tmp_path / "tate.curve"
    f.write_text(TATE_CURVE)
    monkeypatch.setattr(cli, "check_rh", lambda L: False)
    code, records, err = run(capsys, ["analyze", "--curve", str(f)])
    assert by_kind(records, "lreport")[0]["rh"] is False
    assert code == 1 and "inverse roots of L are not all on |alpha| = q" in err
    assert by_kind(records, "summary")[0]["ok"] is False


# y^2 + t y = x^3 + t over F_2: type II at t with n_v = 4, a wild part of 2
WILD_CURVE = """\
p = 2
e = 1
a3 = t
a6 = t
"""


@pytest.mark.parametrize("curve, place, kodaira, by, ok", [
    (TATE_CURVE, "inf", "I6*", 0, True),
    # over F_5 the wild part is 0: n_v above the tame part fails
    (TATE_CURVE, "inf", "I6*", 1, False),
    (TATE_CURVE, "t", "I6", 1, False),
    (TATE_CURVE, "t+4", "I2", -1, False),
    # over F_2 a wild part may come on top of the tame part, never below it
    (WILD_CURVE, "t", "II", 0, True),
    (WILD_CURVE, "t", "II", 1, True),
    (WILD_CURVE, "t", "II", -2, True),
    (WILD_CURVE, "t", "II", -3, False),
])
def test_analyze_checks_conductor_exponents_against_tame_parts(
        tmp_path, capsys, monkeypatch, curve, place, kodaira, by, ok):
    f = tmp_path / "c.curve"
    f.write_text(curve)
    real = cli.curve_analysis

    def shifted(E):
        # cmd_analyze reads n_v + by at the bad place named place
        A = real(E)
        bad = tuple(dataclasses.replace(ld, n_v=ld.n_v + by)
                    if repr(ld.place) == place else ld for ld in A.bad)
        return dataclasses.replace(A, bad=bad)
    monkeypatch.setattr(cli, "curve_analysis", shifted)
    code, records, err = run(capsys, ["analyze", "--curve", str(f)])
    ld = [r for r in by_kind(records, "localdata") if r["place"] == place]
    assert [r["kodaira"] for r in ld] == [kodaira]
    assert (code == 0) == ok
    assert (f"conductor exponent {ld[0]['n_v']} at {place} is not" in err) != ok


def test_berger_fails_on_violated_hypotheses(capsys, monkeypatch):
    monkeypatch.setattr(BergerData, "check_hypotheses",
                        lambda self: ["planted violation"])
    code, records, err = run(capsys, ["berger", "--catalog", "first-example",
                                      "--params", "p=3"])
    assert by_kind(records, "hypotheses")[0]["violations"] == ["planted violation"]
    assert code == 1 and "FAILED: planted violation" in err


def test_berger_fails_on_negative_genus(capsys, monkeypatch):
    monkeypatch.setattr(cli, "genus", lambda data: -1)
    code, records, err = run(capsys, ["berger", "--catalog", "first-example",
                                      "--params", "p=3"])
    assert by_kind(records, "berger_divisor")[0]["genus"] == -1
    assert code == 1 and "FAILED: negative genus" in err


def test_points_rejects_char_2(capsys):
    code, records, _ = run(capsys, ["points", "--p", "2"])
    assert code == 1
    assert "p > 2" in by_kind(records, "error")[0]["message"]


def test_points_p5(capsys):
    code, records, _ = run(capsys, ["points", "--p", "5"])
    assert code == 0
    pts = by_kind(records, "point")
    assert len(pts) == 6
    assert all(r["canonical"] == "10/3" and r["naive"] == 9 for r in pts)
    gram = by_kind(records, "gram")[0]
    assert gram["matrix"][0][0] == "10/3"
    assert gram["rank"] == 4
    kernel = [[Fraction(x) for x in v] for v in gram["kernel"]]
    want = [[Fraction(x) for x in v]
            for v in ((1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1))]
    assert len(row_reduce(kernel)[1]) == len(row_reduce(want)[1]) == \
        len(row_reduce(kernel + want)[1]) == 2


def test_points_rejects_zero_iters(capsys):
    # the doubling count is gone: --iters is an unknown argument
    code, records, _ = run(capsys, ["points", "--p", "3", "--iters", "0"])
    assert code == 1
    assert "unrecognized arguments: --iters 0" in \
        by_kind(records, "error")[0]["message"]


@pytest.mark.parametrize("argv, message", [
    (["points", "--p", "x"], "invalid int value"),
    (["points", "--p", "3", "--tol", "1"], "unrecognized arguments"),
    (["berger", "--catalog", "first-example", "--max-place-deg", "2"],
     "unrecognized arguments"),
    (["tower", "--curve", "c.curve"], "one of the arguments --d --scan"),
    ([], "required: subcommand"),
    (["analyze", "--curve", "c.curve", "--max-place-deg", "2"],
     "unrecognized arguments: --max-place-deg 2"),
    (["tower", "--curve", "c.curve", "--d", "3", "--max-place-deg", "2"],
     "unrecognized arguments: --max-place-deg 2"),
], ids=["bad-int", "points-tol", "berger-max-place-deg", "tower-no-layer",
        "no-subcommand", "analyze-max-place-deg", "tower-max-place-deg"])
def test_usage_errors_are_records(capsys, argv, message):
    code, records, _ = run(capsys, argv)
    assert code == 1
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    assert message in by_kind(records, "error")[0]["message"]


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_empty_scan_is_an_error(e7_file, capsys, n_max):
    code, records, _ = run(capsys, ["tower", "--curve", e7_file, "--scan", n_max])
    assert code == 1
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    assert "n_max >= 1" in by_kind(records, "error")[0]["message"]


def test_analyze_runs_one_analysis(tmp_path, capsys, monkeypatch):
    # e7 at t = u^5 over F_2 has four candidate places: inf, u, u + 1 and
    # one of degree 4
    E = base_change_pow(e7(field_create(2)), 5)
    f = tmp_path / "e7u5.curve"
    f.write_text(format_curve_file(E))
    delta = weierstrass.minimal_polynomial_model(E)[0].delta.num
    seen = collections.defaultdict(list)

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            seen[name].append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    spy(weierstrass, "minimal_polynomial_model")
    spy(local, "factor_poly")
    spy(local, "tate_type")
    local.curve_analysis.cache_clear()
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 0
    assert by_kind(records, "conductor")[0]["deg"] == 8
    assert len(seen["minimal_polynomial_model"]) == 1
    assert sum(g == delta for g, in seen["factor_poly"]) == 1
    assert sorted(repr(v) for _, v in seen["tate_type"]) == \
        ["inf", "t", "t+1", "t^4+t^3+t^2+t+1"]


def test_import_leaves_sympy_out():
    """No command imports sympy: with every import of it made to fail, the
    scan still matches its recording and the other commands exit 0."""
    src = os.path.dirname(os.path.dirname(ffec.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = f"""
import sys
import ffec, ffec.cli
assert "sympy" not in sys.modules
sys.modules["sympy"] = None
sys.path.insert(0, {tests!r})
from test_golden import report
print(report(["tower", "--curve", "e9-f2.curve", "--scan", "2"]), end="")
report(["tower", "--curve", "e7-f2.curve", "--d", "9", "--mu"])
report(["analyze", "--curve", "e7-f2.curve"])
report(["points", "--p", "3"])
"""
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    want = (pathlib.Path(tests) / "data" / "tower-e9-f2-scan2.jsonl").read_text(encoding="utf-8")
    assert out.stdout == want


def test_import_leaves_zfactor_out():
    """zfactor is imported where a factorization or an RH check runs, so
    importing ffec and its command line does not load it."""
    src = os.path.dirname(os.path.dirname(ffec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, ffec, ffec.cli\nassert 'ffec.zfactor' not in sys.modules\n"
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_meta_digest_leaves_openssl_out():
    """The meta record's input_sha256 is the SHA-256 of the input; where
    CPython has its own SHA-256 module, a command computes it without
    hashlib, which would load OpenSSL's libcrypto for one small digest."""
    src = os.path.dirname(os.path.dirname(ffec.__file__))
    curve = pathlib.Path(__file__).parent / "data" / "e9-f2.curve"
    env = dict(os.environ, PYTHONPATH=src)
    script = f"""
import contextlib, io, json, sys
from ffec import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["tower", "--curve", {str(curve)!r}, "--d", "3"]) == 0
meta = json.loads(out.getvalue().splitlines()[0])
print(json.dumps([meta["input_sha256"], "_hashlib" in sys.modules]))
"""
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    digest, openssl = json.loads(out.stdout)
    assert digest == hashlib.sha256(curve.read_text(encoding="utf-8").encode()).hexdigest()
    if importlib.util.find_spec("_sha256") is not None:
        assert not openssl


def test_python_m_ffec():
    src = os.path.dirname(os.path.dirname(ffec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ffec", "points", "--p", "3"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert records[-1]["record"] == "summary" and records[-1]["ok"] is True
    assert by_kind(records, "gram")[0]["rank"] == 2


@pytest.mark.parametrize("argv, curve", [
    (["analyze"], "p = 2305843009213693951\ne = 1\na6 = t\n"),
    (["analyze"], "p = 3\ne = 1000000000\na6 = t\n"),
    (["points", "--p", "2305843009213693951"], None),
    (["points", "--p", "3", "--f", "1000000000"], None),
], ids=["analyze-p-2^61-1", "analyze-e-1e9", "points-p-2^61-1", "points-f-1e9"])
def test_huge_fields_end_in_cap_records(tmp_path, argv, curve):
    """The cap is decided before trial division up to sqrt(p) and before
    p^e is formed; a subprocess with a timeout turns a hang into a
    failure."""
    if curve is not None:
        f = tmp_path / "huge.curve"
        f.write_text(curve)
        argv = argv + ["--curve", str(f)]
    src = os.path.dirname(os.path.dirname(ffec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ffec", *argv], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 1, out.stderr
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    assert records[1]["message"].startswith("cap: ")


@pytest.mark.parametrize("a6", ["(" * 300 + "t" + ")" * 300, "-" * 300 + "t"],
                         ids=["parentheses", "signs"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, a6):
    f = tmp_path / "deep.curve"
    f.write_text(f"p = 5\ne = 1\na6 = {a6}\n")
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 1
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    msg = records[1]["message"]
    assert msg.startswith("parse: line 3") and "nested deeper" in msg


def test_moderate_nesting_parses(tmp_path, capsys):
    f = tmp_path / "nested.curve"
    f.write_text("p = 5\ne = 1\na6 = " + "(" * 90 + "t" + ")" * 90 + "\n")
    code, records, _ = run(capsys, ["analyze", "--curve", str(f)])
    assert code == 0
    assert by_kind(records, "classification")[0]["curve"] == \
        "Curve(F_5(t); 0, 0, 0, 0, t)"


def test_points_unknown_family(capsys):
    code, records, _ = run(capsys, ["points", "--p", "3", "--family", "weird"])
    assert code == 1


def test_berger_catalog_first_example(capsys):
    code, records, _ = run(capsys,
                           ["berger", "--catalog", "first-example",
                            "--params", "p=3"])
    assert code == 0
    assert by_kind(records, "berger")[0]["c1"] == 0
    div = by_kind(records, "berger_divisor")[0]
    assert div["genus"] == 1 and div["c2"] == 0


def test_berger_catalog_l4(capsys):
    code, records, _ = run(capsys,
                           ["berger", "--catalog", "berger-L4",
                            "--params", "p=7", "a=3"])
    assert code == 0
    assert by_kind(records, "berger")[0]["nprime_deg"] == 3
    assert by_kind(records, "berger_divisor")[0]["genus"] == 1


def test_berger_catalog_missing_param(capsys):
    code, records, _ = run(capsys,
                           ["berger", "--catalog", "berger-L4",
                            "--params", "p=7"])
    assert code == 1
    code, records, _ = run(capsys, ["berger", "--catalog", "first-example"])
    assert code == 1


def test_berger_data_file(tmp_path, capsys):
    f = tmp_path / "d.divisors"
    f.write_text("f: 1@0 1@inf / 1@1 1@-1\ng: 1@0 1@1 / 2@inf\n")
    code, records, _ = run(capsys,
                           ["berger", "--data", str(f), "--p", "3"])
    assert code == 0
    div = by_kind(records, "berger_divisor")[0]
    assert div["genus"] == 1 and div["c2"] == 0


def test_berger_data_malformed(tmp_path, capsys):
    f = tmp_path / "bad.divisors"
    f.write_text("f: 1@0 1@inf\ng: 1@0 / 1@inf\n")
    code, records, _ = run(capsys, ["berger", "--data", str(f)])
    assert code == 1
    assert "missing '/'" in by_kind(records, "error")[0]["message"]


def test_berger_data_hypothesis_violation(tmp_path, capsys):
    f = tmp_path / "d.divisors"
    f.write_text("f: 1@0 1@inf / 1@1 1@-1\ng: 1@0 1@1 / 2@inf\n")
    code, records, _ = run(capsys, ["berger", "--data", str(f), "--p", "2"])
    assert code == 1
    hyp = by_kind(records, "hypotheses")[0]
    assert hyp["ok"] is False and hyp["violations"]


def _strip_seconds(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def test_reports_deterministic(e7_file, capsys):
    argv = ["tower", "--curve", e7_file, "--scan", "1"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert _strip_seconds(first) == _strip_seconds(second)
    argv = ["analyze", "--curve", e7_file]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert _strip_seconds(first) == _strip_seconds(second)


def test_readme_synopsis_matches_parser():
    # the README's synopsis block names every flag of every subcommand
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(ffec analyze .*?)```", readme, re.S).group(1)
    documented = {line.split()[1]: set(re.findall(r"--[a-z][\w-]*", line))
                  for line in block.splitlines()}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actual = {name: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
              for name, p in subparsers.choices.items()}
    assert documented == actual
