import json

import pytest

from ffec import cli
from ffec.algebra import field_create
from ffec.catalog import e1, e7
from ffec.weierstrass import format_curve_file

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
    # a degree-2 place cutoff keeps the Euler product small; the L here has
    # degree 2, so places of higher degree only feed the slack coefficients
    f = tmp_path / "tate.curve"
    f.write_text(TATE_CURVE)
    code, records, err = run(capsys,
                             ["analyze", "--curve", str(f),
                              "--max-place-deg", "2"])
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


def test_points_rejects_char_2(capsys):
    code, records, _ = run(capsys, ["points", "--p", "2"])
    assert code == 1
    assert "p > 2" in by_kind(records, "error")[0]["message"]


def test_points_rejects_zero_iters(capsys):
    code, records, _ = run(capsys, ["points", "--p", "3", "--iters", "0"])
    assert code == 1
    assert "--iters" in by_kind(records, "error")[0]["message"]


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
