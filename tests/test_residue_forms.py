"""The residue questions of Tate's algorithm in closed form, checked against
factoring: the quadratic verdicts, the multiple root of a cubic (the
singular point, the I0* cubic) and the I0* root count, over every field
with q <= 64, sampled F_{2^16} and fields above the cap, with and without
tables; and analyze at places of degree 100 with no factoring over them."""

import json

import pytest

import ffec
from ffec import cli, local
from ffec.algebra import Fq, Place, Poly, factor_poly, field_create
from ffec.local import _cubic_multiple_root, _quad_verdict, _root_count, _singular_point
from test_field_tables import SMALL, _residue_field


def roots_by_factoring(f):
    """The oracle: the roots of f in its field with multiplicities, from
    factor_poly."""
    return [(-g.coeffs[0], m) for g, m in factor_poly(f)[1] if g.degree == 1]


def quad_by_factoring(K, c2, c1, c0):
    roots = roots_by_factoring(Poly(K, [c0, c1, c2]))
    if roots and roots[0][1] == 2:
        return None, roots[0][0]
    return len(roots) == 2, None


def cubic_by_factoring(f):
    roots = roots_by_factoring(f)
    r, m = max(roots, key=lambda rm: rm[1], default=(None, 1))
    return (m, r if m > 1 else None), len(roots)


def without_table(F):
    """A copy of F that never builds its table, so its elements have no
    log: the closed forms take the routes of fields above the cap."""
    K = Fq(F.p) if F.base is None else Fq(base=F.base, modulus=F.modulus)
    K._ops_left = -1
    return K


def random_element(K, rng, nonzero=False):
    while True:
        x = K._make(rng.randrange(K.q))
        if x or not nonzero:
            return x


def monic_cubic(K, rng, shape):
    """A monic cubic over K with a root pattern: 'any' (random
    coefficients), 'double' or 'triple'."""
    Y = Poly.x(K)
    r, s = random_element(K, rng), random_element(K, rng)
    if shape == "triple":
        return (Y - r) ** 3
    if shape == "double":
        return (Y - r) ** 2 * (Y - s)
    return Poly(K, [random_element(K, rng) for _ in range(3)] + [K.one])


def check_field(K, rng, n):
    for _ in range(n):
        c2 = random_element(K, rng, nonzero=True)
        c1, c0 = random_element(K, rng), random_element(K, rng)
        assert _quad_verdict(K, c2, c1, c0) == quad_by_factoring(K, c2, c1, c0), \
            (K, c2, c1, c0)
        # a double root on purpose: c2 (Y - r)^2
        r = random_element(K, rng)
        c1, c0 = -2 * c2 * r, c2 * r * r
        assert _quad_verdict(K, c2, c1, c0) == (None, r), (K, c2, r)
    for shape in ("any", "double", "triple"):
        for _ in range(n):
            f = monic_cubic(K, rng, shape)
            multiple, count = cubic_by_factoring(f)
            assert _cubic_multiple_root(K, f) == multiple, (K, f)
            if multiple[0] == 1:
                assert _root_count(K, f) == count, (K, f)


def singular_curve(K, rng):
    """Coefficients of a Weierstrass cubic over K singular at a random
    point (x0, y0): the equation and both partial derivatives vanish
    there, so (x0, y0) is its one singular point."""
    x0, y0, a1, a2 = (random_element(K, rng) for _ in range(4))
    a3 = -2 * y0 - a1 * x0
    a4 = a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0
    a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
    return (a1, a2, a3, a4, a6), (x0, y0)


def check_singular_points(K, rng, n):
    for _ in range(n):
        a, point = singular_curve(K, rng)
        assert _singular_point(K, *a) == point, (K, a)
        if K.p != 2:
            # the x-cubic's multiple root, as factoring finds it
            b2, b4, b6 = a[0] ** 2 + 4 * a[1], 2 * a[3] + a[0] * a[2], a[2] ** 2 + 4 * a[4]
            roots = roots_by_factoring(Poly(K, [b6, 2 * b4, b2, 4]))
            assert point[0] in [r for r, m in roots if m >= 2], (K, a)


@pytest.mark.parametrize("p,e", SMALL)
def test_closed_forms_match_factoring_small_fields(p, e, rng):
    F = field_create(p, e)
    F.zech()
    for K in (F, without_table(F)):
        check_field(K, rng, 12)
        check_singular_points(K, rng, 12)


def test_closed_forms_match_factoring_sampled_large_fields(rng):
    fields = [field_create(2, 16), _residue_field(field_create(2, 2), 9),
              _residue_field(field_create(3), 11), _residue_field(field_create(7), 6)]
    assert fields[0].zech() and all(K.q > 1 << 16 for K in fields[1:])
    for K in fields:
        check_field(K, rng, 6)
        check_singular_points(K, rng, 6)


def test_closed_forms_at_a_degree_100_place(rng):
    F2 = field_create(2)
    K = Place.finite(Poly.x(F2) ** 100 + Poly.x(F2) ** 37 + 1).residue_field()
    for _ in range(3):
        c1, c0 = random_element(K, rng, nonzero=True), random_element(K, rng)
        assert _quad_verdict(K, K.one, c1, c0) == quad_by_factoring(K, K.one, c1, c0)
    r = random_element(K, rng)
    assert _quad_verdict(K, K.one, K.zero, r * r) == (None, r)
    f = monic_cubic(K, rng, "double")
    assert _cubic_multiple_root(K, f) == cubic_by_factoring(f)[0]
    check_singular_points(K, rng, 3)


T101 = """\
p = 2
e = 1
a1 = t^101
a3 = 1
"""


def test_analyze_t101_factors_only_over_f2(tmp_path, capsys, monkeypatch):
    """Three I1 places of degree 100: Tate's algorithm decides them with no
    factoring over their residue fields, and the run ends at its cap."""
    real = ffec.algebra.factor_poly

    def factor_poly_over_f2(f):
        if f.field is not field_create(2):
            raise AssertionError(f"factor_poly over {f.field}")
        return real(f)
    for module in (ffec.algebra, local, ffec.weierstrass):
        monkeypatch.setattr(module, "factor_poly", factor_poly_over_f2)
    local.curve_analysis.cache_clear()
    local._tate_local.cache_clear()
    f = tmp_path / "t101.curve"
    f.write_text(T101)
    code = cli.main(["analyze", "--curve", str(f)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert [r for r in records if r["record"] == "error"] == [
        {"message": "cap: cannot count points at places of degree 17: q_v = 131072",
         "record": "error"}]
    local_data = [r for r in records if r["record"] == "localdata"]
    assert [(r["degree"], r["kodaira"], r["split"]) for r in local_data] == [
        (1, "I909", True), (1, "I1", False), (2, "I1", True),
        (100, "I1", True), (100, "I1", True), (100, "I1", True)]
