"""Naive and canonical heights, Gram ranks, torsion tests, explicit points.

The exact heights are checked against a reference that shares no height
code with them: h(2^n P) / 4^n by repeated doubling of the x-coordinate,
bracketed by its distance to the previous iterate.
"""

import itertools
import pathlib
import sys
from fractions import Fraction

import pytest

from ffec import algebra, weierstrass
from ffec.algebra import (
    FFECError, Place, Poly, RatFunc, factor_poly, field_create, parse_ratfunc, row_reduce)
from ffec.weierstrass import (
    Curve,
    CurvePoint,
    Transform,
    b_invariants,
    minimal_polynomial_model,
    parse_curve_file,
)
from ffec import heights_points
from ffec.heights_points import (
    HeightValue,
    TorsionInconclusive,
    _kernel_basis,
    canonical_height,
    circulant_rank,
    family_gram,
    gram_matrix,
    height_pairing,
    is_torsion,
    legendre_family,
    local_heights,
    naive_height,
    points_report,
)
from ffec.lfunction import analytic_rank, l_polynomial
from ffec.local import KodairaType, LocalData, curve_analysis, minimal_model_at, torsion_bound

F9 = field_create(3, 2)

# Coordinate degrees grow by a factor of 4 per doubling; this cap keeps a
# runaway reference from exhausting memory before it exhausts patience.
DEGREE_CAP = 300_000


def _deg(f):
    return f.degree if f.coeffs else 0


def doubling_height(E, P, n_iter=6):
    """Reference canonical height: (h(2^n P) / 4^n, |that - h(2^(n-1) P) /
    4^(n-1)|, n) after n = n_iter doublings of x on the polynomial model, or
    earlier once two steps quadruple the naive height exactly (the error is
    then 0), or an exact 0 once 2^n P is the point at infinity."""
    if n_iter < 1:
        raise ValueError("need at least one doubling")
    M, tau = minimal_polynomial_model(E)
    Q = tau.apply_point(P)
    b2, b4, b6, b8 = b_invariants(*(r.num for r in M.coeffs))
    two = M.field.scalar(2)
    four = M.field.scalar(4)
    X, Z = Q.x.num, Q.x.den
    hs = [max(_deg(X), _deg(Z))]
    for n in range(1, n_iter + 1):
        X2, Z2, XZ = X * X, Z * Z, X * Z
        XZ3, X2Z2 = XZ * Z2, X2 * Z2
        Xn = X2 * X2 - b4 * X2Z2 - b6 * XZ3 * two - b8 * (Z2 * Z2)
        Zn = X2 * XZ * four + b2 * X2Z2 + b4 * XZ3 * two + b6 * (Z2 * Z2)
        if Zn.is_zero():
            return Fraction(0), Fraction(0), n
        g = Xn.gcd(Zn)
        if g.degree > 0:
            Xn, Zn = Xn.exact_div(g), Zn.exact_div(g)
        X, Z = Xn, Zn
        h = max(_deg(X), _deg(Z))
        if h > DEGREE_CAP:
            raise FFECError(
                f"degree budget exceeded at doubling {n}: {h} > {DEGREE_CAP}")
        hs.append(h)
        if n >= 2 and hs[-1] > 0 and hs[-1] == 4 * hs[-2] == 16 * hs[-3]:
            return Fraction(hs[-1], 4 ** n), Fraction(0), n
    value = Fraction(hs[-1], 4 ** n_iter)
    return value, abs(value - Fraction(hs[-2], 4 ** (n_iter - 1))), n_iter


def assert_in_bracket(E, P, n_iter):
    h = canonical_height(E, P).value
    value, error, _ = doubling_height(E, P, n_iter)
    assert abs(h - value) <= error, (P, h, value, error)
    return h


def _curve(p, e, **coeffs):
    F = field_create(p, e)
    return Curve(F, **{k: parse_ratfunc(v, F) for k, v in coeffs.items()})


def _polys(F, deg):
    els = list(F.elements())
    for cs in itertools.product(els, repeat=deg + 1):
        yield Poly(F, cs)


def brute_force_points(E, dx=2, dy=3):
    """Every point with polynomial x of degree <= dx and y of degree <= dy,
    found by matching values at every t in F before the exact check."""
    F = E.field
    ts = list(F.elements())
    a1, a2, a3, a4, a6 = ([c.evaluate(t) for t in ts] for c in E.coeffs)
    ys = [(Y, [Y.evaluate(t) for t in ts]) for Y in _polys(F, dy)]
    found = []
    for X in _polys(F, dx):
        xs = [X.evaluate(t) for t in ts]
        lin = [a1[i] * x + a3[i] for i, x in enumerate(xs)]
        rhs = [x * x * x + a2[i] * x * x + a4[i] * x + a6[i]
               for i, x in enumerate(xs)]
        for Y, yv in ys:
            if all(y * y + lin[i] * y == rhs[i] for i, y in enumerate(yv)):
                P = CurvePoint(RatFunc(X), RatFunc(Y))
                if E.on_curve(P):
                    found.append(P)
    return found


# fibers from Tate's algorithm, as listed by local.bad_reduction
ADDITIVE_CURVES = [
    ((5, 1), {"a6": "t^3 + t^2"}),                      # I0*, IV, II
    ((5, 1), {"a4": "t^3", "a6": "t^2"}),               # III, IV, I5
    ((2, 1), {"a3": "t^2", "a4": "t", "a6": "t^3 + 1"}),  # IV, III
    ((2, 2), {"a3": "t^2", "a4": "t", "a6": "t^3 + 1"}),
    ((2, 1), {"a1": "1", "a6": "t^3"}),                 # I0*, I3
    ((2, 2), {"a1": "1", "a6": "t^3"}),
    ((2, 2), {"a1": "t", "a2": "1", "a6": "t^2"}),      # I4, I0*
    ((3, 1), {"a2": "1", "a4": "t^2", "a6": "t^3"}),    # I0*, I3, I1
]


@pytest.fixture(scope="module")
def fam31():
    return legendre_family(3, 1)


def _pt(field, x, y="0"):
    return CurvePoint(parse_ratfunc(x, field), parse_ratfunc(y, field))


def test_naive_height_examples(fam31):
    F5 = field_create(5)
    assert naive_height(_pt(F5, "t")) == 1
    assert naive_height(_pt(F5, "3")) == 0
    assert naive_height(_pt(F5, "(t^3+1)/(t-2)")) == 3
    # x(P(u)) = u^3(u^3-u)/(1+4u)^3 loses a factor 1+u over F_3
    assert naive_height(fam31.points[0]) == 5
    with pytest.raises(ValueError):
        naive_height(CurvePoint())


def test_canonical_height_guards(fam31):
    E = fam31.curve
    assert canonical_height(E, CurvePoint()) == HeightValue(0, 0, 0)
    h = canonical_height(E, fam31.points[0])
    assert h.error == 0 and h.iterations == 0
    with pytest.raises(ValueError):
        doubling_height(E, fam31.points[0], n_iter=0)


def test_canonical_height_fixture(fam31):
    E = fam31.curve
    for P in fam31.points:
        h = canonical_height(E, P)
        assert h.value == Fraction(3, 2)
        assert h.error == 0
    h0 = canonical_height(E, fam31.points[0])
    hneg = canonical_height(E, E.neg(fam31.points[0]))
    assert hneg.value == h0.value


def test_double_quadruples_height(fam31):
    E = fam31.curve
    for P in fam31.points[:2]:
        h = canonical_height(E, P)
        h2 = canonical_height(E, E.scalar_mul(2, P))
        assert abs(h2.value - 4 * h.value) <= 2 * (h2.error + 4 * h.error)


def test_two_torsion_short_circuit():
    # (0, 0) is 2-torsion: psi2 vanishes identically, so v(psi2) is infinite
    # at the I6 fiber at t and at the I6* fiber at infinity
    F5 = field_create(5)
    t = RatFunc.t(F5)
    E = Curve(F5, a2=1 + t ** 3, a4=t ** 3)
    P = _pt(F5, "0")
    assert canonical_height(E, P) == HeightValue(Fraction(0), Fraction(0), 0)
    assert doubling_height(E, P)[:2] == (0, 0)
    cases = {repr(v): case for v, case, _ in local_heights(E, P)[0]}
    assert cases["t"] == "b" and cases["inf"] == "d"
    assert is_torsion(E, P)


def test_degree_budget(fam31, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "DEGREE_CAP", 50)
    with pytest.raises(FFECError, match="degree budget"):
        doubling_height(fam31.curve, fam31.points[0])


def test_pairing_values(fam31):
    E, pts = fam31.curve, fam31.points
    assert height_pairing(E, pts[0], pts[0]).value == Fraction(3, 2)
    assert height_pairing(E, pts[0], pts[1]).value == 0
    assert height_pairing(E, pts[0], pts[2]).value == Fraction(-3, 2)
    assert height_pairing(E, pts[1], pts[0]).value == 0


def test_gram_fixture(fam31):
    E, pts = fam31.curve, fam31.points
    gram = gram_matrix(E, pts)
    scale = Fraction(3, 2)
    pattern = [
        [1, 0, -1, 0],
        [0, 1, 0, -1],
        [-1, 0, 1, 0],
        [0, -1, 0, 1],
    ]
    assert gram == [[scale * e for e in row] for row in pattern]
    assert len(row_reduce(gram)[1]) == 2 == fam31.d - 2
    for v in ((1, 1, 1, 1), (1, -1, 1, -1)):
        for row in gram:
            assert sum(a * x for a, x in zip(v, row)) == 0
    for v in _kernel_basis(*row_reduce(gram)[:2]):
        for row in gram:
            assert sum(a * x for a, x in zip(v, row)) == 0


def test_gram_single_point(fam31):
    assert len(row_reduce(gram_matrix(fam31.curve, [fam31.points[0]]))[1]) == 1


def test_gram_ambiguous_without_iterations(fam31):
    # one doubling brackets hhat(P_0) too loosely to single out a rational
    # of denominator <= 4 d^2, which the exact height does not need
    E, pts = fam31.curve, fam31.points
    value, error, _ = doubling_height(E, pts[0], n_iter=1)
    bound = 4 * fam31.d ** 2
    assert 2 * error >= Fraction(1, bound * bound)
    assert abs(gram_matrix(E, pts)[0][0] - value) <= error


def test_relation_sums_are_torsion(fam31):
    E, pts = fam31.curve, fam31.points
    total = CurvePoint()
    alternating = CurvePoint()
    for i, P in enumerate(pts):
        total = E.add(total, P)
        alternating = E.add(alternating, P if i % 2 == 0 else E.neg(P))
    assert alternating.is_infinity
    assert not total.is_infinity
    assert is_torsion(E, total)
    assert is_torsion(E, alternating)
    assert E.scalar_mul(torsion_bound(E), total).is_infinity


def test_family_point_is_not_torsion(fam31):
    assert not is_torsion(fam31.curve, fam31.points[0])


def test_height_zero_iff_torsion(fam31):
    E, pts = fam31.curve, fam31.points
    # 2(P0 + P2) is torsion, P0 + P1 is not
    cases = [
        (E.scalar_mul(2, E.add(pts[0], pts[2])), True),
        (E.add(pts[0], pts[1]), False),
    ]
    for P, torsion in cases:
        if P.is_infinity:
            assert torsion
            continue
        h = canonical_height(E, P)
        assert h.value >= 0
        assert (h.value == 0) == torsion
        assert is_torsion(E, P) == torsion


def test_torsion_inconclusive_is_distinct(fam31, monkeypatch):
    # a zero height that no bounded multiple confirms
    monkeypatch.setattr(heights_points, "torsion_bound", lambda E: 1)
    monkeypatch.setattr(heights_points, "canonical_height",
                        lambda E, P: HeightValue(Fraction(0), Fraction(0), 0))
    with pytest.raises(TorsionInconclusive):
        is_torsion(fam31.curve, fam31.points[0])


def test_quasi_parallelogram_defect(fam31):
    E, pts = fam31.curve, fam31.points

    def nh(P):
        return 0 if P.is_infinity else naive_height(P)

    worst = 0
    for a, b in itertools.product(range(-2, 3), repeat=2):
        P = E.scalar_mul(a, pts[0])
        Q = E.scalar_mul(b, pts[1])
        if P.is_infinity or Q.is_infinity:
            continue
        s, d = E.add(P, Q), E.add(P, E.neg(Q))
        worst = max(worst, abs(nh(s) + nh(d) - 2 * nh(P) - 2 * nh(Q)))
    assert worst <= 12


def test_legendre_family_guards():
    with pytest.raises(ValueError):
        legendre_family(2)
    with pytest.raises(ValueError):
        legendre_family(3, 0)
    with pytest.raises(FFECError, match="cap"):
        legendre_family(17, 2)


def test_legendre_family_structure(fam31):
    assert fam31.d == 4
    assert fam31.curve.field.q == 9
    assert len(fam31.points) == 4
    assert fam31.zeta ** 4 == F9.one
    assert fam31.zeta ** 2 != F9.one
    # zeta action: P_{i+1} comes from P_i by u -> zeta u
    for i in range(3):
        x_next = fam31.points[i].x.scale_var(fam31.zeta)
        assert x_next == fam31.points[i + 1].x


def test_legendre_family_p5():
    fam = legendre_family(5, 1)
    assert fam.d == 6
    assert fam.curve.field.q == 25
    assert len(fam.points) == 6
    assert all(naive_height(P) == 9 for P in fam.points)


@pytest.mark.parametrize("p, rank", [(3, 2), (5, 4)])
def test_legendre_analytic_rank_is_gram_rank(p, rank):
    # the rank half of BSD for the family: L over F_{p^2}(u), descended to
    # F_p, vanishes at T = 1/q to the order of the points' Gram rank
    fam = legendre_family(p)
    L = l_polynomial(fam.curve)
    assert analytic_rank(L) == len(row_reduce(gram_matrix(fam.curve, fam.points))[1]) == rank


@pytest.mark.parametrize("p, f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_family_gram_is_gram_matrix(p, f):
    fam = legendre_family(p, f)
    assert family_gram(fam) == gram_matrix(fam.curve, fam.points)


def test_family_gram_off_row_entries(rng):
    # d = 26 over F_625: entries away from row 0 and the diagonal, paired
    # directly, are the circulant's c_{(j - i) mod d}
    fam = legendre_family(5, 2)
    E, pts, d = fam.curve, fam.points, fam.d
    gram = family_gram(fam)
    c = gram[0]
    assert all(c[k] == c[d - k] for k in range(1, d))
    for _ in range(4):
        i, j = rng.sample(range(1, d), 2)
        assert height_pairing(E, pts[i], pts[j]).value == c[(j - i) % d] == gram[i][j]
    i = rng.randrange(1, d)
    assert canonical_height(E, pts[i]).value == c[0] == gram[i][i]


def test_circulant_rank_is_row_reduce_rank(rng):
    ranks = set()
    for d in range(1, 13):
        for _ in range(6):
            c = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(d)]
            # times x^k - 1 mod x^d - 1 for a divisor k of d: the eigenvalues
            # at the k-th roots of unity vanish (all of them when k = d)
            k = rng.choice([k for k in range(1, d + 1) if d % k == 0])
            singular = [c[(i - k) % d] - c[i] for i in range(d)]
            for row in (c, singular, [Fraction(0)] * d):
                M = [[row[(j - i) % d] for j in range(d)] for i in range(d)]
                want = len(row_reduce(M)[1])
                assert circulant_rank(row) == want, (row, want)
                assert circulant_rank([str(x) for x in row]) == want
                ranks.add((d, want))
    assert any(0 < r < d - 1 for d, r in ranks)


def test_points_report_shape(fam31):
    rep = points_report(fam31)
    assert rep["d"] == 4 and rep["q"] == 9
    assert rep["rank"] == 2
    assert len(rep["points"]) == 4
    assert set(rep["points"][0]) == {"i", "x", "y", "naive", "canonical"}
    assert rep["points"][0]["naive"] == 5
    assert rep["points"][0]["canonical"] == "3/2"
    assert rep["gram"][0][0] == "3/2"
    assert all(len(v) == 4 for v in rep["kernel"])


@pytest.mark.parametrize("p, n_iter", [(3, 6), (5, 4)])
def test_legendre_heights_in_doubling_bracket(p, n_iter, rng):
    fam = legendre_family(p)
    E, pts = fam.curve, fam.points
    want = {3: Fraction(3, 2), 5: Fraction(10, 3)}[p]
    for P in pts[:2]:
        assert assert_in_bracket(E, P, n_iter) == want
    for _ in range(2):
        i, j = rng.sample(range(fam.d), 2)
        assert_in_bracket(E, E.add(pts[i], pts[j]), n_iter)
        assert_in_bracket(E, E.add(pts[i], E.neg(pts[j])), n_iter)


def test_additive_fibers_in_doubling_bracket(rng):
    """Brute-force points, their doubles, sums and differences on curves
    with additive fibers; between them they reach every case of
    Silverman's split."""
    cases = set()
    for (p, e), coeffs in ADDITIVE_CURVES:
        E = _curve(p, e, **coeffs)
        found = brute_force_points(E)
        assert found, coeffs
        base = rng.sample(found, min(3, len(found)))
        pts = list(base)
        for P, Q in itertools.combinations(base, 2):
            pts += [E.add(P, Q), E.add(P, E.neg(Q))]
        pts += [E.scalar_mul(2, P) for P in base]
        for P in pts:
            if P.is_infinity:
                continue
            h = assert_in_bracket(E, P, 5)
            assert h >= 0
            cases.update(case for _, case, _ in local_heights(E, P)[0])
    assert cases == {"a", "b", "c", "d"}


def test_nonminimal_model_gives_same_heights():
    """Heights do not depend on the model.  Scaling by u = 1/pi and then
    translating by a unit leaves a polynomial model that is not minimal at
    pi, where E has good reduction, or not minimal at infinity."""
    E = _curve(5, 1, a6="t^3 + t^2")
    F = E.field
    found = brute_force_points(E)
    pts = found + [E.scalar_mul(2, P) for P in found[:2]] + \
        [E.add(found[0], P) for P in found[1:3]]
    for u, r, s, w in (("1/(t-2)", "1", "0", "0"),
                       ("1/(t^2+2)", "t+1", "t", "3"),
                       ("t^2+t+1", "1", "0", "0")):
        tau = Transform.make(F, u=parse_ratfunc(u, F)).then(Transform.make(
            F, r=parse_ratfunc(r, F), s=parse_ratfunc(s, F),
            w=parse_ratfunc(w, F)))
        E1 = tau.apply(E)
        nonminimal = [loc for loc in heights_points._curve_heights(E1).places
                      if loc.m > 0]
        assert nonminimal
        for P in pts:
            if not P.is_infinity:
                assert canonical_height(E1, tau.apply_point(P)) == \
                    canonical_height(E, P)


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("source", sorted(f.name for f in DATA.glob("*.curve")) +
                         ["legendre p=3", "legendre p=5"])
def test_local_models_are_the_minimal_models(source):
    """The places of S are those of curve_analysis, and each reads its
    scaling off the transform Tate's algorithm left there: m is v(u) of
    minimal_model_at's transform (plus h at infinity), and r and s are kept
    exactly when m > 0."""
    if source.startswith("legendre"):
        E = legendre_family(int(source[-1])).curve
    else:
        E = parse_curve_file((DATA / source).read_text(encoding="utf-8"))
    A = curve_analysis(E)
    places = heights_points._curve_heights(E).places
    assert [loc.place for loc in places] == [ld.place for ld in A.local]
    for loc in places:
        _, tau = minimal_model_at(A.cls.model, loc.place)
        h = A.cls.height if loc.place.is_infinite else 0
        assert loc.m == loc.place.valuation(tau.u) + h >= 0
        assert (loc.r is not None) == (loc.s is not None) == (loc.m > 0)
        if loc.m:
            assert (loc.r, loc.s) == (tau.r, tau.s)


def test_heights_build_no_model(monkeypatch):
    """Once curve_analysis is cached, the local heights apply no transform
    to a curve: every valuation is read on M."""
    E = _curve(5, 1, a6="t^3 + t^2")
    F = E.field
    tau = Transform.make(F, u=parse_ratfunc("t^2+t+1", F)).then(
        Transform.make(F, r=parse_ratfunc("t+1", F), s=parse_ratfunc("t", F)))
    E1 = tau.apply(E)
    found = brute_force_points(E)[:3]
    fam = legendre_family(3)
    cases = [(fam.curve, fam.points[:3]), (E, found),
             (E1, [tau.apply_point(P) for P in found])]
    for C, _ in cases:
        curve_analysis(C)
    heights_points._curve_heights.cache_clear()
    applied = []
    real = Transform.apply
    monkeypatch.setattr(Transform, "apply",
                        lambda self, C: applied.append(C) or real(self, C))
    for C, pts in cases:
        assert heights_points._curve_heights(C).places
        for P in pts:
            canonical_height(C, P)
    assert applied == []


# Shioda's pairing against the group law: height_pairing and family_gram
# read <P, Q> off local data, gram_matrix adds P + Q


def _grid(E, base):
    """base, the sums and differences of its first three, their negatives
    and doubles, with O left out."""
    pts = list(base)
    for P, Q in itertools.combinations(base[:3], 2):
        pts += [E.add(P, Q), E.add(P, E.neg(Q))]
    pts += [E.neg(P) for P in base[:3]] + [E.scalar_mul(2, P) for P in base[:3]]
    return [P for P in pts if not P.is_infinity]


def _no_group_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("the group law was called")
    monkeypatch.setattr(weierstrass, "ws_add", refuse)


def assert_shioda_is_gram(E, pts, monkeypatch):
    """height_pairing on every pair equals gram_matrix, computed first; the
    pairings run with the group law refused."""
    want = gram_matrix(E, pts)
    with monkeypatch.context() as m:
        _no_group_law(m)
        got = [[height_pairing(E, P, Q).value for Q in pts] for P in pts]
    assert got == want


def _meets(E, P, kinds):
    """The places of S, by Kodaira type, where P meets a component other
    than the identity's."""
    data = heights_points._curve_heights(E)
    at = heights_points._point_heights(data, P).at
    return {str(loc.type) for loc, a in zip(data.places, at)
            if a.comp is not None and loc.type.kind in kinds}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shioda_matches_group_law_on_legendre_grid(p, monkeypatch):
    fam = legendre_family(p)
    assert_shioda_is_gram(fam.curve, _grid(fam.curve, fam.points[:3]), monkeypatch)


def test_shioda_matches_group_law_on_additive_curves(monkeypatch):
    """Brute-force points on ADDITIVE_CURVES with their sums, differences,
    negatives and doubles; pairs of them meet the singular point of III,
    IV and I0* fibers together."""
    shared = set()
    for (p, e), coeffs in ADDITIVE_CURVES:
        E = _curve(p, e, **coeffs)
        pts = _grid(E, brute_force_points(E)[:6])
        assert_shioda_is_gram(E, pts, monkeypatch)
        for P, Q in itertools.combinations(pts, 2):
            shared |= _meets(E, P, ("III", "IV", "I*")) & _meets(E, Q, ("III", "IV", "I*"))
    assert shared == {"III", "IV", "I0*"}


def _poly_sqrt(f):
    """The g with g^2 = f over a field of odd characteristic, or None."""
    F = f.field
    if not f or f.degree % 2:
        return f if not f else None
    k = f.degree // 2
    top = F.sqrt(f.lc())
    if top is None:
        return None
    g = [F.zero] * k + [top]
    for i in range(k - 1, -1, -1):
        s = sum((g[a] * g[k + i - a] for a in range(i + 1, k)), F.zero)
        g[i] = (f[k + i] - s) / (2 * top)
    g = Poly(F, g)
    return g if g * g == f else None


def square_root_points(E, dx, cap):
    """Up to cap points (X, +-sqrt(X^3 + a2 X^2 + a4 X + a6)) on
    y^2 = x^3 + a2 x^2 + a4 x + a6 with polynomial X of degree <= dx."""
    F = E.field
    a2, a4, a6 = (c.num for c in (E.a2, E.a4, E.a6))
    found = []
    for X in _polys(F, dx):
        Y = _poly_sqrt(((X + a2) * X + a4) * X + a6)
        if Y is not None:
            found += [CurvePoint(RatFunc(X), RatFunc(y)) for y in {Y, -Y}]
            if len(found) >= cap:
                break
    assert all(E.on_curve(P) for P in found)
    return found


# curves y^2 = x^3 + a2 x^2 + a4 x + a6 whose points of degree <= 3 meet
# the far components of IV*, III* and I_n*, n = 1, 2, 3, 6, at t = 0, and
# the types every one of their pairs meets together
DEEP_CURVES = [
    ((7, {"a6": "2*t^4 + t^6"}), {"IV*"}),
    ((5, {"a4": "t^3", "a6": "t^5"}), {"III*"}),
    ((5, {"a2": "t", "a6": "t^4"}), {"I1*"}),
    ((5, {"a2": "t", "a4": "t^3"}), {"I2*"}),
    ((5, {"a2": "t", "a6": "t^6"}), {"I3*"}),
    ((5, {"a2": "t", "a4": "t^5"}), {"I6*", "III*"}),
]


@pytest.mark.parametrize("spec, types", DEEP_CURVES)
def test_shioda_matches_group_law_at_deep_fibers(spec, types, monkeypatch):
    """The rules for IV*, III* and I_n*, n >= 1: pairs on one component
    and on two, and on I_n* the near component with a far one."""
    p, coeffs = spec
    E = _curve(p, 1, **coeffs)
    pts = square_root_points(E, 3, 8)
    pts = _grid(E, pts[:5]) + pts[5:]
    assert_shioda_is_gram(E, pts, monkeypatch)
    shared = set()
    for P, Q in itertools.combinations(pts, 2):
        shared |= _meets(E, P, ("III*", "IV*", "I*")) & _meets(E, Q, ("III*", "IV*", "I*"))
    assert shared == types


def test_shioda_matches_group_law_on_special_pairs(monkeypatch):
    """P = Q and P = -Q, common poles off S with equal and unequal orders,
    and the I2 and I3 fibers at the place t^2 + 1 of degree 2."""
    fam = legendre_family(5)
    E, P = fam.curve, fam.points[0]
    assert height_pairing(E, P, P) == canonical_height(E, P)
    assert height_pairing(E, P, E.neg(P)).value == -canonical_height(E, P).value
    assert_shioda_is_gram(E, [P, E.neg(P), fam.points[3]], monkeypatch)
    # R = A + B has poles off S; 2R and -R share them with the same order,
    # and 3R, with p = 3, with a higher one
    E = _curve(3, 1, a2="1", a4="t^2", a6="t^3")
    A, *rest = brute_force_points(E)
    B = next(Q for Q in rest if Q.x != A.x)
    R = E.add(A, B)
    bad = curve_analysis(E).cls.model.delta.num
    off = R.x.den.exact_div(R.x.den.gcd(bad))
    assert off.degree > 0
    pts = [R, E.scalar_mul(2, R), E.neg(R), E.scalar_mul(3, R), A]
    for Q in pts[1:4]:
        assert Q.x.den.gcd(off).degree > 0
    assert_shioda_is_gram(E, pts, monkeypatch)
    for a6 in ("(t^2+1)^2", "(t^2+1)^3"):
        E = _curve(3, 1, a1="1", a6=a6)
        pts = brute_force_points(E)[:8]
        v = curve_analysis(E).local[1].place
        assert v.degree == 2
        cases = [dict((repr(w), c) for w, c, _ in local_heights(E, P)[0])[repr(v)]
                 for P in pts]
        assert cases.count("b") >= 2
        assert_shioda_is_gram(E, pts, monkeypatch)


def test_shioda_on_nonminimal_models(monkeypatch):
    """The models of test_nonminimal_model_gives_same_heights, where m > 0
    at a good place, at II and at infinity, and one scaled by 1/pi^2 for a
    good place pi where R, 2R and -R meet O: the same Gram matrix as on E."""
    E = _curve(5, 1, a6="t^3 + t^2")
    F = E.field
    found = brute_force_points(E)
    R = E.add(found[0], found[3])
    pi = factor_poly(R.x.den)[1][0][0]
    assert pi.gcd(curve_analysis(E).cls.model.delta.num).degree == 0
    pts = found[:4] + [E.scalar_mul(2, P) for P in found[:2]] + \
        [E.add(found[0], P) for P in found[1:3]] + [E.scalar_mul(2, R), E.neg(R)]
    want = gram_matrix(E, pts)
    transforms = [Transform.make(F, u=parse_ratfunc(u, F)).then(Transform.make(
        F, r=parse_ratfunc(r, F), s=parse_ratfunc(s, F), w=parse_ratfunc(w, F)))
        for u, r, s, w in (("1/(t-2)", "1", "0", "0"),
                           ("1/(t^2+2)", "t+1", "t", "3"),
                           ("t^2+t+1", "1", "0", "0"))]
    # m = 2 there, above (R.O)_v = 1, so that r and w reach (R.2R)_v
    transforms.append(Transform.make(F, u=RatFunc(Poly.one(F), pi * pi)).then(
        Transform.make(F, r=1, s=2, w=3)))
    for tau in transforms:
        E1 = tau.apply(E)
        assert any(loc.m for loc in heights_points._curve_heights(E1).places)
        pts1 = [tau.apply_point(P) for P in pts]
        assert gram_matrix(E1, pts1) == want
        assert_shioda_is_gram(E1, pts1, monkeypatch)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pairings_use_no_group_law(p, monkeypatch, rng):
    fam = legendre_family(p)
    E, pts = fam.curve, fam.points
    want = gram_matrix(E, pts)
    _no_group_law(monkeypatch)
    for _ in range(4):
        i, j = rng.sample(range(fam.d), 2)
        assert height_pairing(E, pts[i], pts[j]).value == want[i][j]
    assert family_gram(fam) == want
    assert points_report(fam)["gram"] == [[str(x) for x in row] for row in want]


@pytest.mark.parametrize("p", [5, 7])
def test_pairings_do_not_divide_by_t(p, monkeypatch):
    """The family's I_{4d} fiber is at t, where the pairings' valuations
    run deep: they are read off the low coefficients, and no list of logs
    is divided by t."""
    fam = legendre_family(p)
    E, pts = fam.curve, fam.points
    want = gram_matrix(E, pts)
    t = Poly.x(E.field)
    at_t, by_t = [], []
    log_div, valuation_poly = algebra._log_div, Place.valuation_poly

    def counting_log_div(T, cs, b):
        # [None, 0] are the logs of 0 and 1, the coefficients of t
        if b == [None, 0]:
            by_t.append(1)
        log_div(T, cs, b)

    def counting_valuation_poly(v, f):
        k = valuation_poly(v, f)
        if v.poly == t:
            at_t.append(k)
        return k

    monkeypatch.setattr(algebra, "_log_div", counting_log_div)
    monkeypatch.setattr(Place, "valuation_poly", counting_valuation_poly)
    assert [[height_pairing(E, P, Q).value for Q in pts] for P in pts] == want
    assert family_gram(fam) == want
    assert E.field._table is not None
    assert max(at_t) >= 2 * p
    assert not by_t


def test_trivial_component_groups_read_the_pole_only(monkeypatch):
    """A curve whose bad fibers are all I1, where every K-point meets the
    identity component: neither heights nor pairings form psi2, fx or
    psi3, and the heights still fall in the doubling bracket."""
    E = _curve(5, 1, a4="2*t^4 + t^3 + 4*t^2 + 4*t + 1",
               a6="3*t^6 + 4*t^4 + 4*t^2 + 3*t + 4")
    assert {str(ld.type) for ld in curve_analysis(E).local} == {"I1"}
    assert all(loc.trivial for loc in heights_points._curve_heights(E).places)
    pts = [P for P in brute_force_points(E) if naive_height(P)][:4]
    assert len(pts) == 4
    want = gram_matrix(E, pts)

    def refuse(self):
        raise AssertionError("a valuation the pole term does not need")

    for name in ("psi2", "fx", "psi3"):
        monkeypatch.setattr(heights_points._OnM, name, property(refuse))
    for P in pts:
        assert_in_bracket(E, P, 4)
    assert [[height_pairing(E, P, Q).value for Q in pts] for P in pts] == want


@pytest.mark.parametrize("kind, n, split, trivial", [
    ("I", 1, True, True), ("I", 3, False, True), ("I", 3, True, False),
    ("I", 4, False, False), ("II", 0, None, True), ("II*", 0, None, True),
    ("IV", 0, False, True), ("IV", 0, True, False), ("IV*", 0, False, True),
    ("I*", 0, None, True), ("I*", 0, False, False), ("I*", 1, False, False),
    ("III", 0, None, False), ("III*", 0, None, False)])
def test_trivial_components(kind, n, split, trivial):
    ld = LocalData(Place.infinite(F9), KodairaType(kind, n), 0, 0, split, 0, 0, None)
    assert heights_points._trivial_components(ld) == trivial
