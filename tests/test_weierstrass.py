"""Curve models: invariants, transforms, the group law, classification."""

import pytest

from ffec import catalog, weierstrass
from ffec.algebra import (
    FFECError,
    ParseError,
    Place,
    Poly,
    RatFunc,
    factor_poly,
    field_create,
    format_ratfunc,
    iter_monic_irreducibles,
)
from ffec.weierstrass import (
    Curve,
    CurvePoint,
    NotEllipticError,
    Transform,
    b_invariants,
    base_change_pow,
    c_invariants,
    classify,
    constant_embedding,
    discriminant,
    format_curve_file,
    has_p_torsion,
    hasse_invariant,
    minimal_polynomial_model,
    parse_curve_file,
    translate,
)
from ffec.heights_points import legendre_family
from ffec.lfunction import _descend_curve, _subfield_exponent, l_polynomial
from oracles import extend_constants, frobenius_twist

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)
F5 = field_create(5)
F7 = field_create(7)


def rand_rf(F, rng, allow_zero=False):
    num = Poly(F, [F.scalar(rng.randrange(F.q)) for _ in range(rng.randrange(1, 4))])
    den = Poly(F, [F.scalar(rng.randrange(F.q)) for _ in range(rng.randrange(0, 2))] + [F.one])
    if num.is_zero() and not allow_zero:
        num = Poly.one(F)
    return RatFunc(num, den)


def test_invariant_fixtures():
    t = RatFunc.t(F5)
    E = catalog.e7(F5)
    assert E.delta == t**3 * (1 - 27 * t)
    assert c_invariants(*E.coeffs)[0] == 1 - 24 * t

    t2 = RatFunc.t(F2)
    assert catalog.e8(F2).delta == t2**2 * (1 - 64 * t2)
    assert catalog.e9(F2).delta == -t2 * (1 + 432 * t2)
    assert c_invariants(*catalog.e9(F2).coeffs)[0] == RatFunc.one(F2)

    fe = catalog.first_example(F3)
    t3 = RatFunc.t(F3)
    assert fe.delta == t3**4 * (1 - 16 * t3)
    assert c_invariants(*fe.coeffs)[0] == 1 - 16 * t3 + 16 * t3**2


def test_l4_discriminant():
    t = RatFunc.t(F7)
    a = RatFunc.from_const(F7.scalar(3))
    E = catalog.berger_l4(F7, 3)
    quad = a * a * t * t - (2 * a * a - 16 * a + 16) * t + a * a
    assert E.delta == a * a * (a - 1) ** 4 * t**4 * (t - 1) ** 2 * quad
    with pytest.raises(ValueError):
        catalog.berger_l4(F7, 1)
    with pytest.raises(ValueError):
        catalog.berger_l4(F7, 2)


def test_invariant_identities():
    curves = [
        catalog.e7(F5),
        catalog.e8(F3),
        catalog.e9(F2),
        catalog.first_example(F2),
        catalog.berger_l4(F7, 3),
        catalog.second_example(F5),
    ]
    for E in curves:
        b2, b4, b6, b8 = b_invariants(*E.coeffs)
        c4, c6 = c_invariants(*E.coeffs)
        assert 4 * b8 == b2 * b6 - b4 * b4
        assert c4**3 - c6**2 == 1728 * E.delta


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F7, field_create(2, 3), field_create(3, 2)],
                         ids=repr)
def test_curve_delta_matches_ratfunc_discriminant(F, rng):
    """Curve.delta, taken on the coefficients cleared of their denominators
    or carried along from the curve another one is derived from, is the
    discriminant in RatFunc arithmetic.  The curves are models with
    rational coefficients (random transforms with rational u, r, s and w),
    base-change layers of both, and descents back to F of their extensions
    to F_{q^2} after a further transform, and a base change, up there;
    classify's c4 and c6, taken on cleared coefficients, are those of
    RatFunc arithmetic too."""
    FK = field_create(F.p, 2 * F.e)
    embed = constant_embedding(F, FK)
    d_up = 2 if F.p == 3 else 3
    curves = []
    for E in (catalog.e7(F), _dense_curve(F)):
        for _ in range(4):
            E2 = _rand_transform(F, rng).apply(E)
            curves.append(E2)
            for d in (2, 3, 5):
                if d % F.p:
                    curves += [base_change_pow(E, d), base_change_pow(E2, d)]
            EK = extend_constants(E2, 2)
            assert _descend_curve(EK, F.e) == E2
            tau = _rand_transform(F, rng).map(lambda r: r.map_coeffs(embed, FK))
            XK = tau.apply(EK)
            for X in (XK, base_change_pow(XK, d_up)):
                down = _descend_curve(X, F.e)
                assert down.field is F
                curves.append(down)
    assert any(a.den.degree for E in curves for a in E.coeffs)
    for E in curves:
        assert E.delta == discriminant(*E.coeffs)
        c4, c6 = c_invariants(*E.coeffs)
        assert c4**3 - c6**2 == 1728 * E.delta
        cls = classify(E)
        assert (cls.c4, cls.c6) == (c4, c6)


def test_derived_curves_compute_no_discriminant(monkeypatch):
    """Only a curve built from given coefficients computes its
    discriminant: base change, a change of coordinates and the descent in
    l_polynomial carry it through the same map as the coefficients."""
    t = RatFunc.t(F4)
    E = catalog.first_example(F4)
    tau = Transform.make(F4, u=t + 1, r=t, s=1, w=t * t)

    def computed(*a):
        raise AssertionError("discriminant computed")

    with monkeypatch.context() as m:
        m.setattr(weierstrass, "discriminant", computed)
        with pytest.raises(AssertionError, match="discriminant computed"):
            Curve(F4, a1=1, a6=t)
        layer = base_change_pow(E, 3)
        moved = tau.apply(E)
        model = classify(moved).model
        L = l_polynomial(E)
        L_moved = l_polynomial(moved)
    assert _subfield_exponent(E) == 1
    for X in (layer, moved, model):
        assert X.delta == discriminant(*X.coeffs)
    assert L == L_moved == l_polynomial(E, descend=False)


def test_singular_model_rejected():
    t = RatFunc.t(F5)
    with pytest.raises(NotEllipticError):
        Curve(F5)  # y^2 = x^3
    with pytest.raises(NotEllipticError):
        Curve(F5, a4=-3 * t**2, a6=2 * t**3)  # double root at x = t


def test_string_coefficients():
    t = RatFunc.t(F5)
    E = Curve(F5, a2="1 + t^3", a4="t^3")
    assert E.a2 == t**3 + 1 and E.a4 == t**3
    with pytest.raises(ParseError):
        Curve(F5, a4="t^^3")


def test_transform_covariance(rng):
    for F in (F2, F3, F5):
        E = catalog.e7(F)
        for _ in range(6):
            tau = Transform.make(
                F, u=rand_rf(F, rng), r=rand_rf(F, rng, True),
                s=rand_rf(F, rng, True), w=rand_rf(F, rng, True),
            )
            E2 = tau.apply(E)
            (c4, c6), (c4_2, c6_2) = c_invariants(*E.coeffs), c_invariants(*E2.coeffs)
            assert E2.delta == E.delta / tau.u**12
            assert c4_2 == c4 / tau.u**4
            assert c6_2 == c6 / tau.u**6
            assert classify(E2).j == classify(E).j


def _rand_transform(F, rng):
    return Transform.make(
        F, u=rand_rf(F, rng), r=rand_rf(F, rng, True),
        s=rand_rf(F, rng, True), w=rand_rf(F, rng, True),
    )


def _apply_all_at_once(tau, E):
    """The coefficients of tau.apply(E) from the closed formulas."""
    u, r, s, w = tau.u, tau.r, tau.s, tau.w
    a1, a2, a3, a4, a6 = E.coeffs
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * w) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (w + r * s) * a1 + 3 * r * r
         - 2 * s * w) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - w * a3 - w * w
         - r * w * a1) / u ** 6,
    )


ALGEBRA_FIELDS = [F2, F3, F4, F5, F7]


def _dense_curve(F):
    """A polynomial model with all five coefficients nonzero."""
    return Curve(F, a1="t + 1", a2="t", a3="t^2", a4="t^3 + 1", a6="t^4 + t")


@pytest.mark.parametrize("F", ALGEBRA_FIELDS, ids=repr)
def test_translate_and_apply_match_closed_formulas(F, rng):
    E = _dense_curve(F)
    for _ in range(6):
        tau = _rand_transform(F, rng)
        assert tau.apply(E).coeffs == _apply_all_at_once(tau, E)
        unit = Transform(RatFunc.one(F), tau.r, tau.s, tau.w)
        assert translate(E.coeffs, tau.r, tau.s, tau.w) == _apply_all_at_once(unit, E)
    # zero shifts are skipped, and leave the coefficients as they are
    zero = RatFunc.zero(F)
    assert translate(E.coeffs, zero, zero, zero) == E.coeffs


def test_transform_group(rng):
    for F in ALGEBRA_FIELDS:
        E = catalog.e7(F)
        for _ in range(6):
            tau = _rand_transform(F, rng)
            sigma = _rand_transform(F, rng)
            assert tau.inverse().apply(tau.apply(E)) == E
            assert tau.then(sigma).apply(E) == sigma.apply(tau.apply(E))
            assert tau.then(tau.inverse()).is_identity()


@pytest.mark.parametrize("F", ALGEBRA_FIELDS, ids=repr)
def test_b_invariants_commute_with_reduction(F):
    """b_invariants on residue-field elements agrees with the reduced
    invariants of the curve, at every place of degree <= 2."""
    E = _dense_curve(F)
    bs = b_invariants(*E.coeffs)
    places = [Place(F, g, _checked=True) for g in iter_monic_irreducibles(F, 1)]
    places += [Place(F, g, _checked=True) for g in iter_monic_irreducibles(F, 2)][:4]
    for v in places:
        reduced = [v.reduce_poly(a.num) for a in E.coeffs]
        want = tuple(v.reduce_poly(b.num) for b in bs)
        assert b_invariants(*reduced) == want
    assert b_invariants(*(a.num for a in E.coeffs)) == tuple(b.num for b in bs)


def test_transform_point_map(rng):
    F = F3
    E = catalog.e7(F)
    P = CurvePoint(RatFunc.zero(F), RatFunc.zero(F))
    assert E.on_curve(P)
    for _ in range(6):
        tau = Transform.make(
            F, u=rand_rf(F, rng), r=rand_rf(F, rng, True),
            s=rand_rf(F, rng, True), w=rand_rf(F, rng, True),
        )
        E2 = tau.apply(E)
        Q = tau.apply_point(P)
        assert E2.on_curve(Q)
        assert tau.unapply_point(Q) == P
        assert tau.apply_point(CurvePoint.infinity()).is_infinity


def test_group_law_torsion():
    # (0,0) is a 3-torsion point on y^2 + xy + ty = x^3
    for F in (F2, F3, F5):
        E = catalog.e7(F)
        P = CurvePoint(RatFunc.zero(F), RatFunc.zero(F))
        P2 = E.add(P, P)
        assert E.on_curve(P2)
        assert P2 == E.neg(P)
        assert E.add(P2, P) == CurvePoint.infinity()
        assert E.scalar_mul(3, P) == CurvePoint.infinity()
        assert E.scalar_mul(-2, P) == P
        assert E.scalar_mul(4, P) == P


def test_group_law_generic_points():
    F = F5
    t = RatFunc.t(F)
    # (1, t) lies on y^2 = x^3 + (t^2 - 1); walk its multiples
    E = Curve(F, a6=t * t - 1)
    P = E.point(RatFunc.one(F), t)
    assert E.on_curve(P)
    nP = CurvePoint.infinity()
    for n in range(1, 13):
        nP = E.add(nP, P)
        assert E.on_curve(nP)
        assert nP == E.scalar_mul(n, P)
    # associativity spot checks
    P2 = E.scalar_mul(2, P)
    P3 = E.scalar_mul(3, P)
    assert E.add(E.add(P, P2), P3) == E.add(P, E.add(P2, P3))


def _textbook_add(E, P, Q):
    """P + Q by Silverman's Algorithm III.2.3: y3 = -(lam + a1) x3 - nu - a3
    with the intercept nu of the line through P and Q."""
    a1, a2, a3, a4, a6 = E.coeffs
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    (x1, y1), (x2, y2) = (P.x, P.y), (Q.x, Q.y)
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return CurvePoint.infinity()
    if x1 == x2:
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 ** 2 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-x1 ** 3 + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam ** 2 + a1 * lam - a2 - x1 - x2
    return CurvePoint(x3, -(lam + a1) * x3 - nu - a3)


def _check_group_law(E, points):
    pairs = [(P, Q) for P in points for Q in points] + [(P, E.neg(P)) for P in points]
    for P, Q in pairs:
        R = E.add(P, Q)
        assert R == _textbook_add(E, P, Q)
        assert E.on_curve(R)
    assert E.add(points[0], E.neg(points[0])).is_infinity


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_law_matches_textbook_legendre(p):
    fam = legendre_family(p)
    _check_group_law(fam.curve, fam.points[:3])


def _curve_through(F, rng):
    """A curve over F(t) and two points on it with non-polynomial
    coordinates: a1, a2, a3 are random fractions and a4, a6 are solved for
    so that the equation holds at both points."""
    while True:
        a1, a2, a3, x1, y1, x2, y2 = (rand_rf(F, rng) for _ in range(7))
        if x1 == x2 or any(c.is_polynomial() for c in (a1, a2, a3, x1, x2)):
            continue

        def rest(x, y):
            return y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x
        a4 = (rest(x1, y1) - rest(x2, y2)) / (x1 - x2)
        a6 = rest(x1, y1) - a4 * x1
        try:
            E = Curve(F, a1, a2, a3, a4, a6)
        except NotEllipticError:
            continue
        return E, E.point(x1, y1), E.point(x2, y2)


def test_group_law_matches_textbook_with_denominators(rng):
    # a curve over F_9 whose a1, a2, a3 have denominators too
    E, P, Q = _curve_through(field_create(3, 2), rng)
    _check_group_law(E, [P, Q, E.add(P, Q)])


def test_polynomial_arithmetic_takes_no_gcd(monkeypatch):
    calls = []
    gcd = Poly.gcd

    def spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", spy)
    F = field_create(3, 2)
    t = RatFunc.t(F)
    f, g = t ** 3 + 2 * t + 1, RatFunc(Poly(F, [F.gen, 0, 1]))
    assert f + g - f * g - 1 == RatFunc(f.num + g.num - f.num * g.num - 1)
    assert (f ** 4 * g).den.is_one()
    E = Curve(F, a1=t, a2=g, a3=t ** 2 + 1, a6=f)
    assert E.delta.is_polynomial()
    c4, _ = c_invariants(*E.coeffs)
    assert calls == []
    # j = c4^3 / delta is a true fraction and the one invariant with a gcd
    assert not (c4 ** 3 / E.delta).is_polynomial() and calls


def _equation_holds(E, P):
    """The curve equation in RatFunc arithmetic: the oracle of on_curve."""
    a1, a2, a3, a4, a6 = E.coeffs
    x, y = P.x, P.y
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def _on_curve_cases(rng):
    """(curve, points on it): family points and their multiples, the
    multiples of (1, t) on y^2 = x^3 + t^2 - 1, curves through two random
    points in characteristics 2 and 3, and every one of these moved by a
    transform with rational u, r, s and w."""
    cases = []
    for p in (3, 5):
        fam = legendre_family(p)
        E, (P, Q) = fam.curve, fam.points[:2]
        cases.append((E, [P, Q, E.add(P, Q), E.scalar_mul(2, P),
                          E.scalar_mul(-3, Q)]))
    t = RatFunc.t(F5)
    E = Curve(F5, a6=t * t - 1)
    P = CurvePoint(RatFunc.one(F5), t)
    cases.append((E, [E.scalar_mul(n, P) for n in range(1, 7)]))
    for F in (F4, field_create(3, 2)):
        E, P, Q = _curve_through(F, rng)
        cases.append((E, [P, Q, E.add(P, Q), E.scalar_mul(2, P)]))
    for E, pts in list(cases):
        F = E.field
        tau = Transform.make(F, u=rand_rf(F, rng), r=rand_rf(F, rng),
                             s=rand_rf(F, rng), w=rand_rf(F, rng))
        E2 = tau.apply(E)
        assert not all(c.is_polynomial() for c in E2.coeffs)
        cases.append((E2, [tau.apply_point(P) for P in pts]))
    return cases


def test_on_curve_agrees_with_ratfunc_equation(rng):
    for E, pts in _on_curve_cases(rng):
        t = RatFunc.t(E.field)
        for P in pts:
            assert E.on_curve(P) and _equation_holds(E, P)
            for bad in (CurvePoint(P.x, P.y + 1), CurvePoint(P.x + t, P.y)):
                assert not E.on_curve(bad) and not _equation_holds(E, bad)
        assert E.on_curve(CurvePoint.infinity())


def test_on_curve_takes_no_gcd_on_a_polynomial_model(monkeypatch):
    fam = legendre_family(5)
    E = catalog.e7(F3)
    zero = CurvePoint(RatFunc.zero(F3), RatFunc.zero(F3))
    calls = []
    gcd = Poly.gcd

    def spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", spy)
    assert all(fam.curve.on_curve(P) for P in fam.points)
    assert E.on_curve(zero)
    assert not fam.curve.on_curve(CurvePoint(fam.points[0].x, fam.points[1].y))
    assert calls == []


def test_classify_fixtures():
    c = classify(catalog.e1(F5))
    assert c.constant and c.isotrivial and c.height == 0
    c = classify(catalog.e2(F5))
    assert c.constant and c.height == 0
    c = classify(catalog.e3(F5))
    assert c.isotrivial and not c.constant and c.height == 1
    c = classify(catalog.e7(F2))
    assert not c.isotrivial and not c.constant and c.height == 1
    t = RatFunc.t(F5)
    c = classify(Curve(F5, a2=1 + t**3, a4=t**3))
    assert c.height == 2 and not c.isotrivial


def test_classify_minimal_model_strips_content():
    # y^2 = x^3 + t^6 is constant after u = t scaling
    E = catalog.e2(F5)
    M, tau = minimal_polynomial_model(E)
    assert classify(classify(E).model).j == classify(E).j
    assert tau.apply(E) == M
    # coefficients of the minimal model are polynomials
    for a in M.coeffs:
        assert a.is_polynomial()


def test_classify_denominator_content():
    # a model with denominators still classifies by its minimal model
    F = F5
    t = RatFunc.t(F)
    E0 = catalog.e7(F)
    tau = Transform.make(F, u=1 / (t + 2), r=RatFunc.zero(F))
    E = tau.apply(E0)
    c = classify(E)
    assert c.height == 1
    for a in c.model.coeffs:
        assert a.is_polynomial()


def test_minimal_model_scaling_against_every_prime(rng):
    # the reference factors every numerator and denominator
    def reference_u(E):
        F = E.field
        cs = [(i, a) for i, a in zip((1, 2, 3, 4, 6), E.coeffs) if a]
        primes = {g for _, a in cs for part in (a.num, a.den) if part.degree >= 1
                  for g, _ in factor_poly(part)[1]}
        u = RatFunc.one(F)
        for g in primes:
            v = Place(F, g, _checked=True)
            u = u * RatFunc(g) ** min(v.valuation(a) // i for i, a in cs)
        return u

    for F in (F2, F3, F5):
        t = RatFunc.t(F)
        for mk in (catalog.e7, catalog.e8, catalog.e9, catalog.first_example):
            M, tau = minimal_polynomial_model(mk(F))
            assert minimal_polynomial_model(M)[0] is M
            for _ in range(3):
                num = Poly(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(2)])
                den = Poly(F, [rng.randrange(1, F.q), rng.randrange(F.q), 1])
                scale = (t + rng.randrange(F.q)) ** rng.randrange(3)
                E = Transform.make(F, u=RatFunc(num) * scale / RatFunc(den)).apply(M)
                M2, tau2 = minimal_polynomial_model(E)
                assert tau2.u == reference_u(E), E
                assert tau2.apply(E) == M2
                assert all(a.is_polynomial() for a in M2.coeffs)


def test_height_monotone_under_base_change():
    for E, d in [(catalog.e7(F3), 2), (catalog.e8(F5), 3), (catalog.e9(F5), 4)]:
        h = classify(E).height
        hd = classify(base_change_pow(E, d)).height
        assert hd <= d * h


def test_frobenius_twist_j():
    for F in (F2, F3, F5):
        for mk in (catalog.e7, catalog.e8, catalog.e9, catalog.first_example):
            E = mk(F)
            jt = classify(frobenius_twist(E)).j
            assert jt == classify(E).j.map_coeffs(lambda c: c**F.p)


def test_base_change_pow():
    E = base_change_pow(catalog.e7(F3), 2)
    assert E.var == "u"
    assert format_ratfunc(E.a3, "u") == "u^2"
    assert base_change_pow(catalog.e7(F3), 1).a3 == catalog.e7(F3).a3
    with pytest.raises(ValueError):
        base_change_pow(catalog.e7(F2), 2)
    with pytest.raises(ValueError):
        base_change_pow(catalog.e7(F3), 0)


def test_extend_constants():
    F4 = field_create(2, 2)
    E = extend_constants(catalog.e7(F2), 2)
    assert E.field is F4
    assert E.delta.num.degree == 4
    # embedding respects scalars
    F9 = field_create(3, 2)
    emb = constant_embedding(F3, F9)
    assert emb(F3.scalar(2)) == F9.scalar(2)
    assert emb(F3.one) == F9.one
    # tower embedding F4 -> F16
    F16 = field_create(2, 4)
    emb2 = constant_embedding(F4, F16)
    g = F4.gen
    assert emb2(g * g + g) == emb2(g) * emb2(g) + emb2(g)


def test_hasse_invariant():
    assert hasse_invariant(catalog.e7(F2)) == RatFunc.one(F2)
    assert hasse_invariant(catalog.e8(F2)) == RatFunc.one(F2)
    t = RatFunc.t(F3)
    E = Curve(F3, a2=1 + t, a4=t)  # y^2 = x(x+1)(x+t)
    assert hasse_invariant(E) == 1 + t
    # supersingular constant curve: y^2 = x^3 + 1 over F_5 has A = 0
    assert hasse_invariant(catalog.e1(F5)).is_zero()


def test_hasse_weight(rng):
    for F, E in [(F3, catalog.e6(F3)), (F5, catalog.e7(F5)), (F2, catalog.e8(F2))]:
        lam = RatFunc.t(F) + 1
        tau = Transform.make(F, u=lam)
        assert hasse_invariant(tau.apply(E)) == hasse_invariant(E) / lam ** (F.p - 1)


def test_has_p_torsion_fixtures():
    assert has_p_torsion(catalog.e7(F3)) is True
    assert has_p_torsion(catalog.e8(F3)) is False
    assert has_p_torsion(catalog.e8(F2)) is True
    assert has_p_torsion(catalog.e7(F2)) is False
    with pytest.raises(FFECError):
        has_p_torsion(catalog.e3(F5))


def test_catalog_guards():
    with pytest.raises(ValueError):
        catalog.e4(F3)
    with pytest.raises(ValueError):
        catalog.e5(F3)
    with pytest.raises(ValueError):
        catalog.e6(F2)
    with pytest.raises(ValueError):
        catalog.second_example(F2)


def test_curve_file_roundtrip():
    curves = [
        catalog.e7(F5),
        catalog.berger_l4(F7, 3),
        base_change_pow(catalog.e7(F3), 2),
        extend_constants(catalog.e9(F3), 2),
    ]
    for E in curves:
        txt = format_curve_file(E)
        E2 = parse_curve_file(txt)
        assert E2 == E
        assert format_curve_file(E2) == txt


def test_curve_file_errors():
    with pytest.raises(Exception):
        parse_curve_file("a1 = t\np = 5\ne = 1\n")
    with pytest.raises(Exception):
        parse_curve_file("p = 5\ne = 1\na1 = t\na1 = t\n")
    with pytest.raises(Exception):
        parse_curve_file("p = 5\ne = 1\nbogus = 1\n")
    with pytest.raises(Exception):
        parse_curve_file("p = 5\ne = 1\na1 = t\na2 = u\n")
    # comments and defaults are fine
    E = parse_curve_file("# a curve\np = 5\ne = 1\na3 = t  # coefficient\n")
    assert E == catalog.e5(F5)
