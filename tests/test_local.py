"""Reduction types, conductors, fiber counts, torsion bounds."""

import math
from fractions import Fraction

import pytest

from ffec import catalog, local
from ffec.algebra import (
    CapError,
    Place,
    Poly,
    RatFunc,
    factor_poly,
    field_create,
    format_place,
    places_up_to,
)
from ffec.local import (
    Conductor,
    KodairaType,
    LocalData,
    UndefinedRowError,
    bad_reduction,
    conductor,
    curve_analysis,
    fiber_counts,
    fiber_table_row,
    minimal_model_at,
    nprime_deg,
    tate_type,
    torsion_bound,
)
from ffec.weierstrass import Curve, NotEllipticError, Transform, c_invariants
from oracles import extend_constants
from test_lfunction import _draw_curve

F2 = field_create(2)
F3 = field_create(3)
F5 = field_create(5)
F7 = field_create(7)


def t_place(F):
    return Place.finite(Poly.x(F))


def rand_poly(F, maxdeg, rng):
    d = rng.randrange(maxdeg + 1)
    return RatFunc(Poly(F, [F.scalar(rng.randrange(F.q)) for _ in range(d + 1)]))


def test_kodaira_type_basics():
    assert str(KodairaType("I", 0)) == "I0"
    assert str(KodairaType("I", 6)) == "I6"
    assert str(KodairaType("I*", 2)) == "I2*"
    assert str(KodairaType("IV*")) == "IV*"
    assert KodairaType("I", 0).is_good and not KodairaType("I", 0).is_additive
    assert KodairaType("I", 3).is_multiplicative
    assert KodairaType("II").is_additive
    assert KodairaType("I", 5).m == 5
    assert KodairaType("I*", 4).m == 9
    assert KodairaType("II*").m == 9
    with pytest.raises(ValueError):
        KodairaType("II", 3)
    with pytest.raises(ValueError):
        KodairaType("V")


def test_legendre_cubic_twist_reduction():
    # y^2 = x(x+1)(x+t^3) over F_5
    t = RatFunc.t(F5)
    E = Curve(F5, a2=1 + t**3, a4=t**3)
    ld = tate_type(E, t_place(F5))
    assert str(ld.type) == "I6" and ld.split is True
    assert ld.f_v == 6 and ld.n_v == 1 and ld.a_v == 1 and ld.vdelta_min == 6
    _, fac = factor_poly((t**3 - 1).num)
    assert sorted(g.degree for g, _ in fac) == [1, 2]
    for g, _e in fac:
        ld = tate_type(E, Place.finite(g))
        assert str(ld.type) == "I2" and ld.n_v == 1
    ld = tate_type(E, Place.infinite(F5))
    assert str(ld.type) == "I6*" and ld.n_v == 2 and ld.vdelta_min == 12
    assert conductor(E).deg == 6


def test_polynomial_quartic_model_local_data():
    # bad fibers of y^2 + xy + ty = x^3 + tx^2 over F_5
    E = catalog.first_example(F5)
    t = RatFunc.t(F5)
    ld = tate_type(E, t_place(F5))
    assert str(ld.type) == "I4" and ld.n_v == 1
    ld = tate_type(E, Place.finite((t - 1).num.monic()))
    assert str(ld.type) == "I1" and ld.n_v == 1
    ld = tate_type(E, Place.infinite(F5))
    assert str(ld.type) == "I1*" and ld.n_v == 2 and ld.vdelta_min == 7
    assert conductor(E).deg == 4
    assert nprime_deg(E) == 1


def test_minimal_model_at_infinity():
    E = catalog.first_example(F5)
    t = RatFunc.t(F5)
    M, tau = minimal_model_at(E, Place.infinite(F5))
    assert M.a1 == 1 / t and M.a2 == 1 / t and M.a3 == 1 / (t * t)
    assert tau.apply(E) == M
    assert Place.infinite(F5).valuation(M.delta) == 7


def test_minimal_model_rescales_content():
    t = RatFunc.t(F5)
    E = Curve(F5, a6=t**12)
    M, tau = minimal_model_at(E, t_place(F5))
    assert tau.u == t * t
    assert t_place(F5).valuation(M.delta) == 0
    # identity transform at a place of good reduction on a minimal model
    M2, tau2 = minimal_model_at(catalog.e7(F5), Place.finite(Poly(F5, [1, 1])))
    assert tau2.is_identity() and M2 == catalog.e7(F5)


CATALOG_REDUCTIONS = {
    (2, "e7"): {"inf": ("IV*", True, 2), "t": ("I3", True, 1), "t+1": ("I1", False, 1)},
    (2, "e8"): {"inf": ("III*", None, 3), "t": ("I2", True, 1)},
    (2, "e9"): {"inf": ("II*", None, 3), "t": ("I1", True, 1)},
    (3, "e7"): {"inf": ("IV*", True, 3), "t": ("I3", True, 1)},
    (3, "e8"): {"inf": ("III*", None, 2), "t": ("I2", True, 1), "t+2": ("I1", True, 1)},
    (3, "e9"): {"inf": ("II*", None, 3), "t": ("I1", True, 1)},
    (5, "e7"): {"inf": ("IV*", True, 2), "t": ("I3", True, 1), "t+2": ("I1", False, 1)},
    (5, "e8"): {"inf": ("III*", None, 2), "t": ("I2", True, 1), "t+1": ("I1", False, 1)},
    (5, "e9"): {"inf": ("II*", None, 2), "t": ("I1", True, 1), "t+3": ("I1", True, 1)},
}


def test_catalog_reduction_fixtures():
    for (q, name), places in CATALOG_REDUCTIONS.items():
        E = getattr(catalog, name)(field_create(q))
        lds = bad_reduction(E)
        seen = {format_place(ld.place, "t"): ld for ld in lds}
        assert set(seen) == set(places), (q, name, sorted(seen))
        for pl, (typ, split, n_v) in places.items():
            ld = seen[pl]
            assert str(ld.type) == typ and ld.n_v == n_v, (q, name, pl, ld)
            if split is not None:
                assert ld.split is split, (q, name, pl, ld)
        assert conductor(E).deg == 4, (q, name)


def test_ogg_relation_all_catalog_curves():
    curves = []
    for F in (F2, F3, F5):
        for mk in (catalog.e7, catalog.e8, catalog.e9, catalog.first_example):
            curves.append(mk(F))
    # the y^2 = x^3 + f(t) family is elliptic only away from 2 and 3
    for mk in (catalog.e1, catalog.e2, catalog.e3):
        curves.append(mk(F5))
        curves.append(mk(F7))
    curves.append(catalog.e4(F5))
    curves.append(catalog.e5(F5))
    curves.append(catalog.e6(F5))
    curves.append(catalog.e6(F3))
    curves.append(catalog.e5(F2))
    curves.append(catalog.second_example(F5))
    curves.append(catalog.berger_l4(F7, 3))
    for E in curves:
        for ld in bad_reduction(E):
            assert ld.vdelta_min == ld.n_v + ld.m_v - 1, (E, ld)
            M = ld.transform_used.apply(E)
            assert ld.place.valuation(M.delta) == ld.vdelta_min


def test_second_example_multiplicative_places():
    # I_1 at the places dividing t^2 + 4
    E = catalog.second_example(F5)
    t = RatFunc.t(F5)
    _, fac = factor_poly((t * t + 4).num)
    for g, _e in fac:
        ld = tate_type(E, Place.finite(g))
        assert str(ld.type) == "I1", ld


def test_berger_l4_conductor():
    E = catalog.berger_l4(F7, 3)
    by_place = {format_place(ld.place, "t"): ld for ld in bad_reduction(E)}
    assert str(by_place["t"].type) == "I4"
    assert str(by_place["inf"].type) == "I4"
    assert str(by_place["t+6"].type) == "I2"
    assert str(by_place["t^2+1"].type) == "I1"
    assert nprime_deg(E) == 3


def test_valuation_oracle_large_characteristic(rng):
    # for p > 3 the pair (v(c4), v(delta)) of the minimal model pins the type
    checked = 0
    for F in (F5, F7):
        for _ in range(30):
            try:
                E = Curve(F, rand_poly(F, 2, rng), rand_poly(F, 2, rng),
                          rand_poly(F, 2, rng), rand_poly(F, 3, rng),
                          rand_poly(F, 4, rng))
            except NotEllipticError:
                continue
            for ld in bad_reduction(E):
                M = ld.transform_used.apply(E)
                vd = ld.place.valuation(M.delta)
                c4 = c_invariants(*M.coeffs)[0]
                vc4 = 99 if c4.is_zero() else ld.place.valuation(c4)
                assert vd == ld.vdelta_min
                kind = str(ld.type)
                if ld.type.is_multiplicative:
                    assert vc4 == 0 and vd == ld.type.n and ld.n_v == 1
                else:
                    assert ld.n_v == 2
                    if kind == "II":
                        assert vc4 >= 1 and vd == 2
                    elif kind == "III":
                        assert vc4 == 1 and vd == 3
                    elif kind == "IV":
                        assert vc4 >= 2 and vd == 4
                    elif kind == "I0*":
                        assert vc4 >= 2 and vd == 6
                    elif ld.type.kind == "I*":
                        assert vc4 == 2 and vd == 6 + ld.type.n
                    elif kind == "IV*":
                        assert vc4 >= 3 and vd == 8
                    elif kind == "III*":
                        assert vc4 == 3 and vd == 9
                    elif kind == "II*":
                        assert vc4 >= 4 and vd == 10
                checked += 1
    assert checked > 100


def test_ogg_random_small_characteristic(rng):
    checked = 0
    for F in (F2, F3, field_create(2, 2), field_create(3, 2)):
        for _ in range(25):
            try:
                E = Curve(F, rand_poly(F, 1, rng), rand_poly(F, 1, rng),
                          rand_poly(F, 2, rng), rand_poly(F, 2, rng),
                          rand_poly(F, 3, rng))
            except NotEllipticError:
                continue
            for ld in bad_reduction(E):
                assert ld.vdelta_min == ld.n_v + ld.m_v - 1, (E, ld)
                if ld.type.is_additive:
                    assert ld.n_v >= 2
                checked += 1
    assert checked > 60


def test_unit_transform_invariance(rng):
    E = catalog.e7(F3)
    v = t_place(F3)
    base = tate_type(E, v)
    done = 0
    while done < 8:
        u = RatFunc(Poly(F3, [F3.scalar(rng.randrange(1, 3)), F3.scalar(rng.randrange(3))]))
        tau = Transform.make(F3, u=u, r=rand_poly(F3, 2, rng),
                             s=rand_poly(F3, 2, rng), w=rand_poly(F3, 2, rng))
        ld = tate_type(tau.apply(E), v)
        assert (str(ld.type), ld.n_v, ld.f_v, ld.split) == \
            (str(base.type), base.n_v, base.f_v, base.split)
        done += 1


def test_istar_zero_orbit_patterns():
    t = RatFunc.t(F7)
    v = t_place(F7)
    ld = tate_type(Curve(F7, a4=-t**2), v)  # residue cubic splits fully
    assert (str(ld.type), ld.f_v, ld.split) == ("I0*", 5, True)
    ld = tate_type(Curve(F7, a4=t**2), v)  # one rational root
    assert (str(ld.type), ld.f_v, ld.split) == ("I0*", 4, False)
    ld = tate_type(Curve(F7, a4=t**2, a6=t**3), v)  # irreducible cubic
    assert (str(ld.type), ld.f_v, ld.split) == ("I0*", 3, None)
    with pytest.raises(UndefinedRowError):
        fiber_counts(ld.type, ld.split, 7, 1)


def test_additive_at_degree_two_place():
    pi = Poly(F5, [2, 0, 1])  # t^2 + 2
    E = Curve(F5, a4=RatFunc(pi) ** 2)
    ld = tate_type(E, Place.finite(pi))
    assert (str(ld.type), ld.f_v, ld.split, ld.n_v) == ("I0*", 5, True, 2)


def test_split_upgrade_under_constant_extension():
    # tangent quadratic T^2 - 2 is inert over F_5, splits over F_25
    t = RatFunc.t(F5)
    E = Curve(F5, a2=2 + t**3, a4=2 * t**3)
    ld = tate_type(E, t_place(F5))
    assert str(ld.type) == "I6" and ld.split is False and ld.f_v == 4
    E2 = extend_constants(E, 2)
    ld2 = tate_type(E2, t_place(E2.field))
    assert str(ld2.type) == "I6" and ld2.split is True and ld2.f_v == 6


def test_count_points_good():
    E0 = Curve(F5, a6=RatFunc.one(F5))
    assert tate_type(E0, Place.finite(Poly(F5, [1, 1]))).a_v == 0
    assert tate_type(E0, Place.infinite(F5)).a_v == 0
    E = Curve(F3, a4=RatFunc.one(F3))
    assert tate_type(E, Place.finite(Poly(F3, [1, 1]))).a_v == 0
    assert not tate_type(catalog.e7(F2), t_place(F2)).type.is_good


def test_hasse_bound_low_degree_places():
    for F in (F2, F3, field_create(2, 2), field_create(3, 2)):
        E = catalog.e7(F)
        M, _ = __import__("ffec.weierstrass", fromlist=["m"]).minimal_polynomial_model(E)
        from ffec.algebra import places_up_to
        for v in places_up_to(F, 3):
            ld = tate_type(M, v)
            if ld.type.is_good:
                assert ld.a_v is not None
                assert ld.a_v * ld.a_v <= 4 * v.qv


def test_fiber_table_rows():
    assert fiber_table_row(KodairaType("I", 3), True) == (0, 0, 3, 0)
    assert fiber_table_row(KodairaType("I", 5), False) == (-1, 1, 3, 2)
    assert fiber_table_row(KodairaType("I", 6), False) == (-1, 1, 4, 2)
    assert fiber_table_row(KodairaType("I*", 2), True) == (-1, 0, 7, 0)
    assert fiber_table_row(KodairaType("I*", 2), False) == (-1, 0, 6, 1)
    assert fiber_table_row(KodairaType("II"), None) == (-1, 0, 1, 0)
    assert fiber_table_row(KodairaType("II*"), None) == (-1, 0, 9, 0)
    assert fiber_table_row(KodairaType("III"), None) == (-1, 0, 2, 0)
    assert fiber_table_row(KodairaType("III*"), None) == (-1, 0, 8, 0)
    assert fiber_table_row(KodairaType("IV"), True) == (-1, 0, 3, 0)
    assert fiber_table_row(KodairaType("IV"), False) == (-1, 0, 2, 1)
    assert fiber_table_row(KodairaType("IV*"), True) == (-1, 0, 7, 0)
    assert fiber_table_row(KodairaType("IV*"), False) == (-1, 0, 5, 2)
    with pytest.raises(UndefinedRowError):
        fiber_table_row(KodairaType("I", 0), None)
    with pytest.raises(UndefinedRowError):
        fiber_table_row(KodairaType("I", 4), None)


def test_fiber_counts_examples():
    assert fiber_counts(KodairaType("I", 3), True, 7, 1) == 21
    assert fiber_counts(KodairaType("I", 2), False, 7, 1) == 16
    assert fiber_counts(KodairaType("II"), None, 7, 1) == 8


def all_table_rows():
    rows = []
    for n in (1, 2, 3, 5, 6):
        rows.append((KodairaType("I", n), True))
        rows.append((KodairaType("I", n), False))
    for n in (0, 1, 2, 3):
        rows.append((KodairaType("I*", n), True))
        rows.append((KodairaType("I*", n), False))
    for kt in (KodairaType("II"), KodairaType("II*"), KodairaType("III"),
               KodairaType("III*")):
        rows.append((kt, None))
    for kt in (KodairaType("IV"), KodairaType("IV*")):
        rows.append((kt, True))
        rows.append((kt, False))
    return rows


def test_fiber_counts_reexponentiate():
    # the N_m must be exactly the log-expansion of the table's zeta row
    for kt, sp in all_table_rows():
        a, b, f, g = fiber_table_row(kt, sp)
        for qv in (2, 3, 4, 9):
            for m in range(1, 7):
                want = Fraction(0)
                for c, r in ((a, 1), (b, -1), (-f, qv), (-g, -qv)):
                    want += Fraction(c) * Fraction(-(r**m), m)
                assert Fraction(fiber_counts(kt, sp, qv, m), m) == want
                assert fiber_counts(kt, sp, qv, m) >= 0


def test_torsion_bound():
    b = torsion_bound(catalog.e7(F2))
    assert b % 3 == 0  # (0,0) is 3-torsion
    E0 = Curve(F5, a6=RatFunc.one(F5))
    assert torsion_bound(E0) % 6 == 0  # constant curve with 6 rational points
    with pytest.raises(ValueError):
        fiber_counts(KodairaType("I", 1), True, 5, 0)


def test_torsion_bound_divides_place_counts(rng):
    # every good place bounds the prime-to-p torsion, so when two good
    # places of degree <= 2 exist the bound is read from places among them,
    # and the p-free gcd of all their counts, by Tate's algorithm place by
    # place, divides it
    for F in (F2, F3, field_create(2, 2), F5):
        curves = [fam(F) for fam in (catalog.e7, catalog.e8, catalog.e9,
                                     catalog.first_example)]
        curves += [_draw_curve(F, 4, rng) for _ in range(2)]
        for E in curves:
            M = curve_analysis(E).cls.model
            orders = [v.qv + 1 - ld.a_v for v in places_up_to(F, 2)
                      if (ld := tate_type(M, v)).type.is_good]
            if len(orders) < 2:
                continue
            g = math.gcd(*orders)
            while g % F.p == 0:
                g //= F.p
            assert torsion_bound(E) % g == 0, E


def test_torsion_bound_reads_every_degree_one_place(rng):
    # with two good places among infinity and the degree-1 places, the bound
    # is the p-free gcd of the counts at every one of them, by Tate's
    # algorithm place by place
    checked = 0
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        F = field_create(p, e)
        curves = [fam(F) for fam in (catalog.e7, catalog.e8, catalog.e9,
                                     catalog.first_example)]
        curves += [_draw_curve(F, 4, rng) for _ in range(2)]
        for E in curves:
            M = curve_analysis(E).cls.model
            orders = [v.qv + 1 - ld.a_v for v in places_up_to(F, 1)
                      if (ld := tate_type(M, v)).type.is_good]
            if len(orders) < 2:
                continue
            g = math.gcd(*orders)
            while g % p == 0:
                g //= p
            assert torsion_bound(E) == g, E
            checked += 1
    assert checked >= 30


def test_conductor_entries_sorted():
    C = conductor(catalog.e8(F5))
    keys = [v.key() for v, _ in C.entries]
    assert keys == sorted(keys)
    assert C.entries[0][0].is_infinite
    assert C.exponent(Place.infinite(F5)) == 2
    assert C.exponent(Place.finite(Poly(F5, [3, 1]))) == 0


def unit_at(F, v, rng, integral=False):
    """A random rational function that is a unit at v (only integral at v
    when integral is set): numerator and denominator prime to the place, or
    of equal degree at infinity."""
    while True:
        den = rand_poly(F, 2, rng).num
        if den.degree < 1 or (v.poly is not None and not v.reduce_poly(den)):
            continue
        num = rand_poly(F, int(den.degree), rng).num
        if v.poly is None:
            ok = integral or num.degree == den.degree
        else:
            ok = integral or bool(v.reduce_poly(num))
        if num and ok:
            return RatFunc(num, den.monic())


def fingerprint(ld):
    return (str(ld.type), ld.n_v, ld.f_v, ld.split, ld.a_v, ld.vdelta_min)


def check_local_data(E, ld):
    """transform_used makes E integral at the place, with v(Delta) the
    minimal one and, at a bad place, the singular point of the reduction at
    (0, 0); Ogg's relation holds."""
    v = ld.place
    M = ld.transform_used.apply(E)
    assert all(a.is_zero() or v.valuation(a) >= 0 for a in M.coeffs), (E, ld)
    if ld.vdelta_min:
        assert all(v.valuation(a) >= 1 for a in (M.a3, M.a4, M.a6)), (E, ld)
    if not v.is_infinite:
        # the denominators prime to the place are cleared as well
        assert all(a.is_polynomial() for a in M.coeffs), (E, ld)
    assert v.valuation(M.delta) == ld.vdelta_min, (E, ld)
    assert ld.vdelta_min == ld.n_v + ld.m_v - 1, (E, ld)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_tate_seeded_curves(q, rng):
    p = 2 if q == 4 else q
    F = field_create(p, 2 if q == 4 else 1)
    checked = 0
    while checked < 12:
        cs = [rand_poly(F, d, rng) for d in (1, 2, 2, 3, 4)]
        try:
            E = Curve(F, *cs)
            curve_analysis(E)
        except NotEllipticError:
            continue
        for ld in curve_analysis(E).local:
            v = ld.place
            assert fingerprint(tate_type(E, v)) == fingerprint(ld)
            check_local_data(E, ld)
            pi = RatFunc.t(F) ** -1 if v.is_infinite else RatFunc(v.poly)
            moves = [
                Transform.make(F, u=unit_at(F, v, rng), r=unit_at(F, v, rng, True),
                               s=unit_at(F, v, rng, True), w=unit_at(F, v, rng, True)),
                Transform.make(F, u=pi),  # a_i / pi^i: the input scaling
                Transform.make(F, u=1 / pi),  # a_i pi^i: a non-minimal step
            ]
            for tau in moves:
                E2 = tau.apply(E)
                ld2 = tate_type(E2, v)
                assert fingerprint(ld2) == fingerprint(ld), (E, tau, ld, ld2)
                check_local_data(E2, ld2)
            checked += 1


def test_tate_cache_holds_local_data():
    # perfbench reads the cache counters on every run
    E = catalog.e7(F5)
    ld = tate_type(E, Place.infinite(F5))
    assert isinstance(local._tate_local(E, Place.infinite(F5)), LocalData)
    assert local._tate_local(E, Place.infinite(F5)) is ld
    info = local._tate_local.cache_info()
    assert info.hits >= 1 and info.currsize >= 1
