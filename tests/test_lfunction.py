"""L-polynomials: Euler products, closed forms, FE, RH, ranks, surface zeta."""

import collections
import json
import pathlib
import random
from fractions import Fraction

import pytest

from ffec import algebra, lfunction
from ffec.algebra import (
    CapError,
    FFECError,
    Place,
    Poly,
    RatFunc,
    count_ws_points,
    field_create,
    parse_poly,
    parse_ratfunc,
    place_count,
    places_up_to,
)
from ffec.weierstrass import (
    Curve,
    base_change_pow,
    classify,
    minimal_polynomial_model,
)
from ffec import catalog
from ffec.local import UndefinedRowError, bad_reduction, conductor, tate_type
from ffec.lfunction import (
    LPoly,
    _degree_field,
    _place_orbits,
    analytic_rank,
    check_functional_equation,
    check_rh,
    constant_euler_series,
    constant_l,
    constant_trace,
    l_polynomial,
    surface_zeta,
    _extend_inverse_roots,
    _from_power_sums,
    _power_sums,
)
from oracles import extend_constants

F2 = field_create(2)
F3 = field_create(3)
F5 = field_create(5)


def crit2_curve():
    t = parse_ratfunc("t", F5)
    return Curve(F5, a2=t ** 3 + 1, a4=t ** 3)   # y^2 = x(x+1)(x+t^3)


def test_lpoly_is_an_immutable_checked_record():
    L = LPoly((1, -2, 4), 2, 2)
    assert L._fields == ("coeffs", "q", "N") and str(L) == "1 - 2*T + 4*T^2"
    assert L == LPoly((1, -2, 4), 2, 2) and hash(L) == hash(LPoly((1, -2, 4), 2, 2))
    assert L != LPoly((1, -2, 4), 4, 2)
    with pytest.raises(AttributeError):
        L.q = 4
    with pytest.raises(AttributeError):
        L.roots = ()
    for coeffs, N in (((1, 2), 2), ((2, 1), 1)):
        with pytest.raises(ValueError, match="lead with 1"):
            LPoly(coeffs, 2, N)


def test_euler_factor_examples():
    E0 = Curve(F5, a6=1)
    v = Place.finite(parse_poly("t+1", F5))
    assert euler_factor(E0, v) == (1, 0, 5)
    E = crit2_curve()
    assert euler_factor(E, Place.finite(parse_poly("t^2+t+1", F5))) == (1, 0, -1)
    assert euler_factor(E, Place.finite(parse_poly("t", F5))) == (1, -1)
    assert euler_factor(E, Place.infinite(F5)) == (1,)


def test_constant_oracle_f5():
    E0 = Curve(F5, a6=1)
    a = constant_trace(E0)
    assert a == 0
    assert constant_euler_series(E0, 8) == constant_l(a, 5).series(8)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2)])
def test_constant_oracle_other_fields(p, e, rng):
    F = field_create(p, e)
    els = list(F.elements())
    found = 0
    while found < 3:
        cs = [els[rng.randrange(F.q)] for _ in range(5)]
        try:
            E = Curve(F, *cs)
        except FFECError:
            continue
        found += 1
        a = constant_trace(E)
        assert a * a <= 4 * F.q
        assert constant_euler_series(E, 8) == constant_l(a, F.q).series(8)


def test_constant_trace_matches_weil_recurrence():
    for F in (F2, F3):
        E = Curve(F, a1=1, a3=1, a6=1) if F is F2 else Curve(F, a4=1, a6=2)
        a = constant_trace(E)
        q = F.q
        s2, s1 = 2, a
        for d in range(2, 5):
            s2, s1 = s1, a * s1 - q * s2
            assert constant_trace(extend_constants(E, d)) == s1


def test_constant_l_guards():
    with pytest.raises(ValueError):
        constant_l(6, 5)


def test_l_polynomial_rejects_constant():
    with pytest.raises(FFECError):
        l_polynomial(Curve(F5, a6=1))


def test_degree_theorem_catalog():
    curves = [fam(F) for F in (F2, F3, F5) for fam in (catalog.e7, catalog.e8, catalog.e9)]
    t = parse_ratfunc("t", F5)
    curves.append(Curve(F5, a6=t))   # isotrivial but not constant
    for E in curves:
        N = conductor(E).deg - 4
        assert N == 0
        L = l_polynomial(E)
        assert L.coeffs == (1,)
        assert check_functional_equation(L) == 1
        assert check_rh(L)


def test_criterion2_curve_l():
    E = crit2_curve()
    L = l_polynomial(E)
    assert L.N == 2
    assert L.coeffs == (1, 0, -25)
    assert check_functional_equation(L) == -1
    assert check_rh(L)
    assert analytic_rank(L) == 1
    # degree-1 coefficient is the sum of the degree-1 local terms
    places = [Place.infinite(F5)] + [
        Place.finite(parse_poly(f"t+{c}", F5)) for c in range(5)]
    terms = [euler_factor(E, v) for v in places]
    assert L.coeffs[1] == sum(f[1] for f in terms if len(f) > 1)


def legendre_pullback():
    F9 = field_create(3, 2)
    u = parse_ratfunc("u", F9)
    return Curve(F9, a1=1, a2=u ** 4, a3=u ** 4, var="u")


def test_legendre_pullback_l():
    E = legendre_pullback()
    assert conductor(E).deg == 6
    L = l_polynomial(E)
    assert L.N == 2 and L.q == 9
    assert L.coeffs == (1, -18, 81)
    r = analytic_rank(L)
    assert r == 2
    # rank equal to the degree forces L = (1 - qT)^N
    assert L.coeffs == (1, -2 * 9, 81)
    assert check_functional_equation(L) == 1
    assert check_rh(L)


def test_descent_matches_direct_product():
    E = base_change_pow(catalog.e7(F2), 5)
    L = l_polynomial(E)
    assert L.coeffs == (1, 0, 0, 0, -16)
    EK = extend_constants(E, 2)
    direct = l_polynomial(EK, descend=False)
    assert direct.q == 4
    assert direct.coeffs == l_polynomial(EK).coeffs
    assert direct.coeffs == _extend_inverse_roots(L, 2).coeffs


def test_extension_square_identity():
    # over a quadratic extension, L2(T^2) = L(T) * L(-T)
    E = base_change_pow(catalog.e7(F2), 5)
    L = l_polynomial(E)
    L2 = _extend_inverse_roots(L, 2)
    n = L.N
    prod = [0] * (2 * n + 1)
    for i, x in enumerate(L.coeffs):
        for j, y in enumerate(L.coeffs):
            prod[i + j] += x * y * (-1) ** j
    spread = [0] * (2 * n + 1)
    for k, c in enumerate(L2.coeffs):
        spread[2 * k] = c
    assert prod == spread


def test_fe_sign_examples():
    assert check_functional_equation(LPoly((1, -5), 5, 1)) == -1
    assert check_functional_equation(LPoly((1, -10, 25), 5, 2)) == 1
    with pytest.raises(FFECError):
        check_functional_equation(LPoly((1, 3), 2, 1))


def test_rh_examples():
    assert check_rh(LPoly((1, -64, 1536, -16384, 65536), 16, 4))   # (1-16T)^4
    assert not check_rh(LPoly((1, -17), 16, 1))
    assert check_rh(LPoly((1, -4, 12, -16, 16), 2, 4))   # (1-2T+4T^2)^2


def _rh_by_roots(L):
    """A floating-point oracle: np.roots on each irreducible factor of L
    over Q, so no root is repeated, and every |alpha| within 1e-9 q of q."""
    import numpy as np
    from ffec.zfactor import factor_z

    for g, _ in factor_z(L.coeffs)[1]:
        roots = np.roots([float(c) for c in reversed(g)])
        if any(abs(abs(1 / r) - L.q) > 1e-9 * L.q for r in roots):
            return False
    return True


@pytest.mark.parametrize("q", [2 ** 16, 2 ** 20])
@pytest.mark.parametrize("a", [0, 3, "q"])
def test_rh_rejects_roots_just_off_the_circle(q, a):
    """1 - aT + (q^2 + 1)T^2 has |alpha| = sqrt(q^2 + 1), a relative error
    below 1e-9 at these q, which a float check with that tolerance took for
    |alpha| = q."""
    a = q if a == "q" else a
    assert not check_rh(LPoly((1, -a, q * q + 1), q, 2))
    # times the Weil factor 1 - qT + q^2 T^2
    assert not check_rh(LPoly((1, -a - q, 2 * q * q + 1 + a * q,
                               -a * q * q - q ** 3 - q, q ** 4 + q * q), q, 4))
    assert check_rh(LPoly((1, -a, q * q), q, 2))
    assert check_rh(LPoly((1, -2 * q, q * q), q, 2))        # (1 - qT)^2
    assert not check_rh(LPoly((1, -2 * q - 1, q * q), q, 2))


def _golden_ls():
    """(L, the recorded rh or None) for every L in the recorded reports."""
    out = []
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            if r["record"] == "lreport":
                out.append((LPoly(tuple(r["coeffs"]), r["q"], r["N"]), r["rh"]))
            elif r["record"] == "towerscan":
                out.append((LPoly(tuple(r["l_coeffs"]), r["q_const"], r["N"]), None))
    return out


def test_rh_agrees_with_roots_on_recorded_ls():
    ls = _golden_ls()
    assert len(ls) == 11
    for L, rh in ls:
        assert check_rh(L) == _rh_by_roots(L) == (True if rh is None else rh), L


# Phi_n(x) for a few n: Phi_n(qT) has its inverse roots q zeta_n
_CYCLOTOMIC = [(1, -1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 1, 1, 1, 1),
               (1, 0, 0, 0, 1), (1, 0, -1, 0, 1)]


def _weil_factor(q, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return (1, rng.choice((-q, q)))
    if kind == 1:
        return (1, -rng.randint(-2 * q, 2 * q), q * q)
    return tuple(c * q ** i for i, c in enumerate(rng.choice(_CYCLOTOMIC)))


def _non_weil_factor(q, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return (1, rng.choice([c for c in range(-3 * q, 3 * q + 1) if c and abs(c) != q]))
    if kind == 1:
        a = rng.randint(2 * q + 1, 4 * q)
        return (1, rng.choice((a, -a)), q * q)
    return (1, -rng.randint(-2 * q, 2 * q), rng.choice([b for b in range(1, 3 * q * q) if b != q * q]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_rh_agrees_with_roots_on_products(q):
    """Seeded products of one to four factors, each with every inverse
    root on |alpha| = q or not: RH holds iff every factor has it."""
    rng = random.Random(q)
    for _ in range(50):
        factors = [(_weil_factor(q, rng), True) if rng.random() < 0.7 else
                   (_non_weil_factor(q, rng), False) for _ in range(rng.randint(1, 4))]
        coeffs = [1]
        for f, _ in factors:
            coeffs = [sum(coeffs[i] * f[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(f))
                      for k in range(len(coeffs) + len(f) - 1)]
        L = LPoly(tuple(coeffs), q, len(coeffs) - 1)
        assert check_rh(L) == _rh_by_roots(L) == all(w for _, w in factors), factors


def test_analytic_rank_examples():
    assert analytic_rank(LPoly((1,), 5, 0)) == 0
    assert analytic_rank(LPoly((1, -5), 5, 1)) == 1
    assert analytic_rank(LPoly((1, -10, 25), 5, 2)) == 2
    assert analytic_rank(LPoly((1, 0, -25), 5, 2)) == 1
    assert analytic_rank(LPoly((1, -64, 1536, -16384, 65536), 16, 4)) == 4


def test_surface_zeta_crit2():
    E = crit2_curve()
    L = l_polynomial(E)
    Z = surface_zeta(E, L, bad_reduction(E))
    # 2 from the two P^1 zetas, 17 from component counts, 1 from the rank
    assert Z.pole_order() == 20
    den = dict(Z.den_factors)
    assert den[(1, -5)] >= 2
    # L itself plus the matching deg-2 component factor 1 - 25T^2
    assert den[L.coeffs] == 2


def test_surface_zeta_undefined_row():
    F7 = field_create(7)
    t = parse_ratfunc("t", F7)
    E = Curve(F7, a4=t ** 2, a6=t ** 3)   # I0* with irreducible residue cubic
    L = l_polynomial(E)
    assert L.coeffs == (1,)
    with pytest.raises(UndefinedRowError):
        surface_zeta(E, L, bad_reduction(E))


def test_power_sum_roundtrip(rng):
    for _ in range(50):
        n = rng.randrange(1, 6)
        coeffs = (1,) + tuple(rng.randrange(-9, 10) for _ in range(n))
        s = _power_sums(coeffs, n)
        assert _from_power_sums(s, n) == coeffs


def _horner(L, x):
    # Horner in integers: for x = n/d the sum of c_i n^i d^(N-i), over d^N
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(L.coeffs):
        acc = acc * n + c * dk
        dk *= d
    return Fraction(acc, dk // d)


def test_integer_horner_matches_fraction_horner(rng):
    """L(x) by integer Horner equals Horner on Fractions."""
    for _ in range(200):
        N = rng.randrange(0, 12)
        L = LPoly((1,) + tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(N)),
                  rng.choice([2, 3, 4, 5, 7, 9]), N)
        x = rng.choice([Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)),
                        rng.randrange(-5, 6)])
        want = Fraction(0)
        for c in reversed(L.coeffs):
            want = want * x + c
        assert _horner(L, x) == want


def test_rank_bounded_by_degree():
    for L in (LPoly((1, 0, -25), 5, 2), LPoly((1, 0, 0, 0, -16), 2, 4),
              LPoly((1, -18, 81), 9, 2)):
        r = analytic_rank(L)
        assert r <= L.N
        if r == L.N:
            q = L.q
            from math import comb
            assert L.coeffs == tuple(comb(L.N, k) * (-q) ** k for k in range(L.N + 1))


# ---------------------------------------------------------------------------
# the per-degree Euler product against a place-by-place reference

def euler_factor(E, v):
    """The local Euler factor at v as integer coefficients in T: good
    reduction gives 1 - a_v T^d + q_v T^2d, multiplicative reduction
    1 - a_v T^d, additive reduction 1 (d = deg v)."""
    ld = tate_type(E, v)
    d = v.degree
    if ld.type.is_good:
        out = [0] * (2 * d + 1)
        out[0], out[d], out[2 * d] = 1, -ld.a_v, v.qv
        return tuple(out)
    if ld.type.is_multiplicative:
        out = [0] * (d + 1)
        out[0], out[d] = 1, -ld.a_v
        return tuple(out)
    return (1,)


def _reference_series(E, order):
    """The Euler product to the given order, place by place: every good
    place reduces the minimal model into its own residue field and counts
    points there; places dividing the discriminant, and infinity, take
    their factor from Tate's algorithm."""
    M, _ = minimal_polynomial_model(E)
    delta = M.delta.num
    series = [1] + [0] * order
    for v in places_up_to(E.field, order):
        if v.is_infinite or (delta % v.poly).is_zero():
            f = euler_factor(M, v)
        else:
            cs = [v.reduce(r) for r in M.coeffs]
            a = v.qv + 1 - count_ws_points(v.residue_field(), *cs)
            d = v.degree
            f = [0] * (2 * d + 1)
            f[0], f[d], f[2 * d] = 1, -a, v.qv
        for i in range(1, order + 1):
            series[i] -= sum(f[j] * series[i - j]
                             for j in range(1, min(i, len(f) - 1) + 1))
    return series


def _draw_curve(F, max_N, rng):
    """A random non-constant curve over F(t) with coefficients of degree
    <= 1 and N <= max_N."""
    els = list(F.elements())
    while True:
        cs = [RatFunc(Poly(F, [els[rng.randrange(F.q)] for _ in range(rng.randrange(3))]))
              for _ in range(5)]
        try:
            E = Curve(F, *cs)
        except FFECError:
            continue
        if not classify(E).constant and conductor(E).deg - 4 <= max_N:
            return E


def test_euler_product_matches_reference(rng):
    t = parse_ratfunc("t", F2)
    curves = [Curve(F2, a1=1, a6=t ** 3 + t ** 2 + t)]   # bad at t^2 + t + 1
    for F, max_N, count in ((F2, 2, 2), (F3, 1, 2), (field_create(2, 2), 0, 1)):
        curves += [_draw_curve(F, max_N, rng) for _ in range(count)]
    assert any(ld.place.degree >= 2 for E in curves for ld in bad_reduction(E)
               if not ld.place.is_infinite)
    for E in curves:
        L = l_polynomial(E, descend=False)
        assert _reference_series(E, L.N + 4) == list(L.coeffs) + [0] * 4, E


@pytest.mark.parametrize("q", [2, 3, 4])
def test_place_orbits_count_places(q):
    for d in range(1, 7):
        assert len(_place_orbits(q, d)) == place_count(q, d)


def test_degree_fields_shared(monkeypatch):
    built = collections.Counter()
    init = algebra.ZechTable.__init__

    def counting(self, field):
        built[field] += 1
        init(self, field)

    # residue fields are shared across tests through both caches: start
    # with none, so every field below is built, and counted, here
    _degree_field.cache_clear()
    algebra._quotient_field.cache_clear()
    monkeypatch.setattr(algebra.ZechTable, "__init__", counting)
    E = crit2_curve()
    first = l_polynomial(E)
    second = l_polynomial(E)
    assert first == second
    # N = 2 and c_1 = 0: c_2 fixes eps = -1 and c_3 = 0 confirms it
    assert _degree_field.cache_info().currsize == 3
    fields = [_degree_field(F5, d) for d in range(2, 4)]
    assert [built[K] for K in fields] == [1] * len(fields)


def test_place_count_check(monkeypatch):
    orbits = lfunction._place_orbits
    monkeypatch.setattr(lfunction, "_place_orbits", lambda q, d: orbits(q, d)[1:])
    with pytest.raises(FFECError, match="places of that degree"):
        l_polynomial(crit2_curve())


def test_tail_check(monkeypatch):
    # one wrong point count: the coefficient past the one that fixes eps,
    # which the functional equation over-determines, must catch it
    count = lfunction.count_ws_points
    calls = []

    def off_by_one(K, *cs):
        calls.append(K)
        return count(K, *cs) + (len(calls) == 1)

    monkeypatch.setattr(lfunction, "count_ws_points", off_by_one)
    with pytest.raises(FFECError, match="functional equation"):
        l_polynomial(crit2_curve())


def test_place_cap(monkeypatch):
    # crit2 has N = 2, so it counts degrees N//2 + 1 = 2 and then 3
    monkeypatch.setattr(lfunction, "PLACE_CAP", 5 ** 2)
    with pytest.raises(CapError, match="degree 3: q_v = 125"):
        l_polynomial(crit2_curve())


def test_place_cap_before_counting(monkeypatch):
    def fail(*args):
        raise AssertionError("a point was counted before the cap check")

    monkeypatch.setattr(lfunction, "PLACE_CAP", 5)
    monkeypatch.setattr(lfunction, "count_ws_points", fail)
    with pytest.raises(CapError, match="degree 2: q_v = 25"):
        l_polynomial(crit2_curve())


def test_place_cap_before_futile_counting(monkeypatch):
    # e7 at t = u^11 over F_2 has N = 10 and c_1 .. c_5 = 0, so eps needs
    # degree 10: above a cap of 2^7, known once degrees 1 .. 5 are counted
    monkeypatch.setattr(lfunction, "PLACE_CAP", 2 ** 7)
    fields = []

    def spy(K, *cs):
        fields.append(K.q)
        return count_ws_points(K, *cs)

    monkeypatch.setattr(lfunction, "count_ws_points", spy)
    with pytest.raises(CapError, match="degree 8: q_v = 256"):
        l_polynomial(base_change_pow(catalog.e7(F2), 11))
    assert fields and 2 ** 6 not in fields and max(fields) == 2 ** 5


@pytest.mark.parametrize("F", [F2, F3, field_create(2, 2), F5], ids=repr)
def test_good_counts_match_places(F, rng):
    # the orbit counts of each degree against the good places of
    # places_up_to, each reduced into its own residue field
    curves = [fam(F) for fam in (catalog.e7, catalog.e8, catalog.e9,
                                 catalog.first_example)]
    curves += [_draw_curve(F, 4, rng) for _ in range(2)]
    places = places_up_to(F, 3)[1:]
    for E in curves:
        M, _ = minimal_polynomial_model(E)
        delta = M.delta.num
        for d in range(1, 4):
            want = sorted(
                count_ws_points(v.residue_field(), *(v.reduce(r) for r in M.coeffs))
                for v in places if v.degree == d and not (delta % v.poly).is_zero())
            assert sorted(lfunction._good_counts(M, d)) == want, (E, d)
