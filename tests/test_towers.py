"""Orbit decompositions, the block-cyclic pairing lemma, tower L-functions."""

import math

import pytest

from ffec.algebra import (CapError, FFECError, Place, Poly, field_create, mult_order,
                          parse_ratfunc)
from ffec.weierstrass import Curve, base_change_pow
from ffec import catalog
from ffec.lfunction import analytic_rank, l_polynomial
from ffec.local import conductor
from ffec.towers import (
    check_hypotheses,
    det_interpolated,
    divisibility,
    factor_degrees,
    layer_degree_bound,
    lemma_det,
    lemma_la_verify,
    orbit_decomposition,
    random_block_system,
    rank_growth_scan,
    tower_l,
)
from oracles import extend_constants
from test_lfunction import _reference_series

F2 = field_create(2)


def test_orbit_examples():
    assert orbit_decomposition(4, 3).orbits == ((0,), (1, 3), (2,))
    assert orbit_decomposition(5, 2).orbits == ((0,), (1, 2, 3, 4))
    assert orbit_decomposition(1, 7).orbits == ((0,),)
    with pytest.raises(ValueError):
        orbit_decomposition(4, 2)


def test_orbit_invariants(rng):
    for _ in range(40):
        d = rng.randrange(1, 40)
        q = rng.randrange(2, 30)
        if math.gcd(d, q) != 1:
            continue
        dec = orbit_decomposition(d, q)
        flat = sorted(j for o in dec.orbits for j in o)
        assert flat == list(range(d))
        assert sum(dec.sizes) == d
        m = mult_order(q, d) if d > 1 else 1
        for o in dec.orbits:
            assert set((j * q) % d for j in o) == set(o)
            assert m % len(o) == 0


def test_block_system_trivial(rng):
    B = random_block_system(2, 1, rng)
    assert lemma_det(B) == (1, 0, -1)
    assert lemma_la_verify(B)


def test_block_system_lemma_holds(rng):
    for a in (2, 4, 6):
        for w in (1, 3, 5):
            for _ in range(4):
                B = random_block_system(a, w, rng)
                hyp = check_hypotheses(B)
                assert all(hyp.values())
                assert lemma_la_verify(B)


def test_block_det_identity(rng):
    for a, w in ((2, 3), (4, 3), (6, 1)):
        B = random_block_system(a, w, rng)
        assert det_interpolated(B) == lemma_det(B)


def test_block_violator(rng):
    hit = False
    for _ in range(25):
        B = random_block_system(4, 2, rng)
        with pytest.raises(FFECError):
            lemma_la_verify(B)
        if not divisibility(B):
            hit = True
            break
    assert hit


def test_block_bad_a():
    import random
    with pytest.raises(ValueError):
        random_block_system(3, 1, random.Random(0))


def test_tower_d1_identity():
    E = catalog.e7(F2)
    assert tower_l(E, 1).coeffs == l_polynomial(E).coeffs
    assert tower_l(E, 1, use_mu_d=True).coeffs == l_polynomial(E).coeffs


def test_tower_gcd_error():
    with pytest.raises(ValueError):
        tower_l(catalog.e7(F2), 2)


@pytest.mark.parametrize("fam", [catalog.e7, catalog.e8, catalog.e9, catalog.first_example],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_layer_degree_bound_holds(fam, p, e):
    """The bound is the layer's conductor degree away from u = 0 and
    infinity, less 4, so at most N."""
    F = field_create(p, e)
    E = fam(F)
    u0, inf = Place(F, Poly.x(F)), Place.infinite(F)
    for d in (3, 5, 7, 9, 17):
        if d % p:
            cond = conductor(base_change_pow(E, d))
            away = cond.deg - cond.exponent(u0) - cond.exponent(inf)
            assert layer_degree_bound(E, d) == away - 4 <= cond.deg - 4


def test_tower_caps_before_building_the_layer(monkeypatch):
    import ffec.towers

    def unbuilt(E, d):
        raise AssertionError("the layer was built")

    monkeypatch.setattr(ffec.towers, "base_change_pow", unbuilt)
    # e7 over F_2 is bad at t + 1 with n = 1: the layer at d has N >= d - 4
    with pytest.raises(CapError, match="places of degree 17: q_v = 131072"):
        tower_l(catalog.e7(F2), 100001)
    swapped = Curve(F2, a1="t", a3="1")
    with pytest.raises(CapError, match="places of degree 17: q_v = 131072"):
        tower_l(swapped, 101, use_mu_d=True)


def test_tower_e7_fixtures():
    E = catalog.e7(F2)
    L3F = tower_l(E, 3)
    L3K = tower_l(E, 3, use_mu_d=True)
    assert L3F.coeffs == (1,) and L3F.q == 2
    assert L3K.coeffs == (1,) and L3K.q == 4
    L5F = tower_l(E, 5)
    L5K = tower_l(E, 5, use_mu_d=True)
    assert L5F.coeffs == (1, 0, 0, 0, -16)
    assert analytic_rank(L5F) == 1
    assert L5K.q == 16
    assert L5K.coeffs == (1, -64, 1536, -16384, 65536)   # (1 - 16T)^4
    assert analytic_rank(L5K) == 4


@pytest.mark.parametrize("fam, p, d", [
    (catalog.e7, 2, 3), (catalog.e7, 2, 5), (catalog.e9, 2, 3), (catalog.e9, 2, 5),
    (catalog.first_example, 2, 3), (catalog.first_example, 2, 5), (catalog.e7, 3, 4),
], ids=lambda x: getattr(x, "__name__", x))
def test_mu_layer_matches_extended_curve(fam, p, d):
    # tower_l raises the inverse roots over F_q(u) to the power
    # m = mult_order(q, d); expand the Euler product over F_{q^m}(u) instead
    E = fam(field_create(p))
    m = mult_order(p, d)
    direct = l_polynomial(base_change_pow(extend_constants(E, m), d), descend=False)
    assert direct.q == p ** m
    assert tower_l(E, d, use_mu_d=True) == direct


def test_factor_degrees():
    E = catalog.e7(F2)
    L5F = tower_l(E, 5)
    assert factor_degrees(L5F) == [(1, 1), (1, 1), (2, 1)]
    assert factor_degrees(tower_l(E, 5, use_mu_d=True)) == [(1, 4)]


def test_rank_growth_scan():
    scan = rank_growth_scan(catalog.e7(F2), 2)
    assert scan["nprime_deg"] == 1
    assert scan["warning"] is None
    assert scan["c_obs"] == 1.5
    assert len(scan["rows"]) == 4
    by_key = {(r["d"], r["field"]): r for r in scan["rows"]}
    assert by_key[(3, "F_d")]["rank"] == 0
    assert by_key[(5, "F_d")]["rank"] == 1
    assert by_key[(5, "K_d")]["rank"] == 4
    for (d, f), r in by_key.items():
        assert r["rank"] <= r["N"]
        assert r["c_obs"] == 1.5
        assert by_key[(d, "K_d")]["rank"] >= by_key[(d, "F_d")]["rank"]


@pytest.mark.parametrize("fam", [catalog.e7, catalog.e8, catalog.e9,
                                 catalog.first_example])
def test_scan_k_rows_match_direct_product(fam):
    # the scan gets L over K_3 = F_4 from L over F_3 by power sums; expand
    # the Euler product over F_4(u) directly instead
    E = fam(F2)
    rows = {r["field"]: r for r in rank_growth_scan(E, 1)["rows"]}
    EK = base_change_pow(extend_constants(E, mult_order(2, 3)), 3)
    N = rows["K_d"]["N"]
    assert rows["K_d"]["q_const"] == 4
    assert _reference_series(EK, N + 1) == rows["K_d"]["l_coeffs"] + [0]


def test_scan_warning_even_nprime():
    # y^2 + y = x^3 + x + t has nprime degree 2; an empty scan is an error
    F2 = field_create(2)
    E = Curve(F2, a3=1, a4=1, a6=parse_ratfunc("t", F2))
    scan = rank_growth_scan(E, 1)
    assert scan["warning"] is not None and scan["nprime_deg"] == 2
    assert [row["d"] for row in scan["rows"]] == [3, 3]
    with pytest.raises(ValueError, match="n_max >= 1"):
        rank_growth_scan(E, 0)


def ulmer_rank(d: int, q: int) -> int:
    """Rank of y^2 + xy = x^3 - t^d over F_q(t) for d | p^n + 1 (Ulmer,
    Ann. Math. 155 (2002), Theorem 1.5)."""
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    total = sum(phi(e) // mult_order(q, e)
                for e in range(1, d + 1) if d % e == 0 and 6 % e)
    if d % 2 == 0 and (q - 1) % 4 == 0:
        total += 1
    if d % 3 == 0:
        total += 2 if (q - 1) % 3 == 0 else 1
    return total


@pytest.mark.parametrize("d, rank", [(3, 1), (5, 1), (9, 2), (17, 2)])
def test_tower_e9_matches_ulmer(d, rank):
    # e9 is y^2 + xy = x^3 + t, that is x^3 - t over F_2, and d | 2^n + 1;
    # at d = 17, N = 16 and the expansion stops at degree 9
    L = tower_l(catalog.e9(F2), d)
    assert analytic_rank(L) == ulmer_rank(d, 2) == rank
