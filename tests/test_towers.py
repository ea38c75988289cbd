"""Orbit decompositions, the block-cyclic pairing lemma, tower L-functions."""

import math

import pytest

from ffec.algebra import FFECError, field_create, mult_order, parse_ratfunc
from ffec.weierstrass import Curve, base_change_pow, extend_constants
from ffec import catalog
from ffec.lfunction import analytic_rank, l_polynomial
from ffec.towers import (
    check_hypotheses,
    det_interpolated,
    divisibility,
    factor_degrees,
    lemma_det,
    lemma_la_verify,
    orbit_decomposition,
    random_block_system,
    rank_growth_scan,
    tower_l,
)

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
    direct = l_polynomial(EK, max_place_deg=max(rows["K_d"]["N"], 1), descend=False)
    assert direct.q == rows["K_d"]["q_const"] == 4
    assert list(direct.coeffs) == rows["K_d"]["l_coeffs"]


def test_scan_warning_even_nprime():
    F9 = field_create(3, 2)
    u = parse_ratfunc("u", F9)
    E = Curve(F9, a1=1, a2=u ** 4, a3=u ** 4, var="u")
    scan = rank_growth_scan(E, 0)
    assert scan["warning"] is not None
    assert scan["rows"] == [] and scan["c_obs"] is None
