"""The factorizer over Z against sympy's factor_list, the tests' oracle:
tower L-polynomials, seeded random products and Swinnerton-Dyer
polynomials, which split into factors of degree at most 2 modulo every
prime.  A recombination past its subset budget raises CapError.
factor_degrees, which divides out the Phi_n(qT) before it calls the
factorizer, is checked against the same oracle."""

import contextlib
import io
import itertools
import json
import pathlib
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.specialpolys import swinnerton_dyer_poly  # noqa: E402

from ffec import catalog, cli, zfactor  # noqa: E402
from ffec.algebra import CapError, Poly, factor_poly, field_create, mult_order  # noqa: E402
from ffec.lfunction import LPoly, _extend_inverse_roots  # noqa: E402
from ffec.towers import factor_degrees, tower_l  # noqa: E402
from ffec.zfactor import factor_z  # noqa: E402
from test_golden import report  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
X = sympy.symbols("x")


def sympy_factors(cs):
    """sympy's (content, sorted [(coefficients low degree first, e)])."""
    c, fl = sympy.Poly(sum(a * X ** i for i, a in enumerate(cs)), X).factor_list()
    return int(c), sorted((tuple(int(a) for a in reversed(g.all_coeffs())), e)
                          for g, e in fl)


def assert_matches_sympy(cs):
    c, factors = factor_z(cs)
    assert (c, sorted(factors)) == sympy_factors(cs)


def sympy_degrees(cs):
    _, fl = sympy.Poly(sum(a * X ** i for i, a in enumerate(cs)), X).factor_list()
    return sorted((int(g.degree()), e) for g, e in fl)


# layers over F_3 at d = 17 and over F_5 at d = 9 take seconds each
TOWER_LAYERS = [((2, 1), (3, 5, 9, 17)), ((2, 2), (3, 5, 9, 17)),
                ((3, 1), (2, 4, 5)), ((5, 1), (2, 3, 4))]


def _tower_ls():
    for (p, e), ds in TOWER_LAYERS:
        F = field_create(p, e)
        for name in ("e7", "e8", "e9", "first_example"):
            E = getattr(catalog, name)(F)
            for d in ds:
                L = tower_l(E, d)
                yield f"{name}-F{F.q}-d{d}-F", L
                yield f"{name}-F{F.q}-d{d}-K", _extend_inverse_roots(L, mult_order(F.q, d))


def _spy_factor_z(monkeypatch):
    """The inputs factor_degrees hands to zfactor.factor_z."""
    seen = []

    def spy(f):
        seen.append(tuple(f))
        return factor_z(f)

    monkeypatch.setattr(zfactor, "factor_z", spy)
    return seen


def test_tower_l_polynomials(monkeypatch):
    seen = _spy_factor_z(monkeypatch)
    repeated = set()
    for label, L in _tower_ls():
        want = sympy_degrees(L.coeffs)
        assert factor_degrees(L) == want, label
        assert_matches_sympy(L.coeffs)
        repeated.add(len(want) > 0 and max(e for _, e in want) > 1)
    # both the squarefree and the repeated-factor paths ran
    assert repeated == {False, True}
    # over F_5 at d = 4, e7 and first_example keep 1 -+ 6T + 25T^2, which
    # are not Phi_n(5T); only they reach the factorizer
    left = {g for f in seen for g, _ in factor_z(f)[1]}
    assert left == {(1, -6, 25), (1, 6, 25)}


def _cyclotomic_product(rng, q):
    """A product of Phi_n(qT)^e and Weil quadratics 1 - aT + q^2 T^2 with
    0 < |a| < 2q, a != +-q (irreducible, and not Phi_3, Phi_4 or Phi_6 at
    qT), with constant term 1; and whether a quadratic is in it."""
    out, weil = [1], False
    for _ in range(rng.randrange(0, 5)):
        if rng.random() < 0.3:
            a = rng.choice([a for a in range(1 - 2 * q, 2 * q) if a and abs(a) != q])
            g, weil = [1, -a, q * q], True
        else:
            n = rng.choice([1, 1, 2, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15])
            phi_n = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
            g = [c * q ** i for i, c in enumerate(phi_n)]
        for _ in range(rng.choice([1, 1, 2, 3])):
            out = zfactor._mul(out, [int(c) for c in g])
    return (out if out[0] == 1 else [-c for c in out]), weil


def test_peel_on_seeded_products(monkeypatch):
    seen = _spy_factor_z(monkeypatch)
    rng = random.Random(0x18)
    kinds = set()
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f, weil = _cyclotomic_product(rng, q)
        calls = len(seen)
        assert factor_degrees(LPoly(tuple(f), q, len(f) - 1)) == sympy_degrees(f), (q, f)
        # the factorizer runs exactly when a Weil quadratic is left over
        assert (len(seen) > calls) == weil, (q, f)
        kinds.add((weil, len(f) > 1))
    assert kinds == {(False, False), (False, True), (True, True)}


def _random_product(rng):
    out = [rng.choice([1, -1]) * rng.choice([1, 1, 2, 6, 12])]
    for _ in range(rng.randrange(0, 5)):
        deg = rng.randrange(0, 5)
        g = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice([-5, -2, -1, 1, 1, 3])]
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            out = zfactor._mul(out, g)
    return out


def test_random_products():
    rng = random.Random(0x2F)
    degrees, kinds = set(), set()
    for _ in range(300):
        f = _random_product(rng)
        degrees.add(len(f) - 1)
        c, factors = factor_z(f)
        kinds |= {k for k, seen in (("repeated", any(e > 1 for _, e in factors)),
                                    ("negative lc", f[-1] < 0),
                                    ("content", abs(c) > 1),
                                    ("non-monic", any(g[-1] > 1 for g, _ in factors)))
                  if seen}
        prod = [c]
        for g, e in factors:
            assert g[-1] > 0 and len(g) > 1
            for _ in range(e):
                prod = zfactor._mul(prod, list(g))
        assert prod == f
        assert (c, sorted(factors)) == sympy_factors(f), f
    assert {0, 1} <= degrees
    assert kinds == {"repeated", "negative lc", "content", "non-monic"}


@pytest.mark.parametrize("cs", [
    [7], [-12], [0, 5], [-4, 6], [0, 0, 0, 3], [16, 0, 0, 0, -1],
    [1, -16], [1, -64, 1536, -16384, 65536], [2, 4, 2], [-3, 0, 3],
])
def test_small_cases(cs):
    assert_matches_sympy(cs)


def test_zero_polynomial():
    with pytest.raises(ValueError):
        factor_z([0, 0])


@pytest.mark.parametrize("n", [3, 4])
def test_swinnerton_dyer(n):
    f = [int(a) for a in reversed(swinnerton_dyer_poly(n, X, polys=True).all_coeffs())]
    assert len(f) - 1 == 2 ** n
    assert factor_z(f) == (1, [(tuple(f), 1)])
    assert_matches_sympy(f)
    for ell, fb in itertools.islice(zfactor._squarefree_reductions(f), 3):
        F = field_create(ell)
        _, fs = factor_poly(Poly(F, [F.scalar(a) for a in fb]))
        assert max(g.degree for g, _ in fs) <= 2
    # f squared times 1 - 2x^2: the squarefree split runs first
    g = zfactor._mul(zfactor._mul(f, f), [1, 0, -2])
    assert_matches_sympy(g)


def test_subset_budget_raises(monkeypatch):
    f = [int(a) for a in reversed(swinnerton_dyer_poly(4, X, polys=True).all_coeffs())]
    monkeypatch.setattr(zfactor, "SUBSET_BUDGET", 10)
    with pytest.raises(CapError):
        factor_z(f)


def test_scan_reports_the_cap(monkeypatch):
    """A scan row whose L keeps a factor that is not a Phi_n(qT) runs the
    factorizer, and a recombination past the budget is a cap record.  On
    y^2 + t xy + y = x^3 over F_2 at d = 5, L over F_d keeps
    1 + 22T^4 + 256T^8, which splits in two modulo the probe prime."""
    monkeypatch.setattr(zfactor, "SUBSET_BUDGET", 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["tower", "--curve", str(DATA / "e7-swapped-f2.curve"), "--scan", "2"])
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code == 1
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    assert records[1]["message"] == \
        "cap: more than 0 subsets of 2 modular factors to recombine"


def test_e9_scan_needs_no_factorizer(monkeypatch):
    """Every L of e9's scan is a product of Phi_n(qT): with the factorizer
    made to raise, the report still matches its recording."""
    def refuse(f):
        raise AssertionError(f"factor_z called on {f}")

    monkeypatch.setattr(zfactor, "factor_z", refuse)
    want = (DATA / "tower-e9-f2-scan2.jsonl").read_text(encoding="utf-8")
    assert report(["tower", "--curve", "e9-f2.curve", "--scan", "2"]) == want
