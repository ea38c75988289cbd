"""The factorizer over Z against sympy's factor_list, the tests' oracle:
tower L-polynomials, seeded random products and Swinnerton-Dyer
polynomials, which split into factors of degree at most 2 modulo every
prime.  A recombination past its subset budget raises CapError."""

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
from ffec.lfunction import _extend_inverse_roots  # noqa: E402
from ffec.towers import factor_degrees, tower_l  # noqa: E402
from ffec.zfactor import factor_z  # noqa: E402

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


def _tower_ls():
    F2 = field_create(2)
    for name in ("e7", "e8", "e9", "first_example"):
        E = getattr(catalog, name)(F2)
        for d in (3, 5, 9, 17):
            L = tower_l(E, d)
            yield f"{name}-d{d}-F", L
            yield f"{name}-d{d}-K", _extend_inverse_roots(L, mult_order(2, d))


def test_tower_l_polynomials():
    seen = set()
    for label, L in _tower_ls():
        _, fl = sympy.Poly(sum(a * X ** i for i, a in enumerate(L.coeffs)), X).factor_list()
        want = sorted((int(g.degree()), e) for g, e in fl)
        assert factor_degrees(L) == want, label
        assert_matches_sympy(L.coeffs)
        seen.add(len(want) > 0 and max(e for _, e in want) > 1)
    # both the squarefree and the repeated-factor paths ran
    assert seen == {False, True}


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
    monkeypatch.setattr(zfactor, "SUBSET_BUDGET", 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["tower", "--curve", str(DATA / "e9-f2.curve"), "--scan", "2"])
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code == 1
    assert [r["record"] for r in records] == ["meta", "error", "summary"]
    assert records[1]["message"].startswith("cap: ")
