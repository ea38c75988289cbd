"""Long-polynomial arithmetic against the schoolbook.

From _BIG coefficients on, Poly multiplies, divides and takes gcds on
coordinate arrays (algebra._array_mul, _array_divmod, _array_gcd); a
division goes there only when its divisor has _BIG // 4 coefficients too.  The
reference below works on coefficient lists with FqElem operations only, so
it shares nothing with those paths; lengths on both sides of _BIG also check
that the two routes meet at the threshold.
"""

import functools

import pytest

from ffec.algebra import _BIG, Place, Poly, field_create, iter_monic_irreducibles

SMALL = [(p, e) for p in range(2, 65) if all(p % d for d in range(2, p))
         for e in range(1, 7) if p ** e <= 64]
LENGTHS = [_BIG - 1, _BIG, _BIG + 1, 3 * _BIG]


def _residue_field_over_f4():
    F4 = field_create(2, 2)
    return Place.finite(next(iter_monic_irreducibles(F4, 2))).residue_field()


FIELDS = {f"F_{p}^{e}": functools.partial(field_create, p, e) for p, e in SMALL}
FIELDS["F_2^16"] = functools.partial(field_create, 2, 16)
FIELDS["deg-2 over F_4"] = _residue_field_over_f4


def ref_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def ref_divmod(a, b, zero):
    rem = list(a)
    quo = [zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        quo[i] = f
        for j, y in enumerate(b):
            rem[i + j] = rem[i + j] - f * y
    return quo, rem[:len(b) - 1]


def ref_gcd(a, b, zero):
    a, b = list(a), list(b)
    while any(b):
        _, r = ref_divmod(a, b, zero)
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return [c / a[-1] for c in a] if a else a


def rand_poly(F, n, rng, els):
    """A polynomial with exactly n coefficients."""
    cs = [rng.choice(els) for _ in range(n - 1)]
    return Poly(F, cs + [rng.choice(els[1:])])


@pytest.fixture(params=list(FIELDS), scope="module")
def field(request):
    F = FIELDS[request.param]()
    F.zech()  # the reference's own arithmetic, by table from the start
    return F, sorted(F.elements(), key=bool)  # 0 first


def test_the_fields():
    assert len(SMALL) == 27
    F = _residue_field_over_f4()
    assert (F.q, F.base.q, F.e) == (16, 4, 4)


def test_codes_and_coordinates(field, rng):
    # codes in increasing order are the canonical order, and _coords and
    # _from_coords are inverse to each other
    F, els = field
    assert [x.val for x in F.elements()] == list(range(F.q))
    xs = [rng.choice(els) for _ in range(50)] + els[:2]
    rows = F._coords(xs)
    assert rows.shape == (len(xs), F.e) and rows.min() >= 0 and rows.max() < F.p
    assert F._from_coords(rows) == xs


def _degree_70_field():
    # t^70 + t^24 + t^2 + t + 1, irreducible over F_2 (Place.finite checks)
    cs = [1 if k in (0, 1, 2, 24, 70) else 0 for k in range(71)]
    return Place.finite(Poly(field_create(2), cs)).residue_field()


def test_codes_above_int64(rng):
    # q = 2^70: codes and coordinates go through object arrays.  Elements with
    # few non-zero coordinates, some of them above 2^63, and monic divisors
    # keep the schoolbook reference, which computes x^(q-2) per division,
    # fast
    F = _degree_70_field()
    t = F.gen
    els = [F.zero, F.one, t, t ** 63, t ** 64, t ** 69 + t ** 3 + 1, t ** 65 + t ** 40]
    assert F.q == 1 << 70 and max(x.val for x in els) >= 1 << 63
    assert F._from_coords(F._coords(els)) == els

    def poly(n):
        return Poly(F, [rng.choice(els) for _ in range(n - 1)] + [F.one])

    a, b = poly(_BIG), poly(_BIG + 5)
    assert a * b == Poly(F, ref_mul(a.coeffs, b.coeffs, F.zero))
    for m in (_BIG // 4, _BIG // 2):
        d = poly(m)
        wq, wr = ref_divmod(a.coeffs, d.coeffs, F.zero)
        assert divmod(a, d) == (Poly(F, wq), Poly(F, wr))
    # gcd(g u, g (u + 1)) = g, in two Euclid steps by monic divisors
    g, u = poly(_BIG // 2), poly(_BIG // 2 + 1)
    x, y = g * u, g * (u + 1)
    assert len(x.coeffs) >= _BIG
    assert x.gcd(y) == Poly(F, ref_gcd(x.coeffs, y.coeffs, F.zero)) == g


def test_mul_matches_schoolbook(field, rng):
    F, els = field
    for n in LENGTHS:
        a = rand_poly(F, n, rng, els)
        for m in (n, 2, n // 3 + 1):
            b = rand_poly(F, m, rng, els)
            assert a * b == Poly(F, ref_mul(a.coeffs, b.coeffs, F.zero))


def test_divmod_matches_schoolbook(field, rng):
    F, els = field
    for n in LENGTHS:
        a = rand_poly(F, n, rng, els)
        # divisors short of _BIG // 4 take the loop even for a long dividend
        for m in (n // 2, n, 1, 2, _BIG // 4 - 1, _BIG // 4, _BIG // 4 + 1):
            b = rand_poly(F, m, rng, els)
            q, r = divmod(a, b)
            wq, wr = ref_divmod(a.coeffs, b.coeffs, F.zero)
            assert (q, r) == (Poly(F, wq), Poly(F, wr))
            assert r.degree < b.degree
        # a divisor with a leading coefficient other than 1
        b = rand_poly(F, n // 2, rng, els)
        if F.q > 2:
            c = next(x for x in els[1:] if x is not F.one)
            b = b * Poly.const(c / b.lc())
            assert b.lc() is c
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        # a divisor longer than the dividend
        long = rand_poly(F, n + 3, rng, els)
        assert divmod(a, long) == (Poly.zero(F), a)
        # an exact division
        c = rand_poly(F, n // 2 + 1, rng, els)
        q, r = divmod(c * b, b)
        assert (q, r) == (c, Poly.zero(F))
        assert (c * b).exact_div(c) == b


def test_gcd_matches_schoolbook(field, rng):
    F, els = field
    zero = Poly.zero(F)
    for n in LENGTHS:
        a = rand_poly(F, n, rng, els)
        b = rand_poly(F, n - 5, rng, els)
        assert a.gcd(b) == Poly(F, ref_gcd(a.coeffs, b.coeffs, F.zero))
        # a zero operand: the gcd is the other one made monic
        assert a.gcd(zero) == zero.gcd(a) == a.monic()
        assert zero.gcd(zero) == zero
        # a coprime pair: u and u + 1
        assert a.gcd(a + 1).is_one() and (a + 1).gcd(a).is_one()
        # a common factor of known degree: gcd(g u, g (u + 1)) = g made monic
        g = rand_poly(F, n // 3 + 2, rng, els)
        u = rand_poly(F, n - n // 3, rng, els)
        got = (g * u).gcd(g * (u + 1))
        assert got.degree == g.degree and got == g.monic()
