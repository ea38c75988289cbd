"""Polynomial arithmetic against the schoolbook, on every route.

From _BIG coefficients on, Poly multiplies, divides and takes gcds on
coordinate arrays (algebra._array_mul, _array_divmod, _array_gcd).  Below
that, a field with its table multiplies, divides, takes gcds and valuations
on the discrete logs of the coefficients (_log_mul, _log_div, _log_gcd),
and there a product waits for a shorter factor of _mul_short(e)
coefficients (_BIG // 4 up to e = 6, four times more per degree above), a
division for a divisor of _BIG and a gcd for 2e _BIG before they move to
arrays; a field without a table loops over its elements, and moves to arrays
once an operand has _BIG coefficients.  The reference below works on coefficient lists with FqElem
operations only, so it shares nothing with the array and log paths; lengths
on both sides of each threshold also check that the routes meet there.
"""

import functools

import pytest

from ffec import algebra
from ffec.algebra import (
    _BIG, Place, Poly, _mul_short, field_create, is_irreducible, iter_monic_irreducibles)

SMALL = [(p, e) for p in range(2, 65) if all(p % d for d in range(2, p))
         for e in range(1, 7) if p ** e <= 64]
LENGTHS = [_BIG - 1, _BIG, _BIG + 1, 3 * _BIG]


def _residue_field_over_f4():
    F4 = field_create(2, 2)
    return Place.finite(next(iter_monic_irreducibles(F4, 2))).residue_field()


FIELDS = {f"F_{p}^{e}": functools.partial(field_create, p, e) for p, e in SMALL}
FIELDS["F_2^7"] = functools.partial(field_create, 2, 7)
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


def ref_valuation(a, g, zero):
    """How often the monic g divides a != 0."""
    v = 0
    while len(a) >= len(g):
        q, r = ref_divmod(a, g, zero)
        if any(r):
            break
        a, v = q, v + 1
    return v


def rand_poly(F, n, rng):
    """A polynomial with exactly n coefficients, drawn by their codes."""
    cs = [F._make(rng.randrange(F.q)) for _ in range(n - 1)]
    return Poly(F, cs + [F._make(rng.randrange(1, F.q))])


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


def _counting(monkeypatch, name):
    """Count the calls to the array routine algebra.<name>."""
    calls = []
    real = getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_mul_matches_schoolbook(field, rng, monkeypatch):
    F, _ = field
    s = _mul_short(F.e)
    # F_4 ... F_64 keep _BIG // 4
    assert s == {7: _BIG, 16: _BIG // 4 << 20}.get(F.e, _BIG // 4)
    # a short factor keeps a long product in the log loop; over F_2^7 the
    # shorter factor moves to arrays at 64 coefficients, not 16, and over
    # F_2^16 no product here reaches them
    edge = (s - 1, s) if s <= 4 * _BIG else ()
    arrays = _counting(monkeypatch, "_array_mul")
    for n in LENGTHS:
        a = rand_poly(F, n, rng)
        for m in (n, 2, n // 3 + 1, _BIG // 4 - 1, _BIG // 4) + edge:
            b = rand_poly(F, m, rng)
            before = len(arrays)
            assert a * b == Poly(F, ref_mul(a.coeffs, b.coeffs, F.zero))
            assert len(arrays) - before == (max(n, m) >= _BIG and min(n, m) >= s)
            assert b * a == a * b


def test_divmod_matches_schoolbook(field, rng):
    F, els = field
    for n in LENGTHS:
        a = rand_poly(F, n, rng)
        # with a table, divisors short of _BIG take the log loop even for a
        # long dividend
        for m in (n // 2, n, 1, 2, _BIG // 4 - 1, _BIG // 4, _BIG // 4 + 1):
            b = rand_poly(F, m, rng)
            q, r = divmod(a, b)
            wq, wr = ref_divmod(a.coeffs, b.coeffs, F.zero)
            assert (q, r) == (Poly(F, wq), Poly(F, wr))
            assert r.degree < b.degree
        # a divisor with a leading coefficient other than 1
        b = rand_poly(F, n // 2, rng)
        if F.q > 2:
            c = next(x for x in els[1:] if x is not F.one)
            b = b * Poly.const(c / b.lc())
            assert b.lc() is c
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        # a divisor longer than the dividend
        long = rand_poly(F, n + 3, rng)
        assert divmod(a, long) == (Poly.zero(F), a)
        # an exact division
        c = rand_poly(F, n // 2 + 1, rng)
        q, r = divmod(c * b, b)
        assert (q, r) == (c, Poly.zero(F))
        assert (c * b).exact_div(c) == b


def test_gcd_matches_schoolbook(field, rng):
    F, _ = field
    zero = Poly.zero(F)
    for n in LENGTHS:
        a = rand_poly(F, n, rng)
        b = rand_poly(F, n - 5, rng)
        assert a.gcd(b) == Poly(F, ref_gcd(a.coeffs, b.coeffs, F.zero))
        # a zero operand: the gcd is the other one made monic
        assert a.gcd(zero) == zero.gcd(a) == a.monic()
        assert zero.gcd(zero) == zero
        # a coprime pair: u and u + 1
        assert a.gcd(a + 1).is_one() and (a + 1).gcd(a).is_one()
        # a common factor of known degree: gcd(g u, g (u + 1)) = g made monic
        g = rand_poly(F, n // 3 + 2, rng)
        u = rand_poly(F, n - n // 3, rng)
        got = (g * u).gcd(g * (u + 1))
        assert got.degree == g.degree and got == g.monic()


@pytest.mark.parametrize("p, e", [(2, 1), (5, 1), (2, 2), (3, 2), (7, 2)])
def test_gcd_meets_the_arrays_at_2e_big(p, e, rng):
    # with a table, the gcd leaves the log loop at 2e _BIG coefficients (the
    # reference takes O(n^2) operations, so e stays small)
    F = field_create(p, e)
    F.zech()
    for n in (2 * F.e * _BIG - 1, 2 * F.e * _BIG):
        a, b = rand_poly(F, n, rng), rand_poly(F, n - 7, rng)
        assert a.gcd(b) == Poly(F, ref_gcd(a.coeffs, b.coeffs, F.zero))
        g = rand_poly(F, n // 3, rng)
        u = rand_poly(F, n - n // 3 + 1, rng)
        assert (g * u).gcd(g * (u + 1)) == g.monic()


# Below the arrays: every field with q <= 64 on logs (the fixture builds the
# tables, F_2 among them, where M = 1 and every index wraps), and fields
# without a table on the loop over elements.

SHORT = [1, 2, 3, 4, 7, 12, 20, 33]


def _monic_irreducible(F, d, rng):
    while True:
        g = Poly(F, [F._make(rng.randrange(F.q)) for _ in range(d)] + [1])
        if is_irreducible(g):
            return g


def _check_short(F, rng, lengths):
    zero = Poly.zero(F)
    for n in lengths:
        a = rand_poly(F, n, rng)
        # a constant, a linear and an equal-length operand, and a divisor
        # longer than the dividend
        for m in sorted({1, 2, n // 2 + 1, n, n + 3}):
            b = rand_poly(F, m, rng)
            assert a * b == b * a == Poly(F, ref_mul(a.coeffs, b.coeffs, F.zero))
            q, r = divmod(a, b)
            wq, wr = ref_divmod(a.coeffs, b.coeffs, F.zero)
            assert (q, r) == (Poly(F, wq), Poly(F, wr))
            assert a.gcd(b) == b.gcd(a) == Poly(F, ref_gcd(a.coeffs, b.coeffs, F.zero))
            # an exact division and a gcd of known degree
            assert (a * b).exact_div(b) == a
            if m > 1:
                assert (a * b).gcd(b * (a + 1)) == b.monic()
        assert a * zero == zero * a == zero
        assert divmod(zero, a) == (zero, zero)
        assert a.gcd(zero) == zero.gcd(a) == a.monic()
    assert zero.gcd(zero) == zero


def _check_valuations(F, rng, degrees):
    # v_g(g^k h) = k + v_g(h), with h of a few coefficients, a constant
    # among them, and the reference's own count of divisions for v_g(h)
    for d in degrees:
        g = _monic_irreducible(F, d, rng)
        v = Place.finite(g)
        for k in (0, 1, 2, 5):
            for n in (1, 2, 3 * d + 1):
                h = rand_poly(F, n, rng)
                want = k + ref_valuation(list(h.coeffs), g.coeffs, F.zero)
                assert v.valuation_poly(g ** k * h) == want
        assert v.valuation_poly(g * g) == 2
        assert v.valuation_poly(g + 1) == 0


def test_short_ops_on_logs_match_schoolbook(field, rng):
    F, _ = field
    assert F._table is not None
    _check_short(F, rng, SHORT)
    _check_valuations(F, rng, (1, 2, 3))


def _residue_field(p, d, rng):
    """The residue field of a random place of degree d over F_p, new to this
    test, so it has no table yet."""
    return Place.finite(_monic_irreducible(field_create(p), d, rng)).residue_field()


# F_{2^16} and F_{3^10} build their tables only after q operations on codes,
# and F_{2^17} is above the cap
@pytest.mark.parametrize("p, d", [(2, 16), (3, 10), (2, 17)])
def test_short_ops_on_elements_match_schoolbook(p, d, rng):
    F = _residue_field(p, d, rng)
    assert F._table is None
    _check_short(F, rng, SHORT[:6])
    _check_valuations(F, rng, (1, 2))
    # so every operation above ran the loop over elements
    assert F._table is None


@pytest.mark.parametrize("p, d", [(2, 16), (3, 10)])
def test_division_without_table_meets_the_arrays_at_big(p, d, rng, monkeypatch):
    # with no table a dividend of _BIG coefficients goes to arrays however
    # short its divisor, and one of _BIG - 1 stays in the loop over elements
    F = _residue_field(p, d, rng)
    # the field may share its modulus with an earlier test's: keep it from
    # building its table mid-test
    assert F._table is None
    monkeypatch.setattr(F, "_ops_left", -1)
    arrays = _counting(monkeypatch, "_array_divmod")
    for n in (_BIG - 1, _BIG):
        a = rand_poly(F, n, rng)
        for m in (2, 9, _BIG // 4 - 1):
            b = rand_poly(F, m, rng)
            before = len(arrays)
            wq, wr = ref_divmod(a.coeffs, b.coeffs, F.zero)
            assert divmod(a, b) == (Poly(F, wq), Poly(F, wr))
            assert len(arrays) - before == (n >= _BIG)
    assert F._table is None
