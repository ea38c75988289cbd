"""Finite-field arithmetic against a reference that shares no code with Fq.

The reference below does integer polynomial arithmetic modulo each field's
modulus: an element of F_p is an int in [0, p), an element of K[y]/(m) a
tuple of deg(m) elements of K, low degree first.  It reads only the data of
an Fq (p, base, modulus and each element's val, whose integer digits in
base #K are the codes of its coefficients); every result of Fq must be the
interned element the reference names.
"""

import random

import pytest

from ffec.algebra import (
    PLACE_CAP,
    CapError,
    Fq,
    Place,
    Poly,
    field_create,
    is_irreducible,
    iter_monic_irreducibles,
)


class Ref:
    def __init__(self, F):
        self.p = F.p
        self.q = F.q
        self.base = None if F.base is None else Ref(F.base)
        if self.base is None:
            self.zero, self.one = 0, 1
        else:
            b = self.base
            self.mod = [b.of(c) for c in F.modulus]
            self.deg = len(self.mod) - 1
            self.zero = (b.zero,) * self.deg
            self.one = (b.one,) + (b.zero,) * (self.deg - 1)

    def of(self, x):
        return self.decode(x.val)

    def decode(self, code):
        if self.base is None:
            return code
        out = []
        for _ in range(self.deg):
            code, c = divmod(code, self.base.q)
            out.append(self.base.decode(c))
        return tuple(out)

    def elem(self, F, r):
        if self.base is None:
            return F.scalar(r)
        return F.element([self.base.elem(F.base, c) for c in r])

    def rand(self, rng):
        if self.base is None:
            return rng.randrange(self.p)
        return tuple(self.base.rand(rng) for _ in range(self.deg))

    def add(self, x, y):
        if self.base is None:
            return (x + y) % self.p
        return tuple(self.base.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        if self.base is None:
            return -x % self.p
        return tuple(self.base.neg(a) for a in x)

    def mul(self, x, y):
        if self.base is None:
            return x * y % self.p
        b, d = self.base, self.deg
        conv = [b.zero] * (2 * d - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                conv[i + j] = b.add(conv[i + j], b.mul(u, v))
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c != b.zero:
                for i in range(d + 1):
                    conv[k - d + i] = b.add(conv[k - d + i], b.neg(b.mul(c, self.mod[i])))
        return tuple(conv[:d])

    def pow(self, x, n):
        if n < 0:
            x, n = self.pow(x, self.q - 2), -n
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            n >>= 1
        return out

    def order(self, x):
        return min(n for n in range(1, self.q) if (self.q - 1) % n == 0
                   and self.pow(x, n) == self.one)


SMALL = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                          53, 59, 61)
         for e in range(1, 7) if p ** e <= 64]


def _residue_field(F, d):
    return Place.finite(next(iter_monic_irreducibles(F, d))).residue_field()


def check_pair(F, R, x, y):
    rx, ry = R.of(x), R.of(y)
    assert x + y is R.elem(F, R.add(rx, ry))
    assert x - y is R.elem(F, R.add(rx, R.neg(ry)))
    assert x * y is R.elem(F, R.mul(rx, ry))
    if y:
        assert x / y is R.elem(F, R.mul(rx, R.pow(ry, -1)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def check_element(F, R, x, rng):
    rx = R.of(x)
    assert -x is R.elem(F, R.neg(rx))
    assert x + 1 is 1 + x is R.elem(F, R.add(rx, R.one))
    assert 2 * x is x * 2 is R.elem(F, R.mul(rx, R.add(R.one, R.one)))
    assert 1 - x is R.elem(F, R.add(R.one, R.neg(rx)))
    for n in (0, 1, 2, 5, F.q - 1, F.q, rng.randrange(1, 10 ** 6)):
        assert x ** n is R.elem(F, R.pow(rx, n))
    for k in range(1, F.e + 1):
        assert F.frobenius(x, k) is R.elem(F, R.pow(rx, F.p ** k))
    assert F.pth_root(x) is R.elem(F, R.pow(rx, F.q // F.p))
    assert R.pow(R.of(F.pth_root(x)), F.p) == rx
    r = F.sqrt(x)
    square = F.p == 2 or not x or R.pow(rx, (F.q - 1) // 2) == R.one
    assert (r is not None) == square
    if r is not None:
        assert R.mul(R.of(r), R.of(r)) == rx
    if x:
        assert x.inverse() is R.elem(F, R.pow(rx, -1))
        for n in (-1, -2, -(F.q + 3)):
            assert x ** n is R.elem(F, R.pow(rx, n))
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            x ** -1
        assert x ** 0 is F.one


@pytest.mark.parametrize("p,e", SMALL)
def test_every_pair_agrees_small_fields(p, e):
    F = field_create(p, e)
    F.zech()
    R = Ref(F)
    rng = random.Random(p ** e)
    els = list(F.elements())
    assert len(els) == F.q
    for x in els:
        for y in els:
            check_pair(F, R, x, y)
        check_element(F, R, x, rng)
    for x in els[1:]:
        assert F.element_order(x) == R.order(R.of(x))


@pytest.mark.parametrize("name", ["F_2^16", "F_3^10", "F_251^2", "deg-2 over F_49"])
def test_seeded_samples_large_tables(name, rng):
    if name == "deg-2 over F_49":
        F = _residue_field(field_create(7, 2), 2)
    else:
        p, e = map(int, name[2:].split("^"))
        F = field_create(p, e)
    F.zech()
    assert F.q <= PLACE_CAP
    R = Ref(F)
    sample = [R.elem(F, R.rand(rng)) for _ in range(30)] + [F.zero, F.one, -F.one]
    for x in sample:
        check_element(F, R, x, rng)
    for _ in range(200):
        check_pair(F, R, rng.choice(sample), rng.choice(sample))
    for x in sample[:5]:
        if x:
            assert F.element_order(x) == R.order(R.of(x))


def test_field_above_the_cap_stays_on_tuples(rng):
    F2 = field_create(2)
    F = _residue_field(F2, 17)
    assert F.q > PLACE_CAP
    R = Ref(F)
    sample = [R.elem(F, R.rand(rng)) for _ in range(12)] + [F.zero, F.one]
    for x in sample:
        check_element(F, R, x, rng)
        for y in sample:
            check_pair(F, R, x, y)
    assert F._table is None and all(x.log is None for x in sample)
    with pytest.raises(CapError):
        F.zech()


def _above_the_cap_fields():
    F2 = field_create(2)
    m = [0] * 71
    for i in (70, 24, 2, 1, 0):
        m[i] = 1
    assert is_irreducible(Poly(F2, m))
    yield Fq(base=F2, modulus=tuple(Poly(F2, m).coeffs))  # F_{2^70}
    yield _residue_field(field_create(3, 2), 6)  # F_{9^6}


@pytest.mark.parametrize("F", list(_above_the_cap_fields()), ids=repr)
def test_inverse_above_the_cap_matches_fermat(F, rng):
    """Above the cap 1/x comes from extended Euclid; x^(q-2), by repeated
    squaring, shares no code with it."""
    assert F.q > PLACE_CAP
    for _ in range(4):
        x = F._make(rng.randrange(1, F.q))
        inv = x.inverse()
        assert x * inv is F.one
        assert inv is x ** (F.q - 2)
        assert x / x is F.one and inv.inverse() is x
    assert F._table is None
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_power_on_codes_squares_from_the_top_bit(rng, monkeypatch):
    """With no table, x ** n runs from the top set bit of n: x ** (2^k)
    takes exactly k products, and every power equals the repeated
    product."""
    F2 = field_create(2)
    K = Place.finite(Poly.x(F2) ** 100 + Poly.x(F2) ** 37 + 1).residue_field()
    calls, vmul = [0], K._vmul

    def counted(a, b):
        calls[0] += 1
        return vmul(a, b)

    monkeypatch.setattr(K, "_vmul", counted)
    x = K._make(rng.randrange(2, K.q))
    y = x
    for k in range(1, 12):
        y = y * y
        calls[0] = 0
        assert x ** (2 ** k) == y
        assert calls[0] == k
    calls[0] = 0
    assert K.frobenius(x) == x * x and calls[0] == 2
    prod = K.one
    for n in range(40):
        assert x ** n == prod, n
        prod = prod * x
    assert K._table is None


@pytest.mark.parametrize("p, e, per_step", [(2, 16, 1), (2, 100, 1), (3, 7, 2), (5, 5, 3)])
def test_absolute_trace_takes_one_product_per_squaring(rng, monkeypatch, p, e, per_step):
    """Each Frobenius step y -> y^p runs from the top bit of p down, with
    no product by 1 and no squaring past the last bit: one product at
    p = 2, 2 at p = 3 and 3 at p = 5.  The trace is the sum of the
    conjugates x^(p^j) taken through the field's own power."""
    F = field_create(p)
    g = next(iter_monic_irreducibles(F, e)) if p ** e <= PLACE_CAP else \
        Poly.x(F) ** 100 + Poly.x(F) ** 37 + 1
    K = Place.finite(g).residue_field()
    calls, vmul = [0], K._vmul

    def counted(a, b):
        calls[0] += 1
        return vmul(a, b)

    for _ in range(3):
        x = K._make(rng.randrange(2, K.q))
        want, y = K.zero, x
        for _ in range(e):
            want, y = want + y, y ** p
        monkeypatch.setattr(K, "_vmul", counted)
        calls[0] = 0
        assert K.absolute_trace(x) == want.val
        assert calls[0] == per_step * (e - 1)
        monkeypatch.undo()


def test_table_built_mid_use_changes_no_result(rng):
    F7 = field_create(7)
    K = Fq(base=F7, modulus=tuple(Poly(F7, [3, 1, 1]).coeffs))  # t^2 + t + 3
    R = Ref(K)
    pairs = [(R.elem(K, R.rand(rng)), R.elem(K, R.rand(rng))) for _ in range(40)]

    def run():
        out = []
        for x, y in pairs:
            out += [x + y, x - y, x * y, -x, x ** 3, x ** -2 if x else x]
            out.append(x / y if y else K.frobenius(x))
        return out

    def expected(x, y):
        rx, ry = R.of(x), R.of(y)
        return [R.add(rx, ry), R.add(rx, R.neg(ry)), R.mul(rx, ry), R.neg(rx),
                R.pow(rx, 3), R.pow(rx, -2) if x else rx,
                R.mul(rx, R.pow(ry, -1)) if y else R.pow(rx, K.p)]

    assert K._table is None
    first = run()
    # q = 49 tuple operations build the table partway through the first run
    assert K._table is not None
    second = run()
    assert all(a is b for a, b in zip(first, second))
    want = [R.elem(K, r) for x, y in pairs for r in expected(x, y)]
    assert all(a is b for a, b in zip(first, want))


def test_table_arrays_agree_with_elements():
    for F in (field_create(2, 6), field_create(3, 3), _residue_field(field_create(2, 2), 3)):
        T = F.zech()
        M = F.q - 1
        assert len(T.exp) == len(T.zech) == 2 * M
        assert T.exp[0] is F.one and T.exp[1] is T.g
        for k in range(M):
            x = T.exp[k]
            assert x.log == k and T.exp[k + M] is x
            s = x + 1
            assert T.zech[k] == (-1 if not s else s.log)
            if F.p == 2:
                assert T.tracebit[k] == F.absolute_trace(x)
        assert T.exp[T.log_neg1] is -F.one
        assert F.zero.log is None
