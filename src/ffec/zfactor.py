"""Factorization of polynomials over Z, by the method of Zassenhaus
(J. Number Theory 1, 1969; Cohen, GTM 138, 3.5; von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 15).

A polynomial is a sequence of Python ints, low degree first, as LPoly
keeps its coefficients.  factor_z(f):

- takes out the content, so that f is primitive with lc(f) > 0;
- looks for a small odd prime l not dividing lc(f) at which f mod l is
  squarefree; then f is squarefree over Q, and only when no such l turns
  up among the first _PROBES does it split f into squarefree parts (Yun
  and Musser, with primitive remainder sequences for the gcds);
- factors each part modulo the least such prime l by algebra.factor_poly;
- lifts the factors modulo l^(2^j) past 2 |lc(f)| 2^n ||f||_2, which bounds
  lc(f) g for every factor g of f (Mignotte), by quadratic Hensel steps on
  a tree of products;
- puts the factors over Z together from subsets of the lifted factors,
  testing each candidate by exact division.  More than SUBSET_BUDGET
  subsets raises CapError.
"""

from __future__ import annotations

import itertools
import math

from .algebra import CapError, Poly, _is_prime_int, factor_poly, field_create

# subsets of modular factors one factorization may test before CapError
SUBSET_BUDGET = 1 << 16
# primes l not dividing lc(f) tried before f is split into squarefree parts
_PROBES = 4


def factor_z(f) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(c, [(g, e), ...]) with f = c prod g^e: the g primitive, irreducible
    over Q, pairwise distinct, with positive leading coefficient, sorted by
    degree and then by coefficients."""
    f = _trim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    g = _primitive(f)
    c, f = f[-1] // g[-1], g
    if len(f) == 1:
        return c, []
    probe = next(_squarefree_reductions(f, _PROBES), None)
    parts = [(f, 1)] if probe else _squarefree_parts(f)
    out = []
    for g, e in parts:
        out += [(tuple(h), e) for h in _factor_squarefree(g, probe)]
    return c, sorted(out, key=lambda it: (len(it[0]), it[0][::-1], it[1]))


# ---------------------------------------------------------------------------
# polynomials over Z and Z/m as int lists

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a, b, m=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out if m is None else _trim([x % m for x in out])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + b[i] if i < len(b) else x for i, x in enumerate(a)]


def _sub(a, b, m):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _trim([(x - (b[i] if i < len(b) else 0)) % m for i, x in enumerate(a)])


def _prod(us, m):
    out = [1]
    for u in us:
        out = _mul(out, u, m)
    return out


def _divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; lc(b) is a unit mod m."""
    a = [x % m for x in a]
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim(a)
    inv = pow(b[-1], -1, m)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = a[i + db] * inv % m
        quo[i] = c
        if c:
            for j in range(db):
                a[i + j] = (a[i + j] - c * b[j]) % m
    return quo, _trim(a[:db])


def _exact_div(a, b):
    """a / b over Z, or None when b does not divide a."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    a, lc = list(a), b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(a[i + db], lc)
        if r:
            return None
        quo[i] = c
        if c:
            for j in range(db):
                a[i + j] -= c * b[j]
    return quo if not any(a[:db]) else None


def _primitive(a):
    """a over its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _prem(a, b):
    """The pseudo-remainder of a by b: lc(b)^k a mod b over Z."""
    a, lc, db = list(a), b[-1], len(b) - 1
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db]
        a = [x * lc for x in a[:i + db]]
        for j in range(db):
            a[i + j] -= c * b[j]
    return _trim(a)


def _zgcd(a, b):
    """The primitive gcd of primitive a and b with lc > 0, by the primitive
    remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _squarefree_parts(f):
    """[(g_i, i)] with f = prod g_i^i, each g_i squarefree and primitive, for
    f primitive with lc > 0 (Musser's form of Yun's algorithm)."""
    c = _zgcd(f, _primitive([k * x for k, x in enumerate(f)][1:]))
    w, out, i = _exact_div(f, c), [], 1
    while len(w) > 1:
        y = _zgcd(w, c)
        z = _exact_div(w, y)
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, _exact_div(c, y), i + 1
    return out


# ---------------------------------------------------------------------------
# modular factors, Hensel lifting and recombination

def _squarefree_reductions(f, limit=None):
    """(l, f mod l) for the odd primes l not dividing lc(f), up to `limit`
    of them, at which f mod l is squarefree (gcd(f, f') = 1 modulo l)."""
    ell = 1
    while limit is None or limit > 0:
        ell += 2
        if not _is_prime_int(ell) or f[-1] % ell == 0:
            continue
        if limit is not None:
            limit -= 1
        a, b = f, _trim([k * x % ell for k, x in enumerate(f)][1:])
        while len(b) > 1:
            a, b = b, _divmod(a, b, ell)[1]
        if b:
            yield ell, [x % ell for x in f]


def _factor_squarefree(f, probe):
    """The irreducible factors of a squarefree primitive f with lc > 0;
    probe is the first item of _squarefree_reductions(f), or None."""
    if len(f) == 2:
        return [f]
    ell, fb = probe or next(_squarefree_reductions(f))
    F = field_create(ell)
    us = [[c.val for c in u.coeffs] for u, _ in factor_poly(Poly(F, [F._make(x) for x in fb]))[1]]
    if len(us) == 1:
        return [f]
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * (math.isqrt(sum(x * x for x in f)) + 1)
    m = ell
    while m <= bound:
        m *= m
    return _recombine(f, _lift(f, us, ell, m), m)


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h, s g + t h = 1 from modulo m to modulo m^2, h monic
    (von zur Gathen and Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    g = _trim([x % mm for x in _add(g, _add(_mul(t, e), _mul(q, g)))])
    h = _trim([x % mm for x in _add(h, r)])
    b = _sub(_add(_mul(s, g), _mul(t, h)), [1], mm)
    c, d = _divmod(_mul(s, b), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b), _mul(c, g)), mm)
    return g, h, s, t


def _bezout(g, h, ell):
    """s, t with s g + t h = 1 modulo the prime ell, for coprime g, h."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while len(r1) > 1:
        q, r = _divmod(r0, r1, ell)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), ell)
        t0, t1 = t1, _sub(t0, _mul(q, t1), ell)
    inv = pow(r1[0], -1, ell)
    return [x * inv % ell for x in s1], [x * inv % ell for x in t1]


def _lift(f, us, ell, m):
    """The monic factors us of f modulo ell lifted to monic factors modulo
    m = ell^(2^j): f splits into lc(f) times the product of the first half
    and the product of the second, that pair is lifted, and each half is
    lifted the same way inside its product."""
    if len(us) == 1:
        inv = pow(f[-1], -1, m)
        return [[x * inv % m for x in f]]
    k = len(us) // 2
    g = [x * f[-1] % ell for x in _prod(us[:k], ell)]
    h = _prod(us[k:], ell)
    s, t = _bezout(g, h, ell)
    n = ell
    while n < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, n)
        n *= n
    return _lift(g, us[:k], ell, m) + _lift(h, us[k:], ell, m)


def _recombine(f, us, m):
    """The factors of f over Z from its monic factors us modulo m: the
    least subsets whose product, times lc(f) and taken between -m/2 and
    m/2, divides f up to its content."""
    out, tested, size = [], 0, 1
    while 2 * size <= len(us):
        for S in itertools.combinations(range(len(us)), size):
            tested += 1
            if tested > SUBSET_BUDGET:
                raise CapError(f"more than {SUBSET_BUDGET} subsets of {len(us)} "
                               "modular factors to recombine")
            g = _prod([us[i] for i in S] + [[f[-1]]], m)
            g = _primitive([x - m if 2 * x > m else x for x in g])
            q = _exact_div(f, g)
            if q is not None:
                out.append(g)
                f = q
                us = [u for i, u in enumerate(us) if i not in S]
                break
        else:
            size += 1
    return out + [f]
