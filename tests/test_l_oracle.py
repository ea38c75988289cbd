"""Whole L-polynomials against an oracle that shares no code with the Euler
product: brute-force point counts of the reduced cubic at every t in
P^1(F_{q^k}), k <= N, turned into L by Newton's identities alone.

The curves are drawn so that their polynomial model is minimal at every
place: each root of the discriminant has multiplicity < 12, and so has
infinity (12h - deg Delta < 12).  On such a model the reduced cubic at t,
singular or not, has q^k + 1 - a_t points over F_{q^k}, where a_t is the
trace in the local factor (1 for split multiplicative, -1 for non-split,
0 for additive reduction).  Summed over P^1(F_{q^k}) this is the k-th
coefficient A_k of T L'/L, so k c_k = sum_{j=1..k} A_j c_{k-j}.
"""

import collections

import pytest

from ffec.algebra import (
    FFECError,
    Fq,
    Poly,
    RatFunc,
    factor_poly,
    field_create,
    iter_monic_irreducibles,
)
from ffec.lfunction import l_polynomial
from ffec.local import conductor
from ffec.weierstrass import Curve

# the largest N per q whose counts stay within F_{q^N}, q^N <= 64; one of
# the two curves drawn for q reaches it
MAX_N = {2: 6, 3: 3, 4: 3, 5: 2, 7: 2, 8: 2, 9: 1}
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2)}


def _height(polys) -> int:
    """The least h with deg a_i <= i h."""
    return max((-(-f.degree // i) for i, f in zip((1, 2, 3, 4, 6), polys) if f),
               default=0)


def _minimal_everywhere(E: Curve) -> bool:
    """The certificate: v(Delta) < 12 at every finite place and at infinity."""
    delta = E.delta.num
    if not delta:
        return False
    h = _height([a.num for a in E.coeffs])
    _, factors = factor_poly(delta)
    return h > 0 and 12 * h - delta.degree < 12 and all(e < 12 for _, e in factors)


def _extension(F: Fq, k: int):
    """F_{q^k} and the embedding of F into it."""
    if k == 1:
        return F, lambda c: c
    g = next(iter_monic_irreducibles(F, k))
    K = Fq(base=F, modulus=g.coeffs)
    return K, lambda c: K.element([c])


def _fibers(E: Curve, K: Fq, embed):
    """(a1, a2, a3, a4, a6) of the reduced cubic at every t in P^1(K)."""
    polys = [a.num for a in E.coeffs]
    cs = [[embed(c) for c in f.coeffs] for f in polys]
    for t in K.elements():
        row = []
        for c in cs:
            acc = K.zero
            for x in reversed(c):
                acc = acc * t + x
            row.append(acc)
        yield row
    h = _height(polys)
    yield [c[i * h] if i * h < len(c) else K.zero
           for i, c in zip((1, 2, 3, 4, 6), cs)]


def _trace_sum(E: Curve, k: int) -> int:
    """A_k: the sum over t in P^1(F_{q^k}) of q^k + 1 - #(cubic at t), the
    points counted over all (x, y) plus the one at infinity."""
    K, embed = _extension(E.field, k)
    els = list(K.elements())
    # for each b, how often y^2 + b y takes each value as y runs over K
    hits = {b: collections.Counter(y * y + b * y for y in els) for b in els}
    total = 0
    for a1, a2, a3, a4, a6 in _fibers(E, K, embed):
        points = 1
        for x in els:
            points += hits[a1 * x + a3][((x + a2) * x + a4) * x + a6]
        total += K.q + 1 - points
    return total


def oracle_l(E: Curve, N: int) -> tuple:
    """c_0 .. c_N of L from A_1 .. A_N by Newton's identities."""
    A = [_trace_sum(E, k) for k in range(1, N + 1)]
    c = [1]
    for k in range(1, N + 1):
        s = sum(A[j - 1] * c[k - j] for j in range(1, k + 1))
        assert s % k == 0, f"Newton's identities left {s}/{k}"
        c.append(s // k)
    return tuple(c)


def _draw(F: Fq, rng):
    """A random curve with polynomial coefficients, deg a_i <= min(i, 3),
    each coefficient zero half the time."""
    els = list(F.elements())
    cs = []
    for i in (1, 2, 3, 4, 6):
        deg = rng.randrange(min(i, 3) + 1) if rng.randrange(2) else -1
        cs.append(RatFunc(Poly(F, [rng.choice(els) for _ in range(deg + 1)])))
    return Curve(F, *cs)


@pytest.mark.parametrize("q", sorted(MAX_N))
def test_l_matches_point_count_oracle(q, rng):
    F = field_create(*FIELDS[q])
    found = []
    for _ in range(2000):
        try:
            E = _draw(F, rng)
        except FFECError:
            continue
        if not _minimal_everywhere(E):
            continue
        N = conductor(E).deg - 4
        if not 1 <= N <= MAX_N[q]:
            continue
        if found and MAX_N[q] not in (N, found[0][1].N):
            continue
        found.append((E, l_polynomial(E)))
        if len(found) == 2:
            break
    assert len(found) == 2, f"too few certified curves over F_{q}"
    assert MAX_N[q] in (L.N for _, L in found)
    for E, L in found:
        c = oracle_l(E, L.N)
        assert c == L.coeffs, E
        # the oracle never used the functional equation; check it holds
        eps, r = divmod(c[-1], q ** L.N)
        assert r == 0 and eps in (1, -1), E
        assert all(c[L.N - k] * q ** (2 * k) == eps * q ** L.N * c[k]
                   for k in range(L.N + 1)), E
