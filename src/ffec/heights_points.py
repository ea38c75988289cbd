"""Heights on E(F_q(u)): the naive degree height, exact canonical heights,
height pairings with Gram-rank lower bounds for the Mordell-Weil rank,
torsion testing, and the explicit point family on
y^2 + xy + u^d y = x^3 + u^d x^2 with d = q + 1.

The canonical height is normalised as lim deg x(2^n P) / 4^n and computed
exactly as a finite sum of Neron local heights (Silverman, "Computing
heights on elliptic curves", Math. Comp. 51 (1988), Thm 5.2):

    hhat(P) = sum_{v in S} deg v * 2 lambda_v(P)
              + deg Z - sum_{v in S finite} deg v * v(Z).

M is the polynomial minimal model, S is infinity plus every place dividing
its discriminant, and Z is the reduced denominator of x(P) on M.  Off S, M
has good reduction and 2 lambda_v(P) = v(Z).  On S, lambda_v is evaluated
on the model minimal at v from Tate's algorithm and needs only valuations:
P reduces to a nonsingular point; or the fiber is multiplicative; or it is
additive and v(psi3) >= 3 v(psi2); or none of these.  Summed, this is
Shioda's formula <P,P> = 2 chi + 2 (P.O) - sum_v contr_v(P) (Comment. Math.
Univ. St. Pauli 39, 1990).  The valuations are read off power series in a
local parameter, truncated at the precision the case needs.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    PLACE_CAP,
    FFECError,
    FqElem,
    Poly,
    RatFunc,
    field_create,
    format_ratfunc,
)
from .local import LocalData, curve_analysis, torsion_bound
from .weierstrass import Curve, CurvePoint, Transform


class TorsionInconclusive(FFECError):
    """The height says torsion but the multiple check cannot confirm."""


@dataclass(frozen=True)
class HeightValue:
    """An exact canonical height; error and iterations are always 0."""

    value: Fraction
    error: Fraction
    iterations: int


@dataclass(frozen=True)
class PointFamily:
    curve: Curve
    d: int
    points: tuple[CurvePoint, ...]
    zeta: FqElem


def _deg(f: Poly) -> int:
    return f.degree if f.coeffs else 0


def naive_height(P: CurvePoint) -> int:
    """max(deg num, deg den) of the x-coordinate in reduced form."""
    if P.is_infinity:
        raise ValueError("the point at infinity has no naive height")
    return max(_deg(P.x.num), _deg(P.x.den))


# power series c[0] + c[1] e + ... truncated to their length ---------------


def _sval(a) -> int:
    """Index of the first nonzero coefficient; len(a) if none is known."""
    return next((i for i, c in enumerate(a) if c), len(a))


def _sadd(*terms):
    return [sum(cs[1:], cs[0]) for cs in zip(*terms)]


def _smul(a, b):
    n = min(len(a), len(b))
    if not n:
        return []
    out = [a[0].field.zero] * n
    for i in range(n):
        x = a[i]
        if x:
            for j in range(n - i):
                if b[j]:
                    out[i + j] = out[i + j] + x * b[j]
    return out


def _sinv(a):
    """Inverse of a series with a unit constant term."""
    c = a[0].inverse()
    out = [c]
    for k in range(1, len(a)):
        acc = a[k] * out[0]
        for j in range(1, k):
            acc = acc + a[k - j] * out[j]
        out.append(-(acc * c))
    return out


def _sscale(k: int, a):
    return [c * k for c in a]


class _Local:
    """A place v of S and the model E_v minimal there, read as power series
    in a local parameter e: e = t - alpha over the residue field at a finite
    place (alpha the class of t), e = 1/t at infinity.  Points are expanded
    on the model M at finite places and on M scaled by u = t^h at infinity,
    both integral at v; the transform from there to E_v has u = e^m * unit.
    """

    def __init__(self, M: Curve, ld: LocalData, h: int):
        v = ld.place
        tau = ld.transform_used
        self.model = model = tau.apply(M)
        self.place = v
        self.deg = v.degree
        self.infinite = v.is_infinite
        self.N = ld.vdelta_min
        self.multiplicative = ld.type.is_multiplicative
        self.h = h if self.infinite else 0
        self.m = v.valuation(tau.u) + self.h
        if self.infinite:
            self.kappa, self.alpha = M.field, None
        elif v.degree == 1:
            self.kappa, self.alpha = M.field, -v.poly.coeffs[0]
        else:
            self.kappa = v.residue_field()
            self.alpha = self.kappa.gen
        # the precision each case needs; a shortfall doubles it and retries
        if self.N == 0:
            self.prec = 1
        elif self.multiplicative:
            self.prec = (self.N + 1) // 2
        else:
            self.prec = self.N
        inv = model.invariants()
        self._coeffs = (model.a1, model.a2, model.a3, model.a4,
                        inv.b2, inv.b4, inv.b6, inv.b8)
        self._tau = None if tau.is_identity() else tau
        self._at = {}

    def _embed(self, f: Poly):
        if self.kappa is f.field:
            return list(f.coeffs)
        return [self.kappa.element((c,)) for c in f.coeffs]

    def _taylor(self, f: Poly, n: int):
        """The first n coefficients of f(alpha + e)."""
        zero = self.kappa.zero
        cs = self._embed(f)
        if not self.alpha:
            return (cs + [zero] * n)[:n]
        out = []
        for _ in range(n):
            acc = zero
            quo = []
            for c in reversed(cs):
                acc = acc * self.alpha + c
                quo.append(acc)
            out.append(quo.pop() if quo else zero)
            quo.reverse()
            cs = quo
        return out

    def series(self, num: Poly, den: Poly, weight: int, n: int):
        """The first n coefficients of (num/den) t^(-weight h), which is
        integral at v."""
        zero = self.kappa.zero
        if not num:
            return [zero] * n
        if self.infinite:
            shift = weight * self.h + den.degree - num.degree
            if shift < 0:
                raise FFECError(f"not integral at {self.place!r}")
            k = n - shift
            if k <= 0:
                return [zero] * n
            a = [num[num.degree - i] for i in range(k)]
            b = [den[den.degree - i] for i in range(k)]
            return [zero] * shift + _smul(a, _sinv(b))
        a = self._taylor(num, n)
        if den.degree == 0 and den.coeffs[0] is den.field.one:
            return a
        return _smul(a, _sinv(self._taylor(den, n)))

    def _data(self, n: int):
        """E_v's a1, a2, a3, a4, b2, b4, b6, b8 to n - 3m terms, and the
        transform's 1/unit^2, 1/unit^3, r, s, w to n terms."""
        got = self._at.get(n)
        if got is None:
            k = n - 3 * self.m
            coeffs = [self.series(c.num, c.den, 0, k) for c in self._coeffs]
            tau = self._tau
            if tau is None:
                got = coeffs, None
            else:
                u = self.series(tau.u.num, tau.u.den, 1, n)
                ui = _sinv(u[self.m:])
                ui2 = _smul(ui, ui)
                got = coeffs, (ui2, _smul(ui2, ui),
                               *(self.series(c.num, c.den, wt, n)
                                 for c, wt in ((tau.r, 2), (tau.s, 1), (tau.w, 3))))
            self._at[n] = got
        return got

    def local_height(self, X: Poly, Y: Poly, Z: Poly, W: Poly, vz: int):
        """(case, 2 lambda_v(P)) for P = (X/Z, Y/W) on M, with vz = v(Z)."""
        pole = X.degree - Z.degree - 2 * self.h if self.infinite else vz
        if pole > 0:
            # P meets O on every model integral at v
            return "a", pole + 2 * self.m + Fraction(self.N, 6)
        n = start = self.prec + 3 * self.m
        while n <= 64 * start:
            got = self._silverman(X, Y, Z, W, n)
            if got is not None:
                return got
            n *= 2
        raise FFECError(f"local height at {self.place!r} does not resolve "
                        f"at precision {n // 2}")

    def _silverman(self, X, Y, Z, W, n):
        """Silverman's case split on E_v at precision n, or None if n falls
        short of what the case needs."""
        m, N = self.m, self.N
        n6 = Fraction(N, 6)
        (a1, a2, a3, a4, b2, b4, b6, b8), tr = self._data(n)
        x = self.series(X, Z, 2, n)
        y = self.series(Y, W, 3, n)
        k = n - 3 * m
        if tr is None:
            xv, yv = x, y
        else:
            ui2, ui3, r, s, w = tr
            xr = _sadd(x, _sscale(-1, r))
            j = _sval(xr)
            if j < 2 * m:
                return "a", 2 * m - j + n6
            xv = _smul(xr[2 * m:], ui2)[:k]
            yr = _sadd(y, _sscale(-1, _smul(s, xr)), _sscale(-1, w))
            yv = _smul(yr[3 * m:], ui3)
        psi2 = _sadd(_sscale(2, yv), _smul(a1, xv), a3)
        xx = _smul(xv, xv)
        fx = _sadd(_sscale(3, xx), _sscale(2, _smul(a2, xv)), a4,
                   _sscale(-1, _smul(a1, yv)))
        if psi2[0] or fx[0]:
            return "a", n6
        v2 = _sval(psi2)
        if self.multiplicative:
            if v2 == k and 2 * k < N:
                return None
            e = min(Fraction(v2), Fraction(N, 2))
            return "b", n6 - e * (N - e) / N
        x3 = _smul(xx, xv)
        psi3 = _sadd(_sscale(3, _smul(xx, xx)), _smul(b2, x3),
                     _sscale(3, _smul(b4, xx)), _sscale(3, _smul(b6, xv)), b8)
        v3 = _sval(psi3)
        if v3 < k and v3 < 3 * v2:
            return "d", n6 - Fraction(v3, 4)
        if v2 < k and 3 * v2 <= v3:
            return "c", n6 - Fraction(2 * v2, 3)
        return None


@dataclass(frozen=True)
class _CurveHeights:
    """The per-curve part of the local-height sum: the transform to the
    polynomial minimal model M (None for the identity) and the places of
    S, infinity first, then the factors of M's discriminant."""

    transform: Transform | None
    places: tuple[_Local, ...]


@functools.lru_cache(maxsize=16)
def _curve_heights(E: Curve) -> _CurveHeights:
    A = curve_analysis(E)
    M, tau = A.cls.model, A.cls.transform
    return _CurveHeights(None if tau.is_identity() else tau,
                         tuple(_Local(M, ld, A.cls.height) for ld in A.local))


def local_heights(E: Curve, P: CurvePoint):
    """[(v, case, 2 lambda_v(P)) for v in S] and the part deg Z - sum of
    deg v * v(Z) over the finite v in S that the places off S contribute.
    case is Silverman's: "a" nonsingular reduction, "b" multiplicative,
    "c" v(psi3) >= 3 v(psi2), "d" otherwise."""
    data = _curve_heights(E)
    Q = P if data.transform is None else data.transform.apply_point(P)
    X, Z = Q.x.num, Q.x.den
    Y, W = Q.y.num, Q.y.den
    rest = _deg(Z)
    out = []
    for loc in data.places:
        vz = 0 if loc.place.is_infinite else loc.place.valuation_poly(Z)
        rest -= loc.deg * vz
        case, lam = loc.local_height(X, Y, Z, W, vz)
        out.append((loc.place, case, lam))
    return out, rest


def canonical_height(E: Curve, P: CurvePoint) -> HeightValue:
    """The exact canonical height, 0 for the point at infinity."""
    if P.is_infinity:
        return HeightValue(Fraction(0), Fraction(0), 0)
    terms, rest = local_heights(E, P)
    value = rest + sum(v.degree * lam for v, _, lam in terms)
    return HeightValue(Fraction(value), Fraction(0), 0)


def height_pairing(E: Curve, P: CurvePoint, Q: CurvePoint,
                   _ignored=None) -> HeightValue:
    """(hhat(P+Q) - hhat(P) - hhat(Q)) / 2.  A fourth argument, the
    doubling count of older callers, is accepted and ignored."""
    s = canonical_height(E, E.add(P, Q)).value
    value = (s - canonical_height(E, P).value - canonical_height(E, Q).value) / 2
    return HeightValue(value, Fraction(0), 0)


def gram_matrix(E: Curve, points) -> list[list[Fraction]]:
    """The exact height-pairing matrix of the points."""
    d = len(points)
    heights = [canonical_height(E, P).value for P in points]
    gram: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        gram[i][i] = heights[i]
        for j in range(i + 1, d):
            s = canonical_height(E, E.add(points[i], points[j])).value
            gram[i][j] = gram[j][i] = (s - heights[i] - heights[j]) / 2
    return gram


def _row_reduce(rows: list[list[Fraction]]):
    """The reduced row echelon form of a rational matrix, and its pivot
    columns."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = 1 / m[top][c]
        m[top] = [x * inv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(c)
    return m, pivots


def _rational_rank(rows: list[list[Fraction]]) -> int:
    return len(_row_reduce(rows)[1])


def _kernel_basis(rows: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the rational null space."""
    m, pivots = _row_reduce(rows)
    n = len(m[0]) if m else 0
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][c]
        lcm = math.lcm(*(x.denominator for x in v))
        ints = [int(x * lcm) for x in v]
        g = math.gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


def gram_rank(E: Curve, points) -> int:
    """Exact rank of the Gram matrix, a lower bound for the Mordell-Weil
    rank."""
    return _rational_rank(gram_matrix(E, points))


def is_torsion(E: Curve, P: CurvePoint) -> bool:
    """Torsion means the canonical height is 0, confirmed by a multiple
    bounded by torsion_bound (times a small power of p for the p-part)
    killing P."""
    if P.is_infinity:
        return True
    if canonical_height(E, P).value:
        return False
    m = torsion_bound(E)
    Q = E.scalar_mul(m, P)
    if Q.is_infinity:
        return True
    p = E.field.p
    for _ in range(2):
        Q = E.scalar_mul(p, Q)
        if Q.is_infinity:
            return True
    raise TorsionInconclusive(
        f"height 0 but {m} p^2 * P is not the identity")


def legendre_family(p: int, f: int = 1) -> PointFamily:
    """The curve y^2 + xy + u^d y = x^3 + u^d x^2 over F_{q^2}(u) with
    q = p^f and d = q + 1, together with its d explicit points

        P_i = P(zeta_d^i u), i = 0, ..., d-1,

    where P(u) has x = u^q (u^q - u) / (1+4u)^q.  Every point is verified
    on the curve by exact substitution."""
    if p == 2:
        raise ValueError("the point formula needs p > 2")
    if f < 1:
        raise ValueError("the constant-field exponent must be positive")
    q = p ** f
    d = q + 1
    if p ** (2 * f) > PLACE_CAP:
        raise FFECError(f"constant field F_{p ** (2 * f)} exceeds the cap")
    F = field_create(p, 2 * f)
    zeta = F.canonical_generator() ** ((F.q - 1) // d)
    u = Poly.x(F)
    E = Curve(F, a1=1, a2=u ** d, a3=u ** d, var="u")
    four_u = Poly(F, (1, 4))
    x0 = RatFunc(u ** (2 * q) - u ** (q + 1), four_u ** q)
    cs = [0] * (q + 1)
    cs[0], cs[1], cs[q] = 1, 2, 2
    half = F.scalar(2).inverse()
    y0 = RatFunc((u ** (2 * q)) * (Poly(F, cs) - four_u ** ((q + 1) // 2)) * half,
                 four_u ** ((3 * q - 1) // 2))
    points = []
    z = F.one
    for i in range(d):
        P = CurvePoint(x0.scale_var(z), y0.scale_var(z))
        if not E.on_curve(P):
            raise FFECError(f"family point {i} fails the curve equation")
        points.append(P)
        z = z * zeta
    return PointFamily(E, d, tuple(points), zeta)


def points_report(fam: PointFamily) -> dict:
    """Per-point heights, the Gram matrix, its rank, and a kernel basis,
    with rationals rendered as strings."""
    t0 = time.time()
    E = fam.curve
    rows = []
    for i, P in enumerate(fam.points):
        rows.append({
            "i": i,
            "x": format_ratfunc(P.x, E.var),
            "y": format_ratfunc(P.y, E.var),
            "naive": naive_height(P),
            "canonical": str(canonical_height(E, P).value),
        })
    gram = gram_matrix(E, fam.points)
    rank = _rational_rank(gram)
    kernel = _kernel_basis(gram)
    return {
        "curve": repr(E),
        "q": E.field.q,
        "d": fam.d,
        "points": rows,
        "gram": [[str(x) for x in row] for row in gram],
        "rank": rank,
        "kernel": [list(v) for v in kernel],
        "seconds": round(time.time() - t0, 3),
    }
