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
Univ. St. Pauli 39, 1990).  The valuations are exact: each is taken on M,
of a polynomial numerator, and moved to the model minimal at v by the
transformation law, with no series, no precision and no second model.

gram_matrix pairs arbitrary points, one addition a pair.  The family needs
one row: u -> zeta u fixes the curve and maps P_i to P_{i+1}, so its Gram
matrix is circulant and family_gram builds it from hhat(P_0) and the
floor(d/2) heights of P_0 + P_k.  circulant_rank reads the rank of such a
matrix off its first row, d - deg gcd(c(x), x^d - 1), a second route to the
rank that row reduction gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    POS_INF,
    FFECError,
    FqElem,
    Poly,
    RatFunc,
    field_create,
    format_ratfunc,
    row_reduce,
)
from .local import LocalData, curve_analysis, torsion_bound
from .weierstrass import Curve, CurvePoint, Transform, b_invariants


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


class _OnM:
    """P = (X/Z, Y/W) on M and the numerators, formed on first use with
    Poly products only, of psi2 = 2y + a1 x + a3 over Z W, of
    fx = 3x^2 + 2 a2 x + a4 - a1 y over Z^2 W and of psi3 over Z^4."""

    def __init__(self, coeffs, P: CurvePoint):
        self.coeffs = coeffs
        self.X, self.Z = P.x.num, P.x.den
        self.Y, self.W = P.y.num, P.y.den

    @functools.cached_property
    def psi2(self) -> Poly:
        a1, _, a3 = self.coeffs[:3]
        X, Y, Z, W = self.X, self.Y, self.Z, self.W
        return 2 * Y * Z + (a1 * X + a3 * Z) * W

    @functools.cached_property
    def fx(self) -> Poly:
        a1, a2, _, a4 = self.coeffs[:4]
        X, Y, Z, W = self.X, self.Y, self.Z, self.W
        return (3 * X * X + 2 * a2 * X * Z + a4 * Z * Z) * W - a1 * Y * Z * Z

    @functools.cached_property
    def psi3(self) -> Poly:
        b2, b4, b6, b8 = self.coeffs[4:]
        X, Z = self.X, self.Z
        Z2 = Z * Z
        return ((((3 * X + b2 * Z) * X + 3 * b4 * Z2) * X + 3 * b6 * Z2 * Z) * X
                + b8 * Z2 * Z2)


class _Local:
    """A place v of S and the transform from M to the model E_v minimal
    there, which Tate's algorithm left in its LocalData.  Every valuation
    the case split reads is taken on M and moved to E_v by the
    transformation law: with x = u^2 x_v + r and y = u^3 y_v + s u^2 x_v + w,

        psi2_v = psi2 / u^3,  fx_v = (fx - s psi2) / u^4,
        psi3_v = psi3 / u^8,  x_v = (x - r) / u^2.

    At infinity the integral model is M scaled by t^h, so a quantity of
    weight k gains k h there.  m = v(u) plus that h is 0 unless M (so
    scaled) is not minimal at v; then r and s are kept, and otherwise they
    are integral and the reduction test on M is the one on E_v.
    """

    def __init__(self, ld: LocalData, h: int):
        v = ld.place
        tau = ld.transform_used
        self.place = v
        self.infinite = v.is_infinite
        self.N = ld.vdelta_min
        self.multiplicative = ld.type.is_multiplicative
        self.h = h if self.infinite else 0
        self.m = v.valuation(tau.u) + self.h
        self.r, self.s = (tau.r, tau.s) if self.m else (None, None)

    def _order(self, num: Poly, den_deg: int, weight: int):
        """v(num / den) on E_v for a quantity of the given weight, with den
        a unit at v if v is finite and of degree den_deg."""
        if not num:
            return POS_INF
        if self.infinite:
            val = den_deg - num.degree + weight * self.h
        else:
            val = self.place.valuation_poly(num)
        return val - weight * self.m

    def local_height(self, pt: _OnM, vz: int):
        """(case, 2 lambda_v(P)) for P on M, with vz = v(Z)."""
        X, Z, W = pt.X, pt.Z, pt.W
        dz, dw = Z.degree, W.degree
        n6 = Fraction(self.N, 6)
        pole = X.degree - dz - 2 * self.h if self.infinite else vz
        if pole > 0:
            # P meets O on every model integral at v
            return "a", pole + 2 * self.m + n6
        r, s = self.r, self.s
        if self.m:
            vx = self._order(X * r.den - r.num * Z, dz + r.den.degree, 2)
            if vx < 0:
                return "a", n6 - vx
        v2 = self._order(pt.psi2, dz + dw, 3)
        if not v2:
            return "a", n6
        fx, dfx = pt.fx, 2 * dz + dw
        if self.m:
            fx, dfx = fx * s.den - s.num * pt.psi2 * Z, dfx + s.den.degree
        if not self._order(fx, dfx, 4):
            return "a", n6
        N = self.N
        if self.multiplicative:
            e = Fraction(N, 2) if 2 * v2 >= N else Fraction(v2)
            return "b", n6 - e * (N - e) / N
        v3 = self._order(pt.psi3, 4 * dz, 8)
        if v3 < 3 * v2:
            return "d", n6 - Fraction(v3, 4)
        return "c", n6 - Fraction(2 * v2, 3)


@dataclass(frozen=True)
class _CurveHeights:
    """The per-curve part of the local-height sum: the transform to the
    polynomial minimal model M (None for the identity), M's a1, a2, a3,
    a4, b2, b4, b6, b8 as polynomials, and the places of S, infinity
    first, then the factors of M's discriminant."""

    transform: Transform | None
    coeffs: tuple[Poly, ...]
    places: tuple[_Local, ...]


@functools.lru_cache(maxsize=16)
def _curve_heights(E: Curve) -> _CurveHeights:
    A = curve_analysis(E)
    M, tau = A.cls.model, A.cls.transform
    a = tuple(c.num for c in M.coeffs)
    coeffs = a[:4] + b_invariants(*a)
    return _CurveHeights(None if tau.is_identity() else tau, coeffs,
                         tuple(_Local(ld, A.cls.height) for ld in A.local))


def local_heights(E: Curve, P: CurvePoint):
    """[(v, case, 2 lambda_v(P)) for v in S] and the part deg Z - sum of
    deg v * v(Z) over the finite v in S that the places off S contribute.
    case is Silverman's: "a" nonsingular reduction, "b" multiplicative,
    "c" v(psi3) >= 3 v(psi2), "d" otherwise."""
    data = _curve_heights(E)
    pt = _OnM(data.coeffs,
              P if data.transform is None else data.transform.apply_point(P))
    rest = _deg(pt.Z)
    out = []
    for loc in data.places:
        vz = 0 if loc.infinite else loc.place.valuation_poly(pt.Z)
        rest -= loc.place.degree * vz
        case, lam = loc.local_height(pt, vz)
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


def _kernel_basis(m: list[list[Fraction]], pivots) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the rational null space of a
    matrix, read off its reduced row echelon form m and pivot columns, as
    row_reduce gives them."""
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


def is_torsion(E: Curve, P: CurvePoint) -> bool:
    """Torsion means the canonical height is 0, confirmed by a multiple
    bounded by torsion_bound (times a small power of p for the p-part)
    killing P."""
    if P.is_infinity:
        return True
    if canonical_height(E, P).value:
        return False
    m, p = torsion_bound(E), E.field.p
    Q = P
    for k in (m, p, p):
        Q = E.scalar_mul(k, Q)
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
    F = field_create(p, 2 * f)
    q = p ** f
    d = q + 1
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


def family_gram(fam: PointFamily) -> list[list[Fraction]]:
    """The Gram matrix of the family's points from one row.  sigma: u ->
    zeta u fixes the curve, since its coefficients are in u^d, maps P_i to
    P_{i+1} and keeps canonical heights, so <P_i, P_j> = c_{(j-i) mod d}
    with c_k = c_{d-k}: the matrix is circulant, and c_0 = hhat(P_0) and
    c_k = (hhat(P_0 + P_k) - 2 c_0) / 2 for k <= d/2 fill it."""
    E, P, d = fam.curve, fam.points, fam.d
    h0 = canonical_height(E, P[0]).value
    c = [h0] * d
    for k in range(1, d // 2 + 1):
        s = canonical_height(E, E.add(P[0], P[k])).value
        c[k] = c[d - k] = (s - 2 * h0) / 2
    return [c[-i:] + c[:-i] for i in range(d)]


def circulant_rank(row) -> int:
    """The rank of the circulant matrix with first row c_0, ..., c_{d-1},
    rationals or their strings.  Its eigenvalues are c(zeta_d^j) with
    c(x) = sum c_k x^k, so the rank is d - deg gcd(c(x), x^d - 1) over Q,
    computed by Euclid's algorithm in Fractions."""
    b = [Fraction(x) for x in row]
    d = len(b)
    a = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = 1 / b[-1]
        while len(a) >= len(b):
            f = a.pop() * inv
            off = len(a) - len(b) + 1
            for i, bi in enumerate(b[:-1]):
                a[off + i] -= f * bi
        while a and not a[-1]:
            a.pop()
        a, b = b, [x / a[-1] for x in a]
    return d - (len(a) - 1)


def points_report(fam: PointFamily) -> dict:
    """Per-point heights, the Gram matrix, its rank, and a kernel basis,
    with rationals rendered as strings.  Every point has the height of
    P_0, the diagonal of family_gram; the rank and the kernel come from
    one row_reduce."""
    E = fam.curve
    gram = family_gram(fam)
    m, pivots, _ = row_reduce(gram)
    canonical = str(gram[0][0])
    rows = [{"i": i,
             "x": format_ratfunc(P.x, E.var),
             "y": format_ratfunc(P.y, E.var),
             "naive": naive_height(P),
             "canonical": canonical}
            for i, P in enumerate(fam.points)]
    return {
        "curve": repr(E),
        "q": E.field.q,
        "d": fam.d,
        "points": rows,
        "gram": [[str(x) for x in row] for row in gram],
        "rank": len(pivots),
        "kernel": [list(v) for v in _kernel_basis(m, pivots)],
    }
