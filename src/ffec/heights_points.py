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

The pairing of P != Q is Shioda's formula on the same local data, with no
addition of points:

    <P, Q> = chi + (P.O) + (Q.O) - (P.Q) - sum_v contr_v(P, Q),

chi = sum over S of deg v N_v / 12.  (P.Q) sums local intersection numbers.
Off S, where P and Q are integral, (P.Q)_v = min(v(dx), v(dy)) for dx =
x(P) - x(Q) and dy = y(P) - y(Q), the valuation of the gcd g of their
numerators, so deg g counts every such place at once; each place where
that is not the local term trades its v(g) for its own:

  - both points meet O: (P.Q)_v = v(z(P) - z(Q)), z = -x/y;
  - one meets the identity component and the other not: 0;
  - both meet the node of I_N: with e = min(v(psi2), N/2), P lies on
    component i = e if v(fx_v - alpha psi2_v) > e and N - e otherwise, for
    alpha a fixed root in k_v of the node's tangent quadratic; for i <= j,
    contr_v = i (N - j) / N, and (P.Q)_v = min(v(dx), v(dy)) - e if i = j;
  - both meet the singular point of an additive fiber: on Tate's model,
    its cusp's tangent made y = 0, _chart gives the rule, checked against
    the group law at III, IV, I0*, IV*, III* and I_n*, n = 1, 2, 3, 6.

At I_1, II, II*, non-split I_n with n odd, non-split IV and IV*, and I0*
with no root of its cubic in k_v, every K-point meets the identity
component, and only the pole term is read.  The group law serves only
scalar_mul, is_torsion and gram_matrix, which pairs arbitrary points by
hhat(P + Q) - hhat(P) - hhat(Q) = 2 <P, Q> as the tests' reference.

The family needs one row: u -> zeta u fixes the curve and maps P_i to
P_{i+1}, so its Gram matrix is circulant and family_gram builds it from
hhat(P_0) and the floor(d/2) pairings <P_0, P_k>.  circulant_rank reads
the rank of such a matrix off its first row, d - deg gcd(c(x), x^d - 1), a
second route to the rank that row reduction gives.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    POS_INF,
    FFECError,
    FqElem,
    Place,
    Poly,
    RatFunc,
    factor_poly,
    field_create,
    format_ratfunc,
    poly_roots,
    row_reduce,
)
from .local import LocalData, _quad_verdict, curve_analysis, torsion_bound
from .weierstrass import Curve, CurvePoint, Transform, b_invariants, translate


class TorsionInconclusive(FFECError):
    """The height says torsion but the multiple check cannot confirm."""


class HeightValue(NamedTuple):
    """An exact canonical height; error and iterations are always 0."""

    value: Fraction
    error: Fraction
    iterations: int


class PointFamily(NamedTuple):
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
        self.P = P
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


def _trivial_components(ld: LocalData) -> bool:
    """Whether every K-point meets the identity component at ld.place:
    no component but that one is a k_v-point of the component group."""
    kt, split = ld.type, ld.split
    if kt.kind == "I":
        return kt.n <= 1 or (split is False and kt.n % 2 == 1)
    if kt.kind in ("IV", "IV*"):
        return split is False
    if kt.kind == "I*" and kt.n == 0:
        return split is None
    return kt.kind in ("II", "II*")


# (wx, wy, contr_diff) of the additive fibers outside the I* series
_CHARTS = {"III": (1, 1, None), "IV": (1, 2, Fraction(1, 3)),
           "IV*": (2, 3, Fraction(2, 3)), "III*": (3, 3, None)}


def _chart(kt, contr: Fraction):
    """(wx, wy, contr_diff) for two points meeting the singular point of
    an additive fiber of type kt, both with contr_v = contr.  With x and y
    on E_v, y normalised so that the tangent at the cusp is y = 0, the
    points meet one component when v(dx) >= wx and v(dy) >= wy, and then
    (P.Q)_v = min(v(dx) - wx, v(dy) - wy), its chart being x / pi^wx and
    y / pi^wy up to translation; otherwise they meet two components and
    contr_v(P, Q) = contr_diff, None where only one has this contr.  On
    I_n*, n >= 1, contr 1 is the near component, and the two far ones are
    told apart by y / pi^k (n odd) or x / pi^(k-1) (n even)."""
    if kt.kind != "I*":
        return _CHARTS[kt.kind]
    n = kt.n
    if n and contr == 1:
        return 2, 2, None
    far = Fraction(1, 2) + Fraction(n, 4)
    if n % 2:
        k = (n + 3) // 2
        return k, k + 1, far
    k = n // 2 + 2
    return k, k, far


class _At(NamedTuple):
    """P at one place v of S: Silverman's case, 2 lambda_v(P), o = 2 (P.O)_v
    on E_v, and comp, None when P meets the identity component, otherwise
    its component's label i at I_N and contr_v(P) at additive fibers."""

    case: str
    lam: Fraction
    o: int
    comp: object


class _Local:
    """A place v of S and the transform from M to the model E_v minimal
    there, which Tate's algorithm left in its LocalData.  Every valuation
    the case split reads is taken on M and moved to E_v by the
    transformation law: with x = u^2 x_v + r and y = u^3 y_v + s u^2 x_v + w,

        psi2_v = psi2 / u^3,  fx_v = (fx - s psi2) / u^4,
        psi3_v = psi3 / u^8,  x_v = (x - r) / u^2.

    At infinity the integral model is M scaled by t^h, so a quantity of
    weight k gains k h there.  m = v(u) plus that h is 0 unless M (so
    scaled) is not minimal at v; then r, s and w are kept, and otherwise
    they are integral and the reduction test on M is the one on E_v.

    The pairing reads two more things here, computed once per curve from
    the residues of E_v's a1 and a2 at its singular point (0, 0).  At a
    split I_N, N > 1, branch = s + alpha u for alpha one root in k_v of the
    tangent quadratic T^2 + a1 T - a2: the branch y_v = alpha x_v of the
    node that labels components.  At an additive fiber with a non-trivial
    component group, slope = s + alpha u for alpha the double root, so
    that y_v - alpha x_v, the y the charts of its components read, is
    (y - slope (x - r) - w) / u^3.
    """

    def __init__(self, ld: LocalData, h: int, model):
        v = ld.place
        tau = ld.transform_used
        self.place = v
        self.deg = v.degree
        self.infinite = v.is_infinite
        self.type = ld.type
        self.N = ld.vdelta_min
        self.multiplicative = ld.type.is_multiplicative
        self.trivial = _trivial_components(ld)
        self.h = h if self.infinite else 0
        self.m = v.valuation(tau.u) + self.h
        self.r, self.s, self.w = (tau.r, tau.s, tau.w) if self.m else (None, None, None)
        self.branch = self.slope = None
        if self.trivial or (self.multiplicative and not ld.split):
            return
        a = translate(model, tau.r, tau.s, tau.w)
        a1, a2 = (v.reduce(a[i] / tau.u ** (i + 1)) for i in (0, 1))
        K = a1.field
        if self.multiplicative:
            alpha = poly_roots(Poly(K, (-a2, a1, K.one)))[0][0]
        else:
            split, alpha = _quad_verdict(K, K.one, a1, -a2)
            if split is not None:
                raise FFECError("the tangent quadratic must degenerate at a cusp")
        lift = Poly.const(alpha) if self.infinite else v.lift(alpha)
        c = tau.s + RatFunc(lift) * tau.u
        if self.multiplicative:
            self.branch = c
        else:
            self.slope = c

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

    def local_height(self, pt: _OnM, vz: int) -> _At:
        """P, given on M, at v, with vz = v(Z)."""
        X, Z, W = pt.X, pt.Z, pt.W
        dz, dw = Z.degree, W.degree
        n6 = Fraction(self.N, 6)
        pole = X.degree - dz - 2 * self.h if self.infinite else vz
        if pole > 0:
            # P meets O on every model integral at v
            o = pole + 2 * self.m
            return _At("a", n6 + o, o, None)
        r, s = self.r, self.s
        if self.m:
            vx = self._order(X * r.den - r.num * Z, dz + r.den.degree, 2)
            if vx < 0:
                return _At("a", n6 - vx, -vx, None)
        if self.trivial:
            return _At("a", n6, 0, None)
        v2 = self._order(pt.psi2, dz + dw, 3)
        if not v2:
            return _At("a", n6, 0, None)
        fx, dfx = pt.fx, 2 * dz + dw
        if self.m:
            fx, dfx = fx * s.den - s.num * pt.psi2 * Z, dfx + s.den.degree
        if not self._order(fx, dfx, 4):
            return _At("a", n6, 0, None)
        N = self.N
        if self.multiplicative:
            e = Fraction(N, 2) if 2 * v2 >= N else Fraction(v2)
            i = e
            if self.branch is not None and 2 * e < N:
                c = self.branch
                if self._order(pt.fx * c.den - c.num * pt.psi2 * Z,
                               2 * dz + dw + c.den.degree, 4) <= e:
                    i = N - e
            return _At("b", n6 - e * (N - e) / N, 0, i)
        v3 = self._order(pt.psi3, 4 * dz, 8)
        contr = Fraction(v3, 4) if v3 < 3 * v2 else Fraction(2 * v2, 3)
        return _At("d" if v3 < 3 * v2 else "c", n6 - contr, 0, contr)

    def meet(self, a: _At, b: _At, diff: "_Diff"):
        """(P.Q)_v + contr_v(P, Q) for the points P != Q of diff, with
        local_height results a and b."""
        if a.o and b.o:
            r, w = (self.r, self.w) if self.m else (0, 0)
            return _pole_meet(self.place, diff.A.P, diff.B.P, a.o, b.o,
                              r, w, self.h - self.m)
        i, j = a.comp, b.comp
        if a.o or b.o or (i is None) != (j is None):
            # one meets O or the identity component and the other does not
            return 0
        if i is None:
            return min(diff.orders(self, self.s))
        if self.multiplicative:
            N, (i, j) = self.N, sorted((i, j))
            if i != j:
                return Fraction(i * (N - j), N)
            return Fraction(i * (N - i), N) + min(diff.orders(self, self.s)) - min(i, N - i)
        if i != j:
            # I_n*, n >= 1: the near component and a far one
            return Fraction(1, 2)
        wx, wy, other = _chart(self.type, i)
        dx, dy = diff.orders(self, self.slope)
        mu = min(dx - wx, dy - wy)
        if mu >= 0:
            return i + mu
        if other is None:
            raise FFECError(f"two points off the one component of {self.type} at {self.place!r}")
        return other


def _pole_meet(v, P, Q, o1: int, o2: int, r, w, shift: int):
    """(P.Q)_v at a place v where both meet O, with o1 = 2 (P.O)_v and
    o2 = 2 (Q.O)_v: (P.Q)_v = v(z(P) - z(Q)) for the parameter z = -x/y
    of the formal group, which is min(o1, o2) / 2 unless o1 = o2, and then
    v(x(Q) y(P) - x(P) y(Q)) + 3 o1.  The coordinates are those of the
    model integral at v, reached by x - r, y - w and a scaling that adds
    5 shift to that weight-5 valuation."""
    if o1 != o2:
        return min(o1, o2) // 2
    x1, y1, x2, y2 = P.x - r, P.y - w, Q.x - r, Q.y - w
    return v.valuation(x2 * y1 - x1 * y2) + 5 * shift + 3 * o1


class _Diff:
    """x(P) - x(Q) and y(P) - y(Q) on M for two points on M, as the
    numerators DX = X_P Z_Q - X_Q Z_P over Z_P Z_Q and DY = Y_P W_Q -
    Y_Q W_P over W_P W_Q, and their gcd g, whose valuation at a finite
    place where P and Q are integral is min(v(dx), v(dy))."""

    def __init__(self, A: _OnM, B: _OnM):
        self.A, self.B = A, B
        self.DX = A.X * B.Z - B.X * A.Z
        self.DY = A.Y * B.W - B.Y * A.W
        self.dzz = A.Z.degree + B.Z.degree
        self.dww = A.W.degree + B.W.degree
        self.g = self.DX.gcd(self.DY)

    def vg(self, v: Place) -> int:
        return v.valuation_poly(self.g) if self.g.degree else 0

    def orders(self, loc: _Local, s):
        """(v(dx_v), v(dy_v)) on E_v at a place where P and Q are
        integral, with dy_v read as (dy - s dx) / u^3."""
        dx = loc._order(self.DX, self.dzz, 2)
        if not s:
            return dx, loc._order(self.DY, self.dww, 3)
        A, B = self.A, self.B
        num = self.DY * (A.Z * B.Z) * s.den - s.num * self.DX * (A.W * B.W)
        return dx, loc._order(num, self.dzz + self.dww + s.den.degree, 3)


class _CurveHeights(NamedTuple):
    """The per-curve part of the local-height sum: the transform to the
    polynomial minimal model M (None for the identity), M's a1, a2, a3,
    a4, b2, b4, b6, b8 as polynomials, the places of S, infinity first,
    then the factors of M's discriminant, and chi = sum deg v N_v / 12."""

    transform: Transform | None
    coeffs: tuple[Poly, ...]
    places: tuple[_Local, ...]
    chi: Fraction


@functools.lru_cache(maxsize=16)
def _curve_heights(E: Curve) -> _CurveHeights:
    A = curve_analysis(E)
    M, tau = A.cls.model, A.cls.transform
    a = tuple(c.num for c in M.coeffs)
    coeffs = a[:4] + b_invariants(*a)
    places = tuple(_Local(ld, A.cls.height, M.coeffs) for ld in A.local)
    chi = sum(Fraction(loc.deg * loc.N, 12) for loc in places)
    return _CurveHeights(None if tau.is_identity() else tau, coeffs, places, chi)


class _PointHeights(NamedTuple):
    """P on M, P at each place of S, and rest = deg Z
    - sum of deg v * v(Z) over the finite v in S, what the places off S
    add to 2 (P.O)."""

    pt: _OnM
    at: tuple
    rest: int


def _point_heights(data: _CurveHeights, P: CurvePoint) -> _PointHeights:
    pt = _OnM(data.coeffs,
              P if data.transform is None else data.transform.apply_point(P))
    rest = _deg(pt.Z)
    at = []
    for loc in data.places:
        vz = 0 if loc.infinite else loc.place.valuation_poly(pt.Z)
        rest -= loc.deg * vz
        at.append(loc.local_height(pt, vz))
    return _PointHeights(pt, tuple(at), rest)


def local_heights(E: Curve, P: CurvePoint):
    """[(v, case, 2 lambda_v(P)) for v in S] and the part deg Z - sum of
    deg v * v(Z) over the finite v in S that the places off S contribute.
    case is Silverman's: "a" nonsingular reduction, "b" multiplicative,
    "c" v(psi3) >= 3 v(psi2), "d" otherwise."""
    data = _curve_heights(E)
    ph = _point_heights(data, P)
    return [(loc.place, a.case, a.lam) for loc, a in zip(data.places, ph.at)], ph.rest


def _height(data: _CurveHeights, ph: _PointHeights) -> Fraction:
    """hhat(P) = <P, P> = sum over S of deg v * 2 lambda_v(P), plus rest."""
    return Fraction(ph.rest) + sum(loc.deg * a.lam for loc, a in zip(data.places, ph.at))


def _pairing(E: Curve, data: _CurveHeights, A: _PointHeights, B: _PointHeights):
    """<P, Q> = chi + (P.O) + (Q.O) - (P.Q) - sum_v contr_v(P, Q) for
    affine P != Q.  Off S, (P.Q)_v is v(g) where P and Q are integral;
    deg g counts it at every finite place, so each finite place where that
    is not (P.Q)_v trades its v(g) for its own term: a place of S where
    both points meet O, or both its singular point, or where M is not
    minimal, and a common pole off S, a factor of gcd(Z_P, Z_Q) that no
    place of S divides."""
    diff = _Diff(A.pt, B.pt)
    o = A.rest + B.rest
    value = data.chi - _deg(diff.g)
    for loc, a, b in zip(data.places, A.at, B.at):
        o += loc.deg * (a.o + b.o)
        if not (loc.infinite or loc.m or (a.o and b.o)) and None in (a.comp, b.comp):
            # both integral and one on the identity component: (P.Q)_v is
            # v(g) and contr_v(P, Q) = 0
            continue
        t = loc.meet(a, b, diff)
        value -= loc.deg * (t - (0 if loc.infinite else diff.vg(loc.place)))
    G = A.pt.Z.gcd(B.pt.Z)
    for loc in data.places:
        if G.degree and not loc.infinite:
            k = loc.place.valuation_poly(G)
            if k:
                G = G.exact_div(loc.place.poly ** k)
    if G.degree:
        for f, _ in factor_poly(G)[1]:
            v = Place(E.field, f, _checked=True)
            pq = _pole_meet(v, A.pt.P, B.pt.P, v.valuation_poly(A.pt.Z),
                            v.valuation_poly(B.pt.Z), 0, 0, 0)
            value -= v.degree * (pq - diff.vg(v))
    return value + Fraction(o, 2)


def canonical_height(E: Curve, P: CurvePoint) -> HeightValue:
    """The exact canonical height, 0 for the point at infinity."""
    if P.is_infinity:
        return HeightValue(Fraction(0), Fraction(0), 0)
    data = _curve_heights(E)
    return HeightValue(_height(data, _point_heights(data, P)), Fraction(0), 0)


def height_pairing(E: Curve, P: CurvePoint, Q: CurvePoint,
                   _ignored=None) -> HeightValue:
    """<P, Q> by Shioda's formula, hhat(P) when P = Q and 0 when either is
    O.  A fourth argument, the doubling count of older callers, is
    accepted and ignored."""
    zero = Fraction(0)
    if P.is_infinity or Q.is_infinity:
        return HeightValue(zero, zero, 0)
    data = _curve_heights(E)
    A = _point_heights(data, P)
    if P == Q:
        return HeightValue(_height(data, A), zero, 0)
    return HeightValue(_pairing(E, data, A, _point_heights(data, Q)), zero, 0)


def gram_matrix(E: Curve, points) -> list[list[Fraction]]:
    """The exact height-pairing matrix of the points by the group law, one
    addition a pair: hhat(P + Q) - hhat(P) - hhat(Q) = 2 <P, Q>.  It
    shares no pairing code with height_pairing, and the tests hold the
    one to the other."""
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
    c_k = <P_0, P_k> for k <= d/2 fill it, P_0's local data read once."""
    E, P, d = fam.curve, fam.points, fam.d
    data = _curve_heights(E)
    A = _point_heights(data, P[0])
    c = [_height(data, A)] * d
    for k in range(1, d // 2 + 1):
        c[k] = c[d - k] = _pairing(E, data, A, _point_heights(data, P[k]))
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
