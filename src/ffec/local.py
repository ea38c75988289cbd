"""Reduction at places: minimal models, Kodaira types, conductor exponents,
component counts, fiber point counts, and torsion bounds.

The core is Tate's algorithm, run verbatim in every characteristic on the
five coefficients as polynomials integral at the place: scaled by the least
pi^k that makes them integral and cleared of the denominators left, which
are prime to pi, by weierstrass.clear_denominators, the rule Curve clears
its own coefficients by for its discriminant (at infinity, reversed in
s = 1/t and run at s = 0).  v(Delta) is read once from the curve's delta
and drops by 12 at each non-minimal step.  The Weierstrass algebra is
weierstrass's: each move is weierstrass.translate on the coefficients,
composed into one Transform of polynomials by Transform.then and pulled
back from the s-chart at infinity at the end, and the b6 and b8 tests read
weierstrass.b_invariants.  Every residue question is a quadratic or a cubic
over the residue field, answered in a few field operations with no
factoring: a quadratic by its discriminant for odd p and by the
Artin-Schreier trace for p = 2 (_quad_verdict), the multiple root of a
cubic (the singular point, the I0* cubic) from gcd(f, f'), and the number
of roots of a separable I0* cubic as deg gcd(f, Y^q - Y).  At an I_n fiber
only the residues are moved to the singular point; the polynomials move on
the additive path.

curve_analysis runs it once per curve, at infinity and at the factors of
the discriminant of the polynomial minimal model; the bad places, the
conductor and nprime_deg are read from that record, as are the bad Euler
factors of the L-function and the places of the local heights.
torsion_bound reads infinity from it too, and the good places after it
from the Euler product's own count (lfunction._good_counts).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .algebra import (
    PLACE_CAP,
    CapError,
    FFECError,
    Place,
    Poly,
    RatFunc,
    count_ws_points,
    factor_poly,
    pow_mod,
)
from .weierstrass import (WEIGHTS, Classification, Curve, Transform, b_invariants,
                          classify, clear_denominators, translate)


class UndefinedRowError(FFECError):
    """The fiber-zeta table has no row for this reduction type."""


_GEOM = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


# a NamedTuple may not define __new__, so the subclass below checks the fields
class _KodairaFields(NamedTuple):
    kind: str
    n: int = 0


class KodairaType(_KodairaFields):
    """A Kodaira reduction type.  kind is one of I, I*, II, III, IV, IV*,
    III*, II*; n is the index for the I and I* series."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int = 0):
        if kind in ("I", "I*"):
            if n < 0:
                raise ValueError("index must be non-negative")
        elif kind not in _GEOM:
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        elif n:
            raise ValueError(f"{kind} takes no index")
        return super().__new__(cls, kind, n)

    @property
    def m(self) -> int:
        """Geometric component count of the fiber."""
        if self.kind == "I":
            return max(self.n, 1)
        if self.kind == "I*":
            return 5 + self.n
        return _GEOM[self.kind]

    @property
    def is_good(self) -> bool:
        return self.kind == "I" and self.n == 0

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "I" and self.n > 0

    @property
    def is_additive(self) -> bool:
        return self.kind != "I"

    def __str__(self):
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind

    def __repr__(self):
        return f"KodairaType({self})"


class LocalData(NamedTuple):
    """Everything Tate's algorithm knows about E at one place.

    split is None for types without a split/non-split distinction and for
    the I0* fibers whose residue cubic stays irreducible.  a_v is None only
    for good reduction at places too large to count.
    """

    place: Place
    type: KodairaType
    n_v: int
    f_v: int
    split: bool | None
    a_v: int | None
    vdelta_min: int
    transform_used: Transform

    @property
    def m_v(self) -> int:
        return self.type.m

    @property
    def tame(self) -> int:
        """Tame conductor part: 0 good, 1 multiplicative, 2 additive."""
        if self.type.is_good:
            return 0
        return 1 if self.type.is_multiplicative else 2

    def __repr__(self):
        s = {True: " split", False: " non-split", None: ""}[self.split]
        return (f"LocalData({self.place!r}: {self.type}{s}, n={self.n_v}, "
                f"f={self.f_v}, a={self.a_v}, v(delta)={self.vdelta_min})")


class Conductor(NamedTuple):
    """The conductor divisor: places with positive exponent, in canonical
    order (infinity first, then by degree and coefficients)."""

    entries: tuple

    @property
    def deg(self) -> int:
        return sum(n * v.degree for v, n in self.entries)

    def exponent(self, v: Place) -> int:
        for w, n in self.entries:
            if w == v:
                return n
        return 0

    def __repr__(self):
        inside = ", ".join(f"{n}[{v!r}]" for v, n in self.entries)
        return f"Conductor({inside}; deg {self.deg})"


def _quad_verdict(K, c2, c1, c0):
    """(split, root) for c2*Y^2 + c1*Y + c0 over K, c2 != 0: whether a
    separable quadratic splits, with root None, or (None, the double root).

    For odd p the discriminant decides: zero, a square (log parity in a
    field with a table, Euler's criterion above it) or not.  For p = 2 the
    root is double iff c1 = 0, and otherwise Y^2 + Y + c0 c2 / c1^2 splits
    iff that constant has trace 0 (Lidl-Niederreiter, Thm 2.25), read from
    the field's table or, with no table, by Fq.absolute_trace."""
    if K.p != 2:
        disc = c1 * c1 - 4 * c0 * c2
        if not disc:
            return None, -c1 / (2 * c2)
        if disc.log is not None:
            return disc.log % 2 == 0, None
        return disc ** ((K.q - 1) // 2) is K.one, None
    if not c1:
        return None, K.sqrt(c0 / c2)
    x = c0 * c2 / (c1 * c1)
    if x.log is not None:
        return K.zech().tracebit[x.log] == 0, None
    return K.absolute_trace(x) == 0, None


def _cubic_multiple_root(K, f: Poly):
    """(mult, root) for the monic cubic f over K: the largest multiplicity
    of a root of f and a root with it, or (1, None) when f is squarefree.
    Both are read off g = gcd(f, f')."""
    g = f.gcd(f.derivative())
    if g.degree == 0:
        return 1, None
    if g.degree == 1:
        # f = (Y - r)^2 (Y - s), r != s, p odd
        return 2, -g[0]
    if g.degree == 3:
        # p = 3 and f' = 0: f = Y^3 - r^3
        return 3, K.pth_root(-f[0])
    if K.p == 2:
        # f' = (Y + r)^2 whether f = (Y + r)^2 (Y + s) or (Y + r)^3, and
        # f[2] = s
        r = K.sqrt(g[0])
        return (3 if f[2] is r else 2), r
    # f = (Y - r)^3 and g = (Y - r)^2
    return 3, -g[1] / 2


def _singular_point(K, a1, a2, a3, a4, a6):
    """Coordinates in K of the singular point of the reduced curve, whose
    coefficients a1 .. a6 are given in K."""
    if K.p != 2:
        half = K.scalar(2).inverse()
        quarter = half * half
        b2, b4, b6, _ = b_invariants(a1, a2, a3, a4, a6)
        mult, x0 = _cubic_multiple_root(
            K, Poly._of(K, (b6 * quarter, b4 * half, b2 * quarter, K.one)))
        if mult == 1:
            raise FFECError("no singular point on a singular fiber")
        y0 = -(a1 * x0 + a3) * half
    else:
        if a1:
            x0 = a3 * a1.inverse()
            y0 = (x0 * x0 + a4) * a1.inverse()
        else:
            x0 = K.sqrt(a4)
            y0 = K.sqrt(x0 * x0 * x0 + a2 * x0 * x0 + a4 * x0 + a6)
    return x0, y0


def _root_count(K, f: Poly) -> int:
    """The number of roots in K of the squarefree f: deg gcd(f, Y^q - Y)."""
    Y = Poly.x(K)
    return (pow_mod(Y, K.q, f) - Y).gcd(f).degree


def _integral_coeffs(E: Curve, v: Place, pi: Poly):
    """(a, k, D): the coefficients of E scaled by u = 1/(pi^k D), as
    polynomials (in s = 1/t at infinity).  pi^k is the least scaling that
    makes them integral at v, and D, prime to pi, the lcm of the
    denominators left; D = 1 for a polynomial model."""
    cs = E.coeffs
    if v.is_infinite:
        # v(a) = deg den - deg num, and s^{ik} a(1/s) is num reversed to
        # length ik + deg den over den reversed to its own length
        k = max([-((a.den.degree - a.num.degree) // i)
                 for i, a in zip(WEIGHTS, cs) if a] + [0])
        parts = [(a.num.reverse(i * k + a.den.degree), a.den.reverse(a.den.degree))
                 for i, a in zip(WEIGHTS, cs)]
    else:
        m = [v.valuation_poly(a.den) if a.den.degree else 0 for a in cs]
        k = max(-(-mi // i) for i, mi in zip(WEIGHTS, m))
        parts = [(a.num * pi ** (i * k - mi), a.den.exact_div(pi ** mi) if mi else a.den)
                 for i, a, mi in zip(WEIGHTS, cs, m)]
    a, D = clear_denominators(parts)
    return a, k, D


@functools.lru_cache(maxsize=4096)
def _tate_local(E: Curve, v: Place) -> LocalData:
    """Tate's algorithm at v (Silverman, Advanced Topics, IV.9), on the
    coefficients as polynomials integral at v."""
    F = E.field
    if v.field is not F:
        raise ValueError("place over the wrong constant field")
    # at infinity the algorithm runs at s = 0 on the chart s = 1/t
    at = Place(F, Poly.x(F), _checked=True) if v.is_infinite else v
    pi, K = at.poly, at.residue_field()
    a, k, D = _integral_coeffs(E, v, pi)
    vd = v.valuation(E.delta) + 12 * k
    one, zero = Poly.one(F), Poly.zero(F)
    tau = Transform(one, zero, zero, zero)  # the moves after the scaling

    def move(r=zero, s=zero, w=zero):
        nonlocal a, tau
        a = translate(a, r, s, w)
        tau = tau.then(Transform(one, r, s, w))

    def red(f, j=0):
        """The residue of f / pi^j, for f divisible by pi^j."""
        for _ in range(j):
            f = f.exact_div(pi)
        return at.reduce_poly(f)

    def below(f, j):
        """Whether v(f) < j."""
        for _ in range(j):
            f, rem = divmod(f, pi)
            if rem:
                return True
        return False

    def finish(kt, f, split, a_v):
        T = tau.map(RatFunc)
        if k or D.degree:
            T = Transform.make(F, u=RatFunc(pi ** k * D).reciprocal()).then(T)
        if v.is_infinite:
            T = T.map(RatFunc.reciprocal_var)
        return LocalData(v, kt, vd - kt.m + 1, f, split, a_v, vd, T)

    for _ in range(64):
        if vd == 0:
            a_v = None
            if at.qv <= PLACE_CAP:
                a_v = at.qv + 1 - count_ws_points(K, *(red(x) for x in a))
                if a_v * a_v > 4 * at.qv:
                    raise FFECError("point count violates the Hasse bound")
            return finish(KodairaType("I", 0), 1, None, a_v)

        res = [red(x) for x in a]
        x0, y0 = _singular_point(K, *res)
        # moved to the singular point, a3, a4 and a6 vanish at v; the
        # tangent cone at (0, 0) reads only the residues of a1 and a2
        r1, r2 = translate(res, x0, K.zero, y0)[:2]
        if b_invariants(r1, r2, K.zero, K.zero, K.zero)[0]:
            # v(b2) = 0, nodal with distinct tangent slopes: I_n
            if x0 or y0:
                tau = tau.then(Transform(one, at.lift(x0), zero, at.lift(y0)))
            split = _quad_verdict(K, K.one, r1, -r2)[0]
            f = vd if split else vd // 2 + 1
            return finish(KodairaType("I", vd), f, split, 1 if split else -1)
        if x0 or y0:
            move(r=at.lift(x0), w=at.lift(y0))
        if below(a[4], 2):
            return finish(KodairaType("II"), 1, None, 0)
        _, _, b6, b8 = b_invariants(*a)
        if below(b8, 3):
            return finish(KodairaType("III"), 2, None, 0)
        if below(b6, 3):
            split = _quad_verdict(K, K.one, red(a[2], 1), -red(a[4], 2))[0]
            return finish(KodairaType("IV"), 3 if split else 2, split, 0)

        # normalize to v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
        split, alpha = _quad_verdict(K, K.one, r1, -r2)
        if split is not None:
            raise FFECError("tangent quadratic must degenerate here")
        if alpha:
            move(s=at.lift(alpha))
        split, beta = _quad_verdict(K, K.one, red(a[2], 1), -red(a[4], 2))
        if split is not None:
            raise FFECError("vertical quadratic must degenerate here")
        if beta:
            move(w=pi * at.lift(beta))
        a1, a2, a3, a4, a6 = a
        assert not (below(a1, 1) or below(a2, 1) or below(a3, 2)
                    or below(a4, 2) or below(a6, 3))

        cubic = Poly._of(K, (red(a6, 3), red(a4, 2), red(a2, 1), K.one))
        mult, gamma = _cubic_multiple_root(K, cubic)
        if mult == 1:
            # separable cubic: I0*, components split per the orbits of its roots
            orbits, split = {3: (3, True), 1: (2, False), 0: (1, None)}[_root_count(K, cubic)]
            return finish(KodairaType("I*", 0), 2 + orbits, split, 0)
        if gamma:
            move(r=pi * at.lift(gamma))
        a1, a2, a3, a4, a6 = a

        if mult == 2:
            # one double root: the I_n* chain
            assert below(a2, 2) and not (below(a2, 1) or below(a4, 3)
                                         or below(a6, 4))
            step = 2
            while True:
                if step > vd:
                    raise FFECError("I_n* chain failed to terminate")
                split, beta = _quad_verdict(
                    K, K.one, red(a[2], step), -red(a[4], 2 * step))
                if split is not None:
                    nu = 2 * step - 3
                    break
                if beta:
                    move(w=pi ** step * at.lift(beta))
                split, gamma = _quad_verdict(
                    K, red(a[1], 1), red(a[3], step + 1), red(a[4], 2 * step + 1))
                if split is not None:
                    nu = 2 * step - 2
                    break
                if gamma:
                    move(r=pi ** step * at.lift(gamma))
                step += 1
            f = 5 + nu if split else 4 + nu
            return finish(KodairaType("I*", nu), f, split, 0)

        # triple root
        assert not (below(a2, 2) or below(a4, 3) or below(a6, 4))
        split, beta = _quad_verdict(K, K.one, red(a3, 2), -red(a6, 4))
        if split is not None:
            return finish(KodairaType("IV*"), 7 if split else 5, split, 0)
        if beta:
            move(w=pi ** 2 * at.lift(beta))
        a1, a2, a3, a4, a6 = a
        assert not (below(a3, 3) or below(a6, 5))
        if below(a4, 4):
            return finish(KodairaType("III*"), 8, None, 0)
        if below(a6, 6):
            return finish(KodairaType("II*"), 9, None, 0)
        # non-minimal: all a_i divisible by pi^i after the translations
        a = [x.exact_div(pi ** i) for i, x in zip(WEIGHTS, a)]
        tau = tau.then(Transform(pi, zero, zero, zero))
        vd -= 12
    raise FFECError("reduction loop failed to terminate")


def tate_type(E: Curve, v: Place) -> LocalData:
    """Run Tate's algorithm at v (finite or infinite)."""
    return _tate_local(E, v)


def minimal_model_at(E: Curve, v: Place):
    """A model of E integral and minimal at v, with the transform that
    produced it."""
    tau = _tate_local(E, v).transform_used
    return tau.apply(E), tau


class CurveAnalysis(NamedTuple):
    """The local data of one curve and what follows from it.

    cls is the classification, which carries the polynomial minimal model
    M and the transform to it; local holds Tate's algorithm at infinity and
    at every factor of Delta(M), in canonical order.  Every other place is
    good, since M is integral there and Delta(M) a unit.  bad keeps the
    places with positive conductor exponent, and nprime_deg is the
    conductor degree less the tame parts at t = 0 and infinity.
    """

    cls: Classification
    local: tuple
    bad: tuple
    conductor: Conductor
    nprime_deg: int


@functools.lru_cache(maxsize=16)
def curve_analysis(E: Curve) -> CurveAnalysis:
    """Classify E and run Tate's algorithm once at each candidate place."""
    cls = classify(E)
    M = cls.model
    F = E.field
    _, fac = factor_poly(M.delta.num)
    places = [Place.infinite(F)] + [Place(F, g, _checked=True) for g, _ in fac]
    local = tuple(tate_type(M, v) for v in places)
    bad = tuple(ld for ld in local if ld.n_v > 0)
    cond = Conductor(tuple((ld.place, ld.n_v) for ld in bad))
    t = Poly.x(F)
    tame = sum(ld.tame for ld in local
               if ld.place.is_infinite or ld.place.poly == t)
    return CurveAnalysis(cls, local, bad, cond, cond.deg - tame)


def bad_reduction(E: Curve):
    """LocalData at every place of bad reduction, canonical order."""
    return curve_analysis(E).bad


def conductor(E: Curve) -> Conductor:
    """The conductor divisor of E."""
    return curve_analysis(E).conductor


def nprime_deg(E: Curve) -> int:
    """deg of the conductor with the tame parts at t = 0 and infinity
    removed."""
    return curve_analysis(E).nprime_deg


def fiber_table_row(kt: KodairaType, split):
    """(a, b, f, g) for the fiber zeta Z = (1-T)^a (1+T)^b /
    ((1-q T)^f (1+q T)^g).  Raises UndefinedRowError off the table."""
    if kt.kind == "I":
        if kt.n == 0:
            raise UndefinedRowError("good fibers are not table rows")
        if split is None:
            raise UndefinedRowError("I_n rows need the split flag")
        n = kt.n
        if split:
            return (0, 0, n, 0)
        if n % 2:
            return (-1, 1, (n + 1) // 2, (n - 1) // 2)
        return (-1, 1, n // 2 + 1, (n - 2) // 2)
    if kt.kind == "I*":
        if split is None:
            raise UndefinedRowError(
                "I0* with an irreducible residue cubic has no table row")
        return (-1, 0, 5 + kt.n, 0) if split else (-1, 0, 4 + kt.n, 1)
    if kt.kind == "IV":
        if split is None:
            raise UndefinedRowError("IV rows need the split flag")
        return (-1, 0, 3, 0) if split else (-1, 0, 2, 1)
    if kt.kind == "IV*":
        if split is None:
            raise UndefinedRowError("IV* rows need the split flag")
        return (-1, 0, 7, 0) if split else (-1, 0, 5, 2)
    return {"II": (-1, 0, 1, 0), "II*": (-1, 0, 9, 0),
            "III": (-1, 0, 2, 0), "III*": (-1, 0, 8, 0)}[kt.kind]


def fiber_counts(kt: KodairaType, split, qv: int, m: int) -> int:
    """Number of F_{q_v^m}-points on the singular fiber of the smooth
    surface model."""
    if m < 1:
        raise ValueError("m must be positive")
    a, b, f, g = fiber_table_row(kt, split)
    return f * qv**m + g * (-qv) ** m - a - b * (-1) ** m


def torsion_bound(E: Curve) -> int:
    """A multiple of the order of the prime-to-p torsion subgroup: the
    p-free part of gcd(#E(kappa_v)) over the good places of degree <= d,
    infinity included when it is good, for the least d that gives two of
    them.  Each degree is read whole from the Euler product's count of its
    good Frobenius orbits (lfunction._good_counts)."""
    from .lfunction import _good_counts   # lfunction imports this module

    A = curve_analysis(E)
    F = E.field
    inf = A.local[0]
    orders = [inf.place.qv + 1 - inf.a_v] if inf.type.is_good else []
    d = 1
    while len(orders) < 2 and F.q ** d <= PLACE_CAP:
        orders += _good_counts(A.cls.model, d)
        d += 1
    if len(orders) < 2:
        raise CapError("fewer than two good places under the counting cap")
    g = math.gcd(*orders)
    while g % F.p == 0:
        g //= F.p
    return g
