"""Reduction at places: minimal models, Kodaira types, conductor exponents,
component counts, fiber point counts, and torsion bounds.

The core is Tate's algorithm, run verbatim in every characteristic.  All
residue tests (splitness of tangent cones, distinct roots of the auxiliary
quadratics and cubic) go through polynomial factorization over the residue
field, which keeps the characteristic-2 and -3 paths on the same code as the
generic case.  The place at infinity is handled on the s = 1/t chart and the
resulting transform is pulled back.

curve_analysis runs it once per curve, at infinity and at the factors of
the discriminant of the polynomial minimal model; the bad places, the
conductor and nprime_deg are read from that record, as are the bad Euler
factors of the L-function and the places of the local heights.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .algebra import (
    PLACE_CAP,
    CapError,
    FFECError,
    FqElem,
    Place,
    Poly,
    RatFunc,
    count_ws_points,
    factor_poly,
    iter_monic_irreducibles,
    poly_roots,
)
from .weierstrass import Classification, Curve, Transform, classify


class UndefinedRowError(FFECError):
    """The fiber-zeta table has no row for this reduction type."""


_GEOM = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


@dataclasses.dataclass(frozen=True)
class KodairaType:
    """A Kodaira reduction type.  kind is one of I, I*, II, III, IV, IV*,
    III*, II*; n is the index for the I and I* series."""

    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind in ("I", "I*"):
            if self.n < 0:
                raise ValueError("index must be non-negative")
        elif self.kind not in _GEOM:
            raise ValueError(f"unknown Kodaira kind {self.kind!r}")
        elif self.n:
            raise ValueError(f"{self.kind} takes no index")

    @staticmethod
    def I(n: int) -> "KodairaType":
        return KodairaType("I", n)

    @staticmethod
    def Istar(n: int) -> "KodairaType":
        return KodairaType("I*", n)

    @staticmethod
    def II() -> "KodairaType":
        return KodairaType("II")

    @staticmethod
    def III() -> "KodairaType":
        return KodairaType("III")

    @staticmethod
    def IV() -> "KodairaType":
        return KodairaType("IV")

    @staticmethod
    def IVstar() -> "KodairaType":
        return KodairaType("IV*")

    @staticmethod
    def IIIstar() -> "KodairaType":
        return KodairaType("III*")

    @staticmethod
    def IIstar() -> "KodairaType":
        return KodairaType("II*")

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


@dataclasses.dataclass(frozen=True)
class LocalData:
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


@dataclasses.dataclass(frozen=True)
class Conductor:
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


class _Frame:
    """Valuation, reduction, and lifting at one finite place."""

    def __init__(self, field, place: Place):
        self.F = field
        self.v = place
        self.pi = RatFunc(place.poly)
        self.kappa = place.residue_field()

    def val(self, r: RatFunc):
        return self.v.valuation(r)

    def redq(self, r: RatFunc, j: int) -> FqElem:
        """reduce(r / pi^j); requires v(r) >= j."""
        if r.is_zero():
            return self.kappa.zero
        if j:
            r = r / self.pi ** j
        return self.v.reduce(r)

    def lift(self, x: FqElem) -> RatFunc:
        return RatFunc(self.v.lift(x))


def _root_of_linear(g: Poly) -> FqElem:
    # g monic linear
    return -g.coeffs[0]


def _separable(factors) -> bool:
    return all(e == 1 for _, e in factors)


def _quad_verdict(K, c2, c1, c0):
    """Factor c2*Y^2 + c1*Y + c0 over K.  Returns ("split"|"nonsplit", None)
    for separable quadratics or ("double", root) otherwise."""
    _, fac = factor_poly(Poly(K, [c0, c1, c2]))
    if _separable(fac):
        return ("split" if len(fac) == 2 else "nonsplit"), None
    return "double", _root_of_linear(fac[0][0])


def _singular_point(fr: _Frame, E: Curve):
    """Coordinates in kappa of the singular point of the reduced curve."""
    K = fr.kappa
    a1, a2, a3, a4, a6 = [fr.redq(a, 0) for a in E.coeffs]
    if K.p != 2:
        half = K.scalar(2).inverse()
        quarter = half * half
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        cubic = Poly(K, [b6 * quarter, b4 * half, b2 * quarter, K.one])
        x0 = None
        for r, mult in poly_roots(cubic):
            if mult >= 2:
                x0 = r
                break
        if x0 is None:
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


def _count_reduction(fr: _Frame, E: Curve):
    """a_v at a place of good reduction, or None above the counting cap."""
    if fr.v.qv > PLACE_CAP:
        return None
    K = fr.kappa
    red = [fr.redq(a, 0) for a in E.coeffs]
    n_pts = count_ws_points(K, *red)
    a = fr.v.qv + 1 - n_pts
    if a * a > 4 * fr.v.qv:
        raise FFECError("point count violates the Hasse bound")
    return a


def _tate_finite(E0: Curve, place: Place):
    """Tate's algorithm at a finite place.  Returns (LocalData, model)."""
    F = E0.field
    fr = _Frame(F, place)
    K = fr.kappa
    tau = Transform.identity(F)
    E = E0

    def push(step):
        nonlocal E, tau
        E = step.apply(E)
        tau = tau.then(step)

    # scale until every coefficient is integral at the place
    k = 0
    for i, a in zip((1, 2, 3, 4, 6), E.coeffs):
        if not a.is_zero():
            va = fr.val(a)
            if va < 0:
                k = max(k, (-va + i - 1) // i)
    if k:
        push(Transform.make(F, u=RatFunc.one(F) / fr.pi ** k))

    def finish(kt, f, split, a_v, vd):
        n_v = vd - kt.m + 1
        ld = LocalData(place, kt, n_v, f, split, a_v, vd, tau)
        return ld, E

    guard = 0
    while True:
        guard += 1
        if guard > 64:
            raise FFECError("reduction loop failed to terminate")
        vd = fr.val(E.invariants().delta)
        if vd == 0:
            return finish(KodairaType.I(0), 1, None, _count_reduction(fr, E), 0)
        vd = int(vd)

        x0, y0 = _singular_point(fr, E)
        if x0 or y0:
            push(Transform.make(F, r=fr.lift(x0), w=fr.lift(y0)))
        a1, a2, a3, a4, a6 = E.coeffs
        iv = E.invariants()

        if fr.val(iv.b2) == 0:
            # nodal with distinct tangent slopes: I_n
            verdict, _ = _quad_verdict(K, K.one, fr.redq(a1, 0), -fr.redq(a2, 0))
            split = verdict == "split"
            n = vd
            if split:
                f = n
            else:
                f = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
            return finish(KodairaType.I(n), f, split, 1 if split else -1, vd)
        if fr.val(a6) < 2:
            return finish(KodairaType.II(), 1, None, 0, vd)
        if fr.val(iv.b8) < 3:
            return finish(KodairaType.III(), 2, None, 0, vd)
        if fr.val(iv.b6) < 3:
            verdict, _ = _quad_verdict(K, K.one, fr.redq(a3, 1), -fr.redq(a6, 2))
            split = verdict == "split"
            return finish(KodairaType.IV(), 3 if split else 2, split, 0, vd)

        # normalize to v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
        verdict, alpha = _quad_verdict(K, K.one, fr.redq(a1, 0), -fr.redq(a2, 0))
        if verdict != "double":
            raise FFECError("tangent quadratic must degenerate here")
        if alpha:
            push(Transform.make(F, s=fr.lift(alpha)))
            a1, a2, a3, a4, a6 = E.coeffs
        verdict, beta = _quad_verdict(K, K.one, fr.redq(a3, 1), -fr.redq(a6, 2))
        if verdict != "double":
            raise FFECError("vertical quadratic must degenerate here")
        if beta:
            push(Transform.make(F, w=fr.pi * fr.lift(beta)))
            a1, a2, a3, a4, a6 = E.coeffs
        assert fr.val(a1) >= 1 and fr.val(a2) >= 1
        assert fr.val(a3) >= 2 and fr.val(a4) >= 2 and fr.val(a6) >= 3

        cubic = Poly(K, [fr.redq(a6, 3), fr.redq(a4, 2), fr.redq(a2, 1), K.one])
        _, fac = factor_poly(cubic)
        mults = sorted(e for _, e in fac)
        if mults[-1] == 1:
            # separable cubic: I0*, components split per the orbit pattern
            orbits = len(fac)
            split = {3: True, 2: False, 1: None}[orbits]
            return finish(KodairaType.Istar(0), 2 + orbits, split, 0, vd)

        if mults == [1, 2]:
            # one double root: the I_n* chain
            gamma = next(_root_of_linear(g) for g, e in fac if e == 2)
            if gamma:
                push(Transform.make(F, r=fr.pi * fr.lift(gamma)))
                a1, a2, a3, a4, a6 = E.coeffs
            assert fr.val(a2) == 1 and fr.val(a4) >= 3 and fr.val(a6) >= 4
            step = 2
            while True:
                if step > vd:
                    raise FFECError("I_n* chain failed to terminate")
                verdict, beta = _quad_verdict(
                    K, K.one, fr.redq(a3, step), -fr.redq(a6, 2 * step))
                if verdict != "double":
                    nu = 2 * step - 3
                    split = verdict == "split"
                    break
                if beta:
                    push(Transform.make(F, w=fr.pi ** step * fr.lift(beta)))
                    a1, a2, a3, a4, a6 = E.coeffs
                verdict, gamma = _quad_verdict(
                    K, fr.redq(a2, 1), fr.redq(a4, step + 1),
                    fr.redq(a6, 2 * step + 1))
                if verdict != "double":
                    nu = 2 * step - 2
                    split = verdict == "split"
                    break
                if gamma:
                    push(Transform.make(F, r=fr.pi ** step * fr.lift(gamma)))
                    a1, a2, a3, a4, a6 = E.coeffs
                step += 1
            f = 5 + nu if split else 4 + nu
            return finish(KodairaType.Istar(nu), f, split, 0, vd)

        # triple root
        gamma = _root_of_linear(fac[0][0])
        if gamma:
            push(Transform.make(F, r=fr.pi * fr.lift(gamma)))
            a1, a2, a3, a4, a6 = E.coeffs
        assert fr.val(a2) >= 2 and fr.val(a4) >= 3 and fr.val(a6) >= 4
        verdict, beta = _quad_verdict(K, K.one, fr.redq(a3, 2), -fr.redq(a6, 4))
        if verdict != "double":
            split = verdict == "split"
            return finish(KodairaType.IVstar(), 7 if split else 5, split, 0, vd)
        if beta:
            push(Transform.make(F, w=fr.pi ** 2 * fr.lift(beta)))
            a1, a2, a3, a4, a6 = E.coeffs
        assert fr.val(a3) >= 3 and fr.val(a6) >= 5
        if fr.val(a4) < 4:
            return finish(KodairaType.IIIstar(), 8, None, 0, vd)
        if fr.val(a6) < 6:
            return finish(KodairaType.IIstar(), 9, None, 0, vd)
        # non-minimal: all a_i divisible by pi^i after the translations
        push(Transform.make(F, u=fr.pi))


def _to_inf_chart(E: Curve) -> Curve:
    cs = [a.reciprocal_var() for a in E.coeffs]
    return Curve(E.field, *cs, var="s")


def _transform_from_chart(tau: Transform) -> Transform:
    F = tau.u.num.field
    return Transform.make(
        F, u=tau.u.reciprocal_var(), r=tau.r.reciprocal_var(),
        s=tau.s.reciprocal_var(), w=tau.w.reciprocal_var())


@functools.lru_cache(maxsize=4096)
def _tate_local(E: Curve, v: Place):
    if v.is_infinite:
        F = E.field
        Es = _to_inf_chart(E)
        s_place = Place.finite(Poly.x(F))
        ld, _ = _tate_finite(Es, s_place)
        tau = _transform_from_chart(ld.transform_used)
        model = tau.apply(E)
        ld = dataclasses.replace(ld, place=v, transform_used=tau)
        return ld, model
    if v.field is not E.field:
        raise ValueError("place over the wrong constant field")
    return _tate_finite(E, v)


def tate_type(E: Curve, v: Place) -> LocalData:
    """Run Tate's algorithm at v (finite or infinite)."""
    return _tate_local(E, v)[0]


def minimal_model_at(E: Curve, v: Place):
    """A model of E integral and minimal at v, with the transform that
    produced it."""
    ld, model = _tate_local(E, v)
    return model, ld.transform_used


@dataclasses.dataclass(frozen=True)
class CurveAnalysis:
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
    _, fac = factor_poly(M.invariants().delta.num)
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
    p-free part of gcd(#E(kappa_v)) over the first two good places."""
    M = curve_analysis(E).cls.model
    F = E.field
    p = F.p
    orders = []

    def place_stream():
        yield Place.infinite(F)
        d = 1
        while F.q ** d <= PLACE_CAP:
            for f in iter_monic_irreducibles(F, d):
                yield Place(F, f, _checked=True)
            d += 1

    for v in place_stream():
        ld = tate_type(M, v)
        if ld.type.is_good and ld.a_v is not None:
            orders.append(v.qv + 1 - ld.a_v)
            if len(orders) == 2:
                g = math.gcd(*orders)
                while g % p == 0:
                    g //= p
                return g
    raise CapError("fewer than two good places under the counting cap")
