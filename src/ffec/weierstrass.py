"""Weierstrass models over rational function fields: invariants, isomorphisms,
the group law, and the basic classification (constant / isotrivial / height).

The Weierstrass algebra is written once, for coefficients in any ring:
WEIGHTS, b_invariants, c_invariants, discriminant and translate (the change
of coordinates with u = 1) serve Curve, Transform, classify and Tate's
algorithm in local alike, whether the coefficients are rational functions,
polynomials or residue-field elements.  A Curve is its five coefficients
and its discriminant.  Only a curve built from given coefficients computes
its discriminant, on those coefficients cleared of their denominators
(clear_denominators, which local uses too); a curve derived from another
(base_change_pow, Transform.apply, the constant-field descent in lfunction)
carries the other's discriminant through the same map.  c4, c6 and j are
computed once, by classify, for the curve's one analysis, c4 and c6 on the
same cleared coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    FFECError,
    Fq,
    FqElem,
    ParseError,
    Place,
    Poly,
    RatFunc,
    factor_poly,
    field_create,
    format_ratfunc,
    parse_ratfunc,
    parse_ratfunc_seen,
    poly_roots,
)


class NotEllipticError(FFECError):
    """The Weierstrass equation is singular (discriminant zero)."""


def _as_ratfunc(field: Fq, v) -> RatFunc:
    if isinstance(v, RatFunc):
        if v.field is not field:
            raise ValueError("coefficient over the wrong field")
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    if isinstance(v, (FqElem, int)):
        return RatFunc(Poly(field, (v,)))
    if isinstance(v, str):
        return parse_ratfunc(v, field)
    raise ValueError(f"cannot interpret {v!r} as a rational function")


# the weights of a1, a2, a3, a4, a6: x = u^2 x' scales a_i by u^i
WEIGHTS = (1, 2, 3, 4, 6)


def b_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8) of the coefficients, in any ring they live in."""
    return (a1 * a1 + 4 * a2,
            2 * a4 + a1 * a3,
            a3 * a3 + 4 * a6,
            a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4)


def c_invariants(a1, a2, a3, a4, a6):
    """(c4, c6) of the coefficients, in any ring they live in."""
    b2, b4, b6, _ = b_invariants(a1, a2, a3, a4, a6)
    return b2 * b2 - 24 * b4, -(b2 ** 3) + 36 * b2 * b4 - 216 * b6


def discriminant(a1, a2, a3, a4, a6):
    """The discriminant of the coefficients, in any ring they live in."""
    b2, b4, b6, b8 = b_invariants(a1, a2, a3, a4, a6)
    return -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6


def clear_denominators(parts):
    """(a, D) for the fractions num_i / den_i of weights 1, 2, 3, 4, 6
    given as parts = [(num_i, den_i)]: D is the monic lcm of the den_i and
    a_i = num_i / den_i * D^i, a polynomial.  When every den_i is 1, D = 1,
    the a_i are the num_i and no gcd is taken."""
    D = Poly.one(parts[0][0].field)
    for _, den in parts:
        if den.degree > 0:
            D = (D * den.exact_div(D.gcd(den))).monic()
    if not D.degree:
        return [num for num, _ in parts], D
    return ([num * D.exact_div(den) * D ** (i - 1)
             for i, (num, den) in zip(WEIGHTS, parts)], D)


def translate(a, r, s, w):
    """The coefficients a = (a1, a2, a3, a4, a6) after x = x' + r, then
    y = y' + s x', then y = y' + w: the change of coordinates with u = 1,
    in any ring the coefficients live in.  A zero r, s or w is skipped."""
    a1, a2, a3, a4, a6 = a
    if r:
        r2 = r * r
        a6 = a6 + r * a4 + r2 * a2 + r2 * r
        a4 = a4 + 2 * r * a2 + 3 * r2
        a3 = a3 + r * a1
        a2 = a2 + 3 * r
    if s:
        a4 = a4 - s * a3
        a2 = a2 - s * a1 - s * s
        a1 = a1 + 2 * s
    if w:
        a6 = a6 - w * a3 - w * w
        a4 = a4 - w * a1
        a3 = a3 + 2 * w
    return a1, a2, a3, a4, a6


class CurvePoint:
    """A point on a Weierstrass curve: affine coordinates or infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        self.x = x
        self.y = y

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint()

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x!r}, {self.y!r})"


O = CurvePoint.infinity()


def ws_neg(a, P: CurvePoint) -> CurvePoint:
    a1, a2, a3, a4, a6 = a
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y - a1 * P.x - a3)


def ws_add(a, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Group law for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, valid over
    any coefficient domain with exact division."""
    a1, a2, a3, a4, a6 = a
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y1 != y2:
            # Q is -P (two points with equal x are negatives of each other)
            return CurvePoint.infinity()
        den = 2 * y1 + a1 * x1 + a3
        if not den:
            # P = Q is a point of order 2
            return CurvePoint.infinity()
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1 - a1 * x3 - a3
    return CurvePoint(x3, y3)


def ws_scalar_mul(a, n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return ws_scalar_mul(a, -n, ws_neg(a, P))
    out = CurvePoint.infinity()
    base = P
    while n:
        if n & 1:
            out = ws_add(a, out, base)
        base = ws_add(a, base, base)
        n >>= 1
    return out


class Curve:
    """An elliptic curve y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over
    F_q(t), with exact rational-function coefficients and its discriminant
    delta.

    Curve(...) builds a curve from given coefficients (a file, the catalog,
    a family): it computes delta on the coefficients cleared of their
    denominators, delta = discriminant(a_i D^i) / D^12 with D their lcm,
    and raises NotEllipticError when delta is 0.  A curve derived from
    another comes from Curve._derived, which takes delta mapped the way the
    coefficients were: a ring map for base change and descent, u^-12 for a
    change of coordinates.  Those maps are injective, so a nonzero delta
    stays nonzero and needs no check."""

    __slots__ = ("field", "a1", "a2", "a3", "a4", "a6", "var", "delta")

    def __init__(self, field: Fq, a1=0, a2=0, a3=0, a4=0, a6=0, var: str = "t"):
        self.field = field
        self.a1 = _as_ratfunc(field, a1)
        self.a2 = _as_ratfunc(field, a2)
        self.a3 = _as_ratfunc(field, a3)
        self.a4 = _as_ratfunc(field, a4)
        self.a6 = _as_ratfunc(field, a6)
        self.var = var
        a, D = clear_denominators([(c.num, c.den) for c in self.coeffs])
        delta = discriminant(*a)
        if not delta:
            raise NotEllipticError("discriminant is zero: not an elliptic curve")
        self.delta = RatFunc(delta, D ** 12)

    @classmethod
    def _derived(cls, field: Fq, coeffs, delta: RatFunc, var: str) -> "Curve":
        """The curve with the five rational functions coeffs over field and
        their discriminant delta, both derived from another curve by the
        same map: nothing is computed or checked."""
        E = object.__new__(cls)
        E.field = field
        E.a1, E.a2, E.a3, E.a4, E.a6 = coeffs
        E.var = var
        E.delta = delta
        return E

    @property
    def coeffs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return (self.field is other.field and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field._id, self.var, self.coeffs))

    def __repr__(self):
        cs = ", ".join(format_ratfunc(c, self.var) for c in self.coeffs)
        return f"Curve(F_{self.field.q}({self.var}); {cs})"

    # group law on K-rational points

    def neg(self, P: CurvePoint) -> CurvePoint:
        return ws_neg(self.coeffs, P)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        return ws_add(self.coeffs, P, Q)

    def scalar_mul(self, n: int, P: CurvePoint) -> CurvePoint:
        return ws_scalar_mul(self.coeffs, n, P)

    def on_curve(self, P: CurvePoint) -> bool:
        """The curve equation on polynomial numerators.  With D the lcm of
        the coefficients' denominators (clear_denominators), the a_i D^i
        are polynomials and P = (X/Z, Y/W) is (D^2 X/Z, D^3 Y/W) on their
        model, so the equation times Z^3 W^2 compares two polynomials; on
        a polynomial model D = 1 and no gcd is taken."""
        if P.is_infinity:
            return True
        (a1, a2, a3, a4, a6), D = clear_denominators(
            [(c.num, c.den) for c in self.coeffs])
        X, Z, Y, W = P.x.num, P.x.den, P.y.num, P.y.den
        if D.degree:
            D2 = D * D
            X, Y = X * D2, Y * D2 * D
        Z2 = Z * Z
        lhs = (Y * Z + (a1 * X + a3 * Z) * W) * Y * Z2
        rhs = (((X + a2 * Z) * X + a4 * Z2) * X + a6 * Z2 * Z) * W * W
        return lhs == rhs

    def point(self, x, y) -> CurvePoint:
        P = CurvePoint(_as_ratfunc(self.field, x), _as_ratfunc(self.field, y))
        if not self.on_curve(P):
            raise ValueError("point is not on the curve")
        return P


@dataclass(frozen=True)
class Transform:
    """Change of Weierstrass coordinates x = u^2 x' + r, y = u^3 y' + s u^2 x' + w.

    u, r, s and w are rational functions; Tate's algorithm holds them as
    polynomials while it composes its moves with then."""

    u: RatFunc
    r: RatFunc
    s: RatFunc
    w: RatFunc

    @staticmethod
    def make(field: Fq, u=1, r=0, s=0, w=0) -> "Transform":
        tu = _as_ratfunc(field, u)
        if tu.is_zero():
            raise ValueError("scaling u must be nonzero")
        return Transform(tu, _as_ratfunc(field, r), _as_ratfunc(field, s),
                         _as_ratfunc(field, w))

    def is_identity(self) -> bool:
        f = self.u.field
        return (self.u == RatFunc.one(f) and self.r.is_zero()
                and self.s.is_zero() and self.w.is_zero())

    def apply(self, E: Curve) -> Curve:
        """The model of E in the new coordinates.  r, s and w leave the
        discriminant fixed and u scales it by u^-12 (Silverman, AEC,
        Table 3.1), so E.delta / u^12 is the new one."""
        a = translate(E.coeffs, self.r, self.s, self.w)
        u = self.u
        return Curve._derived(E.field, [ai / u ** i for i, ai in zip(WEIGHTS, a)],
                              E.delta / u ** 12, E.var)

    def apply_point(self, P: CurvePoint) -> CurvePoint:
        """Coordinates of P on the transformed model."""
        if P.is_infinity:
            return P
        u, r, s, w = self.u, self.r, self.s, self.w
        u2 = u * u
        nx = (P.x - r) / u2
        ny = (P.y - s * (P.x - r) - w) / (u2 * u)
        return CurvePoint(nx, ny)

    def unapply_point(self, P: CurvePoint) -> CurvePoint:
        """Coordinates on the original model of a point given on the new one."""
        if P.is_infinity:
            return P
        u, r, s, w = self.u, self.r, self.s, self.w
        u2 = u * u
        x = u2 * P.x + r
        y = u2 * u * P.y + s * u2 * P.x + w
        return CurvePoint(x, y)

    def then(self, other: "Transform") -> "Transform":
        """The single transform equivalent to applying self, then other."""
        u1, r1, s1, w1 = self.u, self.r, self.s, self.w
        u2, r2, s2, w2 = other.u, other.r, other.s, other.w
        u1s = u1 * u1
        return Transform(
            u1 * u2,
            r1 + u1s * r2,
            s1 + u1 * s2,
            w1 + u1s * r2 * s1 + u1s * u1 * w2,
        )

    def map(self, fn) -> "Transform":
        """The transform with fn applied to each of u, r, s and w."""
        return Transform(fn(self.u), fn(self.r), fn(self.s), fn(self.w))

    def inverse(self) -> "Transform":
        u, r, s, w = self.u, self.r, self.s, self.w
        iu = RatFunc.one(u.field) / u
        iu2 = iu * iu
        return Transform(iu, -r * iu2, -s * iu, (r * s - w) * iu2 * iu)


# classification --------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    isotrivial: bool
    constant: bool
    height: int
    c4: RatFunc
    c6: RatFunc
    j: RatFunc
    model: Curve
    transform: Transform


def minimal_polynomial_model(E: Curve) -> tuple[Curve, Transform]:
    """Rescale by u = prod pi^{e_pi} so every coefficient is a polynomial
    with as little content as the weights allow.  Only a prime dividing
    every nonzero numerator can have e_pi > 0, and only one dividing a
    denominator e_pi < 0, so those are the primes factored; E itself is
    the model when u = 1."""
    field = E.field
    cs = [(i, ai) for i, ai in zip(WEIGHTS, E.coeffs) if ai]
    g = Poly.zero(field)
    for _, ai in cs:
        if g.degree != 0:
            g = g.gcd(ai.num)
    primes = {}
    for part in [g] + [ai.den for _, ai in cs]:
        if part.degree >= 1:
            for h, _ in factor_poly(part)[1]:
                primes[h] = True
    u = RatFunc.one(field)
    for h in primes:
        v = Place(field, h, _checked=True)
        e = min(v.valuation(ai) // i for i, ai in cs)
        if e:
            u = u * RatFunc(h) ** e
    tau = Transform.make(field, u=u)
    return (E if tau.is_identity() else tau.apply(E)), tau


def classify(E: Curve) -> Classification:
    """Constant / isotrivial / height classification of a curve over F_q(t)."""
    model, tau = minimal_polynomial_model(E)
    h = 0
    for i, ai in zip(WEIGHTS, model.coeffs):
        if ai.is_zero():
            continue
        d = int(ai.num.degree)
        h = max(h, -(-d // i))
    # c4 and c6 have weights 4 and 6, so they come from the cleared
    # coefficients as delta does in Curve
    a, D = clear_denominators([(c.num, c.den) for c in E.coeffs])
    c4, c6 = c_invariants(*a)
    c4, c6 = RatFunc(c4, D ** 4), RatFunc(c6, D ** 6)
    j = c4 ** 3 / E.delta
    return Classification(
        isotrivial=j.is_constant(),
        constant=h == 0,
        height=h,
        c4=c4,
        c6=c6,
        j=j,
        model=model,
        transform=tau,
    )


def base_change_pow(E: Curve, d: int) -> Curve:
    """Pull back along t = u^d.  The new curve lives over F_q(u); t -> u^d
    is a ring homomorphism, so its discriminant is E's with t = u^d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d % E.field.p == 0:
        raise ValueError("d must be prime to the characteristic")
    cs = [ai.compose_power(d) for ai in E.coeffs]
    return Curve._derived(E.field, cs, E.delta.compose_power(d), "u")


def constant_embedding(field: Fq, ext: Fq):
    """The canonical embedding F_{p^e} -> F_{p^{em}}: the structural generator
    maps to the least root of its minimal polynomial in the extension."""
    if field.p != ext.p or ext.e % field.e:
        raise ValueError("no embedding between these fields")
    if field.base is None:
        def embed_prime(c: FqElem) -> FqElem:
            return ext.scalar(c.val)
        return embed_prime
    g = Poly(ext, [ext.scalar(c.val) for c in field.modulus])
    roots = poly_roots(g)
    if not roots:
        raise FFECError("modulus has no root in the extension")
    rho = roots[0][0]

    def embed(c: FqElem) -> FqElem:
        acc = ext.zero
        for k in reversed(field._digits(c.val)):
            acc = acc * rho + ext.scalar(k)
        return acc

    return embed


# Hasse invariant and p-torsion ------------------------------------------------


def hasse_invariant(E: Curve) -> RatFunc:
    """The Hasse invariant of the generic fiber: a1 in characteristic 2, and
    the x^{p-1} coefficient of the cubic raised to the (p-1)/2 otherwise.
    Vanishes exactly when the generic fiber is supersingular."""
    p = E.field.p
    if p == 2:
        return E.a1
    b2, b4, b6, _ = b_invariants(*E.coeffs)
    # complete the square: eta^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4
    quarter = RatFunc.from_const(E.field.scalar(4).inverse())
    half = RatFunc.from_const(E.field.scalar(2).inverse())
    f = [b6 * quarter, b4 * half, b2 * quarter, RatFunc.one(E.field)]
    n = (p - 1) // 2
    acc = [RatFunc.one(E.field)]
    for _ in range(n):
        out = [RatFunc.zero(E.field)] * (len(acc) + 3)
        for i, c in enumerate(acc):
            if c.is_zero():
                continue
            for j, d in enumerate(f):
                if not d.is_zero():
                    out[i + j] = out[i + j] + c * d
        acc = out
    return acc[p - 1]


def _power_class_exponents(r: RatFunc, n: int) -> tuple[bool, FqElem]:
    """Whether every irreducible exponent of r is divisible by n;
    also returns the leading unit."""
    ok = True
    for part, sign in ((r.num, 1), (r.den, -1)):
        if part.degree >= 1:
            _, fac = factor_poly(part)
            for _, e in fac:
                if (sign * e) % n:
                    ok = False
    return ok, r.num.lc()


def has_p_torsion(E: Curve) -> bool:
    """Whether a non-isotrivial curve has a rational p-torsion point:
    j must be a p-th power and the Hasse invariant a (p-1)-st power."""
    cls = classify(E)
    if cls.isotrivial:
        raise FFECError("p-torsion criterion needs a non-isotrivial curve")
    p = E.field.p
    j = cls.j
    j_ok, _ = _power_class_exponents(j, p)
    if not j_ok:
        return False
    A = hasse_invariant(E)
    if A.is_zero():
        raise FFECError("Hasse invariant vanishes on a non-isotrivial curve")
    if p == 2:
        return True
    q = E.field.q
    a_ok, unit = _power_class_exponents(A, p - 1)
    if not a_ok:
        return False
    g = math.gcd(q - 1, p - 1)
    return unit ** ((q - 1) // g) == E.field.one


# curve files ------------------------------------------------------------------


def format_curve_file(E: Curve) -> str:
    lines = [f"p = {E.field.p}", f"e = {E.field.e}"]
    for name, ai in zip(("a1", "a2", "a3", "a4", "a6"), E.coeffs):
        lines.append(f"{name} = {format_ratfunc(ai, E.var)}")
    return "\n".join(lines) + "\n"


def parse_curve_file(text: str) -> Curve:
    """Parse the key = value curve format.  Keys p and e must come before the
    coefficients; missing coefficients default to 0."""
    field = None
    p = None
    e = None
    coeffs = {}
    seen_var = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "p":
            p = int(val)
        elif key == "e":
            e = int(val)
        elif key in ("a1", "a2", "a3", "a4", "a6"):
            if key in coeffs:
                raise ParseError(f"line {lineno}: duplicate {key}")
            if p is None or e is None:
                raise ParseError(f"line {lineno}: p and e must come first")
            if field is None:
                field = field_create(p, e)
            try:
                r, seen = parse_ratfunc_seen(val, field)
            except ParseError as ex:
                raise ParseError(f"line {lineno}: {ex}") from None
            if seen is not None:
                if seen_var is not None and seen != seen_var:
                    raise ParseError(f"line {lineno}: mixed variable names")
                seen_var = seen
            coeffs[key] = r
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if p is None or e is None:
        raise ParseError("curve file must set p and e")
    if field is None:
        field = field_create(p, e)
    z = RatFunc.zero(field)
    return Curve(field,
                 coeffs.get("a1", z), coeffs.get("a2", z), coeffs.get("a3", z),
                 coeffs.get("a4", z), coeffs.get("a6", z),
                 var=seen_var or "t")
