"""L-functions of elliptic curves over F_q(t) as exact integer polynomials.

For a non-constant curve the L-function is a polynomial of degree
N = deg(conductor) - 4 with constant term 1 whose inverse roots all have
absolute value q.  We compute it by expanding the Euler product as a
truncated integer power series through degree N + SLACK and then checking
that every coefficient above degree N vanishes.

Places dividing the discriminant, and infinity, take their factors from
Tate's algorithm.  The good places are handled one degree d at a time:
every place of degree d has a residue field isomorphic to one field
K = F_{q^d}, built once per (F_q, d) and cached with its Zech table, and
the places are the Frobenius orbits of size d on K, enumerated as orbits of
k -> qk mod (q^d - 1) on exponents of K's generator (all of F_q, 0 included,
for d = 1).  The model's coefficients are evaluated at one element of each
orbit in exponent arithmetic and its points counted over K.  For each
degree, the good orbits plus the bad places must number place_count(q, d),
which cross-checks the evaluation against the factored discriminant.

Constant curves have a closed-form rational L-function instead (constant_l)
and an independent per-degree Euler product (constant_euler_series) used to
verify it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from fractions import Fraction

import numpy as np

from .algebra import (
    CapError,
    FFECError,
    PLACE_CAP,
    Fq,
    Place,
    Poly,
    factor_poly,
    field_create,
    count_ws_points,
    iter_monic_irreducibles,
    place_count,
)
from .weierstrass import Curve, classify, constant_embedding, minimal_polynomial_model
from .local import LocalData, conductor, fiber_table_row, tate_type

SLACK = 4


@dataclasses.dataclass(frozen=True)
class LPoly:
    """An L-polynomial: integer coefficients, constant term 1, degree N."""

    coeffs: tuple
    q: int
    N: int

    def __post_init__(self):
        if len(self.coeffs) != self.N + 1 or self.coeffs[0] != 1:
            raise ValueError("coefficient list must have length N+1 and lead with 1")

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.N == 0:
            return "1"
        parts = ["1"]
        for i, c in enumerate(self.coeffs[1:], start=1):
            if not c:
                continue
            mag = abs(c)
            term = f"T^{i}" if i > 1 else "T"
            if mag != 1:
                term = f"{mag}*{term}"
            parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# truncated integer series

def _absorb_good(series, d: int, a: int, qv: int):
    """Multiply the series, in place, by 1/(1 - a T^d + qv T^2d)."""
    n = len(series)
    for i in range(d, n):
        s = series[i] + a * series[i - d]
        if i >= 2 * d:
            s -= qv * series[i - 2 * d]
        series[i] = s


def _absorb_mult(series, d: int, a: int):
    """Multiply the series, in place, by 1/(1 - a T^d)."""
    for i in range(d, len(series)):
        series[i] += a * series[i - d]


def euler_factor(E: Curve, v: Place) -> tuple:
    """The local Euler factor at v as integer coefficients in T.

    Good reduction gives 1 - a_v T^d + q_v T^2d, multiplicative reduction
    1 - a_v T^d, additive reduction 1 (d = deg v).
    """
    ld = tate_type(E, v)
    d = v.degree
    if ld.type.is_good:
        if ld.a_v is None:
            raise CapError(f"cannot count points at {v!r}: q_v = {v.qv}")
        out = [0] * (2 * d + 1)
        out[0], out[d], out[2 * d] = 1, -ld.a_v, v.qv
        return tuple(out)
    if ld.type.is_multiplicative:
        out = [0] * (d + 1)
        out[0], out[d] = 1, -ld.a_v
        return tuple(out)
    return (1,)


# ---------------------------------------------------------------------------
# constant-field descent

def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _subfield_exponent(E: Curve) -> int:
    """Least e' dividing e such that every coefficient of E is fixed by the
    p^e'-power Frobenius, i.e. lies in the subfield F_{p^e'}."""
    F = E.field
    if F.e == 1:
        return 1
    consts = set()
    for r in E.coeffs:
        consts.update(r.num.coeffs)
        consts.update(r.den.coeffs)
    for ep in _divisors(F.e):
        qq = F.p ** ep
        if all(c ** qq == c for c in consts):
            return ep
    return F.e


def _descend_curve(E: Curve, ep: int) -> Curve:
    """Rewrite E over the subfield F_{p^e'} its coefficients live in."""
    F = E.field
    sub = field_create(F.p, ep)
    embed = constant_embedding(sub, F)
    back = {embed(x): x for x in sub.elements()}
    cs = [r.map_coeffs(lambda c: back[c], sub) for r in E.coeffs]
    return Curve(sub, *cs, var=E.var)


def _power_sums(coeffs, upto: int):
    """Newton power sums s_1..s_upto of the inverse roots of 1 + a_1 T + ..."""
    deg = len(coeffs) - 1
    s = []
    for k in range(1, upto + 1):
        t = k * coeffs[k] if k <= deg else 0
        for j in range(1, min(k - 1, deg) + 1):
            t += coeffs[j] * s[k - j - 1]
        s.append(-t)
    return s


def _from_power_sums(sums, n: int) -> tuple:
    """Coefficients of prod (1 - alpha_i T) from the power sums of alpha_i."""
    a = [Fraction(1)]
    for k in range(1, n + 1):
        t = Fraction(sums[k - 1])
        for j in range(1, k):
            t += a[j] * sums[k - j - 1]
        a.append(-t / k)
    out = []
    for x in a:
        if x.denominator != 1:
            raise FFECError("power-sum inversion left a non-integer coefficient")
        out.append(int(x))
    return tuple(out)


def _extend_inverse_roots(L: LPoly, m: int) -> LPoly:
    """The L-polynomial after a degree-m constant field extension: inverse
    roots are raised to the m-th power."""
    if m == 1 or L.N == 0:
        return LPoly(L.coeffs, L.q ** m, L.N)
    s = _power_sums(L.coeffs, m * L.N)
    return LPoly(_from_power_sums([s[m * k - 1] for k in range(1, L.N + 1)], L.N),
                 L.q ** m, L.N)


# ---------------------------------------------------------------------------
# the Euler product for non-constant curves

@functools.lru_cache(maxsize=None)
def _degree_field(F: Fq, d: int) -> Fq:
    """The residue field of every degree-d place of F(t), up to isomorphism:
    that of the place at the least monic irreducible of degree d (F itself
    for d = 1).  Cached per (F, d), so its Zech table (Fq.zech) is built
    once per process; a process meets few constant fields, and the cap keeps
    each table at most PLACE_CAP entries."""
    g = next(iter_monic_irreducibles(F, d))
    return Place(F, g, _checked=True).residue_field()


def _place_orbits(q: int, d: int) -> list:
    """One element per place of F_q(t) of degree d, as a generator exponent
    in the degree-d field: the places are the Frobenius orbits of size d of
    k -> qk mod (q^d - 1).  For d = 1 every element of F_q is a place, and
    None stands for 0."""
    M = q ** d - 1
    if d == 1:
        return [None] + list(range(M))
    seen = bytearray(M)
    reps = []
    for k in range(M):
        if seen[k]:
            continue
        j, size = k, 0
        while not seen[j]:
            seen[j] = 1
            j = j * q % M
            size += 1
        if size == d:
            reps.append(k)
    return reps


def _log_coeffs(f: Poly, K: Fq, zt) -> list:
    """(i, log c_i) for the non-zero coefficients of f, embedded in K."""
    if K is f.field:
        return [(i, zt.log[c]) for i, c in enumerate(f.coeffs) if c]
    return [(i, zt.log[K.element([c])]) for i, c in enumerate(f.coeffs) if c]


def _log_eval(terms, k, M: int, Z) -> int | None:
    """log f(g^k) from f's _log_coeffs, by Zech addition; None for f(g^k) = 0
    and k = None for the argument 0."""
    if k is None:
        return terms[0][1] if terms and terms[0][0] == 0 else None
    acc = None
    for i, lc in terms:
        e = (lc + i * k) % M
        if acc is None:
            acc = e
        else:
            z = Z[(e - acc) % M]
            acc = None if z < 0 else (acc + z) % M
    return acc


def l_polynomial(E: Curve, max_place_deg: int | None = None,
                 descend: bool = True) -> LPoly:
    """The L-function of a non-constant E over F_q(t), exactly.

    Expands the Euler product over all places of degree <= max_place_deg
    (default N + 4) and extracts the degree-N polynomial; the coefficients
    above N must vanish, which re-confirms N = deg(conductor) - 4.  Places
    dividing the discriminant, and infinity, go through Tate's algorithm;
    the good places of degree d are the Frobenius orbits of the shared
    degree-d field (_degree_field, _place_orbits), where the model is
    evaluated by Zech logarithms and its points counted.  Per degree, the
    good orbits plus the bad places must number place_count(q, d).  When
    the coefficients of E lie in a proper subfield the product is computed
    there and the inverse roots are raised to the matching power, which
    avoids point counts over residue fields beyond the cap (descend=False
    forces the direct product, for cross-checking).
    """
    cls = classify(E)
    if cls.constant:
        raise FFECError("constant curve: L is a rational function, use constant_l")
    if descend:
        ep = _subfield_exponent(E)
        if ep < E.field.e:
            down = l_polynomial(_descend_curve(E, ep), max_place_deg)
            return _extend_inverse_roots(down, E.field.e // ep)

    F = E.field
    q = F.q
    N = conductor(E).deg - 4
    if N < 0:
        raise FFECError(f"conductor degree {N + 4} is impossible for a non-constant curve")
    order = N + SLACK if max_place_deg is None else max_place_deg
    if order < N:
        raise FFECError(f"max_place_deg={order} cannot resolve a degree-{N} polynomial")

    M, _ = minimal_polynomial_model(E)
    delta = M.invariants().delta.num
    _, fac = factor_poly(delta)
    bad = [Place.infinite(F)] + [Place.finite(g) for g, _ in fac]

    series = [0] * (order + 1)
    series[0] = 1
    n_bad = [0] * (order + 1)
    for v in bad:
        d = v.degree
        if d > order:
            continue
        if not v.is_infinite:
            n_bad[d] += 1
        ld = tate_type(M, v)
        if ld.type.is_good:
            if ld.a_v is None:
                raise CapError(f"cannot count points at {v!r}: q_v = {v.qv}")
            _absorb_good(series, d, ld.a_v, v.qv)
        elif ld.type.is_multiplicative:
            _absorb_mult(series, d, ld.a_v)

    for d in range(1, order + 1):
        qv = q ** d
        if qv > PLACE_CAP:
            raise CapError(f"cannot count points at places of degree {d}: q_v = {qv}")
        K = _degree_field(F, d)
        zt = K.zech()
        Z, exp, zero = zt.zech, zt.exp, K.zero
        terms = [_log_coeffs(r.num, K, zt) for r in M.coeffs]
        dterms = _log_coeffs(delta, K, zt)
        good = 0
        for k in _place_orbits(q, d):
            if _log_eval(dterms, k, qv - 1, Z) is None:
                continue
            good += 1
            cs = []
            for logs in terms:
                e = _log_eval(logs, k, qv - 1, Z)
                cs.append(zero if e is None else exp[e])
            _absorb_good(series, d, qv + 1 - count_ws_points(K, *cs), qv)
        if good + n_bad[d] != place_count(q, d):
            raise FFECError(
                f"degree {d}: {good} good orbits and {n_bad[d]} bad places, "
                f"but F_{q}(t) has {place_count(q, d)} places of that degree")

    if any(series[N + 1:]):
        raise FFECError(
            f"Euler product does not truncate at degree {N}: "
            f"tail {series[N + 1:]} should vanish")
    return LPoly(tuple(series[: N + 1]), q, N)


# ---------------------------------------------------------------------------
# constant curves

@dataclasses.dataclass(frozen=True)
class ConstantL:
    """The closed-form L-function of a constant curve: the reciprocal of
    (1 - aT + qT^2)(1 - aqT + q^3 T^2), stored via its denominator factors."""

    den_factors: tuple
    q: int

    def series(self, order: int):
        out = [0] * (order + 1)
        out[0] = 1
        for f in self.den_factors:
            terms = [(j, c) for j, c in enumerate(f) if j and c]
            for i in range(1, order + 1):
                s = out[i]
                for j, c in terms:
                    if j > i:
                        break
                    s -= c * out[i - j]
                out[i] = s
        return out

    def den(self):
        a, b = self.den_factors
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)


def constant_l(a: int, q: int, g_C: int = 0) -> ConstantL:
    """Closed-form L-function of the constant curve with trace a over F_q,
    base P^1.  Requires |a| <= 2 sqrt(q)."""
    if g_C != 0:
        raise ValueError("only a genus-0 base is supported")
    if a * a > 4 * q:
        raise ValueError(f"|a| = {abs(a)} violates the Hasse bound for q = {q}")
    return ConstantL(((1, -a, q), (1, -a * q, q ** 3)), q)


def _series_mul(a, b, order: int):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += x * b[j]
    return out


def constant_euler_series(E: Curve, order: int):
    """The Euler product of a constant curve, expanded to the given order
    by degrees: all places of degree d share the trace a_d, which follows
    the Weil recurrence a_d = a*a_{d-1} - q*a_{d-2}.  The factor for each
    degree is raised to the place count by squaring, so large q stay cheap."""
    cls = classify(E)
    if not cls.constant:
        raise FFECError("curve is not constant")
    E0 = cls.model
    F = E.field
    q = F.q
    cs = [r.num.coeffs[0] if r.num.coeffs else F.zero for r in E0.coeffs]
    a = q + 1 - count_ws_points(F, *cs)

    series = [0] * (order + 1)
    series[0] = 1
    s_prev2, s_prev = 2, a
    for d in range(1, order + 1):
        a_d = s_prev if d == 1 else a * s_prev - q * s_prev2
        if d > 1:
            s_prev2, s_prev = s_prev, a_d
        count = place_count(q, d) + (1 if d == 1 else 0)
        recip = [0] * (order + 1)
        recip[0] = 1
        _absorb_good(recip, d, a_d, q ** d)
        acc = None
        base = recip
        n = count
        while n:
            if n & 1:
                acc = base[:] if acc is None else _series_mul(acc, base, order)
            n >>= 1
            if n:
                base = _series_mul(base, base, order)
        series = _series_mul(series, acc, order)
    return series


def constant_trace(E: Curve) -> int:
    """q + 1 - #E0(F_q) for the constant model of a constant curve."""
    cls = classify(E)
    if not cls.constant:
        raise FFECError("curve is not constant")
    cs = [r.num.coeffs[0] if r.num.coeffs else E.field.zero for r in cls.model.coeffs]
    return E.field.q + 1 - count_ws_points(E.field, *cs)


# ---------------------------------------------------------------------------
# functional equation, RH, analytic rank

def check_functional_equation(L: LPoly) -> int:
    """The sign eps in a_{N-i} = eps q^{N-2i} a_i; raises if neither sign
    is consistent.  The substitution form T^N q^N L(1/(q^2 T)) = eps L(T)
    is re-verified at sample points with exact rationals."""
    a, q, N = L.coeffs, L.q, L.N
    for eps in (1, -1):
        if all(a[N - i] * q ** (2 * i) == eps * q ** N * a[i] for i in range(N + 1)):
            for t in (Fraction(1), Fraction(1, 2), Fraction(2, q)):
                lhs = t ** N * q ** N * L(1 / (q * q * t))
                if lhs != eps * L(t):
                    raise FFECError("functional equation inconsistent at a sample point")
            return eps
    raise FFECError("functional equation fails for both signs")


def _squarefree_part(coeffs):
    """The squarefree part of an integer polynomial, via gcd with the
    derivative over the rationals.  Multiple roots would wreck the accuracy
    of the numerical root finder, so they are stripped exactly first."""

    def normalize(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return [Fraction(c) for c in p]

    def polymod(a, b):
        a = a[:]
        while len(a) >= len(b) and a:
            c = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= c * b[i]
            a = normalize(a)
        return a

    a = normalize(list(coeffs))
    b = normalize([i * c for i, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, polymod(a, b)
    # a is the gcd; divide it out
    quo, rem = [], normalize(list(coeffs))
    out = [Fraction(0)] * (len(rem) - len(a) + 1)
    while len(rem) >= len(a) and rem:
        c = rem[-1] / a[-1]
        out[len(rem) - len(a)] = c
        for i in range(len(a)):
            rem[len(rem) - len(a) + i] -= c * a[i]
        rem = normalize(rem)
    return out


def check_rh(L: LPoly, tol: float = 1e-9) -> bool:
    """Whether every inverse root of L has absolute value q within tol*q.

    Roots come from the companion matrix of the exact squarefree part, so
    repeated factors such as (1 - qT)^N do not degrade the accuracy."""
    if L.N == 0:
        return True
    sq = _squarefree_part(L.coeffs)
    roots = np.roots([float(c) for c in reversed(sq)])
    return bool(max(abs(abs(1.0 / r) - L.q) for r in roots) <= tol * L.q)


def _divide_once(coeffs, q: int):
    """Exact division by (1 - qT); returns the quotient or None."""
    b = [coeffs[0]]
    for c in coeffs[1:-1]:
        b.append(c + q * b[-1])
    if coeffs[-1] + q * b[-1] != 0:
        return None
    return b


def analytic_rank(L: LPoly) -> int:
    """Multiplicity of 1/q as a root of L, by repeated exact division."""
    cur = list(L.coeffs)
    r = 0
    while len(cur) > 1:
        nxt = _divide_once(cur, L.q)
        if nxt is None:
            break
        cur = nxt
        r += 1
    return r


# ---------------------------------------------------------------------------
# the zeta function of the associated elliptic surface

@dataclasses.dataclass(frozen=True)
class SurfaceZeta:
    """Z of the elliptic surface as an exact rational function in T,
    stored as numerator and denominator factor lists (coeffs, exponent)."""

    num_factors: tuple
    den_factors: tuple
    q: int

    def pole_order(self) -> int:
        """Order of the pole at T = 1/q."""
        total = 0
        for side, fs in ((1, self.den_factors), (-1, self.num_factors)):
            for coeffs, e in fs:
                m = 0
                cur = list(coeffs)
                while len(cur) > 1:
                    nxt = _divide_once(cur, self.q)
                    if nxt is None:
                        break
                    cur = nxt
                    m += 1
                total += side * m * e
        return total


def surface_zeta(E: Curve, L: LPoly, local) -> SurfaceZeta:
    """Assemble Z(surface, T) = Z(P^1,T) Z(P^1,qT) * corrections / L, where
    each bad place contributes
    (1-T^d)^(a+1) (1+T^d)^b / ((1-q_v T^d)^(f-1) (1+q_v T^d)^g)
    with (a, b, f, g) from the fiber table and d = deg v.  The pole order
    at T = 1/q must come out as 2 + sum(f_v - 1) + analytic_rank(L)."""
    q = L.q
    if not local and not classify(E).constant:
        raise FFECError("a non-constant curve must have bad fibers")
    num: dict = {}
    den: dict = {}

    def put(side, coeffs, e):
        if e:
            side[coeffs] = side.get(coeffs, 0) + e

    put(den, (1, -1), 1)
    put(den, (1, -q), 2)
    put(den, (1, -q * q), 1)
    if L.N > 0:
        put(den, L.coeffs, 1)

    fsum = 0
    for ld in local:
        a, b, f, g = fiber_table_row(ld.type, ld.split)
        if f != ld.f_v:
            raise FFECError(f"fiber table disagrees with local data at {ld.place!r}")
        fsum += f - 1
        d = ld.place.degree
        qv = ld.place.qv
        minus = (1,) + (0,) * (d - 1) + (-1,)
        plus = (1,) + (0,) * (d - 1) + (1,)
        qminus = (1,) + (0,) * (d - 1) + (-qv,)
        qplus = (1,) + (0,) * (d - 1) + (qv,)
        put(num, minus, a + 1)
        put(num, plus, b)
        put(den, qminus, f - 1)
        put(den, qplus, g)

    Z = SurfaceZeta(tuple(sorted(num.items())), tuple(sorted(den.items())), q)
    expect = 2 + fsum + analytic_rank(L)
    if Z.pole_order() != expect:
        raise FFECError(
            f"pole order {Z.pole_order()} at T=1/q, expected {expect}")
    return Z


# ---------------------------------------------------------------------------
# one-line record for reports

def lreport(E: Curve, max_place_deg: int | None = None, tol: float = 1e-9) -> dict:
    """A JSON-ready record of the L-function computation for one curve."""
    t0 = time.perf_counter()
    cls = classify(E)
    if cls.constant:
        a = constant_trace(E)
        C = constant_l(a, E.field.q)
        return {
            "constant": True,
            "q": E.field.q,
            "trace": a,
            "l_reciprocal_factors": [list(f) for f in C.den_factors],
            "seconds": time.perf_counter() - t0,
        }
    L = l_polynomial(E, max_place_deg)
    return {
        "constant": False,
        "q": L.q,
        "N": L.N,
        "coeffs": list(L.coeffs),
        "epsilon": check_functional_equation(L),
        "analytic_rank": analytic_rank(L),
        "rh": check_rh(L, tol),
        "seconds": time.perf_counter() - t0,
    }
