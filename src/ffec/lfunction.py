"""L-functions of elliptic curves over F_q(t) as exact integer polynomials.

For a non-constant curve the L-function is a polynomial of degree
N = deg(conductor) - 4 with constant term 1 whose inverse roots all have
absolute value q, and it obeys the functional equation
c_{N-k} = eps q^{N-2k} c_k with eps = +1 or -1.  We expand the Euler product
as a truncated integer power series one degree at a time, from degree 1,
until the coefficients fix eps and one more coefficient confirms it (from
degree N//2 + 1 on, at most N + 1), and fill in the rest from the
functional equation.

Places dividing the discriminant of the minimal model, and infinity, take
their factors from the curve's one analysis (local.curve_analysis), which
ran Tate's algorithm there.  The good places are handled one degree d at a
time by _good_counts, the one count of good places in the program (the
torsion bound reads it too): every place of degree d has a residue field
isomorphic to one field K = F_{q^d}, built once per (F_q, d) and cached
with its Zech table, and the places are the Frobenius orbits of size d on
K, the orbits of k -> qk mod (q^d - 1) on exponents of K's generator
(algebra.orbit_decomposition; all of F_q, 0 included, for d = 1).  The
model's coefficients are evaluated at the least element of each orbit in
exponent arithmetic and its points counted over K.  For each degree, the
good orbits plus the bad places must number place_count(q, d), which
cross-checks the evaluation against the factored discriminant.  A degree
with q^d above PLACE_CAP raises CapError before its points are counted:
before any point is counted if the expansion must reach it
(q^(N//2 + 1) > PLACE_CAP), and before degree N//2 + 1 is counted if the
c_0 .. c_{N//2} already counted put eps out of reach (eps needs degree
N - k for the largest k <= N//2 with c_k != 0).

Constant curves have a closed-form rational L-function instead (constant_l)
and an independent per-degree Euler product (constant_euler_series) used to
verify it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np

from .algebra import (
    CapError,
    FFECError,
    PLACE_CAP,
    Fq,
    Place,
    Poly,
    field_create,
    count_ws_points,
    iter_monic_irreducibles,
    orbit_decomposition,
    place_count,
)
from .weierstrass import Curve, constant_embedding
from .local import curve_analysis, fiber_table_row


@dataclasses.dataclass(frozen=True)
class LPoly:
    """An L-polynomial: integer coefficients, constant term 1, degree N."""

    coeffs: tuple
    q: int
    N: int

    def __post_init__(self):
        if len(self.coeffs) != self.N + 1 or self.coeffs[0] != 1:
            raise ValueError("coefficient list must have length N+1 and lead with 1")

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
    """Rewrite E over the subfield F_{p^e'} its coefficients live in.  Its
    discriminant, a polynomial in them, lives there too and is mapped back
    the same way."""
    F = E.field
    sub = field_create(F.p, ep)
    embed = constant_embedding(sub, F)
    back = {embed(x): x for x in sub.elements()}

    def down(r):
        return r.map_coeffs(lambda c: back[c], sub)

    return Curve._derived(sub, [down(r) for r in E.coeffs], down(E.delta), E.var)


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
    a = [1]
    for k in range(1, n + 1):
        # Newton: k a_k = -(s_k + a_1 s_{k-1} + ... + a_{k-1} s_1)
        t = sums[k - 1]
        for j in range(1, k):
            t += a[j] * sums[k - j - 1]
        ak, r = divmod(-t, k)
        if r:
            raise FFECError("power-sum inversion left a non-integer coefficient")
        a.append(ak)
    return tuple(a)


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
    in the degree-d field: the least element of each Frobenius orbit of
    size d of k -> qk mod (q^d - 1).  For d = 1 every element of F_q is a
    place, and None stands for 0."""
    if d == 1:
        return [None] + list(range(q - 1))
    return [o[0] for o in orbit_decomposition(q ** d - 1, q).orbits if len(o) == d]


def _log_coeffs(f: Poly, K: Fq) -> list:
    """(i, log c_i) for the non-zero coefficients of f, embedded in K, which
    has its table."""
    if K is f.field:
        return [(i, c.log) for i, c in enumerate(f.coeffs) if c]
    return [(i, K.element([c]).log) for i, c in enumerate(f.coeffs) if c]


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


def _good_counts(M: Curve, d: int):
    """#M(K) at one place of each good Frobenius orbit of degree d, in
    orbit order, where M is a polynomial model and K = _degree_field(F, d)
    the shared residue field: a place is good when Delta(M) does not vanish
    at it.  The model's coefficients are evaluated in exponent arithmetic."""
    F = M.field
    qv = F.q ** d
    K = _degree_field(F, d)
    zt = K.zech()
    Z, exp, zero = zt.zech, zt.exp, K.zero
    terms = [_log_coeffs(r.num, K) for r in M.coeffs]
    dterms = _log_coeffs(M.delta.num, K)
    for k in _place_orbits(F.q, d):
        if _log_eval(dterms, k, qv - 1, Z) is None:
            continue
        cs = []
        for logs in terms:
            e = _log_eval(logs, k, qv - 1, Z)
            cs.append(zero if e is None else exp[e])
        yield count_ws_points(K, *cs)


def _fe_sign(c, q: int, N: int, d: int):
    """The sign eps of c_{N-k} = eps q^{N-2k} c_k once c_0 .. c_d settle a
    degree-N L, else None (always for d <= N//2): the first computed pair
    with c_k != 0 fixes eps, and at least one further c_j with
    N/2 < j <= d must obey the equation (c_j = 0 for j > N).  A ratio other than +-1, or a c_j against it,
    raises FFECError."""
    k = next((k for k in range(N // 2, max(N - d, 0) - 1, -1) if c[k]), None)
    if k is None:
        return None
    eps = Fraction(c[N - k], q ** (N - 2 * k) * c[k])
    if eps not in (1, -1):
        raise FFECError(f"functional equation: c_{N - k} / (q^{N - 2 * k} c_{k}) = {eps}")
    checked = [j for j in range(N // 2 + 1, d + 1) if j != N - k]
    for j in checked:
        want = eps * q ** (2 * j - N) * c[N - j] if j <= N else 0
        if c[j] != want:
            raise FFECError(f"functional equation fails at T^{j}: {c[j]} != {want}")
    return int(eps) if checked else None


def _check_cap(q: int, N: int, d: int = 1) -> None:
    """Raise CapError unless the expansion of an L of degree N over F_q
    can count points at places of degree max(d, N//2 + 1), the least it
    must reach."""
    cap = next(k for k in itertools.count(1) if q ** k > PLACE_CAP)
    if max(d, N // 2 + 1) >= cap:
        raise CapError(f"cannot count points at places of degree {cap}: q_v = {q ** cap}")


def l_polynomial(E: Curve, descend: bool = True) -> LPoly:
    """The L-function of a non-constant E over F_q(t), exactly.

    Expands the Euler product one degree d at a time, which makes
    c_0 .. c_d exact, until _fe_sign settles eps (from d = N//2 + 1 on),
    then fills c_{d+1} .. c_N from the functional equation.  eps cannot
    settle before degree N - k for the largest k <= N//2 with c_k != 0, so
    when that degree is above the cap, CapError is raised once c_0 ..
    c_{N//2} are known, before degree N//2 + 1 is counted.  Places
    dividing the discriminant, and infinity, take their factors from
    curve_analysis; the good places of degree d are the Frobenius orbits of
    the shared degree-d field, counted as the module docstring describes.
    When the coefficients of E lie in a proper subfield the product is
    computed there and the inverse roots are raised to the matching power,
    which avoids point counts over residue fields beyond the cap
    (descend=False forces the direct product, for cross-checking).
    """
    if descend:
        ep = _subfield_exponent(E)
        if ep < E.field.e:
            down = l_polynomial(_descend_curve(E, ep))
            return _extend_inverse_roots(down, E.field.e // ep)
    A = curve_analysis(E)
    if A.cls.constant:
        raise FFECError("constant curve: L is a rational function, use constant_l")

    q = E.field.q
    N = A.conductor.deg - 4
    if N < 0:
        raise FFECError(f"conductor degree {N + 4} is impossible for a non-constant curve")
    # c_0 .. c_{N+1}: the expansion stops by degree N + 1, where c_0 = 1
    # fixes eps and c_{N+1} = 0 confirms it
    series = [1] + [0] * (N + 1)
    n_bad = [0] * (N + 2)
    for ld in A.local:
        v = ld.place
        d = v.degree
        if d > N + 1:
            continue
        if not v.is_infinite:
            n_bad[d] += 1
        if ld.type.is_good:
            _absorb_good(series, d, ld.a_v, v.qv)
        elif ld.type.is_multiplicative:
            _absorb_mult(series, d, ld.a_v)

    eps = None
    d = 0
    while eps is None:
        d += 1
        if d == N // 2 + 1:
            # c_0 .. c_{N//2} are exact, and eps needs c_{N-k} for the
            # largest k <= N//2 with c_k != 0
            _check_cap(q, N, N - max(k for k in range(d) if series[k]))
        _check_cap(q, N, d)
        qv = q ** d
        good = 0
        for n in _good_counts(A.cls.model, d):
            good += 1
            _absorb_good(series, d, qv + 1 - n, qv)
        if good + n_bad[d] != place_count(q, d):
            raise FFECError(
                f"degree {d}: {good} good orbits and {n_bad[d]} bad places, "
                f"but F_{q}(t) has {place_count(q, d)} places of that degree")
        eps = _fe_sign(series, q, N, d)

    c = series[: N + 1]
    for j in range(d + 1, N + 1):
        c[j] = eps * q ** (2 * j - N) * c[N - j]
    return LPoly(tuple(c), q, N)


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


def constant_l(a: int, q: int) -> ConstantL:
    """Closed-form L-function of the constant curve with trace a over F_q,
    base P^1.  Requires |a| <= 2 sqrt(q)."""
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
    a = constant_trace(E)
    q = E.field.q
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
    cls = curve_analysis(E).cls
    if not cls.constant:
        raise FFECError("curve is not constant")
    cs = [r.num.coeffs[0] if r.num.coeffs else E.field.zero for r in cls.model.coeffs]
    return E.field.q + 1 - count_ws_points(E.field, *cs)


# ---------------------------------------------------------------------------
# functional equation, RH, analytic rank

def check_functional_equation(L: LPoly) -> int:
    """The sign eps in a_{N-i} = eps q^{N-2i} a_i, read as a_N / q^N
    (a_0 = 1); raises unless it is +1 or -1 and every pair a_i, a_{N-i}
    obeys it."""
    a, q, N = L.coeffs, L.q, L.N
    eps = a[N] // q ** N
    if eps not in (1, -1) or any(a[N - i] * q ** (2 * i) != eps * q ** N * a[i]
                                 for i in range(N + 1)):
        raise FFECError("functional equation fails for both signs")
    return eps


# relative tolerance of the root-size check
RH_TOL = 1e-9


def check_rh(L: LPoly) -> bool:
    """Whether every inverse root of L has absolute value q within RH_TOL*q.

    Roots come from the companion matrix of the exact squarefree part, the
    product of zfactor's squarefree parts, so repeated factors such as
    (1 - qT)^N do not degrade the accuracy.  zfactor is imported here, as
    towers.factor_degrees does, so importing ffec does not load it."""
    from .zfactor import _mul, _primitive, _squarefree_parts, _trim

    if L.N == 0:
        return True
    parts = _squarefree_parts(_primitive(_trim(list(L.coeffs))))
    sq = functools.reduce(_mul, (g for g, _ in parts))
    roots = np.roots([float(c) for c in reversed(sq)])
    return bool(max(abs(abs(1.0 / r) - L.q) for r in roots) <= RH_TOL * L.q)


def _root_order(coeffs, q: int) -> int:
    """Multiplicity of 1/q as a root of the integer polynomial with the
    given coefficients, low degree first, by repeated exact division by
    (1 - qT)."""
    cur = list(coeffs)
    m = 0
    while len(cur) > 1:
        b = [cur[0]]
        for c in cur[1:-1]:
            b.append(c + q * b[-1])
        if cur[-1] + q * b[-1] != 0:
            break
        cur = b
        m += 1
    return m


def analytic_rank(L: LPoly) -> int:
    """Multiplicity of 1/q as a root of L."""
    return _root_order(L.coeffs, L.q)


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
        return sum(side * _root_order(coeffs, self.q) * e
                   for side, fs in ((1, self.den_factors), (-1, self.num_factors))
                   for coeffs, e in fs)


def surface_zeta(E: Curve, L: LPoly, local) -> SurfaceZeta:
    """Assemble Z(surface, T) = Z(P^1,T) Z(P^1,qT) * corrections / L, where
    each bad place contributes
    (1-T^d)^(a+1) (1+T^d)^b / ((1-q_v T^d)^(f-1) (1+q_v T^d)^g)
    with (a, b, f, g) from the fiber table and d = deg v.  Its pole order
    at T = 1/q is 2 + sum(f_v - 1) + analytic_rank(L) by construction."""
    q = L.q
    if not local and not curve_analysis(E).cls.constant:
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

    for ld in local:
        a, b, f, g = fiber_table_row(ld.type, ld.split)
        if f != ld.f_v:
            raise FFECError(f"fiber table disagrees with local data at {ld.place!r}")
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

    return SurfaceZeta(tuple(sorted(num.items())), tuple(sorted(den.items())), q)
