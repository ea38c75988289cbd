"""Census curves over F_2, F_3 and F_4, drawn from a seed, with the
conductor bounds and point counts the benchmark checks the program against,
and the same point counts for the tower curves over F_{2^m}.

Everything here is computed apart from ffec: field elements are small ints
(F_4 = F_2[w]/(w^2 + w + 1), element c0 + 2 c1 for c0 + c1 w, the same basis
the curve-file notation [c0,c1] uses), polynomials are lists of them, low
degree first, with no trailing zeros.
"""

from __future__ import annotations

import dataclasses
import math
import random

# F_{2^e} = F_2[w]/(g), element sum c_k 2^k for sum c_k w^k; for e = 2 this
# is the basis the curve-file notation [c0,c1] uses
_BINARY_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def _binary_mul(a: int, b: int, e: int) -> int:
    g, out = _BINARY_MODULI[e], 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> e & 1:
            a ^= g
    return out


class GF:
    """F_q for q = 3 or q = 2^e, e <= 6, by addition and multiplication
    tables."""

    def __init__(self, q: int):
        e = q.bit_length() - 1
        if q != 3 and (q != 1 << e or e not in _BINARY_MODULI):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        self.p = 3 if q == 3 else 2
        self.e = 1 if q == 3 else e
        r = range(q)
        if self.p == 2:
            self.ADD = [[a ^ b for b in r] for a in r]
            self.MUL = [[_binary_mul(a, b, e) for b in r] for a in r]
        else:
            self.ADD = [[(a + b) % q for b in r] for a in r]
            self.MUL = [[a * b % q for b in r] for a in r]
        self.NEG = [next(b for b in r if self.ADD[a][b] == 0) for a in r]
        self.INV = [None] + [next(b for b in r if self.MUL[a][b] == 1) for a in r if a]

    def int_(self, n: int):
        """The image of the integer n."""
        return n % self.p

    # polynomials -----------------------------------------------------------

    @staticmethod
    def trim(f):
        while f and not f[-1]:
            f = f[:-1]
        return f

    def padd(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        add = self.ADD
        out = list(f)
        for i, b in enumerate(g):
            out[i] = add[out[i]][b]
        return self.trim(out)

    def pscale(self, c, f):
        row = self.MUL[c]
        return self.trim([row[a] for a in f])

    def psub(self, f, g):
        return self.padd(f, self.pscale(self.NEG[1], g))

    def pmul(self, f, g):
        if not f or not g:
            return []
        add, mul = self.ADD, self.MUL
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                row = mul[a]
                for j, b in enumerate(g):
                    out[i + j] = add[out[i + j]][row[b]]
        return self.trim(out)

    def pdivmod_monic(self, f, g):
        """Quotient and remainder of f by the monic g."""
        add, mul, neg = self.ADD, self.MUL, self.NEG
        r = list(f)
        dg = len(g) - 1
        quo = [0] * max(len(f) - dg, 0)
        low = g[:-1]
        for k in range(len(r) - 1 - dg, -1, -1):
            c = r[k + dg]
            if c:
                quo[k] = c
                row = mul[neg[c]]
                for j, b in enumerate(low):
                    r[k + j] = add[r[k + j]][row[b]]
        return self.trim(quo), self.trim(r[:dg])

    def peval(self, f, x):
        add, row = self.ADD, self.MUL[x]
        acc = 0
        for c in reversed(f):
            acc = add[row[acc]][c]
        return acc

    def monic_irreducibles(self, deg: int):
        """All monic irreducibles of exact degree deg, by trial division."""
        small = [g for k in range(1, deg // 2 + 1) for g in self.monic_irreducibles(k)]
        out = []
        for n in range(self.q ** deg):
            f = []
            for _ in range(deg):
                n, c = divmod(n, self.q)
                f.append(c)
            f.append(1)
            if all(self.pdivmod_monic(f, g)[1] for g in small):
                out.append(f)
        return out


@dataclasses.dataclass(frozen=True)
class BadPlace:
    degree: int
    vdelta: int
    vc4: float  # math.inf when c4 = 0

    @property
    def f_bounds(self):
        """Lower and upper bound on the conductor exponent f_v.  c4 a unit
        means multiplicative reduction (f = 1); otherwise Ogg's formula
        v(Delta) = f + m - 1 with m >= 1 caps f at v(Delta), and an
        additive fiber of a minimal model (v(Delta) < 12) has f >= 2."""
        if self.vdelta == 0:
            return 0, 0
        if self.vc4 == 0:
            return 1, 1
        return (2 if self.vdelta < 12 else 0), self.vdelta


class Census:
    """Weierstrass coefficient lists a1, a2, a3, a4, a6 in F_q[t] and the
    invariants the checks need."""

    def __init__(self, field: GF, coeffs):
        self.F = field
        self.a = [field.trim(list(c)) for c in coeffs]
        F = field
        a1, a2, a3, a4, a6 = self.a
        n = F.int_
        b2 = F.padd(F.pmul(a1, a1), F.pscale(n(4), a2))
        b4 = F.padd(F.pmul(a1, a3), F.pscale(n(2), a4))
        b6 = F.padd(F.pmul(a3, a3), F.pscale(n(4), a6))
        b8 = F.padd(F.padd(F.pmul(F.pmul(a1, a1), a6), F.pscale(n(4), F.pmul(a2, a6))),
                    F.psub(F.pmul(a2, F.pmul(a3, a3)),
                           F.padd(F.pmul(a1, F.pmul(a3, a4)), F.pmul(a4, a4))))
        self.c4 = F.psub(F.pmul(b2, b2), F.pscale(n(24), b4))
        delta = F.pscale(n(-1), F.pmul(F.pmul(b2, b2), b8))
        delta = F.psub(delta, F.pscale(n(8), F.pmul(b4, F.pmul(b4, b4))))
        delta = F.psub(delta, F.pscale(n(27), F.pmul(b6, b6)))
        self.delta = F.padd(delta, F.pscale(n(9), F.pmul(b2, F.pmul(b4, b6))))
        # the model at infinity: a_i'(s) = s^(i m) a_i(1/s), m the least
        # weight making every a_i' a polynomial
        self.m = max(math.ceil((len(c) - 1) / w) for c, w in zip(self.a, (1, 2, 3, 4, 6)))

    def inf_model(self):
        return [c + [0] * (w * self.m + 1 - len(c)) for c, w in zip(self.a, (1, 2, 3, 4, 6))]

    def bad_places(self, irreducibles, budget: int):
        """The places where the model's discriminant vanishes, or None as
        soon as the conductor's upper bound must exceed budget.
        irreducibles maps a degree to the monic irreducibles of that degree;
        a cofactor with no factor of degree <= deg/2 is itself irreducible."""
        F = self.F
        out = []
        v_inf = 12 * self.m - (len(self.delta) - 1)
        if v_inf:
            vc4 = math.inf if not self.c4 else 4 * self.m - (len(self.c4) - 1)
            out.append(BadPlace(1, v_inf, vc4))
        spent = sum(b.f_bounds[1] for b in out)
        rest = self.delta
        k = 1
        while 2 * k <= len(rest) - 1:
            for g in irreducibles(k):
                v = 0
                while True:
                    quo, rem = F.pdivmod_monic(rest, g)
                    if rem:
                        break
                    rest, v = quo, v + 1
                if v:
                    out.append(BadPlace(k, v, _valuation(F, self.c4, g)))
                    spent += k * out[-1].f_bounds[1]
            # every place left has degree > k and adds at least that much
            if spent + (k + 1 if len(rest) > 1 else 0) > budget:
                return None
            k += 1
        if len(rest) > 1:
            g = F.pscale(F.INV[rest[-1]], rest)
            out.append(BadPlace(len(g) - 1, 1, _valuation(F, self.c4, g)))
        return out

    def rational_model(self, c):
        """The reduced coefficients at the rational place t = c (c None for
        infinity)."""
        if c is None:
            return [a[w * self.m] for a, w in zip(self.inf_model(), (1, 2, 3, 4, 6))]
        return [self.F.peval(a, c) for a in self.a]

    def count_points(self, red) -> int:
        """#E~(F_q) naively over all (x, y), plus the point at infinity."""
        F = self.F
        a1, a2, a3, a4, a6 = red
        total = 1
        for x in range(F.q):
            h = F.peval([a3, a1], x)
            rhs = F.peval([a6, a4, a2, 1], x)
            total += sum(F.peval([0, h, 1], y) == rhs for y in range(F.q))
        return total

    def minimal_at_rational_places(self) -> bool:
        """Whether the model is certainly minimal at every rational place:
        v(Delta) < 12 there, or v(c4) < 4 (a minimal model's c4 would have
        valuation v(c4) - 4k for some k >= 1)."""
        F = self.F
        if not self.c4:
            return False
        v_inf = (12 * self.m - (len(self.delta) - 1), 4 * self.m - (len(self.c4) - 1))
        places = [v_inf] + [(_valuation(F, self.delta, [F.NEG[c], 1]),
                             _valuation(F, self.c4, [F.NEG[c], 1])) for c in range(F.q)]
        return all(vd < 12 or vc4 < 4 for vd, vc4 in places)

    def expected_a1(self) -> int:
        """The T-coefficient of L: the sum over the q + 1 rational places of
        q + 1 - #E~_v(F_q) on a model minimal at v."""
        q = self.F.q
        return sum(q + 1 - self.count_points(self.rational_model(c))
                   for c in [None] + list(range(q)))

    def to_file(self) -> str:
        lines = [f"p = {self.F.p}", f"e = {self.F.e}"]
        for name, c in zip(("a1", "a2", "a3", "a4", "a6"), self.a):
            lines.append(f"{name} = {_format_poly(self.F, c)}")
        return "\n".join(lines) + "\n"


def _valuation(F: GF, f, g):
    if not f:
        return math.inf
    v = 0
    while True:
        quo, rem = F.pdivmod_monic(f, g)
        if rem:
            return v
        f, v = quo, v + 1


def _format_poly(F: GF, f) -> str:
    if not f:
        return "0"
    terms = []
    for k, c in enumerate(f):
        if not c:
            continue
        const = f"[{c & 1},{c >> 1}]" if F.q == 4 else str(c)
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not mono:
            terms.append(const)
        elif const == "1":
            terms.append(mono)
        else:
            terms.append(f"{const}*{mono}")
    return " + ".join(terms)


@dataclasses.dataclass(frozen=True)
class CensusCurve:
    q: int
    text: str
    N: int
    expected_a1: int


class CensusGenerator:
    """Draws curves for (q, N) slots: a slot (q, n) is filled by a curve over
    F_q whose independent conductor bounds both give N = deg(conductor) - 4
    = n, so every slot costs about the same on every seed.  Candidates are
    rejected unless some place has 0 < v(Delta) < 12 (so the curve is
    certainly not constant) and every rational place has v(Delta) < 12 (so
    the naive point count sees a minimal model)."""

    # degree caps for a1, a2, a3, a4, a6 and the chance a coefficient is 0:
    # deg(Delta) <= 9 stays cheap to factor by trial division, and about
    # one candidate in a hundred has a certified N <= 4
    DEGREES = (1, 1, 2, 2, 3)
    ZERO_P = 0.45

    def __init__(self):
        self._irr = {}
        self.fields = {q: GF(q) for q in (2, 3, 4)}

    def irreducibles(self, F: GF):
        def get(k):
            key = (F.q, k)
            if key not in self._irr:
                self._irr[key] = F.monic_irreducibles(k)
            return self._irr[key]
        return get

    def _candidate(self, F: GF, rng: random.Random):
        coeffs = []
        for cap in self.DEGREES:
            if rng.random() < self.ZERO_P:
                coeffs.append([])
                continue
            deg = rng.randint(0, cap)
            coeffs.append([rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)])
        if F.q == 4 and not any(c >= 2 for a in coeffs for c in a):
            return None  # coefficients in F_2: not a genuine F_4 curve
        if all(len(a) <= 1 for a in coeffs):
            return None
        C = Census(F, coeffs)
        return C if C.delta else None

    def _exact(self, F: GF, budget: int, rng: random.Random):
        """A candidate over F with certified N <= budget - 4, or None."""
        C = self._candidate(F, rng)
        if C is None:
            return None
        bad = C.bad_places(self.irreducibles(F), budget)
        if bad is None or not any(0 < b.vdelta < 12 for b in bad):
            return None
        if any(b.degree == 1 and b.vdelta >= 12 for b in bad):
            return None
        lo = sum(b.degree * b.f_bounds[0] for b in bad) - 4
        hi = sum(b.degree * b.f_bounds[1] for b in bad) - 4
        return (C, hi) if lo == hi else None

    def draw_round(self, slots, rng: random.Random) -> list[CensusCurve]:
        """One curve per (q, N) slot, in slot order.  Candidates over each
        field fill whichever open slot their N matches."""
        out = [None] * len(slots)
        for q in sorted({q for q, _ in slots}):
            F = self.fields[q]
            open_ = [i for i, (qq, _) in enumerate(slots) if qq == q]
            budget = max(slots[i][1] for i in open_) + 4
            while open_:
                got = self._exact(F, budget, rng)
                if got is None:
                    continue
                C, n = got
                i = next((i for i in open_ if slots[i][1] == n), None)
                if i is not None:
                    open_.remove(i)
                    out[i] = CensusCurve(q, C.to_file(), n, C.expected_a1())
        return out
