"""Towers F_q(t^{1/d}) and F_q(mu_d)(t^{1/d}): the block-cyclic
linear-algebra lemma behind rank growth, and L-functions up the tower.

The tower machinery has two independent halves.  tower_l and
rank_growth_scan push a curve through t = u^d and read analytic ranks off
the resulting L-polynomials.  Each Euler product runs over F_q(u); the
field F_q(mu_d)(u) is the constant extension of degree m = mult_order(q, d),
so its L has the m-th powers of the same inverse roots (Ulmer's PCMI
lectures 1 and 4), and the orbits of j -> qj on Z/d that the scan reports
come from algebra.orbit_decomposition.  The scan's factor_degrees divides
out the cyclotomic factors Phi_n(qT) of L and leaves only the rest to the
factorizer over Z.  The BlockSystem half checks, in
exact rational arithmetic, the lemma that makes the rank lower bound tick:
a pairing-preserving map cyclically permuting an even number of blocks of
odd dimension has 1 - T^a dividing det(1 - phi T).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import FFECError, Poly, mult_order, orbit_decomposition, row_reduce
from .weierstrass import Curve, base_change_pow
from .local import conductor, nprime_deg
from .lfunction import (LPoly, _check_cap, _extend_inverse_roots, _subfield_exponent,
                        analytic_rank, l_polynomial)


# ---------------------------------------------------------------------------
# exact rational matrices (small sizes only)

def _mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][x] * B[x][j] for x in range(k)) for j in range(m)]
            for i in range(n)]


def _mat_T(A):
    return [list(col) for col in zip(*A)]


def _mat_inv(A):
    n = len(A)
    m, pivots, _ = row_reduce([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]


def _mat_det(A):
    return row_reduce(A)[2]


# ---------------------------------------------------------------------------
# block systems for the cyclic-pairing lemma

class BlockSystem(NamedTuple):
    """phi permutes a blocks of dimension dims cyclically and preserves the
    symmetric non-degenerate pairing; both matrices are exact rationals."""

    a: int
    dims: int
    phi: tuple
    pairing: tuple

    @property
    def blocks(self) -> list:
        """The block maps B_i: W_i -> W_{i+1} read off the matrix."""
        a, w = self.a, self.dims
        out = []
        for i in range(a):
            r0, c0 = ((i + 1) % a) * w, i * w
            out.append([[self.phi[r0 + r][c0 + c] for c in range(w)]
                        for r in range(w)])
        return out


def check_hypotheses(B: BlockSystem) -> dict:
    """The three lemma hypotheses, reported individually."""
    a, w = B.a, B.dims
    half = (a // 2) * w
    sub = [[B.pairing[half + r][c] for c in range(w)] for r in range(w)]
    return {
        "a_even": a % 2 == 0,
        "pairing_half_block_nondegenerate": _mat_det(sub) != 0,
        "dim_w0_odd": w % 2 == 1,
    }


def lemma_det(B: BlockSystem) -> tuple:
    """det(1 - phi T) as exact rational coefficients in T.

    For a block-cyclic phi the unipotent eliminations of blocks 1..a-1
    leave det(I_w - T^a B_{a-1}...B_0), so only a w x w determinant with
    polynomial entries is needed; the full-matrix computation agrees (see
    the tests) but costs (aw)^3 per interpolation point.
    """
    a, w = B.a, B.dims
    blocks = B.blocks
    Phi = blocks[0]
    for i in range(1, a):
        Phi = _mat_mul(blocks[i], Phi)
    # p(U) = det(I_w - U Phi) by interpolation at w+1 points
    pts = []
    for u in range(w + 1):
        M = [[Fraction(int(i == j)) - u * Phi[i][j] for j in range(w)]
             for i in range(w)]
        pts.append((Fraction(u), _mat_det(M)))
    p = _lagrange(pts)
    out = [Fraction(0)] * (a * w + 1)
    for k, c in enumerate(p):
        out[a * k] = c
    return tuple(out)


def _lagrange(points):
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                nxt[k + 1] += b
                nxt[k] -= xj * b
            basis = nxt
        scale = yi / denom
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


def det_interpolated(B: BlockSystem) -> tuple:
    """det(1 - phi T) from the full (aw x aw) matrix, for cross-checking."""
    n = B.a * B.dims
    pts = []
    for u in range(n + 1):
        M = [[Fraction(int(i == j)) - u * B.phi[i][j] for j in range(n)]
             for i in range(n)]
        pts.append((Fraction(u), _mat_det(M)))
    return tuple(_lagrange(pts))


def divisibility(B: BlockSystem) -> bool:
    """Whether 1 - T^a divides det(1 - phi T), by exact division."""
    D = list(lemma_det(B))
    a = B.a
    # divide by 1 - T^a from the top down
    for i in range(len(D) - 1, a - 1, -1):
        if D[i]:
            D[i - a] += D[i]
            D[i] = Fraction(0)
    return not any(D)


def lemma_la_verify(B: BlockSystem) -> bool:
    """The divisibility verdict, after insisting the hypotheses hold."""
    hyp = check_hypotheses(B)
    bad = [k for k, v in hyp.items() if not v]
    if bad:
        raise FFECError("lemma hypotheses violated: " + ", ".join(bad))
    return divisibility(B)


def random_block_system(a: int, w: int, rng) -> BlockSystem:
    """A random pairing-preserving block-cyclic system, built exactly.

    Blocks B_0..B_{a-2} and the pairing block Q_0 between W_{a/2} and W_0
    are free invertible integer draws; the remaining pairing blocks follow
    from invariance and the last map B_{a-1} is solved from the symmetry
    constraint Q_{a/2} = Q_0^T.  Everything is then re-verified.
    """
    if a % 2 or a < 2:
        raise ValueError("a must be even and positive")

    def rand_inv():
        while True:
            M = [[Fraction(rng.randrange(-3, 4)) for _ in range(w)]
                 for _ in range(w)]
            if _mat_det(M):
                return M

    Bs = [rand_inv() for _ in range(a - 1)]
    Q = [rand_inv()]
    for i in range(a // 2 - 1):
        Q.append(_mat_mul(_mat_mul(_mat_T(_mat_inv(Bs[i + a // 2])), Q[i]),
                          _mat_inv(Bs[i])))
    # solve B_{a-1} from  B_{a-1}^{-T} Q_{a/2-1} B_{a/2-1}^{-1} = Q_0^T
    M = _mat_mul(_mat_mul(_mat_T(Q[0]), Bs[a // 2 - 1]), _mat_inv(Q[a // 2 - 1]))
    Bs.append(_mat_T(_mat_inv(M)))
    Q.append(_mat_T(Q[0]))
    for i in range(a // 2, a):
        Q.append(_mat_mul(_mat_mul(_mat_T(_mat_inv(Bs[(i + a // 2) % a])), Q[i]),
                          _mat_inv(Bs[i])))
    if Q[a] != Q[0]:
        raise FFECError("pairing propagation did not close up")
    for i in range(a):
        if Q[(i + a // 2) % a] != _mat_T(Q[i]):
            raise FFECError("pairing propagation broke symmetry")

    n = a * w
    phi = [[Fraction(0)] * n for _ in range(n)]
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(a):
        r0, c0 = ((i + 1) % a) * w, i * w
        for r in range(w):
            for c in range(w):
                phi[r0 + r][c0 + c] = Bs[i][r][c]
        g0, h0 = ((i + a // 2) % a) * w, i * w
        for r in range(w):
            for c in range(w):
                G[g0 + r][h0 + c] = Q[i][r][c]

    if _mat_T(G) != G:
        raise FFECError("constructed pairing is not symmetric")
    if _mat_mul(_mat_mul(_mat_T(phi), G), phi) != G:
        raise FFECError("constructed phi does not preserve the pairing")
    return BlockSystem(a, w, tuple(map(tuple, phi)), tuple(map(tuple, G)))


# ---------------------------------------------------------------------------
# L-functions up the tower

def layer_degree_bound(E: Curve, d: int) -> int:
    """A lower bound for N = deg(conductor) - 4 of E pulled back along
    t = u^d, p not dividing d, read from E alone: each bad place v != 0,
    infinity of E is unramified in t = u^d and keeps its exponent n_v, so
    the layer's conductor degree is at least d * sum n_v deg v."""
    t = Poly.x(E.field)
    return d * sum(n * v.degree for v, n in conductor(E).entries
                   if not v.is_infinite and v.poly != t) - 4


def tower_l(E: Curve, d: int, use_mu_d: bool = False) -> LPoly:
    """L of E pulled back along t = u^d, over F_q(u) or F_q(mu_d)(u).

    F_q(mu_d)(u) is the constant extension of degree mult_order(q, d), so
    its L comes from the one over F_q(u) by raising the inverse roots to
    that power; no curve over the larger field is built.  A layer whose L
    is certainly beyond the cap (layer_degree_bound) raises CapError
    before it is built."""
    if d < 1:
        raise ValueError("d must be positive")
    if math.gcd(d, E.field.p) != 1:
        raise ValueError(f"d = {d} is divisible by the characteristic")
    # l_polynomial's own cap test, on the field it counts over after its
    # descent, before the layer is built
    _check_cap(E.field.p ** _subfield_exponent(E), layer_degree_bound(E, d))
    L = l_polynomial(base_change_pow(E, d) if d > 1 else E)
    if use_mu_d:
        L = _extend_inverse_roots(L, mult_order(E.field.q, d))
    return L


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Phi_n, low degree first: x^n - 1 divided exactly by the Phi_d for
    the d | n, d < n."""
    f = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            f = _divide_unit(f, _cyclotomic(d))
    return f


@functools.lru_cache(maxsize=None)
def _cyclotomic_scaled(n: int, q: int) -> tuple:
    """Phi_n(qT), low degree first."""
    return tuple(c * q ** i for i, c in enumerate(_cyclotomic(n)))


@functools.lru_cache(maxsize=None)
def _totients_upto(m: int) -> tuple:
    """The pairs (n, phi(n)) with phi(n) <= m, n increasing.  Since
    phi(n) >= sqrt(n/2), every such n is at most 2 m^2."""
    top = 2 * m * m
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return tuple((n, phi[n]) for n in range(1, top + 1) if phi[n] <= m)


def _divide_unit(a, b):
    """a / b over Z for b with constant term +-1, from the low degree up,
    or None when b does not divide a."""
    n, b0 = len(a) - len(b) + 1, b[0]
    if n < 1:
        return None
    a, quo = list(a), []
    for i in range(n):
        c = a[i] * b0
        quo.append(c)
        if c:
            for j in range(1, len(b)):
                a[i + j] -= c * b[j]
    return None if any(a[n:]) else tuple(quo)


def factor_degrees(L: LPoly):
    """Degrees (with multiplicity) of the irreducible rational factors.

    The tower layers' L are mostly products of Phi_n(qT), each irreducible
    over Q (T -> qT is an automorphism of Q[T]) and coprime to the others,
    so these are divided out first, for each n with phi(n) at most the
    degree left.  Only a remainder of positive degree is factored by
    zfactor, which is imported only then, so the other commands do not
    load it."""
    f, out = L.coeffs, []
    for n, phi in _totients_upto(len(f) - 1):
        if len(f) == 1:
            break
        if phi >= len(f):
            continue
        g, e = _cyclotomic_scaled(n, L.q), 0
        while len(f) > phi:
            quo = _divide_unit(f, g)
            if quo is None:
                break
            f, e = quo, e + 1
        if e:
            out.append((phi, e))
    if len(f) > 1:
        from .zfactor import factor_z

        out += [(len(g) - 1, e) for g, e in factor_z(f)[1]]
    return sorted(out)


def rank_growth_scan(E: Curve, n_max: int) -> dict:
    """Analytic ranks over F_d and K_d for d = q^n + 1, n = 1..n_max.

    Reports the observed constant c_obs = max_n (d/(2n) - rank over F_d),
    which exhibits the growth bound rank(F_d) >= d/(2n) - c with an
    explicit c.  The bound's hypothesis is that the conductor degree away
    from the tame parts at 0 and infinity is odd; when it is even the scan
    still runs but carries a warning.

    Each Euler product runs once, over F_d: K_d = F_d(mu_d) is a constant
    extension of degree mult_order(q, d), so L over K_d follows by raising
    the inverse roots of L over F_d to that power.
    """
    if n_max < 1:
        raise ValueError(f"the scan needs n_max >= 1, not {n_max}")
    q = E.field.q
    npd = nprime_deg(E)
    warning = None
    if npd % 2 == 0:
        warning = f"nprime degree {npd} is even; the growth bound is not guaranteed"
    rows = []
    c_obs = None
    for n in range(1, n_max + 1):
        d = q ** n + 1
        L_F = tower_l(E, d)
        L_K = _extend_inverse_roots(L_F, mult_order(q, d))
        sizes = list(orbit_decomposition(d, q).sizes)
        ranks = {}
        for fieldname, L in (("F_d", L_F), ("K_d", L_K)):
            r = analytic_rank(L)
            ranks[fieldname] = r
            rows.append({
                "d": d,
                "n": n,
                "field": fieldname,
                "q_const": L.q,
                "N": L.N,
                "rank": r,
                "l_coeffs": list(L.coeffs),
                "factor_degrees": factor_degrees(L),
                "orbit_sizes": sizes,
            })
        if ranks["K_d"] < ranks["F_d"]:
            raise FFECError("rank dropped under constant extension")
        c_n = Fraction(d, 2 * n) - ranks["F_d"]
        c_obs = c_n if c_obs is None else max(c_obs, c_n)
    for row in rows:
        row["c_obs"] = float(c_obs)
    return {
        "rows": rows,
        "c_obs": float(c_obs),
        "nprime_deg": npd,
        "warning": warning,
    }
