"""Towers F_q(t^{1/d}) and F_q(mu_d)(t^{1/d}): orbit bookkeeping, the
block-cyclic linear-algebra lemma behind rank growth, and L-functions up
the tower.

The tower machinery has two independent halves.  tower_l and
rank_growth_scan push a curve through t = u^d (optionally extending the
constant field to contain the d-th roots of unity) and read analytic ranks
off the resulting L-polynomials.  The BlockSystem half checks, in exact
rational arithmetic, the lemma that makes the rank lower bound tick: a
pairing-preserving map cyclically permuting an even number of blocks of
odd dimension has 1 - T^a dividing det(1 - phi T).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import sympy

from .algebra import CapError, FFECError, PLACE_CAP, mult_order
from .weierstrass import Curve, base_change_pow, extend_constants
from .local import nprime_deg
from .lfunction import LPoly, _extend_inverse_roots, analytic_rank, l_polynomial


# ---------------------------------------------------------------------------
# orbits of multiplication by q on Z/d

@dataclasses.dataclass(frozen=True)
class OrbitDecomposition:
    d: int
    q: int
    orbits: tuple

    @property
    def sizes(self) -> tuple:
        return tuple(len(o) for o in self.orbits)


def orbit_decomposition(d: int, q: int) -> OrbitDecomposition:
    """Partition Z/dZ into orbits of j -> qj mod d, listed by least element."""
    if math.gcd(d, q) != 1:
        raise ValueError(f"gcd(d, q) = {math.gcd(d, q)} must be 1")
    seen = set()
    orbits = []
    for j in range(d):
        if j in seen:
            continue
        orb = []
        k = j
        while k not in seen:
            seen.add(k)
            orb.append(k)
            k = (k * q) % d
        orbits.append(tuple(sorted(orb)))
    return OrbitDecomposition(d, q, tuple(orbits))


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
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


def _mat_det(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


# ---------------------------------------------------------------------------
# block systems for the cyclic-pairing lemma

@dataclasses.dataclass(frozen=True)
class BlockSystem:
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

def tower_l(E: Curve, d: int, use_mu_d: bool = False,
            max_place_deg: int | None = None) -> LPoly:
    """L of E pulled back along t = u^d, over F_q(u) or F_q(mu_d)(u)."""
    if d < 1:
        raise ValueError("d must be positive")
    if math.gcd(d, E.field.p) != 1:
        raise ValueError(f"d = {d} is divisible by the characteristic")
    E2 = E
    if use_mu_d:
        m = mult_order(E.field.q, d)
        if E.field.q ** m > PLACE_CAP:
            raise CapError(f"mu_{d} needs constants of size {E.field.q ** m}")
        E2 = extend_constants(E2, m)
    if d > 1:
        E2 = base_change_pow(E2, d)
    return l_polynomial(E2, max_place_deg)


def factor_degrees(L: LPoly):
    """Degrees (with multiplicity) of the irreducible rational factors."""
    T = sympy.symbols("T")
    poly = sympy.Poly(sum(c * T ** i for i, c in enumerate(L.coeffs)), T)
    _, fl = poly.factor_list()
    return sorted((int(sympy.degree(f, T)), int(m)) for f, m in fl)


def rank_growth_scan(E: Curve, n_max: int,
                     max_place_deg: int | None = None) -> dict:
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
    q = E.field.q
    npd = nprime_deg(E)
    warning = None
    if npd % 2 == 0:
        warning = f"nprime degree {npd} is even; the growth bound is not guaranteed"
    rows = []
    c_obs = None
    for n in range(1, n_max + 1):
        d = q ** n + 1
        L_F = tower_l(E, d, max_place_deg=max_place_deg)
        L_K = _extend_inverse_roots(L_F, mult_order(q, d))
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
                "orbit_sizes": list(orbit_decomposition(d, q).sizes),
            })
        if ranks["K_d"] < ranks["F_d"]:
            raise FFECError("rank dropped under constant extension")
        c_n = Fraction(d, 2 * n) - ranks["F_d"]
        c_obs = c_n if c_obs is None else max(c_obs, c_n)
    for row in rows:
        row["c_obs"] = float(c_obs) if c_obs is not None else None
    return {
        "rows": rows,
        "c_obs": float(c_obs) if c_obs is not None else None,
        "nprime_deg": npd,
        "warning": warning,
    }
