"""Checks on the program's L-polynomials and heights that recompute
everything from the printed integers and rationals, never from ffec."""

from __future__ import annotations

import math
from fractions import Fraction


def fe_sign(coeffs, q: int):
    """The sign eps with a_{N-i} q^{2i} = eps q^N a_i for all i, or None."""
    N = len(coeffs) - 1
    for eps in (1, -1):
        if all(coeffs[N - i] * q ** (2 * i) == eps * q ** N * coeffs[i]
               for i in range(N + 1)):
            return eps
    return None


def lpoly_problems(coeffs, q: int, N: int, eps=None) -> list[str]:
    """Functional equation (and the reported sign, if given) and the
    coefficient bound |a_i| <= C(N, i) q^i forced by the Riemann hypothesis."""
    out = []
    if len(coeffs) != N + 1 or coeffs[0] != 1:
        return [f"L has {len(coeffs)} coefficients for N = {N}, or a_0 != 1"]
    sign = fe_sign(coeffs, q)
    if sign is None:
        out.append(f"functional equation fails for both signs: {coeffs}")
    elif eps is not None and sign != eps:
        out.append(f"reported sign {eps} but the coefficients give {sign}")
    for i, a in enumerate(coeffs):
        if abs(a) > math.comb(N, i) * q ** i:
            out.append(f"|a_{i}| = {abs(a)} exceeds C({N},{i}) q^{i}")
    return out


def rank_at_one_over_q(coeffs, q: int) -> int:
    """Multiplicity of T = 1/q as a root, by synthetic division by 1 - qT."""
    cur = list(coeffs)
    r = 0
    while len(cur) > 1:
        quo = [cur[0]]
        for c in cur[1:-1]:
            quo.append(c + q * quo[-1])
        if cur[-1] + q * quo[-1]:
            break
        cur, r = quo, r + 1
    return r


def power_sums(coeffs, upto: int) -> list[int]:
    """s_1..s_upto of the inverse roots of 1 + c_1 T + ... + c_N T^N
    (Newton's identities)."""
    N = len(coeffs) - 1
    s = []
    for k in range(1, upto + 1):
        t = k * coeffs[k] if k <= N else 0
        for j in range(1, min(k - 1, N) + 1):
            t += coeffs[j] * s[k - j - 1]
        s.append(-t)
    return s


def extension_problems(base, ext, q: int, m: int) -> list[str]:
    """L over F_{q^m} must have the m-th powers of the inverse roots of L
    over F_q: its k-th power sum is the (mk)-th one of the base."""
    if len(base) != len(ext):
        return [f"degree changed under constant extension: {len(base) - 1} -> {len(ext) - 1}"]
    N = len(base) - 1
    sb = power_sums(base, m * N)
    se = power_sums(ext, N)
    bad = [k for k in range(1, N + 1) if se[k - 1] != sb[m * k - 1]]
    return [f"inverse roots over F_{q}^{m} are not m-th powers (power sums {bad})"] if bad else []


def mult_order(q: int, d: int) -> int:
    k, x = 1, q % d
    while x != 1 % d:
        x, k = x * q % d, k + 1
    return k


def ulmer_rank(d: int, q: int) -> int:
    """Rank of y^2 + xy = x^3 - t^d over F_q(t) for d | p^n + 1 (Ulmer,
    Ann. Math. 155 (2002), Theorem 1.5)."""
    total = sum(_phi(e) // mult_order(q, e)
                for e in range(1, d + 1) if d % e == 0 and 6 % e)
    if d % 2 == 0 and (q - 1) % 4 == 0:
        total += 1
    if d % 3 == 0:
        total += 2 if (q - 1) % 3 == 0 else 1
    return total


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def rational_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def same_span(a, b) -> bool:
    """Whether two lists of vectors span the same rational space."""
    ra, rb = rational_rank(a), rational_rank(b)
    return ra == rb == rational_rank(list(a) + list(b))
