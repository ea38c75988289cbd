"""Exact arithmetic over finite fields, the polynomial rings F_q[t], the
rational function fields F_q(t), and the places of the projective line;
also the one exact Gaussian elimination over Q (row_reduce).

Conventions used everywhere:

- polynomial coefficients are stored low degree first,
- the degree of the zero polynomial is -inf (never -1),
- the valuation of 0 at any place is +inf,
- elements, polynomials, and places are ordered by reading coefficient
  sequences high degree first, with 0 < 1 < ... < p-1 in the prime field.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")

# Hard cap on the size of any finite field that gets enumerated (point
# counts, discrete-log tables, generator searches).
PLACE_CAP = 1 << 16

# Poly multiplies, divides and takes gcds on arrays of F_p-coordinates
# (_array_mul, _array_divmod, _array_gcd) once an operand has _BIG
# coefficients.  Below that a field with its table runs loops on discrete
# logs (_log_mul, _log_div, _log_gcd), and a field without one its loops
# over elements.  An array step costs e numpy row operations where the log
# loop does one lookup per coefficient, so with a table a division waits
# for a divisor of _BIG and a gcd for 2e _BIG, and a product for its
# shorter factor to have _mul_short(e) coefficients: _BIG // 4 up to e = 6,
# four times more for each degree above, since the big-integer product of
# _array_mul grows faster than e^2 while the log loop does not grow with e.
# Without a table a product or a division goes to arrays at once.  Timed
# on dense random polynomials, log loop against array: a product of 65 by
# 8 coefficients 0.033 against 0.061 ms over F_2 and 0.059 against 0.175
# over F_64, of 65 by 16 0.141 against 0.072 over F_9, of 65 by 65 0.151
# against 0.079 over F_2, 0.40 against 0.25 over F_64, 0.41 against 0.33
# over F_128, 0.47 against 0.50 over F_256 and 0.47 against 3.42 over
# F_{2^16}; of 257 by 129 3.8 against 5.0 ms over F_{2^10}; a division of
# 129 by 33 0.19 against 0.37 ms over F_64, of 129 by 65 0.21 against 0.14
# over F_9, and with no table of 129 by 9 20.8 against 1.9 ms over
# F_{3^10} and 0.31 against 0.37 over F_2; a gcd at 129 coefficients 0.38
# against 0.41 ms over F_2, at 257 4.6 against 4.1 over F_9, at 769 47
# against 101 over F_64.
_BIG = 64


def _mul_short(e: int) -> int:
    """The length of the shorter factor from which a product over a field
    of degree e with a table runs on arrays."""
    return _BIG // 4 << 2 * max(0, e - 6)


class FFECError(Exception):
    """Base class for all library errors."""


class CapError(FFECError):
    """A finite field was too large for an enumeration-based operation."""


class ParseError(FFECError):
    """Malformed textual input."""


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_factor(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _moebius(n: int) -> int:
    mu = 1
    for _, e in _int_factor(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu if n >= 1 else 0


def row_reduce(rows):
    """Gauss-Jordan elimination over Q: (the reduced row echelon form as
    Fractions, its pivot columns, the determinant).  The determinant is
    that of a square matrix (0 when it is singular)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        det *= m[top][c]
        inv = 1 / m[top][c]
        m[top] = [x * inv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(c)
    return m, pivots, det


# ---------------------------------------------------------------------------
# finite fields


class FqElem:
    """An element of a finite field.  Instances are interned per field, so
    equal elements of the same field are the same object.

    `val` is the element's code sum_i c_i p^i, c_0 .. c_(e-1) its
    coordinates over F_p (Fq._coords), in every field; codes in increasing
    order are the canonical order of the elements.  Once the field has its
    table (Fq.zech), `log` is the element's discrete logarithm to the
    table's generator (None for 0) and every operation is a table lookup;
    before that, and in fields above PLACE_CAP, operations work on codes.
    Poly's loops in a field with a table read `log` once per coefficient and
    work on the logs, not through these operators."""

    __slots__ = ("field", "val", "_hash", "log")

    def __init__(self, field: "Fq", val, h: int):
        self.field = field
        self.val = val
        self._hash = h
        self.log = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, FqElem):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self is self.field.scalar(other)
        return NotImplemented

    def __bool__(self):
        return self is not self.field.zero

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    # With a table T: g^a + g^b = g^(a + Z(b - a)) for the Zech logarithm
    # Z(k) = log(1 + g^k), and -g^a = g^(a + log(-1)).  T.exp and T.zech
    # have period q - 1 and length 2(q - 1), so no index needs a "%".

    def __add__(self, other):
        F = self.field
        if other.__class__ is not FqElem or other.field is not F:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        T = F._table
        if T is None:
            F._count_op()
            return F._make(F._vadd(self.val, other.val))
        a = self.log
        if a is None:
            return other
        b = other.log
        if b is None:
            return self
        z = T.zech[b - a]
        return F.zero if z < 0 else T.exp[a + z]

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        T = F._table
        if T is None:
            F._count_op()
            return F._make(F._vneg(self.val))
        a = self.log
        return self if a is None else T.exp[a + T.log_neg1]

    def __sub__(self, other):
        F = self.field
        if other.__class__ is not FqElem or other.field is not F:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        T = F._table
        if T is None:
            F._count_op()
            return F._make(F._vadd(self.val, F._vneg(other.val)))
        b = other.log
        if b is None:
            return self
        b += T.log_neg1
        a = self.log
        if a is None:
            return T.exp[b]
        z = T.zech[b - a]
        return F.zero if z < 0 else T.exp[a + z]

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        F = self.field
        if other.__class__ is not FqElem or other.field is not F:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        T = F._table
        if T is None:
            F._count_op()
            return F._make(F._vmul(self.val, other.val))
        a = self.log
        if a is None:
            return self
        b = other.log
        if b is None:
            return other
        return T.exp[a + b]

    __rmul__ = __mul__

    def __truediv__(self, other):
        F = self.field
        if other.__class__ is not FqElem or other.field is not F:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        T = F._table
        if T is None:
            return self * other.inverse()
        b = other.log
        if b is None:
            raise ZeroDivisionError("inverse of 0")
        a = self.log
        return self if a is None else T.exp[a - b]

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        T = self.field._table
        if T is not None:
            a = self.log
            if a is not None:
                return T.exp[n * a % T.order]
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return self if n else self.field.one
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return self.field.one
        # left to right from the top set bit: x^(2^k) is k squarings
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of 0")
        F = self.field
        T = F._table
        if T is not None:
            return T.exp[-self.log]
        if F.q <= PLACE_CAP or F.base is None:
            return self ** (F.q - 2)
        return F._make(F._vinv(self.val))

    def __repr__(self):
        return format_element(self)


class Fq:
    """A finite field: either a prime field F_p or an extension of another
    Fq instance by a monic irreducible modulus.

    Do not call the constructor directly; use field_create(p, e) for the
    named fields and Place.residue_field() for residue fields.
    """

    _ids = itertools.count()

    def __init__(self, p: int | None = None, *, base: "Fq" = None, modulus=None):
        self._id = next(Fq._ids)
        self._intern: dict = {}
        self._gen_cache = None
        self._table = None
        self._tensor = None
        if base is None:
            if p is None or not _is_prime_int(p):
                raise ValueError("characteristic must be prime")
            self.p = p
            self.base = None
            self.deg = 1
            self.e = 1
            self.q = p
            self.modulus = None
        else:
            # modulus: tuple of base elements, low degree first, monic
            if modulus is None or len(modulus) < 2 or modulus[-1] is not base.one:
                raise ValueError("modulus must be monic of degree >= 1")
            self.p = base.p
            self.base = base
            self.modulus = tuple(modulus)
            self.deg = len(modulus) - 1
            self.e = base.e * self.deg
            self.q = base.q ** self.deg
            # t^deg = -sum_i m_i t^i: the pairs (i, code of -m_i), m_i != 0
            self._red = [(i, (-c).val) for i, c in enumerate(modulus[:-1]) if c]
        self.zero = self._make(0)
        self.one = self._make(1)
        # the class of t (1 for a modulus of degree 1)
        self.gen = None if base is None else self._make(base.q if self.deg > 1 else 1)
        # operations left on codes before the field builds its table; -1
        # once it has one, or where it cannot (above the cap)
        self._ops_left = self.q if self.q <= PLACE_CAP else -1

    def __repr__(self):
        return f"F_{self.q}"

    def __hash__(self):
        return self._id

    def __eq__(self, other):
        return self is other

    def _make(self, val: int) -> FqElem:
        el = self._intern.get(val)
        if el is None:
            el = FqElem(self, val, hash((self._id, val)))
            self._intern[val] = el
        return el

    # arithmetic on codes: + and - digit by digit over F_p, x in base[t]

    def _vadd(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % p
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * w
            w *= p
        return out

    def _vneg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.e == 1:
            return -a % p
        out, w = 0, 1
        while a:
            a, x = divmod(a, p)
            out += -x % p * w
            w *= p
        return out

    def _digits(self, code: int) -> list:
        """The base codes of the coefficients of an element's code, low
        degree first."""
        bq, out = self.base.q, []
        for _ in range(self.deg):
            code, c = divmod(code, bq)
            out.append(c)
        return out

    def _vmul(self, a: int, b: int) -> int:
        B = self.base
        if B is None:
            return a * b % self.p
        d = self.deg
        add, mul = B._vadd, B._vmul
        ys = [(j, y) for j, y in enumerate(self._digits(b)) if y]
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(self._digits(a)):
            if x:
                for j, y in ys:
                    conv[i + j] = add(conv[i + j], mul(x, y))
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c:
                for i, r in self._red:
                    conv[k - d + i] = add(conv[k - d + i], mul(c, r))
        out, bq = 0, B.q
        for c in reversed(conv[:d]):
            out = out * bq + c
        return out

    def _vinv(self, a: int) -> int:
        """The code of 1/a, a != 0, by extended Euclid in base[t] against
        the modulus: deg divisions, not the 2 log2(q) products of a^(q-2)."""
        B = self.base
        r0, r1 = Poly(B, self.modulus), Poly(B, [B._make(c) for c in self._digits(a)])
        s0, s1 = Poly.zero(B), Poly.one(B)
        while r1.degree > 0:
            quo, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - quo * s1
        # r1 is a nonzero constant c with s1 * a = c modulo the modulus
        out, c = 0, r1.coeffs[0].inverse()
        for x in reversed(s1.coeffs):
            out = out * B.q + (x * c).val
        return out

    # constructors

    def scalar(self, n: int) -> FqElem:
        """The image of the integer n under Z -> F_q."""
        return self._make(n % self.p)

    def element(self, coeffs) -> FqElem:
        """Build an element from base-field coefficients, low degree first."""
        if self.base is None:
            raise ValueError("prime field has no coefficient structure")
        vals = []
        for c in coeffs:
            if isinstance(c, int):
                c = self.base.scalar(c)
            elif not (isinstance(c, FqElem) and c.field is self.base):
                raise ValueError("coefficients must lie in the base field")
            vals.append(c.val)
        if len(vals) > self.deg:
            raise ValueError("too many coefficients")
        code = 0
        for v in reversed(vals):
            code = code * self.base.q + v
        return self._make(code)

    # enumeration and coordinates: all read the codes

    def elements(self):
        """All field elements in canonical order.  Capped."""
        if self.q > PLACE_CAP:
            raise CapError(f"cannot enumerate F_{self.q}: above cap {PLACE_CAP}")
        for v in range(self.q):
            yield self._make(v)

    def _weights(self) -> np.ndarray:
        """p^0 .. p^(e-1), in int64 while codes fit in it and as Python ints
        in an object array above that."""
        return np.array([self.p ** i for i in range(self.e)],
                        dtype=np.int64 if self.q < 1 << 62 else object)

    def _coords(self, xs) -> np.ndarray:
        """The coordinates over F_p of the elements xs, low degree first,
        as the rows of an (len(xs), e) int64 array: the base-p digits of
        their codes."""
        w = self._weights()
        codes = np.array([x.val for x in xs], dtype=w.dtype)
        return (codes[:, None] // w % self.p).astype(np.int64)

    def _from_coords(self, rows: np.ndarray) -> list:
        """The elements with the given rows of coordinates in [0, p): the
        inverse of _coords."""
        w = self._weights()
        return [self._make(v) for v in (rows.astype(w.dtype) @ w).tolist()]

    def _basis(self):
        """Elements whose flattened coordinates are the unit vectors."""
        return [self._make(self.p ** i) for i in range(self.e)]

    def _mul_tensor(self) -> np.ndarray:
        """The (e, e, e) array T with T[i, j] the coordinates of b_i b_j, for
        b = _basis(), built on first use: the coordinates of x y are
        sum_ij x_i y_j T[i, j]."""
        if self._tensor is None:
            b = self._basis()
            T = self._coords([x * y for x in b for y in b])
            self._tensor = T.reshape(self.e, self.e, self.e)
        return self._tensor

    def absolute_trace(self, x: FqElem) -> int:
        """Trace down to F_p, returned as an integer in [0, p): the sum of
        the conjugates x^(p^j), j < e, by e - 1 Frobenius steps on x, each
        y^p from the top bit of p down: one product at p = 2.  It works on
        codes and never reads the field's table, so it checks
        ZechTable.tracebit."""
        bits = bin(self.p)[3:]
        s = y = x.val
        for _ in range(self.e - 1):
            b = y
            for bit in bits:
                y = self._vmul(y, y)
                if bit == "1":
                    y = self._vmul(y, b)
            s = self._vadd(s, y)
        return self._prime_int(self._make(s))

    def _prime_int(self, x: FqElem) -> int:
        if x.val >= self.p:
            raise ValueError("element not in the prime subfield")
        return x.val

    # special maps

    def frobenius(self, x: FqElem, k: int = 1) -> FqElem:
        return x ** (self.p ** k)

    def pth_root(self, x: FqElem) -> FqElem:
        """The unique p-th root in characteristic p."""
        return x ** (self.q // self.p)

    def sqrt(self, x: FqElem):
        """A square root of x, or None if x is not a square.

        In characteristic 2 every element has a unique square root.  In odd
        characteristic x = g^k is a square iff k is even, and the root is
        g^(k/2), read off the field's table; a field above the cap has none
        and raises CapError.
        """
        if not x:
            return self.zero
        if self.p == 2:
            return x ** (self.q // 2)
        zt = self.zech()
        return None if x.log % 2 else zt.exp[x.log // 2]

    def element_order(self, x: FqElem) -> int:
        if not x:
            raise ValueError("0 has no multiplicative order")
        n = self.q - 1
        for ell, e in _int_factor(n).items():
            for _ in range(e):
                if x ** (n // ell) is self.one:
                    n //= ell
                else:
                    break
        return n

    def canonical_generator(self) -> FqElem:
        """The least multiplicative generator in canonical element order."""
        if self._gen_cache is None:
            n = self.q - 1
            ells = list(_int_factor(n))
            for cand in self.elements():
                if not cand:
                    continue
                if all(cand ** (n // ell) is not self.one for ell in ells):
                    self._gen_cache = cand
                    break
        return self._gen_cache

    def zech(self) -> "ZechTable":
        """The field's log/Zech table, built on the first call.  From then
        on every operation on its elements is a table lookup."""
        if self._table is None:
            self._ops_left = -1
            self._table = ZechTable(self)
        return self._table

    def _count_op(self):
        """Count one operation on codes.  After q of them the field
        builds its table, so a field used less than that never pays for
        one, and one used more spends at most about twice the least."""
        self._ops_left -= 1
        if self._ops_left == 0:
            self.zech()


def field_create(p: int, e: int = 1) -> Fq:
    """The field with p^e elements.  Pure function of (p, e): repeated calls
    return the same object, built on the lexicographically least monic
    irreducible modulus of degree e over F_p.
    """
    return _field_create(int(p), int(e))


@functools.lru_cache(maxsize=None)
def _field_create(p: int, e: int) -> Fq:
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    # the cap comes before trial division up to sqrt(p), and p^e >= 2^e
    # decides it for large e before p^e is formed
    if e >= PLACE_CAP.bit_length() or p ** e > PLACE_CAP:
        raise CapError(f"q = {p}^{e} exceeds the cap {PLACE_CAP}")
    if not _is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if e == 1:
        return Fq(p)
    base = _field_create(p, 1)
    return Fq(base=base, modulus=next(iter_monic_irreducibles(base, e)).coeffs)


class ZechTable:
    """The log/Zech table of a small field, g its canonical generator and
    M = q - 1 its order:

    - g, and order = M;
    - exp[k] is the interned element g^(k mod M), for 0 <= k < 2M;
    - zech[k] is log(1 + g^(k mod M)), or -1 where 1 + g^k = 0, for
      0 <= k < 2M;
    - log_neg1 is log(-1): M/2 for odd p, 0 for p = 2;
    - tracebit[k] is the absolute trace of g^k as 0 or 1 (p = 2 only);
    - building it sets the `log` slot of every element of the field.

    FqElem arithmetic and the point counts (count_ws_points) read these
    lists.  The powers of g are found in integer coordinates: an element is
    the vector of its F_p-coordinates (Fq._coords), multiplication by g is
    an e x e matrix over F_p, and g^0 .. g^(M-1) come from about 2 sqrt(M)
    matrix products in numpy, so the build does no field arithmetic beyond
    finding g and the matrix; their codes are the vals of exp."""

    def __init__(self, field: Fq):
        if field.q > PLACE_CAP:
            raise CapError(f"F_{field.q} above the counting cap {PLACE_CAP}")
        self.field = field
        p, e, M = field.p, field.e, field.q - 1
        self.order = M
        g = field.canonical_generator()
        self.g = g
        mul_g = field._coords([g * b for b in field._basis()]).T
        # the coordinates of g^k, k < B, are the first columns of the
        # matrices of g^k; then g^(jB + k) = g^(jB) g^k is one matrix
        # product per block of B powers
        B = math.isqrt(M) + 1
        mat = np.eye(e, dtype=np.int64)
        first = []
        for _ in range(B):
            first.append(mat[:, 0])
            mat = mul_g @ mat % p
        block = np.stack(first, axis=1)
        weights = field._weights()
        step, parts = mat, []
        mat = np.eye(e, dtype=np.int64)
        for _ in range(-(-M // B)):
            parts.append(weights @ (mat @ block % p))
            mat = mat @ step % p
        codes = np.concatenate(parts)[:M]
        exp = [field._make(c) for c in codes.tolist()]
        for k, x in enumerate(exp):
            x.log = k
        self.exp = exp + exp
        # adding 1 adds 1 to the coordinate c_0
        log_of = np.full(field.q, -1, dtype=np.int64)
        log_of[codes] = np.arange(M)
        zech = log_of[np.where(codes % p == p - 1, codes - (p - 1), codes + 1)].tolist()
        self.zech = zech + zech
        self.log_neg1 = M // 2 if p != 2 else 0
        if p == 2:
            # Tr(x) = sum_j x^(2^j), and g^k squared j times is g^(k 2^j)
            tr = codes.copy()
            k = np.arange(M, dtype=np.int64)
            for j in range(1, e):
                tr ^= codes[(k << j) % M]
            self.tracebit = tr.tolist()
        else:
            self.tracebit = None


def count_ws_points(field: Fq, a1, a2, a3, a4, a6) -> int:
    """Number of projective points of the Weierstrass curve with the given
    coefficients over the given field (including the point at infinity).

    The curve need not be smooth; singular points are counted like any
    other.  Enumeration is exponent-based, so the field size is capped.
    """
    zt = field.zech()
    M = field.q - 1
    Z = zt.zech
    tb = zt.tracebit
    la1, la2, la3, la4, la6 = a1.log, a2.log, a3.log, a4.log, a6.log

    def zadd(i, j):
        if i is None:
            return j
        if j is None:
            return i
        z = Z[(j - i) % M]
        return None if z < 0 else (i + z) % M

    char2 = field.p == 2
    if not char2:
        linv4 = field.scalar(4).inverse().log

    total = 1
    # x = 0 and x = g^k handled uniformly via (ef, eh) exponents
    for k in range(-1, M):
        if k < 0:
            ef = la6
            eh = la3
        else:
            ef = 3 * k % M
            if la2 is not None:
                ef = zadd(ef, (la2 + 2 * k) % M)
            if la4 is not None:
                ef = zadd(ef, (la4 + k) % M)
            ef = zadd(ef, la6)
            eh = la3 if la1 is None else zadd((la1 + k) % M, la3)
        if char2:
            if eh is None:
                total += 1
            elif ef is None:
                total += 2
            else:
                total += 2 if tb[(ef - 2 * eh) % M] == 0 else 0
        else:
            # y^2 + hy = f  <=>  (y + h/2)^2 = f + h^2/4
            if eh is None:
                ed = ef
            else:
                ed = zadd(ef, (2 * eh + linv4) % M)
            if ed is None:
                total += 1
            else:
                total += 2 if ed % 2 == 0 else 0
    return total


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """A polynomial over an Fq, coefficients low degree first with no
    trailing zeros.  The zero polynomial has coeffs == () and degree -inf.

    Where the field has its table, ×, divmod (so %, // and exact_div), gcd
    and Place.valuation_poly below the array thresholds (_BIG) map the
    coefficients to their logs once, work on ints with Zech addition, and
    map back once; a field without a table loops over its elements."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = field.scalar(c)
            elif not (isinstance(c, FqElem) and c.field is field):
                raise ValueError("coefficient in the wrong field")
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def _of(field: Fq, cs) -> "Poly":
        """The trusted constructor, for a list or tuple of elements of
        `field` that arithmetic has just built: trailing zeros are dropped
        and nothing else is checked."""
        n, z = len(cs), field.zero
        while n and cs[n - 1] is z:
            n -= 1
        f = object.__new__(Poly)
        f.field = field
        f.coeffs = tuple(cs[:n] if n < len(cs) else cs)
        return f

    @staticmethod
    def zero(field: Fq) -> "Poly":
        return Poly._of(field, ())

    @staticmethod
    def one(field: Fq) -> "Poly":
        return Poly._of(field, (field.one,))

    @staticmethod
    def x(field: Fq) -> "Poly":
        return Poly._of(field, (field.zero, field.one))

    @staticmethod
    def const(c: FqElem) -> "Poly":
        return Poly._of(c.field, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] is self.field.one

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash((self.field._id, self.coeffs))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (FqElem, int)):
            return self == Poly(self.field, (other,))
        return NotImplemented

    def lc(self) -> FqElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> FqElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise ValueError("polynomials over different fields")
            return other
        if isinstance(other, (FqElem, int)):
            return Poly(self.field, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._of(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        if len(a) == 1:
            c = a[0]
            if c is self.field.one:
                return o
            return Poly._of(self.field, tuple(c * y for y in b))
        if len(b) == 1:
            c = b[0]
            if c is self.field.one:
                return self
            return Poly._of(self.field, tuple(x * c for x in a))
        # with a table, a short factor keeps the product in the log loop:
        # len(a) len(b) lookups, where arrays first pay a few numpy calls
        T, short = self.field._table, min(len(a), len(b))
        if max(len(a), len(b)) >= _BIG and (T is None or short >= _mul_short(self.field.e)):
            return Poly._of(self.field, _array_mul(self.field, a, b))
        if T is not None:
            return _log_poly(self.field, _log_mul(T, a, b))
        z = self.field.zero
        out = [z] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return Poly._of(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(self.coeffs) - len(o.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        # an array step costs a few numpy calls where a log loop does
        # len(o) lookups, so with a table a short divisor stays in the
        # loop; without one a long dividend goes to arrays whatever its
        # divisor, since the element loop pays a field operation a term
        T = self.field._table
        if T is not None and len(o.coeffs) < _BIG:
            cs = [c.log for c in self.coeffs]
            _log_div(T, cs, [c.log for c in o.coeffs])
            d = len(o.coeffs) - 1
            return _log_poly(self.field, cs[d:]), _log_poly(self.field, cs[:d])
        if len(self.coeffs) >= _BIG:
            q, r = _array_divmod(self.field, self.coeffs, o.coeffs)
            return Poly._of(self.field, q), Poly._of(self.field, r)
        inv = o.coeffs[-1].inverse()
        rem = list(self.coeffs)
        lo = len(o.coeffs)
        quo = [self.field.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + lo - 1]
            if c:
                f = c * inv
                quo[i] = f
                for j in range(lo - 1):
                    rem[i + j] = rem[i + j] - f * o.coeffs[j]
                rem[i + lo - 1] = self.field.zero
        return Poly._of(self.field, quo), Poly._of(self.field, rem[: lo - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if r:
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if not self:
            return self
        c = self.coeffs[-1]
        if c is self.field.one:
            return self
        inv = c.inverse()
        return Poly._of(self.field, tuple(x * inv for x in self.coeffs))

    def gcd(self, other) -> "Poly":
        o = self._coerce(other)
        a, b = self, o
        n, T = max(len(a.coeffs), len(b.coeffs)), self.field._table
        if T is not None and n < 2 * self.field.e * _BIG:
            return _log_poly(self.field, _log_gcd(T, [c.log for c in a.coeffs],
                                                   [c.log for c in b.coeffs]))
        if n >= _BIG:
            return Poly._of(self.field, _array_gcd(self.field, a.coeffs, b.coeffs)).monic()
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        f = self.field
        return Poly._of(f, tuple(f.scalar(k) * c for k, c in enumerate(self.coeffs) if k))

    def evaluate(self, x: FqElem) -> FqElem:
        acc = self.field.zero if self.field is x.field else x.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_power(self, d: int) -> "Poly":
        """Substitute t -> t^d."""
        if d < 1:
            raise ValueError("power must be >= 1")
        if not self.coeffs:
            return self
        z = self.field.zero
        out = [z] * ((len(self.coeffs) - 1) * d + 1)
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return Poly._of(self.field, out)

    def scale_var(self, c: FqElem) -> "Poly":
        """Substitute t -> c*t."""
        out = []
        ck = self.field.one
        for a in self.coeffs:
            out.append(a * ck)
            ck = ck * c
        return Poly._of(self.field, out)

    def reverse(self, n: int) -> "Poly":
        """Coefficients reversed relative to fixed length n+1, so that
        reverse(f, n)(s) = s^n f(1/s) for deg f <= n."""
        if self.degree > n:
            raise ValueError("reversal length too small")
        cs = list(self.coeffs) + [self.field.zero] * (n + 1 - len(self.coeffs))
        return Poly._of(self.field, tuple(reversed(cs)))

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if not self.coeffs or k == 0:
            return self
        return Poly._of(self.field, (self.field.zero,) * k + self.coeffs)

    def map_coeffs(self, fn, field: Fq | None = None) -> "Poly":
        return Poly(field or self.field, tuple(fn(c) for c in self.coeffs))

    def key(self):
        """Canonical ordering key: degree, then the codes of the
        coefficients high degree first."""
        return (len(self.coeffs), tuple(c.val for c in reversed(self.coeffs)))

    def __repr__(self):
        return format_poly(self, "t")


# Poly's loops in a field with a table run on the discrete logs of the
# coefficients, None standing for 0, and add by the Zech logarithm:
# g^a + g^s = g^(s + Z(a - s)), where Z < 0 marks a sum 0.  T.exp and
# T.zech have period M = q - 1 and length 2M, so any index in [-2M, 2M) is
# right (a negative one counts from the end).  A log read off an element is
# in [0, M); each term s is reduced into [0, M) once, so a sum s + Z stays
# in [0, 2M) and a - s in (-M, 2M).


def _log_poly(field: Fq, logs) -> "Poly":
    """The polynomial whose coefficients have the logs `logs`."""
    exp, z = field._table.exp, field.zero
    return Poly._of(field, [z if v is None else exp[v] for v in logs])


def _log_mul(T: ZechTable, a, b) -> list:
    """The logs of the coefficients of a * b, for elements a and b."""
    M, Z = T.order, T.zech
    lb = [(j, y.log) for j, y in enumerate(b) if y.log is not None]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        x = x.log
        if x is not None:
            for j, y in lb:
                s = x + y
                if s >= M:
                    s -= M
                acc = out[i + j]
                if acc is None:
                    out[i + j] = s
                else:
                    z = Z[acc - s]
                    out[i + j] = None if z < 0 else s + z
    return out


def _log_div(T: ZechTable, cs: list, b: list) -> None:
    """Divide in place the logs cs by the logs b of a divisor of degree d:
    afterwards cs[:d] holds the remainder and cs[d:] the quotient."""
    M, Z = T.order, T.zech
    d = len(b) - 1
    lc = b[-1]
    # the logs of -b_j
    nb = [(j, (y + T.log_neg1) % M) for j, y in enumerate(b[:d]) if y is not None]
    for k in range(len(cs) - d - 1, -1, -1):
        c = cs[k + d]
        if c is not None:
            f = cs[k + d] = (c - lc) % M
            for j, y in nb:
                s = f + y
                if s >= M:
                    s -= M
                acc = cs[k + j]
                if acc is None:
                    cs[k + j] = s
                else:
                    z = Z[acc - s]
                    cs[k + j] = None if z < 0 else s + z


def _log_gcd(T: ZechTable, a: list, b: list) -> list:
    """The logs of the monic gcd of the polynomials with logs a and b."""
    while b:
        _log_div(T, a, b)
        r = a[:len(b) - 1]
        while r and r[-1] is None:
            r.pop()
        a, b = b, r
    lc = a[-1] if a else 0
    return [None if v is None else v - lc for v in a]


def _pack(slots: np.ndarray, width: int) -> int:
    """The integer whose little-endian digits of `width` bytes are `slots`."""
    digits = slots.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width]
    return int.from_bytes(digits.tobytes(), "little")


def _array_mul(field: Fq, a, b):
    """The coefficients of a * b by Kronecker substitution.  One big-integer
    product gives the convolution of every coordinate of a with every
    coordinate of b, and the multiplication tensor sums them up."""
    p, e = field.p, field.e
    n, m = len(a), len(b)
    # a slot holds at most min(n, m) (p - 1)^2 < 2^64, since p < 2^16
    width = ((min(n, m) * (p - 1) ** 2).bit_length() + 7) // 8
    # coordinate i of a_k goes to slot k e^2 + i e and coordinate j of b_k
    # to slot k e^2 + j, so slot k e^2 + i e + j of the product holds the
    # t^k coefficient of a_i(t) b_j(t)
    sa = np.zeros((n, e, e), dtype=np.int64)
    sa[:, :, 0] = field._coords(a)
    sb = np.zeros((m, e, e), dtype=np.int64)
    sb[:, 0, :] = field._coords(b)
    slots = (n + m - 1) * e * e
    prod = (_pack(sa, width) * _pack(sb, width)).to_bytes(slots * width, "little")
    digits = np.zeros((slots, 8), dtype=np.uint8)
    digits[:, :width] = np.frombuffer(prod, dtype=np.uint8).reshape(slots, width)
    conv = digits.view("<u8").astype(np.int64).reshape(n + m - 1, e * e) % p
    return field._from_coords(conv @ field._mul_tensor().reshape(e * e, e) % p)


def _monic_divisor(field: Fq, B: np.ndarray):
    """For the coordinate rows B of a divisor with leading coefficient c:
    the matrix of multiplication by 1/c, and for each basis element b_i the
    coordinates of b_i B/c without its last coefficient, flattened."""
    p, e = field.p, field.e
    if e == 1:
        # the tensor is [[[1]]]: the coordinate is the element, and 1/c an
        # integer power; over F_p this set-up is most of a Euclid step
        inv = pow(int(B[-1, 0]), p - 2, p)
        return np.array([[inv]]), [B[:-1, 0] * inv % p]
    T = field._mul_tensor()
    inv = field._from_coords(B[-1:])[0].inverse()
    minv = (field._coords([inv])[0] @ T.reshape(e, e * e)).reshape(e, e) % p
    return minv, list((B[:-1] @ minv % p @ T % p).reshape(e, -1))


def _array_divmod(field: Fq, a, b):
    """Quotient and remainder coefficients of a by b, len(a) >= len(b), by
    synthetic division on coordinate rows.  Each step subtracts top * x^k *
    B/c, top the leading coordinates of what is left, and the quotient by
    B/c is scaled back by 1/c at the end.  Entries are reduced mod p only
    where they are read: a step adds less than e p^2 to an entry, and
    p < 2^16, so int64 holds the sum of any realistic number of steps."""
    p, e = field.p, field.e
    minv, rows = _monic_divisor(field, field._coords(b))
    R = field._coords(a).reshape(-1)
    Q = [None] * (len(a) - len(b) + 1)
    w = (len(b) - 1) * e
    for i in range(len(Q) - 1, -1, -1):
        k = i * e
        Q[i] = top = [c % p for c in R[k + w:k + w + e].tolist()]
        for c, row in zip(top, rows):
            if c:
                R[k:k + w] -= c * row
    return field._from_coords(np.array(Q) @ minv % p), field._from_coords(R[:w].reshape(-1, e) % p)


def _array_gcd(field: Fq, a, b):
    """The coefficients of a gcd of a and b, up to a unit, by Euclid in
    place on coordinate rows, reduced as in _array_divmod and once more at
    the end of each division."""
    p, e = field.p, field.e
    A, B = field._coords(a).reshape(-1), field._coords(b).reshape(-1)
    if A.size < B.size:
        A, B = B, A
    while B.size:
        _, rows = _monic_divisor(field, B.reshape(-1, e))
        w = B.size - e
        for k in range(A.size - B.size, -1, -e):
            for c, row in zip(A[k + w:k + w + e].tolist(), rows):
                c %= p
                if c:
                    A[k:k + w] -= c * row
        A[:w] %= p
        while w and not any(A[w - e:w].tolist()):
            w -= e
        A, B = B, A[:w]
    return field._from_coords(A.reshape(-1, e))


# irreducibility and factorization

def pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    out = Poly.one(base.field)
    b = base % mod
    while n:
        if n & 1:
            out = out * b % mod
        b = b * b % mod
        n >>= 1
    return out


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test over any Fq."""
    n = f.degree
    if n is NEG_INF or n == 0:
        return False
    if n == 1:
        return True
    q = f.field.q
    x = Poly.x(f.field)
    if pow_mod(x, q ** n, f) != x % f:
        return False
    for ell in _int_factor(n):
        g = pow_mod(x, q ** (n // ell), f) - x
        if (g % f).gcd(f).degree != 0:
            return False
    return True


_cz_rng = random.Random(0xFFEC)


def _random_poly(field: Fq, deg: int, rng) -> Poly:
    # random polynomial of degree < deg + 1: a random code per coefficient
    return Poly._of(field, [field._make(rng.randrange(field.q)) for _ in range(deg + 1)])


def _equal_degree_split(f: Poly, d: int, rng) -> list[Poly]:
    """Split a monic squarefree product of degree-d irreducibles."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.q
    n = f.degree
    while True:
        a = _random_poly(field, n - 1, rng)
        if a.degree <= 0:
            continue
        g = a.gcd(f)
        if 0 < g.degree < n:
            pieces = [g, f.exact_div(g)]
        else:
            if field.p == 2:
                # trace map over F_{2^m}
                m = field.e * d
                b = a % f
                acc = b
                for _ in range(m - 1):
                    b = b * b % f
                    acc = (acc + b) % f
                g = acc.gcd(f)
            else:
                b = pow_mod(a, (q ** d - 1) // 2, f) - Poly.one(field)
                g = (b % f).gcd(f)
            if 0 < g.degree < n:
                pieces = [g, f.exact_div(g)]
            else:
                continue
        out = []
        for piece in pieces:
            out.extend(_equal_degree_split(piece.monic(), d, rng))
        return out


def _poly_pth_root(f: Poly) -> Poly:
    """The p-th root of a polynomial of the form g(t^p)."""
    field = f.field
    p = field.p
    return Poly._of(field, [field.pth_root(f[i * p]) for i in range(int(f.degree) // p + 1)])


def _squarefree_decompose(f: Poly) -> dict[Poly, int]:
    """Monic f -> {squarefree monic factor: multiplicity}."""
    field = f.field
    p = field.p
    out: dict[Poly, int] = {}
    if f.degree < 1:
        return out
    df = f.derivative()
    if df.is_zero():
        for h, e in _squarefree_decompose(_poly_pth_root(f).monic()).items():
            out[h] = out.get(h, 0) + e * p
        return out
    c = f.gcd(df)
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w.exact_div(y)
        if z.degree > 0:
            out[z.monic()] = out.get(z.monic(), 0) + i
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        # what is left has every multiplicity divisible by p
        for h, e in _squarefree_decompose(_poly_pth_root(c)).items():
            out[h] = out.get(h, 0) + e * p
    return out


def factor_poly(f: Poly):
    """Full factorization: returns (unit, [(monic irreducible, exponent)])
    with factors in canonical order."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    unit = f.lc()
    f = f.monic()
    found: dict[Poly, int] = {}
    for sf, mult in _squarefree_decompose(f).items():
        # distinct-degree split of each squarefree part
        g = sf
        h = Poly.x(field)
        d = 0
        while g.degree > 0:
            d += 1
            if g.degree < 2 * d:
                found[g] = found.get(g, 0) + mult
                break
            h = pow_mod(h, field.q, g)
            gd = (h - Poly.x(field)).gcd(g)
            if gd.degree > 0:
                for irr in _equal_degree_split(gd, d, _cz_rng):
                    found[irr] = found.get(irr, 0) + mult
                g = g.exact_div(gd)
                h = h % g
    factors = sorted(found.items(), key=lambda it: it[0].key())
    return unit, factors


def poly_roots(f: Poly) -> list[tuple[FqElem, int]]:
    """Roots in the coefficient field, with multiplicities, canonical order."""
    _, factors = factor_poly(f)
    out = []
    for g, e in factors:
        if g.degree == 1:
            out.append((-g.coeffs[0], e))
    return out


# ---------------------------------------------------------------------------
# rational functions


def _nontrivial_gcd(x: Poly, y: Poly) -> Poly | None:
    """gcd(x, y) of two nonzero polynomials, or None when it is 1.  A
    constant is coprime to everything, so it takes no gcd."""
    if len(x.coeffs) == 1 or len(y.coeffs) == 1:
        return None
    g = x.gcd(y)
    return g if len(g.coeffs) > 1 else None


def _monic_den(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with the leading coefficient of den made 1."""
    c = den.coeffs[-1]
    if c is den.field.one:
        return num, den
    inv = c.inverse()
    return num * inv, den * inv


class RatFunc:
    """An element of F_q(t), kept reduced: numerator and denominator
    coprime, denominator monic.  The reduced form is unique, so 0 is 0/1
    and a polynomial has denominator 1.

    The operators keep that form without reducing a full product
    (Henrici, J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1).  For reduced
    a/b and c/d with g = gcd(b, d), the sum is (t/g2) / (b (d/g) / g2),
    where t = a (d/g) + c (b/g) and g2 = gcd(t, g); the product cancels
    gcd(a, d) and gcd(c, b) before it multiplies; a quotient is a product
    with the reciprocal d/c, which only needs its leading coefficient made
    1; a power of a reduced fraction is reduced.  No gcd is taken with a
    constant or a denominator 1, so polynomials add and multiply with no
    gcd at all."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _reduced=False):
        if den is None:
            den = Poly.one(num.field)
            _reduced = True
        if num.field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly.one(num.field)
            else:
                g = _nontrivial_gcd(num, den)
                if g is not None:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                num, den = _monic_den(num, den)
        self.num = num
        self.den = den

    @property
    def field(self) -> Fq:
        return self.num.field

    @staticmethod
    def from_const(c: FqElem) -> "RatFunc":
        return RatFunc(Poly.const(c))

    @staticmethod
    def zero(field: Fq) -> "RatFunc":
        return RatFunc(Poly.zero(field))

    @staticmethod
    def one(field: Fq) -> "RatFunc":
        return RatFunc(Poly.one(field))

    @staticmethod
    def t(field: Fq) -> "RatFunc":
        return RatFunc(Poly.x(field))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def const_value(self) -> FqElem:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num[0]

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise ValueError("rational functions over different fields")
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (FqElem, int)):
            return RatFunc(Poly(self.field, (other,)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        g = _nontrivial_gcd(b, d)
        if g is None:
            return RatFunc(a * d + c * b, b * d, _reduced=True)
        d = d.exact_div(g)
        t = a * d + c * b.exact_div(g)
        if not t:
            return RatFunc(t)
        g2 = _nontrivial_gcd(t, g)
        if g2 is None:
            return RatFunc(t, b * d, _reduced=True)
        return RatFunc(t.exact_div(g2), b.exact_div(g2) * d, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if not a or not c:
            return RatFunc.zero(self.field)
        g = _nontrivial_gcd(a, d)
        if g is not None:
            a, d = a.exact_div(g), d.exact_div(g)
        g = _nontrivial_gcd(c, b)
        if g is not None:
            c, b = c.exact_div(g), b.exact_div(g)
        return RatFunc(a * c, b * d, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def reciprocal(self) -> "RatFunc":
        """1/self: the same coprime pair swapped, so no gcd."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(*_monic_den(self.den, self.num), _reduced=True)

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return RatFunc(self.num ** n, self.den ** n, _reduced=True)

    def compose_power(self, d: int) -> "RatFunc":
        """Substitute t -> t^d (coprime and monic stay so)."""
        return RatFunc(self.num.compose_power(d), self.den.compose_power(d), _reduced=True)

    def scale_var(self, c: FqElem) -> "RatFunc":
        """Substitute t -> c*t."""
        return RatFunc(self.num.scale_var(c), self.den.scale_var(c))

    def reciprocal_var(self) -> "RatFunc":
        """Substitute t -> 1/t, as a rational function in the new variable."""
        dn, dd = len(self.num.coeffs) - 1, len(self.den.coeffs) - 1
        if dn < 0:
            return self
        n = self.num.reverse(dn)
        d = self.den.reverse(dd)
        if dd > dn:
            n = n.shift(dd - dn)
        elif dn > dd:
            d = d.shift(dn - dd)
        # an automorphism keeps num and den coprime, and t divides neither
        # reversal, so only the leading coefficient needs making 1
        return RatFunc(*_monic_den(n, d), _reduced=True)

    def map_coeffs(self, fn, field: Fq | None = None) -> "RatFunc":
        return RatFunc(self.num.map_coeffs(fn, field), self.den.map_coeffs(fn, field))

    def evaluate(self, x: FqElem) -> FqElem:
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError("pole at the evaluation point")
        return self.num.evaluate(x) * d.inverse()

    def __repr__(self):
        return format_ratfunc(self, "t")


# ---------------------------------------------------------------------------
# places


@functools.lru_cache(maxsize=256)
def _quotient_field(field: Fq, modulus: tuple) -> Fq:
    """field[t]/(modulus), one object per modulus: the places of every
    curve that share a polynomial share its residue field and its table."""
    return Fq(base=field, modulus=modulus)


class Place:
    """A place of F_q(t): either the infinite place or a monic irreducible
    polynomial."""

    __slots__ = ("field", "poly", "_kappa")

    def __init__(self, field: Fq, poly: Poly | None, _checked=False):
        if poly is not None:
            if poly.field is not field:
                raise ValueError("place polynomial over the wrong field")
            if poly.lc() is not field.one:
                raise ValueError("place polynomial must be monic")
            if not _checked and not is_irreducible(poly):
                raise ValueError("place polynomial must be irreducible")
        self.field = field
        self.poly = poly
        self._kappa = None

    @staticmethod
    def infinite(field: Fq) -> "Place":
        return Place(field, None)

    @staticmethod
    def finite(poly: Poly) -> "Place":
        return Place(poly.field, poly.monic())

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else int(self.poly.degree)

    @property
    def qv(self) -> int:
        return self.field.q ** self.degree

    def __hash__(self):
        return hash((self.field._id, self.poly))

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.field is other.field and self.poly == other.poly

    def key(self):
        """Canonical order: infinity first, then degree-major, then
        coefficients high degree first."""
        if self.poly is None:
            return (0,)
        return (1,) + self.poly.key()

    def residue_field(self) -> Fq:
        """kappa_v.  For degree-1 places this is the constant field itself;
        otherwise F_q[t]/(f) as a direct extension."""
        if self._kappa is None:
            if self.degree == 1:
                self._kappa = self.field
            else:
                self._kappa = _quotient_field(self.field, self.poly.coeffs)
        return self._kappa

    def reduce_poly(self, f: Poly) -> FqElem:
        """The image of a polynomial in the residue field."""
        if self.poly is None:
            raise ValueError("polynomials have poles at infinity")
        if self.degree == 1:
            return f.evaluate(-self.poly.coeffs[0])
        r = f % self.poly
        kappa = self.residue_field()
        return kappa.element(r.coeffs)

    def valuation_poly(self, f: Poly):
        """v(f) for a polynomial f: +inf for f = 0, -deg f at infinity, the
        number of zero low coefficients of f at the place t, and otherwise
        the number of times the place polynomial divides f."""
        if f.is_zero():
            return POS_INF
        if self.poly is None:
            return -int(f.degree)
        pc = self.poly.coeffs
        d = len(pc) - 1
        if d == 1 and not pc[0]:
            # the place t: f is nonzero, so its top coefficient ends the count
            cs, zero, v = f.coeffs, self.field.zero, 0
            while cs[v] is zero:
                v += 1
            return v
        # repeated synthetic division by the monic g of degree d on one
        # coefficient list, on logs where the field has its table: after a
        # pass cs[:d] is the remainder and cs[d:] the quotient
        T = self.field._table
        if T is None:
            cs, zero = list(f.coeffs), self.field.zero
            g = [(j, -c) for j, c in enumerate(pc[:d]) if c]
        else:
            cs, zero = [c.log for c in f.coeffs], None
            g = [c.log for c in pc]
        v = 0
        while len(cs) > d:
            if T is not None:
                _log_div(T, cs, g)
            else:
                for k in range(len(cs) - d - 1, -1, -1):
                    c = cs[k + d]
                    if c:
                        for j, nc in g:
                            cs[k + j] = cs[k + j] + c * nc
            if cs[:d].count(zero) < d:
                break
            del cs[:d]
            v += 1
        return v

    def valuation(self, r: RatFunc):
        if r.is_zero():
            return POS_INF
        if self.poly is None:
            return int(r.den.degree) - int(r.num.degree)
        return self.valuation_poly(r.num) - self.valuation_poly(r.den)

    def lift(self, x: FqElem) -> Poly:
        """A polynomial representative of a residue-field element.  Inverse to
        reduce_poly on polynomials of degree below deg(v)."""
        if self.poly is None:
            raise ValueError("no polynomial lifts at infinity")
        if self.degree == 1:
            if x.field is not self.field:
                raise ValueError("element of the wrong residue field")
            return Poly.const(x)
        if x.field is not self.residue_field():
            raise ValueError("element of the wrong residue field")
        return Poly(self.field, [self.field._make(c) for c in x.field._digits(x.val)])

    def reduce(self, r: RatFunc) -> FqElem:
        """The image of a rational function with non-negative valuation."""
        if self.poly is None:
            v = int(r.den.degree) - int(r.num.degree) if r.num else 1
            if r.is_zero():
                return self.field.zero
            if v > 0:
                return self.field.zero
            if v < 0:
                raise ValueError("pole at the infinite place")
            return r.num.lc() * r.den.lc().inverse()
        # reduced fractions cannot have both parts divisible by the place
        dnum = self.reduce_poly(r.num)
        dden = self.reduce_poly(r.den)
        if not dden:
            raise ValueError("pole at the place")
        return dnum * dden.inverse()

    def __repr__(self):
        return format_place(self, "t")


@dataclasses.dataclass(frozen=True)
class OrbitDecomposition:
    d: int
    q: int
    orbits: tuple

    @property
    def sizes(self) -> tuple:
        return tuple(len(o) for o in self.orbits)


def orbit_decomposition(d: int, q: int) -> OrbitDecomposition:
    """Partition Z/dZ into orbits of j -> qj mod d, listed by least element,
    each orbit sorted."""
    if math.gcd(d, q) != 1:
        raise ValueError(f"gcd(d, q) = {math.gcd(d, q)} must be 1")
    seen = bytearray(d)
    orbits = []
    for j in range(d):
        if seen[j]:
            continue
        orb = []
        k = j
        while not seen[k]:
            seen[k] = 1
            orb.append(k)
            k = k * q % d
        orbits.append(tuple(sorted(orb)))
    return OrbitDecomposition(d, q, tuple(orbits))


def mult_order(q: int, d: int) -> int:
    """Multiplicative order of q modulo d."""
    if d < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(q, d) != 1:
        raise ValueError("q and d are not coprime")
    if d == 1:
        return 1
    k, r = 1, q % d
    while r != 1:
        r = r * q % d
        k += 1
    return k


def place_count(q: int, n: int) -> int:
    """Number of finite places of F_q(t) of degree n (monic irreducibles)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(n // d) * q ** d
    return total // n


def iter_monic_irreducibles(field: Fq, deg: int):
    """Monic irreducibles of exact degree deg, in canonical order."""
    if deg < 1:
        raise ValueError("degree must be >= 1")
    if field.q ** deg > 4 * 10 ** 6:
        raise CapError("too many monic polynomials to enumerate")
    elems = list(field.elements())
    # trial division by smaller irreducibles, built once per call
    small: list[Poly] = []
    for d in range(1, deg // 2 + 1):
        small.extend(iter_monic_irreducibles(field, d))
    for combo in itertools.product(elems, repeat=deg):
        # combo is read high degree first
        coeffs = tuple(reversed(combo)) + (field.one,)
        f = Poly(field, coeffs)
        ok = True
        for g in small:
            if 2 * g.degree > deg:
                break
            if (f % g).is_zero():
                ok = False
                break
        if ok:
            yield f


def places_up_to(field: Fq, max_deg: int) -> list[Place]:
    """All places of F_q(t) of degree <= max_deg, in canonical order:
    infinity first, then finite places degree-major."""
    out = [Place.infinite(field)]
    for d in range(1, max_deg + 1):
        for f in iter_monic_irreducibles(field, d):
            out.append(Place(field, f, _checked=True))
    return out


# ---------------------------------------------------------------------------
# textual notation

_VAR_LETTERS = ("t", "u", "s")


def _tokenize(s: str):
    out = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            out.append(("int", int(s[i:j]), i))
            i = j
        elif c.isalpha():
            if c != "g" and c not in _VAR_LETTERS:
                raise ParseError(f"unexpected name {c!r} at position {i}")
            out.append(("name", c, i))
            i += 1
        elif c in "+-*/^()[],":
            out.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} at position {i}")
    out.append(("end", None, n))
    return out


# deeper nesting of parentheses and signs is a ParseError, well before
# the parser's recursion (four frames a level) meets Python's limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, field: Fq, allow_var: bool, depth: int = 0):
        self.toks = tokens
        self.pos = 0
        self.depth = depth
        self.field = field
        self.allow_var = allow_var
        self.seen_vars: set[str] = set()

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r} at position {tok[2]}")
        self.pos += 1
        return tok

    def parse_expr(self) -> RatFunc:
        v = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            w = self.parse_term()
            v = v + w if op == "+" else v - w
        return v

    def parse_term(self) -> RatFunc:
        v = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            w = self.parse_factor()
            if op == "*":
                v = v * w
            else:
                if w.is_zero():
                    raise ParseError("division by zero")
                v = v / w
        return v

    def parse_factor(self) -> RatFunc:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(
                f"nested deeper than {_MAX_NESTING} at position {self.peek()[2]}")
        if self.peek()[0] == "-":
            self.take()
            v = -self.parse_factor()
        else:
            v = self.parse_atom()
            if self.peek()[0] == "^":
                self.take()
                tok = self.take("int")
                v = v ** tok[1]
        self.depth -= 1
        return v

    def parse_atom(self) -> RatFunc:
        kind, val, pos = self.peek()
        if kind == "int":
            self.take()
            return RatFunc.from_const(self.field.scalar(val))
        if kind == "(":
            self.take()
            v = self.parse_expr()
            self.take(")")
            return v
        if kind == "[":
            self.take()
            if self.field.base is None:
                raise ParseError(f"bracket element over a prime field at position {pos}")
            comps = []
            sub = _Parser(self.toks, self.field.base, False, self.depth)
            sub.pos = self.pos
            while True:
                comps.append(_as_element(sub.parse_expr(), pos))
                k = sub.take()
                if k[0] == "]":
                    break
                if k[0] != ",":
                    raise ParseError(f"expected ',' or ']' at position {k[2]}")
            self.pos = sub.pos
            if len(comps) != self.field.deg:
                raise ParseError(
                    f"element needs exactly {self.field.deg} coefficients, got {len(comps)}")
            return RatFunc.from_const(self.field.element(comps))
        if kind == "name":
            self.take()
            if val == "g":
                if self.field.q > PLACE_CAP:
                    raise CapError("generator notation needs an enumerable field")
                return RatFunc.from_const(self.field.canonical_generator())
            if not self.allow_var:
                raise ParseError(f"variable {val!r} not allowed here (position {pos})")
            self.seen_vars.add(val)
            if len(self.seen_vars) > 1:
                raise ParseError(f"mixed variable names {sorted(self.seen_vars)}")
            return RatFunc.t(self.field)
        raise ParseError(f"unexpected token {val!r} at position {pos}")


def _as_element(r: RatFunc, pos: int) -> FqElem:
    if not r.is_constant():
        raise ParseError(f"expected a constant near position {pos}")
    return r.const_value()


def parse_ratfunc(s: str, field: Fq, var: str | None = None) -> RatFunc:
    """Parse the textual notation for an element of F_q(t)."""
    p = _Parser(_tokenize(s), field, True)
    v = p.parse_expr()
    p.take("end")
    if var is not None and p.seen_vars and p.seen_vars != {var}:
        raise ParseError(f"expected variable {var!r}, found {sorted(p.seen_vars)}")
    return v


def parse_ratfunc_seen(s: str, field: Fq):
    """Like parse_ratfunc but also reports which variable letter occurred."""
    p = _Parser(_tokenize(s), field, True)
    v = p.parse_expr()
    p.take("end")
    seen = next(iter(p.seen_vars)) if p.seen_vars else None
    return v, seen


def parse_poly(s: str, field: Fq, var: str | None = None) -> Poly:
    r = parse_ratfunc(s, field, var)
    if not r.is_polynomial():
        raise ParseError("expected a polynomial")
    return r.num * r.den[0].inverse() if r.den.degree == 0 else r.num


def parse_element(s: str, field: Fq) -> FqElem:
    p = _Parser(_tokenize(s), field, False)
    v = p.parse_expr()
    p.take("end")
    return _as_element(v, 0)


def format_element(x: FqElem) -> str:
    f = x.field
    if x.val < f.p:
        return str(x.val)
    return "[" + ",".join(format_element(f.base._make(c)) for c in f._digits(x.val)) + "]"


def _format_term(c: FqElem, k: int, var: str) -> str:
    cs = format_element(c)
    if k == 0:
        return cs
    vp = var if k == 1 else f"{var}^{k}"
    if cs == "1":
        return vp
    return f"{cs}*{vp}"


def format_poly(f: Poly, var: str = "t") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c:
            terms.append(_format_term(c, k, var))
    return "+".join(terms)


def format_ratfunc(r: RatFunc, var: str = "t") -> str:
    if r.den.is_one():
        return format_poly(r.num, var)
    return f"({format_poly(r.num, var)})/({format_poly(r.den, var)})"


def format_place(v: Place, var: str = "t") -> str:
    if v.is_infinite:
        return "inf"
    return format_poly(v.poly, var)

