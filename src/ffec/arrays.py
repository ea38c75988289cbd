"""Poly's array paths: products, divisions and gcds of polynomials over F_q
on numpy arrays of F_p-coordinates.

algebra.Poly imports this module the first time an operand reaches
algebra._BIG coefficients, so a run whose polynomials stay shorter never
loads numpy.  An element's coordinates are the base-p digits of its code,
low degree first (FqElem.val).
"""

from __future__ import annotations

import numpy as np


def _weights(field) -> np.ndarray:
    """p^0 .. p^(e-1), in int64 while codes fit in it and as Python ints
    in an object array above that."""
    return np.array([field.p ** i for i in range(field.e)],
                    dtype=np.int64 if field.q < 1 << 62 else object)


def _coords(field, xs) -> np.ndarray:
    """The coordinates over F_p of the elements xs, low degree first, as
    the rows of an (len(xs), e) int64 array: the base-p digits of their
    codes."""
    w = _weights(field)
    codes = np.array([x.val for x in xs], dtype=w.dtype)
    return (codes[:, None] // w % field.p).astype(np.int64)


def _from_coords(field, rows: np.ndarray) -> list:
    """The elements with the given rows of coordinates in [0, p): the
    inverse of _coords."""
    w = _weights(field)
    return [field._make(v) for v in (rows.astype(w.dtype) @ w).tolist()]


def _mul_tensor(field) -> np.ndarray:
    """The (e, e, e) array T with T[i, j] the coordinates of b_i b_j, for
    b = field._basis(), built on first use and kept on the field: the
    coordinates of x y are sum_ij x_i y_j T[i, j]."""
    if field._tensor is None:
        b = field._basis()
        T = _coords(field, [x * y for x in b for y in b])
        field._tensor = T.reshape(field.e, field.e, field.e)
    return field._tensor


def _pack(slots: np.ndarray, width: int) -> int:
    """The integer whose little-endian digits of `width` bytes are `slots`."""
    digits = slots.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width]
    return int.from_bytes(digits.tobytes(), "little")


def _array_mul(field, a, b):
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
    sa[:, :, 0] = _coords(field, a)
    sb = np.zeros((m, e, e), dtype=np.int64)
    sb[:, 0, :] = _coords(field, b)
    slots = (n + m - 1) * e * e
    prod = (_pack(sa, width) * _pack(sb, width)).to_bytes(slots * width, "little")
    digits = np.zeros((slots, 8), dtype=np.uint8)
    digits[:, :width] = np.frombuffer(prod, dtype=np.uint8).reshape(slots, width)
    conv = digits.view("<u8").astype(np.int64).reshape(n + m - 1, e * e) % p
    return _from_coords(field, conv @ _mul_tensor(field).reshape(e * e, e) % p)


def _monic_divisor(field, B: np.ndarray):
    """For the coordinate rows B of a divisor with leading coefficient c:
    the matrix of multiplication by 1/c, and for each basis element b_i the
    coordinates of b_i B/c without its last coefficient, flattened."""
    p, e = field.p, field.e
    if e == 1:
        # the tensor is [[[1]]]: the coordinate is the element, and 1/c an
        # integer power; over F_p this set-up is most of a Euclid step
        inv = pow(int(B[-1, 0]), p - 2, p)
        return np.array([[inv]]), [B[:-1, 0] * inv % p]
    T = _mul_tensor(field)
    inv = _from_coords(field, B[-1:])[0].inverse()
    minv = (_coords(field, [inv])[0] @ T.reshape(e, e * e)).reshape(e, e) % p
    return minv, list((B[:-1] @ minv % p @ T % p).reshape(e, -1))


def _array_divmod(field, a, b):
    """Quotient and remainder coefficients of a by b, len(a) >= len(b), by
    synthetic division on coordinate rows.  Each step subtracts top * x^k *
    B/c, top the leading coordinates of what is left, and the quotient by
    B/c is scaled back by 1/c at the end.  Entries are reduced mod p only
    where they are read: a step adds less than e p^2 to an entry, and
    p < 2^16, so int64 holds the sum of any realistic number of steps."""
    p, e = field.p, field.e
    minv, rows = _monic_divisor(field, _coords(field, b))
    R = _coords(field, a).reshape(-1)
    Q = [None] * (len(a) - len(b) + 1)
    w = (len(b) - 1) * e
    for i in range(len(Q) - 1, -1, -1):
        k = i * e
        Q[i] = top = [c % p for c in R[k + w:k + w + e].tolist()]
        for c, row in zip(top, rows):
            if c:
                R[k:k + w] -= c * row
    return (_from_coords(field, np.array(Q) @ minv % p),
            _from_coords(field, R[:w].reshape(-1, e) % p))


def _array_gcd(field, a, b):
    """The coefficients of a gcd of a and b, up to a unit, by Euclid in
    place on coordinate rows, reduced as in _array_divmod and once more at
    the end of each division."""
    p, e = field.p, field.e
    A, B = _coords(field, a).reshape(-1), _coords(field, b).reshape(-1)
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
    return _from_coords(field, A.reshape(-1, e))
