"""Curves the tests derive by maps the program does not use.

Both build their result from its coefficients with Curve(...), so its
discriminant is computed afresh, not carried over: the tests compare it
with what the program derives.
"""

from ffec.algebra import field_create
from ffec.weierstrass import Curve, constant_embedding


def frobenius_twist(E: Curve) -> Curve:
    """Apply the p-th power Frobenius to every coefficient (not to t)."""
    p = E.field.p
    cs = [ai.map_coeffs(lambda c: c ** p) for ai in E.coeffs]
    return Curve(E.field, *cs, var=E.var)


def extend_constants(E: Curve, m: int) -> Curve:
    """Base change along the constant field extension F_q -> F_{q^m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return E
    field = E.field
    ext = field_create(field.p, field.e * m)
    embed = constant_embedding(field, ext)
    cs = [ai.map_coeffs(embed, ext) for ai in E.coeffs]
    return Curve(ext, *cs, var=E.var)
