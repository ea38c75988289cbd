"""Divisor data for elliptic surfaces cut out by f(x) = t g(y) on a product
of projective lines: the genus formula for the generic fiber, the rank-formula
constants c1 and c2, and dispatch into the catalog of worked Weierstrass
models.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import FFECError, Fq, Poly
from .local import bad_reduction
from .weierstrass import Curve
from . import catalog

INF = "inf"


# a NamedTuple may not define __new__, so the subclass below checks the fields
class _BergerFields(NamedTuple):
    f_zeros: tuple[tuple[str, int], ...]
    f_poles: tuple[tuple[str, int], ...]
    g_zeros: tuple[tuple[str, int], ...]
    g_poles: tuple[tuple[str, int], ...]
    p: int = 0


class BergerData(_BergerFields):
    """Zeros and poles of the two rational functions as (label, multiplicity)
    pairs.  Labels are opaque strings naming distinct points of P^1; the
    point at infinity is labelled "inf"."""

    __slots__ = ()

    def __new__(cls, f_zeros, f_poles, g_zeros, g_poles, p: int = 0):
        for side, zeros, poles in (("f", f_zeros, f_poles), ("g", g_zeros, g_poles)):
            if not zeros or not poles:
                raise ValueError(f"{side} needs at least one zero and one pole")
            labels = [lab for lab, _ in zeros] + [lab for lab, _ in poles]
            if len(set(labels)) != len(labels):
                raise ValueError(f"repeated point label in the {side} divisor")
            if any(mult < 1 for _, mult in zeros + poles):
                raise ValueError("multiplicities must be positive")
            if sum(m for _, m in zeros) != sum(m for _, m in poles):
                raise ValueError(
                    f"the {side} divisor does not have degree zero")
        return super().__new__(cls, f_zeros, f_poles, g_zeros, g_poles, p)

    @property
    def m(self) -> int:
        return sum(mult for _, mult in self.f_zeros)

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.g_zeros)

    @property
    def k(self) -> int:
        return len(self.f_zeros)

    @property
    def kprime(self) -> int:
        return len(self.f_poles)

    @property
    def ell(self) -> int:
        return len(self.g_zeros)

    @property
    def ellprime(self) -> int:
        return len(self.g_poles)

    def check_hypotheses(self) -> list[str]:
        """Violations of the standing hypotheses: every multiplicity prime
        to the characteristic, and each function's multiplicities coprime
        as a set."""
        out = []
        for side in ("f", "g"):
            entries = getattr(self, side + "_zeros") + getattr(self, side + "_poles")
            if self.p > 1:
                for lab, mult in entries:
                    if mult % self.p == 0:
                        out.append(
                            f"{side} multiplicity {mult}@{lab} is divisible "
                            f"by the characteristic {self.p}")
            g = 0
            for _, mult in entries:
                g = math.gcd(g, mult)
            if g != 1:
                out.append(f"gcd of the {side} multiplicities is {g}, not 1")
        return out


def delta(a: int, b: int) -> int:
    """(ab - a - b + gcd(a,b)) / 2, the local genus drop of a_i vs b_j."""
    if a < 1 or b < 1:
        raise ValueError("multiplicities must be >= 1")
    return (a * b - a - b + math.gcd(a, b)) // 2


def genus(data: BergerData) -> int:
    """Genus of the smooth proper model of f(x) - t g(y) = 0 over k(t)."""
    bad = data.check_hypotheses()
    if bad:
        raise FFECError("; ".join(bad))
    total = (data.m - 1) * (data.n - 1)
    for _, a in data.f_zeros:
        for _, b in data.g_zeros:
            total -= delta(a, b)
    for _, a in data.f_poles:
        for _, b in data.g_poles:
            total -= delta(a, b)
    return total


def _counts_for_c2(zeros, poles) -> tuple[int, int]:
    """Distinct-point counts with the point at infinity always bookkept on
    the pole side: a function vanishing at infinity still contributes its
    infinite point to the pole count, matching the surface compactification
    in which the boundary line joins the polar fiber configuration."""
    k = sum(1 for lab, _ in zeros if lab != INF)
    kp = len(poles) + sum(1 for lab, _ in zeros if lab == INF)
    return k, kp


def c2(data: BergerData) -> int:
    k, kp = _counts_for_c2(data.f_zeros, data.f_poles)
    ell, ellp = _counts_for_c2(data.g_zeros, data.g_poles)
    return (k - 1) * (ell - 1) + (kp - 1) * (ellp - 1)


def c1(E: Curve) -> int:
    """Sum of deg(v) * (m_v - 1) over bad places away from t = 0 and
    t = infinity, the geometric count of extra fiber components."""
    t = Poly.x(E.field)
    total = 0
    for ld in bad_reduction(E):
        v = ld.place
        if v.poly is None or v.poly == t:
            continue
        total += v.degree * (ld.m_v - 1)
    return total


def berger_catalog(name: str, field: Fq, a=None) -> Curve:
    """Named Weierstrass models: "berger-L4" (needs the parameter a),
    "first-example", and "second-example"."""
    if name == "berger-L4":
        if a is None:
            raise ValueError("berger-L4 needs the parameter a")
        return catalog.berger_l4(field, a)
    if name == "first-example":
        if a is not None:
            raise ValueError("first-example takes no parameter")
        return catalog.first_example(field)
    if name == "second-example":
        if a is not None:
            raise ValueError("second-example takes no parameter")
        return catalog.second_example(field)
    raise ValueError(f"unknown catalog name {name!r}")


def first_example_data(p: int = 0) -> BergerData:
    """f = x(x-1), g = y^2/(1-y)."""
    return BergerData(
        f_zeros=(("0", 1), ("1", 1)),
        f_poles=((INF, 2),),
        g_zeros=(("0", 2),),
        g_poles=(("1", 1), (INF, 1)),
        p=p,
    )


def second_example_data(p: int = 0) -> BergerData:
    """f = x/(x^2-1), g = y(y-1)."""
    return BergerData(
        f_zeros=(("0", 1), (INF, 1)),
        f_poles=(("1", 1), ("-1", 1)),
        g_zeros=(("0", 1), ("1", 1)),
        g_poles=((INF, 2),),
        p=p,
    )


def l4_data(p: int = 0) -> BergerData:
    """f = g = x(x-a)/(x-1) with a generic."""
    side_zeros = (("0", 1), ("a", 1))
    side_poles = (("1", 1), (INF, 1))
    return BergerData(side_zeros, side_poles, side_zeros, side_poles, p=p)


def parse_berger_data(text: str, p: int = 0) -> BergerData:
    """Two lines 'f: a1@P1 a2@P2 ... / a'1@P'1 ...' and 'g: ...'."""
    sides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FFECError(f"line {lineno}: expected 'f:' or 'g:'")
        head, _, rest = line.partition(":")
        head = head.strip()
        if head not in ("f", "g") or head in sides:
            raise FFECError(f"line {lineno}: unexpected side {head!r}")
        if "/" not in rest:
            raise FFECError(f"line {lineno}: missing '/' between zeros and poles")
        zeros_s, _, poles_s = rest.partition("/")

        def entries(chunk: str) -> tuple:
            out = []
            for tok in chunk.split():
                mult_s, sep, label = tok.partition("@")
                if not sep or not label:
                    raise FFECError(
                        f"line {lineno}: bad entry {tok!r}, expected mult@label")
                try:
                    mult = int(mult_s)
                except ValueError:
                    raise FFECError(
                        f"line {lineno}: bad multiplicity in {tok!r}") from None
                out.append((label, mult))
            return tuple(out)

        sides[head] = (entries(zeros_s), entries(poles_s))
    if set(sides) != {"f", "g"}:
        raise FFECError("need exactly one 'f:' line and one 'g:' line")
    return BergerData(
        f_zeros=sides["f"][0], f_poles=sides["f"][1],
        g_zeros=sides["g"][0], g_poles=sides["g"][1], p=p,
    )


def format_berger_data(data: BergerData) -> str:
    def side(zeros, poles):
        z = " ".join(f"{m}@{lab}" for lab, m in zeros)
        q = " ".join(f"{m}@{lab}" for lab, m in poles)
        return f"{z} / {q}"

    return (f"f: {side(data.f_zeros, data.f_poles)}\n"
            f"g: {side(data.g_zeros, data.g_poles)}\n")
