"""Command-line front end.

Subcommands: analyze (full local/global report for one curve file), tower
(L-functions under t -> u^d), points (the explicit family and its height
lattice), berger (divisor data and the named product-construction models).
One JSON record per line on stdout, a human summary on stderr; exit status
0 only when every internal check passed.  Output is deterministic for a
given input and flag set, except for the "seconds" timing fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time

from . import __version__
from .algebra import CapError, FFECError, ParseError, field_create, format_ratfunc
from .berger import (
    berger_catalog,
    c1,
    c2,
    first_example_data,
    format_berger_data,
    genus,
    l4_data,
    parse_berger_data,
    second_example_data,
)
from .heights_points import legendre_family, points_report
from .lfunction import (
    analytic_rank,
    check_functional_equation,
    check_rh,
    constant_l,
    constant_trace,
    l_polynomial,
)
from .local import bad_reduction, conductor, nprime_deg
from .towers import rank_growth_scan, tower_l
from .weierstrass import NotEllipticError, classify, parse_curve_file

_DATA_BUILDERS = {
    "first-example": first_example_data,
    "second-example": second_example_data,
    "berger-L4": l4_data,
}


class Emitter:
    """JSON-lines records to stdout, human commentary to stderr."""

    def __init__(self, command, stdout=None, stderr=None):
        self.out = stdout if stdout is not None else sys.stdout
        self.err = stderr if stderr is not None else sys.stderr
        self.command = list(command)
        self.t0 = time.perf_counter()
        self.ok = True

    def record(self, kind: str, **fields):
        fields["record"] = kind
        self.out.write(json.dumps(fields, sort_keys=True,
                                  separators=(",", ":")) + "\n")

    def human(self, msg: str):
        print(msg, file=self.err)

    def error(self, msg: str):
        self.ok = False
        self.record("error", message=msg)
        print(f"error: {msg}", file=self.err)

    def check(self, passed: bool, msg: str):
        if not passed:
            self.ok = False
            print(f"FAILED: {msg}", file=self.err)

    def meta(self, input_text: str | None):
        digest = None
        if input_text is not None:
            digest = hashlib.sha256(input_text.encode()).hexdigest()
        self.record("meta", command=self.command, input_sha256=digest,
                    versions={"ffec": __version__,
                              "python": platform.python_version()})

    def close(self) -> int:
        self.record("summary", ok=self.ok,
                    seconds=round(time.perf_counter() - self.t0, 3))
        self.human("ok" if self.ok else "FAILED")
        return 0 if self.ok else 1


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit_l_record(em: Emitter, L, tol: float, cond_deg: int | None = None):
    eps = check_functional_equation(L)
    rank = analytic_rank(L)
    rh = check_rh(L, tol)
    em.record("lreport", constant=False, q=L.q, N=L.N, coeffs=list(L.coeffs),
              epsilon=eps, analytic_rank=rank, rh=rh, l=str(L))
    em.human(f"L = {L} over q = {L.q}: rank {rank}, epsilon {eps:+d}, "
             f"RH {'ok' if rh else 'VIOLATED'}")
    em.check(rh, "inverse roots of L are not all on |alpha| = q")
    em.check(rank <= L.N, f"analytic rank {rank} exceeds degree {L.N}")
    if cond_deg is not None:
        em.check(L.N == cond_deg - 4,
                 f"degree {L.N} != conductor degree {cond_deg} - 4")
    return rank


def cmd_analyze(args, em: Emitter, text: str) -> None:
    E = parse_curve_file(text)
    cls = classify(E)
    em.record("classification", q=E.field.q, var=E.var, curve=repr(E),
              constant=cls.constant, isotrivial=cls.isotrivial,
              height=cls.height)
    inv = E.invariants()
    em.record("invariants",
              c4=format_ratfunc(inv.c4, E.var),
              c6=format_ratfunc(inv.c6, E.var),
              delta=format_ratfunc(inv.delta, E.var),
              j=format_ratfunc(inv.j, E.var))
    if cls.constant:
        a = constant_trace(E)
        C = constant_l(a, E.field.q)
        em.record("lreport", constant=True, q=E.field.q, trace=a,
                  l_reciprocal_factors=[list(f) for f in C.den_factors])
        em.human(f"constant curve, trace {a}: L is the closed-form rational "
                 f"function; reciprocal factors {C.den_factors}")
        return
    locs = bad_reduction(E)
    for ld in locs:
        em.record("localdata", place=repr(ld.place), degree=ld.place.degree,
                  kodaira=str(ld.type), n_v=ld.n_v, f_v=ld.f_v, m_v=ld.m_v,
                  split=ld.split, a_v=ld.a_v, vdelta=ld.vdelta_min)
        em.check(ld.vdelta_min == ld.n_v + ld.m_v - 1,
                 f"Ogg relation fails at {ld.place!r}")
    cond = conductor(E)
    em.record("conductor", deg=cond.deg,
              entries=[[repr(v), n] for v, n in cond.entries],
              nprime_deg=nprime_deg(E))
    em.human(f"height {cls.height}, {len(locs)} bad places, "
             f"conductor degree {cond.deg}")
    L = l_polynomial(E, args.max_place_deg)
    _emit_l_record(em, L, args.tol, cond_deg=cond.deg)


def cmd_tower(args, em: Emitter, text: str) -> None:
    E = parse_curve_file(text)
    if args.scan is not None:
        res = rank_growth_scan(E, args.scan, args.max_place_deg)
        if res["warning"]:
            em.human(f"warning: {res['warning']}")
        for row in res["rows"]:
            em.record("towerscan", **row)
            em.human(f"d = {row['d']} over {row['field']}: "
                     f"rank {row['rank']} (N = {row['N']})")
        em.record("towersummary", c_obs=res["c_obs"],
                  nprime_deg=res["nprime_deg"], warning=res["warning"])
        em.human(f"observed defect c_obs = {res['c_obs']}")
    else:
        L = tower_l(E, args.d, use_mu_d=args.mu,
                    max_place_deg=args.max_place_deg)
        _emit_l_record(em, L, args.tol)


def cmd_points(args, em: Emitter, text: str | None) -> None:
    if args.family != "legendre":
        raise ValueError(f"unknown family {args.family!r}")
    if args.iters < 1:
        raise ValueError("--iters must be at least 1")
    fam = legendre_family(args.p, args.f)
    rep = points_report(fam, n_iter=args.iters, tol=args.tol)
    em.record("family", curve=rep["curve"], q=rep["q"], d=rep["d"])
    for row in rep["points"]:
        em.record("point", **row)
        em.check(fam.curve.on_curve(fam.points[row["i"]]),
                 f"point {row['i']} is not on the curve")
    em.record("gram", matrix=rep["gram"], rank=rep["rank"],
              kernel=rep["kernel"])
    em.human(f"d = {rep['d']} points over q = {rep['q']}: "
             f"Gram rank {rep['rank']}, kernel dimension {len(rep['kernel'])}")
    em.check(rep["rank"] + len(rep["kernel"]) == rep["d"],
             "rank + kernel dimension != number of points")


def cmd_berger(args, em: Emitter, text: str | None) -> None:
    if args.data is not None:
        data = parse_berger_data(text, p=args.p)
    else:
        if args.catalog is None:
            raise ValueError("need --catalog NAME or --data FILE")
        params = {}
        for kv in args.params:
            key, sep, val = kv.partition("=")
            if not sep:
                raise ValueError(f"bad parameter {kv!r}, expected key=value")
            params[key] = int(val)
        unknown = set(params) - {"p", "e", "a"}
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        if "p" not in params:
            raise ValueError("the catalog needs p=... (and a=... for berger-L4)")
        F = field_create(params["p"], params.get("e", 1))
        E = berger_catalog(args.catalog, F, params.get("a"))
        em.record("curve", curve=repr(E), q=F.q)
        c1_val = c1(E)
        em.record("berger", c1=c1_val, nprime_deg=nprime_deg(E))
        em.human(f"{args.catalog} over F_{F.q}: c1 = {c1_val}")
        data = _DATA_BUILDERS[args.catalog](p=F.p)
    em.record("divisors", data=format_berger_data(data),
              m=data.m, n=data.n)
    violations = data.check_hypotheses()
    if violations:
        em.record("hypotheses", ok=False, violations=violations)
        em.check(False, "; ".join(violations))
        return
    g = genus(data)
    c2_val = c2(data)
    em.record("hypotheses", ok=True, violations=[])
    em.record("berger_divisor", genus=g, c2=c2_val)
    em.human(f"genus {g}, c2 = {c2_val}")
    em.check(g >= 0, "negative genus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffec",
        description="exact arithmetic for elliptic curves over F_q(t)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, curve=True):
        if curve:
            p.add_argument("--curve", required=True, metavar="FILE",
                           help="curve file (p = , e = , a1 = ... lines)")
        p.add_argument("--max-place-deg", type=int, default=None, metavar="N",
                       help="Euler-product cutoff (default: conductor degree)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="tolerance for the root-size check")

    p = sub.add_parser("analyze", help="local data, conductor, and L for one curve")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("tower", help="L-functions under t -> u^d")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, metavar="N", help="single layer t = u^N")
    group.add_argument("--scan", type=int, metavar="N_MAX",
                       help="scan d = q^n + 1 for n = 1..N_MAX")
    p.add_argument("--mu", action="store_true",
                   help="extend constants to contain the d-th roots of unity")
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("points", help="explicit point family and its heights")
    common(p, curve=False)
    p.add_argument("--family", default="legendre", help="family name")
    p.add_argument("--p", type=int, required=True, help="odd characteristic")
    p.add_argument("--f", type=int, default=1, help="q = p^f")
    p.add_argument("--iters", type=int, default=6, metavar="N",
                   help="doublings for the canonical height")
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("berger", help="divisor data for the product construction")
    common(p, curve=False)
    p.add_argument("--catalog", default=None, metavar="NAME",
                   help="berger-L4, first-example, or second-example")
    p.add_argument("--params", nargs="*", default=[], metavar="KEY=VAL",
                   help="catalog parameters, e.g. p=7 a=3")
    p.add_argument("--data", default=None, metavar="FILE",
                   help="zero/pole data file instead of a catalog name")
    p.add_argument("--p", type=int, default=0,
                   help="characteristic for --data hypothesis checks")
    p.set_defaults(fn=cmd_berger)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    em = Emitter(argv)
    path = getattr(args, "curve", None)
    if getattr(args, "data", None) is not None:
        path = args.data
    try:
        text = _read_file(path) if path is not None else None
    except OSError as ex:
        em.meta(None)
        em.error(str(ex))
        return em.close()
    em.meta(text)
    try:
        args.fn(args, em, text)
    except ParseError as ex:
        em.error(f"parse: {ex}")
    except NotEllipticError as ex:
        em.error(str(ex))
    except CapError as ex:
        em.error(f"cap: {ex}")
    except (FFECError, ValueError) as ex:
        em.error(str(ex))
    return em.close()


if __name__ == "__main__":
    sys.exit(main())
