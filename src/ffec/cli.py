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
import functools
import json
import sys
import time

try:
    # CPython's own SHA-256 (before 3.12): hashlib would map OpenSSL's
    # libcrypto, about 3.5 MB of resident memory, for one small digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

# only what every command needs; each cmd_* imports the modules it runs
from . import __version__
from .algebra import CapError, FFECError, ParseError, format_ratfunc
from .weierstrass import NotEllipticError, parse_curve_file


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
            digest = sha256(input_text.encode()).hexdigest()
        self.record("meta", command=self.command, input_sha256=digest,
                    versions={"ffec": __version__,
                              "python": sys.version.split()[0]})

    def close(self) -> int:
        self.record("summary", ok=self.ok,
                    seconds=round(time.perf_counter() - self.t0, 3))
        self.human("ok" if self.ok else "FAILED")
        return 0 if self.ok else 1


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit_l_record(em: Emitter, L):
    from .lfunction import analytic_rank, check_functional_equation, check_rh
    eps = check_functional_equation(L)
    rank = analytic_rank(L)
    rh = check_rh(L)
    em.record("lreport", constant=False, q=L.q, N=L.N, coeffs=list(L.coeffs),
              epsilon=eps, analytic_rank=rank, rh=rh, l=str(L))
    em.human(f"L = {L} over q = {L.q}: rank {rank}, epsilon {eps:+d}, "
             f"RH {'ok' if rh else 'VIOLATED'}")
    em.check(rh, "inverse roots of L are not all on |alpha| = q")


def cmd_analyze(args, em: Emitter, text: str) -> None:
    from .lfunction import constant_l, constant_trace, l_polynomial
    from .local import curve_analysis
    E = parse_curve_file(text)
    A = curve_analysis(E)
    cls = A.cls
    em.record("classification", q=E.field.q, var=E.var, curve=repr(E),
              constant=cls.constant, isotrivial=cls.isotrivial,
              height=cls.height)
    em.record("invariants",
              c4=format_ratfunc(cls.c4, E.var),
              c6=format_ratfunc(cls.c6, E.var),
              delta=format_ratfunc(E.delta, E.var),
              j=format_ratfunc(cls.j, E.var))
    if cls.constant:
        a = constant_trace(E)
        C = constant_l(a, E.field.q)
        em.record("lreport", constant=True, q=E.field.q, trace=a,
                  l_reciprocal_factors=[list(f) for f in C.den_factors])
        em.human(f"constant curve, trace {a}: L is the closed-form rational "
                 f"function; reciprocal factors {C.den_factors}")
        return
    for ld in A.bad:
        em.record("localdata", place=repr(ld.place), degree=ld.place.degree,
                  kodaira=str(ld.type), n_v=ld.n_v, f_v=ld.f_v, m_v=ld.m_v,
                  split=ld.split, a_v=ld.a_v, vdelta=ld.vdelta_min)
        # n_v comes from Ogg's formula; the fiber type alone gives its tame
        # part, and the wild part vanishes for p >= 5
        em.check(ld.n_v == ld.tame if E.field.p >= 5 else ld.n_v >= ld.tame,
                 f"conductor exponent {ld.n_v} at {ld.place!r} is not the tame "
                 f"part {ld.tame} plus a wild part (0 for p >= 5)")
    cond = A.conductor
    em.record("conductor", deg=cond.deg,
              entries=[[repr(v), n] for v, n in cond.entries],
              nprime_deg=A.nprime_deg)
    em.human(f"height {cls.height}, {len(A.bad)} bad places, "
             f"conductor degree {cond.deg}")
    _emit_l_record(em, l_polynomial(E))


def cmd_tower(args, em: Emitter, text: str) -> None:
    from .towers import rank_growth_scan, tower_l
    E = parse_curve_file(text)
    if args.scan is not None:
        res = rank_growth_scan(E, args.scan)
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
        _emit_l_record(em, tower_l(E, args.d, use_mu_d=args.mu))


def cmd_points(args, em: Emitter, text: str | None) -> None:
    from .heights_points import circulant_rank, legendre_family, points_report
    fam = legendre_family(args.p, args.f)
    rep = points_report(fam)
    em.record("family", curve=rep["curve"], q=rep["q"], d=rep["d"])
    for row in rep["points"]:
        em.record("point", **row)
    em.record("gram", matrix=rep["gram"], rank=rep["rank"],
              kernel=rep["kernel"])
    em.human(f"d = {rep['d']} points over q = {rep['q']}: "
             f"Gram rank {rep['rank']}, kernel dimension {len(rep['kernel'])}")
    em.check(circulant_rank(rep["gram"][0]) == rep["rank"],
             "the circulant rank d - deg gcd(c(x), x^d - 1) != the Gram rank")


def cmd_berger(args, em: Emitter, text: str | None) -> None:
    from .algebra import field_create
    from .berger import (berger_catalog, c1, c2, first_example_data, format_berger_data,
                         genus, l4_data, parse_berger_data, second_example_data)
    from .local import nprime_deg
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
        builders = {"first-example": first_example_data,
                    "second-example": second_example_data,
                    "berger-L4": l4_data}
        data = builders[args.catalog](p=F.p)
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


class UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: set_defaults
    binds the cmd_* functions as they are named then."""
    parser = _ArgumentParser(
        prog="ffec",
        description="exact arithmetic for elliptic curves over F_q(t)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def curve_command(name, help_text, fn):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--curve", required=True, metavar="FILE",
                       help="curve file (p = , e = , a1 = ... lines)")
        p.set_defaults(fn=fn)
        return p

    curve_command("analyze", "local data, conductor, and L for one curve",
                  cmd_analyze)

    p = curve_command("tower", "L-functions under t -> u^d", cmd_tower)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, metavar="N", help="single layer t = u^N")
    group.add_argument("--scan", type=int, metavar="N_MAX",
                       help="scan d = q^n + 1 for n = 1..N_MAX")
    p.add_argument("--mu", action="store_true",
                   help="extend constants to contain the d-th roots of unity")

    p = sub.add_parser("points", help="explicit point family and its heights")
    p.add_argument("--p", type=int, required=True, help="odd characteristic")
    p.add_argument("--f", type=int, default=1, help="q = p^f")
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("berger", help="divisor data for the product construction")
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
    em = Emitter(argv)
    try:
        args = build_parser().parse_args(argv)
    except UsageError as ex:
        em.meta(None)
        em.error(f"usage: {ex}")
        return em.close()
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
