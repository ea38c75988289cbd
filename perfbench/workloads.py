"""The three closed-loop workloads.  Each builds its inputs from the seed and
the round number, runs one job at a time, and checks every output with
perfbench.checks; cross-job checks run once both of their jobs are done.

A round is a fixed list of jobs; every round of a workload has the same mix,
so a run's throughput does not depend on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import checks
import curves


class JobFailed(Exception):
    """The program reported failure for a job (non-zero exit status)."""


def run_cli(ffec, argv):
    """ffec.cli.main in-process with stdout and stderr captured; returns
    the parsed stdout records and the stdout size in bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ffec.cli.main(argv)
    if rc != 0:
        raise JobFailed(f"ffec {' '.join(argv)} exited {rc}: {err.getvalue().strip()[-300:]}")
    text = out.getvalue()
    return [json.loads(line) for line in text.splitlines()], len(text)


def _rng(seed: int, tag: str, r: int) -> random.Random:
    return random.Random(f"{seed}:{tag}:{r}")


def _records(recs, kind):
    return [x for x in recs if x.get("record") == kind]


class Job:
    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Workload:
    """jobs(r) lists round r's jobs; emitted counts the bytes the program
    printed; setup_problems() reports checks on inputs built at set-up."""

    def __init__(self, ffec, seed, workdir):
        self.ffec, self.seed, self.workdir = ffec, seed, workdir
        self.emitted = 0

    def setup_problems(self):
        return []


class Census(Workload):
    """Random non-constant curves over F_2 and F_3 with one over F_4 per
    round, each run through `ffec analyze`.  A slot (q, N) is a curve over
    F_q whose conductor degree is N + 4 by the generator's own bounds."""

    # most jobs are short (8 of 20 take under 0.2 s), so per-curve work such
    # as parsing, Tate's algorithm and factoring counts; a round's time
    # splits about 42 / 21 / 37 % between F_2, F_3 and the one F_4 curve, so
    # that small and large residue fields both move jobs_per_cpu_s
    SLOTS = ([(2, 0)] * 2 + [(2, 1)] * 2 + [(2, 2)] * 2 + [(2, 3)] * 6 + [(2, 4)] * 2
             + [(3, 0)] * 2 + [(3, 1)] * 3 + [(4, 0)])

    def __init__(self, ffec, seed, workdir):
        super().__init__(ffec, seed, workdir)
        self.generator = curves.CensusGenerator()

    def jobs(self, r):
        rng = _rng(self.seed, "census", r)
        drawn = self.generator.draw_round(self.SLOTS, rng)
        rng.shuffle(drawn)
        out = []
        for k, c in enumerate(drawn):
            path = os.path.join(self.workdir, f"census-{r}-{k}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(c.text)
            out.append(Job(f"census F_{c.q} N={c.N}",
                           lambda path=path: run_cli(self.ffec, ["analyze", "--curve", path]),
                           lambda res, c=c: self.check(c, res)))
        return out

    def check(self, c, res):
        recs, size = res
        self.emitted += size
        lrep = _records(recs, "lreport")
        cond = _records(recs, "conductor")
        if not lrep or not cond or lrep[0]["constant"]:
            return [f"no non-constant L record for\n{c.text}"]
        L = lrep[0]
        bad = checks.lpoly_problems(L["coeffs"], c.q, L["N"], L["epsilon"])
        if L["q"] != c.q or L["N"] != c.N or cond[0]["deg"] != c.N + 4:
            bad.append(f"q = {L['q']}, N = {L['N']}, conductor degree {cond[0]['deg']};"
                       f" expected q = {c.q}, N = {c.N}")
        a1 = L["coeffs"][1] if L["N"] >= 1 else 0
        if a1 != c.expected_a1:
            bad.append(f"T-coefficient {a1}, point counts give {c.expected_a1}")
        if checks.rank_at_one_over_q(L["coeffs"], c.q) != L["analytic_rank"]:
            bad.append("reported analytic rank disagrees with the coefficients")
        return [f"{b}\n{c.text}" for b in bad]


# the F_2 catalog curves: a_i = t^k for the k listed for (a1, a2, a3, a4, a6),
# 0 for None
TOWER_CURVES = {
    "e7": (0, None, 1, None, None),
    "e8": (0, None, None, 1, None),
    "e9": (0, None, None, None, 1),
    "first_example": (0, 1, 1, None, None),
}
DEEP_D = 9


class Tower(Workload):
    """`ffec tower --scan 2` on four F_2 catalog curves in a seeded order,
    then the layer t = u^9 of e7 over F_2 and over F_64 = F_2(mu_9).  The
    two layer jobs always come last: they set the peak memory, which would
    otherwise depend on the order."""

    def __init__(self, ffec, seed, workdir):
        super().__init__(ffec, seed, workdir)
        self.paths = {}
        for name, exps in TOWER_CURVES.items():
            self.paths[name] = os.path.join(workdir, f"{name}.txt")
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                fh.write("p = 2\ne = 1\n" + "".join(
                    f"{a} = {'t' if k else '1'}\n"
                    for a, k in zip(("a1", "a2", "a3", "a4", "a6"), exps) if k is not None))
        self.deep = {}
        self._a1 = {}

    def layer_a1(self, name, d, q):
        """The T-coefficient of L for the curve at t = u^d over F_q(u), from
        naive point counts at the q + 1 rational places, or None when the
        model is not certainly minimal at all of them."""
        key = (name, d, q)
        if key not in self._a1:
            model = curves.Census(curves.GF(q), [[] if k is None else [0] * (d * k) + [1]
                                                 for k in TOWER_CURVES[name]])
            self._a1[key] = model.expected_a1() if model.minimal_at_rational_places() else None
        return self._a1[key]

    def a1_problems(self, name, d, coeffs, q):
        want = self.layer_a1(name, d, q)
        got = coeffs[1] if len(coeffs) > 1 else 0
        if want is None or got == want:
            return []
        return [f"T-coefficient {got} over F_{q}, point counts give {want}"]

    def jobs(self, r):
        specs = [("scan", name) for name in TOWER_CURVES]
        _rng(self.seed, "tower", r).shuffle(specs)
        specs += [("deep", False), ("deep", True)]
        out = []
        for kind, arg in specs:
            if kind == "scan":
                argv = ["tower", "--curve", self.paths[arg], "--scan", "2"]
                out.append(Job(f"scan {arg}", lambda argv=argv: run_cli(self.ffec, argv),
                               lambda res, name=arg: self.check_scan(name, res)))
            else:
                argv = ["tower", "--curve", self.paths["e7"], "--d", str(DEEP_D)] + (["--mu"] if arg else [])
                out.append(Job(f"e7 d={DEEP_D}{' mu' if arg else ''}",
                               lambda argv=argv: run_cli(self.ffec, argv),
                               lambda res, mu=arg, r=r: self.check_deep(mu, r, res)))
        return out

    def check_scan(self, name, res):
        recs, size = res
        self.emitted += size
        rows = {(x["d"], x["field"]): x for x in _records(recs, "towerscan")}
        bad = []
        for d in (3, 5):
            F, K = rows.get((d, "F_d")), rows.get((d, "K_d"))
            if F is None or K is None:
                bad.append(f"{name}: no rows for d = {d}")
                continue
            m = checks.mult_order(2, d)
            if F["q_const"] != 2 or K["q_const"] != 2 ** m:
                bad.append(f"{name} d = {d}: constant fields {F['q_const']}, {K['q_const']}")
                continue
            for row in (F, K):
                bad += [f"{name} d = {d} {row['field']}: {b}"
                        for b in checks.lpoly_problems(row["l_coeffs"], row["q_const"], row["N"])]
                if checks.rank_at_one_over_q(row["l_coeffs"], row["q_const"]) != row["rank"]:
                    bad.append(f"{name} d = {d} {row['field']}: rank disagrees with L")
                if row["rank"] > row["N"]:
                    bad.append(f"{name} d = {d} {row['field']}: rank above N")
                bad += [f"{name} d = {d} {row['field']}: {b}"
                        for b in self.a1_problems(name, d, row["l_coeffs"], row["q_const"])]
            if K["rank"] < F["rank"]:
                bad.append(f"{name} d = {d}: rank drops from F_d to K_d")
            bad += [f"{name} d = {d}: {b}"
                    for b in checks.extension_problems(F["l_coeffs"], K["l_coeffs"], 2, m)]
            if name == "e9":
                want = (checks.ulmer_rank(d, 2), checks.ulmer_rank(d, 2 ** m))
                if (F["rank"], K["rank"]) != want:
                    bad.append(f"e9 d = {d}: ranks {F['rank']}, {K['rank']}; Ulmer's formula gives {want}")
        return bad

    def check_deep(self, mu, r, res):
        recs, size = res
        self.emitted += size
        lrep = _records(recs, "lreport")
        if not lrep:
            return [f"e7 d = {DEEP_D}: no L record"]
        L = lrep[0]
        m = checks.mult_order(2, DEEP_D)
        bad = checks.lpoly_problems(L["coeffs"], L["q"], L["N"], L["epsilon"])
        if L["q"] != (2 ** m if mu else 2) or L["analytic_rank"] > L["N"]:
            bad.append(f"q = {L['q']}, rank {L['analytic_rank']}, N = {L['N']}")
        if checks.rank_at_one_over_q(L["coeffs"], L["q"]) != L["analytic_rank"]:
            bad.append("reported analytic rank disagrees with the coefficients")
        bad += self.a1_problems("e7", DEEP_D, L["coeffs"], L["q"])
        self.deep[(r, mu)] = L["coeffs"]
        if (r, not mu) in self.deep:
            bad += checks.extension_problems(self.deep[(r, False)], self.deep[(r, True)], 2, m)
            if checks.rank_at_one_over_q(self.deep[(r, True)], 2 ** m) < \
                    checks.rank_at_one_over_q(self.deep[(r, False)], 2):
                bad.append("rank drops under constant extension")
        return [f"e7 d = {DEEP_D}{' mu' if mu else ''}: {b}" for b in bad]


class Heights(Workload):
    """`ffec points --p 3` and, on the Legendre families at p = 5 and 7,
    one height pairing <P_i, P_j> for each class {j - i, i - j} mod d, with
    i and the orientation drawn from the seed, plus a second pairing of
    class 1 at p = 5."""

    N_ITER = 3
    PRIMES = (5, 7)

    def __init__(self, ffec, seed, workdir):
        super().__init__(ffec, seed, workdir)
        self.families = {p: ffec.legendre_family(p) for p in self.PRIMES}
        self.pairings = {}  # (p, class) -> list of (value, error)

    def setup_problems(self):
        bad = []
        for p, fam in self.families.items():
            q = p  # f = 1
            # x = u^q (u^q - u) / (1 + 4u)^q: u = -1/4 lies in F_p, so 1 + 4u
            # divides u^q - u once and the reduced degrees are 2q - 1, q - 1
            for i, P in enumerate(fam.points):
                h = max(P.x.num.degree, P.x.den.degree)
                if h != 2 * q - 1:
                    bad.append(f"p = {p}: naive height of P_{i} is {h}, not {2 * q - 1}")
        return bad

    def jobs(self, r):
        rng = _rng(self.seed, "heights", r)
        out = [Job("points p=3", lambda: run_cli(self.ffec, ["points", "--p", "3"]),
                   self.check_points)]
        pairs = []
        for p in self.PRIMES:
            d = self.families[p].d
            for k in range(1, d // 2 + 1):
                i = rng.randrange(d)
                pairs.append((p, k, i, (i + k) % d if rng.random() < 0.5 else (i - k) % d))
        # the first pair of class 1 at p = 5 again, rotated by u -> zeta^s u,
        # so that every round compares two pairings of one class
        p, k, i, j = pairs[0]
        d = self.families[p].d
        s = rng.randrange(1, d)
        pairs.append((p, k, (i + s) % d, (j + s) % d))
        for p, k, i, j in pairs:
            fam = self.families[p]
            out.append(Job(f"pairing p={p} ({i},{j})",
                           lambda fam=fam, i=i, j=j: self.ffec.height_pairing(
                               fam.curve, fam.points[i], fam.points[j], self.N_ITER),
                           lambda h, p=p, k=k, i=i, j=j: self.check_pairing(p, k, i, j, h)))
        return out

    def check_points(self, res):
        recs, size = res
        self.emitted += size
        pts = _records(recs, "point")
        gram = _records(recs, "gram")
        if len(pts) != 4 or not gram:
            return ["points --p 3: expected 4 points and a Gram record"]
        bad = [f"points --p 3: naive height of P_{x['i']} is {x['naive']}, not 5"
               for x in pts if x["naive"] != 5]
        G = [[Fraction(s) for s in row] for row in gram[0]["matrix"]]
        want = [(1, 1, 1, 1), (1, -1, 1, -1)]
        if checks.rational_rank(G) != 2 or gram[0]["rank"] != 2:
            bad.append(f"points --p 3: Gram rank {gram[0]['rank']}, expected 2")
        if any(sum(a * b for a, b in zip(row, v)) for row in G for v in want):
            bad.append("points --p 3: (1,1,1,1) or (1,-1,1,-1) is not in the Gram kernel")
        if not checks.same_span(gram[0]["kernel"], want):
            bad.append(f"points --p 3: kernel {gram[0]['kernel']} is not the expected span")
        return bad

    def check_pairing(self, p, k, i, j, h):
        if h.error < 0:
            return [f"p = {p}: negative bracket for <P_{i}, P_{j}>"]
        seen = self.pairings.setdefault((p, k), [])
        bad = [f"p = {p}: <P_{i}, P_{j}> = {h.value} +- {h.error} but another pair "
               f"of the same difference gave {v} +- {e}"
               for v, e in seen if abs(h.value - v) > h.error + e]
        seen.append((h.value, h.error))
        return bad


WORKLOADS = {"census": Census, "tower": Tower, "heights": Heights}
