"""Steadiness check: run each workload once per seed in two sets, and
print every metric's median, quartiles and spread (quartile distance over
median), the failed share, and how far set 1's median moved from set 0's.
The bounds in BENCHMARK.json are set from its output; it exits 1 if a
spread or a shift, either way, exceeds its metric's bound.

    python3 perfbench/steady.py --workloads census tower heights --seeds 10

Each run is `run.py --workload W --seed S --seconds SEC --trace 0` in a
fresh process, one at a time, with seeds 1, 2, ... and SEC the run_seconds
of BENCHMARK.json.  Raw results are kept in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
SETS = 2


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    raw = {}
    for s in range(SETS):
        for w in args.workloads:
            for seed in range(1, args.seeds + 1):
                res = run_once(w, seed)
                raw.setdefault(w, []).append((s, seed, res))
                print(f"set {s} {w} seed {seed}: wall {res['wall_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(raw, indent=1))

    ok = True
    for w, rows in raw.items():
        print(f"\n{w}: {len(rows)} runs, wall {min(r['wall_s'] for _, _, r in rows):.1f}"
              f"-{max(r['wall_s'] for _, _, r in rows):.1f} s")
        shares = {r["failed"] / r["attempted"] for _, _, r in rows}
        print(f"  failed share: {sorted(shares)}")
        ok &= len(shares) == 1
        for name in BOUNDS:
            bound = BOUNDS[name]["bound"]
            better = BOUNDS[name]["better"]
            meds = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for ss, _, r in rows if ss == s]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                # positive: worse than set 0
                shift = (meds[0] - med if better == "higher" else med - meds[0]) / meds[0]
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    flag = " spread over bound/3"
                if abs(shift) > bound:
                    flag, ok = flag + " MEDIAN MOVED BY MORE THAN BOUND", False
                print(f"  set {s} {name:12s} median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                      f"spread {spread:.2%} (bound {bound:.0%}) shift {shift:+.2%}{flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
