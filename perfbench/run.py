"""Closed-loop benchmark for ffec: one client runs one job at a time, the
next only after the previous one returned, and checks every output.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

A run is a whole number of rounds, each the same mix of jobs: it starts
another round only while the rounds so far leave room for one more as long
as the longest within --seconds of wall time, and it always runs one.

Times are CPU seconds of the benchmark process and of any child it reaped,
scaled to a reference speed of the machine.  The machine is a few virtual
cores of a shared host whose speed for the same code moves by up to a
factor of two within minutes, CPU time included (another tenant on the
same physical core slows this one without taking it away).  So the
benchmark runs a fixed piece of reference work once before the first job
and after every job, sized at REF_SHARE of that job's CPU time, and
measures how much slower than nominal (REF_UNIT_S a unit, about its CPU
time on an idle machine) each sample ran.  jobs_per_ref_s divides the jobs'
CPU time by the slowdown over the whole run, and job_p50_ref_s each job's
time by the mean slowdown of the samples just before and after it.
setup_s is the median over SETUP_PROBES fresh interpreters of the CPU time
from interpreter start to the first round's inputs being built, scaled by
reference work run before and after it in the same interpreter.  Only the
jobs are timed; each output is checked between jobs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics of the
traced run with --trace 1).  The program is imported from src/ of the
checkout this file sits in; nothing is installed.  Inputs and traces go to
perfbench/out/.  Exit status 1 means a job failed or an output failed a
check; correct is then false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
REF_SHARE = 0.25
REF_UNIT_S = 0.00015
PROBE_REF_S = 0.2

# the reference work: products of polynomials over F_251 through log and
# antilog tables, the kind of inner loop the program's residue fields run
_EXP = [1]
for _ in range(249):
    _EXP.append(_EXP[-1] * 6 % 251)
_LOG = {x: k for k, x in enumerate(_EXP)}
_REF_POLY = [x % 250 + 1 for x in range(7, 7 * 41, 7)]


def reference_work(units: int) -> int:
    acc = 0
    for _ in range(units):
        out = [0] * (2 * len(_REF_POLY) - 1)
        for i, a in enumerate(_REF_POLY):
            la = _LOG[a]
            for j, b in enumerate(_REF_POLY):
                out[i + j] ^= _EXP[(la + _LOG[b]) % 250]
        acc ^= sum(out)
    return acc


class Speed:
    """How much slower than nominal the reference work has run: its
    thread CPU time over REF_UNIT_S per unit done.  Thread time, so that
    a thread the program leaves running cannot make the machine look
    slower."""

    def __init__(self):
        self.cpu = self.nominal = 0.0
        self.last = 1.0

    def sample(self, seconds: float) -> float:
        """Run about `seconds` of CPU time of reference work, sized by the
        last sample's speed; return how much slower than nominal it ran."""
        units = max(1, round(seconds / (REF_UNIT_S * self.last)))
        c0 = time.thread_time()
        reference_work(units)
        cpu = time.thread_time() - c0
        self.cpu += cpu
        self.nominal += units * REF_UNIT_S
        self.last = cpu / (units * REF_UNIT_S)
        return self.last

    @property
    def slowdown(self) -> float:
        return self.cpu / self.nominal


def import_ffec():
    sys.path.insert(0, str(ROOT / "src"))
    import ffec
    import ffec.cli  # noqa: F401
    if not Path(ffec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ffec imported from {ffec.__file__}, not from {ROOT / 'src'}")
    return ffec


def workdir_for(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe(args) -> int:
    """Child mode: run reference work, import ffec and build the first
    round's inputs, run reference work again, and print "ready" with the
    CPU seconds of everything but the reference work, scaled by the mean
    slowdown of the two samples."""
    speed = Speed()
    before = speed.sample(PROBE_REF_S)
    ffec = import_ffec()
    workdir = workdir_for(f"probe-{args.workload}-{args.seed}")
    try:
        workloads.WORKLOADS[args.workload](ffec, args.seed, str(workdir)).jobs(0)
        setup = cpu_s() - speed.cpu
        after = speed.sample(PROBE_REF_S)
        print(f"ready {2 * setup / (before + after)!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_probes(args, n: int, importtime: bool):
    """Scaled set-up CPU seconds of n fresh interpreters, and with
    importtime the cumulative import times of ffec and sympy."""
    cpus, imports = [], []
    for k in range(n):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
            "--seed", str(args.seed)]
        errpath = OUT / f"probe-{os.getpid()}-{k}.err"
        with open(errpath, "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    text=True, cwd=ROOT)
            try:
                line = proc.stdout.readline().split()
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            log = err.read()
        errpath.unlink()
        if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{log[-2000:]}")
        cpus.append(float(line[1]))
        if importtime:
            imports.append(_import_times(log))
    return cpus, imports


def _import_times(log: str) -> dict:
    """Cumulative seconds per top-level package from -X importtime output."""
    out = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name in ("ffec", "sympy") and cumulative.strip().isdigit():
            out[name] = int(cumulative) / 1e6
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    OUT.mkdir(parents=True, exist_ok=True)
    if args.probe:
        return probe(args)

    ffec = import_ffec()
    tracer = None
    if args.trace:
        _, imports = run_probes(args, IMPORT_PROBES, importtime=True)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    setup_cpu = [] if tracer else run_probes(args, SETUP_PROBES, importtime=False)[0]
    workdir = workdir_for(f"{args.workload}-{args.seed}")
    try:
        w = workloads.WORKLOADS[args.workload](ffec, args.seed, str(workdir))
        problems = list(w.setup_problems())
        cache0 = ffec.local._tate_local.cache_info()
        job_cpu, loop_wall, attempted, failed = 0.0, 0.0, 0, 0
        per_job, scaled, speed = [], [], Speed()
        before = speed.sample(PROBE_REF_S)
        start, longest, r = time.perf_counter(), 0.0, 0
        while r == 0 or time.perf_counter() - start + longest <= args.seconds:
            t_round = time.perf_counter()
            for job in w.jobs(r):
                attempted += 1
                t0, c0 = time.perf_counter(), cpu_s()
                try:
                    res = job.run()
                except Exception as exc:  # counted, reported, and the loop goes on
                    failed += 1
                    problems.append(f"job failed: {job.label}: {exc!r}")
                    print(traceback.format_exc(), file=sys.stderr)
                    continue
                finally:
                    per_job.append(cpu_s() - c0)
                    job_cpu += per_job[-1]
                    loop_wall += time.perf_counter() - t0
                    after = speed.sample(REF_SHARE * per_job[-1])
                    scaled.append(2 * per_job[-1] / (before + after))
                    before = after
                problems += job.check(res)
            longest = max(longest, time.perf_counter() - t_round)
            r += 1
        cache1 = ffec.local._tate_local.cache_info()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = attempted - failed
    slow = speed.slowdown
    print(f"{args.workload} seed {args.seed}: {r} rounds, {attempted} jobs, {failed} failed, "
          f"{job_cpu:.2f} CPU s and {loop_wall:.2f} wall s in the jobs, "
          f"{done / job_cpu:.4f} jobs per CPU s; reference work ran {slow:.3f}x nominal",
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_cpu), "s"),
            "jobs_per_ref_s": (done * slow / job_cpu, "1/s"),
            "job_p50_ref_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, {
            "import_ffec_s": statistics.median(x.get("ffec", 0.0) for x in imports),
            "import_sympy_s": statistics.median(x.get("sympy", 0.0) for x in imports),
            "emit_bytes": w.emitted,
            "tate_cache": (cache1.hits - cache0.hits, cache1.misses - cache0.misses),
        })
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
