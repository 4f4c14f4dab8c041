"""The bglb benchmark.

Usage, from the root of a bglb checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh process (perfbench/child.py) that builds the
workload's instances and runs `bglb verify` on them, so module caches start
cold as for a command-line user.  Every written report is checked here,
independently of bglb (perfbench/check.py).

--trace 0 runs samples until --seconds are used (at least one), with a
block of set-up-only processes before the first sample and after each
sample, and reports the end-to-end metrics as medians.
--trace 1 runs one untraced and one traced sample and reports the
per-layer metrics, the tracing overhead among them; the spans are kept in
.perfbench_work/spans_<workload>.json.

A context line (cores, versions, thread cap, commit, seed, sample count)
is printed before the result, which is the last line of standard output:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import check
import tracer
from workloads import WORKLOADS

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK_ROOT = ".perfbench_work"
# set-up-only processes run in blocks of this size before the first sample
# and after every sample, on top of each sample's own set-up, so that the
# set-up median spans the whole run rather than one burst of a few seconds
SETUP_BLOCK = 8
# the whole run must end well inside the 180 s a run is allowed
RUN_BUDGET_S = 170.0


class Sampler:
    """Starts sample processes for one run and tallies their checked rows."""

    def __init__(self, workload, seed: int, root: str):
        self.w = workload
        self.seeds = workload.draw_seeds(seed)
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0
        self.attempted = self.decided = self.failed = 0
        self.problems: list[str] = []
        self.context: dict = {}

    def _spawn(self, setup_only: bool, trace: bool) -> tuple[dict | None, str]:
        self.count += 1
        work = os.path.abspath(os.path.join(self.root, "p%d" % self.count))
        os.makedirs(work)
        plan = {"workdir": work, "instances": self.w.instances, "checks": self.w.checks,
                "seeds": self.seeds, "setup_only": setup_only, "trace": trace}
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, plan_path], stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            self.problems.append("sample process timed out")
            return None, work
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            self.problems.append("sample process exited with %d" % code)
            return None, work
        with open(os.path.join(work, "result.json")) as fh:
            res = json.load(fh)
        res["setup_s"] = res["t_ready"] - t_spawn
        if "t_done" in res:
            res["wall_s"] = res["t_done"] - res["t_ready"]
        self.context = {k: res[k] for k in ("cores", "python", "numpy", "threads")}
        return res, work

    def setup(self) -> float | None:
        res, work = self._spawn(setup_only=True, trace=False)
        shutil.rmtree(work, ignore_errors=True)
        return None if res is None else res["setup_s"]

    def setups(self, n: int) -> list[float]:
        return [t for t in (self.setup() for _ in range(n)) if t is not None]

    def sample(self, trace: bool = False) -> tuple[dict | None, str]:
        """One verify sample with its report checked; None if it wrote none."""
        res, work = self._spawn(setup_only=False, trace=trace)
        report = None
        instances = {}
        if res is not None:
            try:
                with open(os.path.join(work, "report.json")) as fh:
                    report = json.load(fh)
                for path in res["instances"]:
                    with open(os.path.join(work, path)) as fh:
                        instances[path.removesuffix(".json")] = json.load(fh)
            except (OSError, ValueError) as e:
                self.problems.append("unreadable output: %s" % e)
                report = None
        try:
            v = check.check_report(report, res and res.get("exit_code"), instances,
                                   self.w.checks.split(","), self.w.seed_rows)
        except (KeyError, TypeError, ValueError) as e:
            v = check.Verdict(self.w.seed_rows, 0, self.w.seed_rows, ["malformed report: %r" % e])
        self.attempted += v.attempted
        self.decided += v.decided
        self.failed += v.failed
        self.problems += v.problems
        return (res if report is not None else None), work

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(s: Sampler, seconds: float) -> tuple[dict, int]:
    s.setup()  # warm-up: the first process may still compile bytecode
    setups = s.setups(SETUP_BLOCK)
    walls, rss = [], []
    used = 0.0
    while True:
        start = time.monotonic()
        res, work = s.sample()
        used += time.monotonic() - start
        shutil.rmtree(work, ignore_errors=True)
        if res is None:
            break
        walls.append(res["wall_s"])
        setups.append(res["setup_s"])
        rss.append(res["peak_rss_mb"])
        setups += s.setups(SETUP_BLOCK)
        if used + walls[-1] > seconds or walls[-1] + 10 > s.time_left():
            break
    metrics = {
        "wall_s": (median(walls) if walls else 0.0, "s"),
        "setup_s": (median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (median(rss) if rss else 0.0, "MB"),
        "decided_share": (s.decided / s.attempted if s.attempted else 0.0, "ratio"),
    }
    return metrics, len(walls)


def measure_traced(s: Sampler) -> tuple[dict, int]:
    m = dict.fromkeys(tracer.PER_LAYER, 0.0)
    plain, work = s.sample()
    shutil.rmtree(work, ignore_errors=True)
    traced, work = s.sample(trace=True) if plain is not None else (None, work)
    if traced is not None:
        spans_path = os.path.join(WORK_ROOT, "spans_%s.json" % s.w.name)
        os.replace(os.path.join(work, "spans.json"), spans_path)
        m.update(tracer.layer_metrics(tracer.load_spans(spans_path)))
        m["process.cpu_s"] = plain["cpu_s"]
        m["trace.wall_s"] = traced["wall_s"]
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        share = m["trace.dominant_share"] = m[s.w.dominant + ".s"] / traced["wall_s"]
        print("perfbench: %s holds %.1f%% of traced wall time on %s, %s" % (
            s.w.dominant, 100 * share, s.w.name,
            "most of it as predicted" if share > 0.5 else "not most of it as predicted"),
            file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    units = tracer.PER_LAYER
    samples = (plain is not None) + (traced is not None)
    return {name: (m[name], units[name][0]) for name in units}, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bglb", "cli.py")):
        print("perfbench: src/bglb not found; run from the root of a bglb checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    root = os.path.join(WORK_ROOT, "run-%d" % os.getpid())
    os.makedirs(root)
    s = Sampler(workload, args.seed, root)
    try:
        metrics, samples = measure_traced(s) if args.trace else measure(s, args.seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for p in s.problems:
        print("perfbench: %s" % p, file=sys.stderr)
    print("perfbench: %d of %d rows decided; the first benchmarked commit decided %d of %d "
          "per sample" % (s.decided, s.attempted, workload.seed_decided, workload.seed_rows),
          file=sys.stderr)
    context = dict(s.context, commit=_commit(), workload=workload.name, seed=args.seed,
                   draw_seeds=s.seeds, samples=samples, trace=args.trace)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": samples > 0 and s.failed == 0 and not s.problems,
        "attempted": max(s.attempted, 1),
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
