"""Benchmark of ``equicoh``: one workload per run, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program measured is ``src/`` there.
A user runs one job at a time and waits for its exact answer, so the load is
a closed loop with one client: each job is a fresh single-threaded process
(``job.py``) started after the previous one ended.  Another job starts
while, at the length of the last one, it would end less than half a job
after ``--seconds``; so a run lasts ``--seconds`` on average, and a job
longer than half of that still gives two samples.

With ``--trace 0`` the run also starts set-up-only processes: a few before
the first job, one before each job and a few after the last, so set-up
samples spread over the run.  It reports the end-to-end metrics of
BENCHMARK.json:

* ``solve_s``: median job time from ready inputs to a checked answer;
* ``setup_s``: median time from process start to ``equicoh`` imported and
  the inputs built, over every process of the run;
* ``peak_rss_mb``: median peak resident memory of a job process.

Both times are scaled to the reference pace of ``pace.py``, which the job
samples while it sets up and while it solves; the table also shows them
unscaled, with the paces.

A job fails when it raises, exits non-zero, reports ``agrees: false``, or
its output digest differs from ``reference.json`` or from an earlier job of
the same run.  A failure does not stop the run; ``fail_frac`` is failed over
attempted processes.  With ``--trace 1`` every job records spans (see
``tracing.py``) and the run reports the per-layer metrics of BENCHMARK.json
instead.  The last line of standard output is one JSON object; the lines
before it are a table for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")

# Set-up-only processes before the first job, and again after the last.
PROBES = 3
CHILD_LIMIT_S = 170  # no process of a run outlives this many seconds

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # The seed also fixes string hashing, so set and dict orders vary with
    # the seed, never within a run.
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def spawn(root: str, name: str, seed: int, mode: str, env: dict,
          timeout: float, overrides=None) -> dict:
    """Run one job process to its end and return its record."""
    spawned = _now()
    cmd = [sys.executable, JOB, name, str(seed), mode, repr(spawned)]
    if overrides is not None:
        cmd.append(json.dumps(overrides))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s",
                "wall_s": _now() - spawned}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"mode": mode, "error": f"no result (exit {proc.returncode}): "
                                      f"{proc.stderr.strip()[-400:]}"}
    if proc.returncode != 0 and "error" not in rec:
        rec["error"] = f"exit code {proc.returncode}"
    rec["wall_s"] = _now() - spawned
    return rec


def judge(rec: dict, reference, digests: set) -> str:
    """Why a job failed, or '' when it did not."""
    if "error" in rec:
        return rec["error"].strip().splitlines()[-1]
    if rec["mode"] == "probe":
        return ""
    if not rec.get("agrees"):
        return f"agrees: false ({rec.get('detail', '')})"
    if reference is not None and rec["digest"] != reference:
        return f"output digest {rec['digest']} differs from the reference"
    if digests and rec["digest"] not in digests:
        return "output digest differs from an earlier job of this run"
    digests.add(rec["digest"])
    return ""


def run_jobs(root: str, name: str, seed: int, seconds: float, trace: bool,
             reference, overrides=None) -> list:
    """All processes of one run, each judged: [(record, failure), ...]."""
    env = _child_env(seed)
    start = _now()
    records, digests = [], set()

    def one(mode):
        rec = spawn(root, name, seed, mode, env,
                    CHILD_LIMIT_S - (_now() - start), overrides)
        records.append((rec, judge(rec, reference, digests)))
        return rec

    if not trace:
        one("probe")   # warm-up: compiles bytecode, fills the page cache
        records.pop()
        for _ in range(PROBES):
            one("probe")
    while True:
        if not trace:
            one("probe")
        rec = one("trace" if trace else "solve")
        if _now() + rec["wall_s"] / 2 > start + seconds \
                or _now() - start > CHILD_LIMIT_S / 2:
            break
    if not trace:
        for _ in range(PROBES):
            one("probe")
    return records


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(records: list, trace: bool) -> dict:
    """Metric name -> list of samples."""
    jobs = [r for r, _ in records if r["mode"] != "probe" and "solve_s" in r]
    if trace:
        samples = {}
        for r in jobs:
            for key, value in r["layers"].items():
                samples.setdefault(key, []).append(value)
        return samples
    setups = [r for r, _ in records if "setup_s" in r]
    return {"solve_s": [r["solve_s"] for r in jobs],
            "setup_s": [r["setup_s"] for r in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in jobs],
            "solve_wall_s": [r["solve_wall_s"] for r in jobs],
            "solve_pace_us": [r["solve_pace_s"] * 1e6 for r in jobs],
            "setup_wall_s": [r["setup_wall_s"] for r in setups],
            "setup_pace_us": [r["setup_pace_s"] * 1e6 for r in setups]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: the program's checks are "
              "assert statements, so -O measures a different program",
              file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "equicoh", "__init__.py")):
        print(f"no src/equicoh under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["digests"][args.workload]

    records = run_jobs(root, args.workload, args.seed, args.seconds,
                       bool(args.trace), reference)
    samples = summarize(records, bool(args.trace))
    failures = [why for _, why in records if why]
    attempted = len(records)

    seed_use = ("seeds the inputs" if args.workload in workloads.SEEDED
                else "inputs fixed; the seed sets only PYTHONHASHSEED")
    print(f"# workload {args.workload}, seed {args.seed} ({seed_use}), "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, one client")
    print(f"# {'metric':<40} {'unit':>6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}")
    metrics = {}
    # Unscaled times and the paces that scale them, for people only.
    shown = [] if args.trace else [
        ("solve_wall_s", "s"), ("solve_pace_us", "us"),
        ("setup_wall_s", "s"), ("setup_pace_us", "us")]
    for name, unit in [(m["name"], m["unit"]) for m in declared] + shown:
        values = samples.get(name, [])
        if not values:
            continue
        med = statistics.median(values)
        q1, q3 = _quartiles(values)
        if (name, unit) not in shown:
            metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<40} {unit:>6} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {len(values):>3}")
    print(f"  {'fail_frac':<40} {'1':>6} {len(failures) / attempted:>12.6g}"
          f" {'':>12} {'':>12} {attempted:>3}")
    for why in failures:
        print(f"# failed: {why}")
    correct = not failures and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
