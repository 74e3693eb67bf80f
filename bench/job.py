"""One benchmark job in a fresh process.

    python3 bench/job.py WORKLOAD SEED MODE SPAWNED_AT [OVERRIDES]

MODE is ``probe`` (set up, then exit), ``solve`` or ``trace`` (set up,
solve, check; ``trace`` also records spans).  The job samples the host pace
(``pace.Sampler``) while it sets up and, in ``solve`` mode, while it
solves, and reports each time both as measured and scaled to the reference
pace.  SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it
started this process; the clock is system-wide on Linux, so set-up time
includes interpreter start-up.  Run from the root of a checkout; ``src/``
there is the program measured.  OVERRIDES, a JSON object, replaces keys of
the workload's input file (the benchmark's tests use it for small sizes).
Prints one JSON object on its last line and exits 0, or 1 when the job
failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
# How often the host pace is sampled while setting up and while solving.
SETUP_INTERVAL_S = 0.005
SOLVE_INTERVAL_S = 0.02


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    out = {"mode": mode}
    try:
        if sys.flags.optimize:
            raise RuntimeError("refusing to run under python -O: the "
                               "program's checks are assert statements")
        src = os.path.join(os.getcwd(), "src")
        sys.path.insert(0, src)
        sys.path.insert(0, HERE)
        import pace
        with pace.Sampler(SETUP_INTERVAL_S) as sampler:
            import workloads
            import equicoh
            if not os.path.abspath(equicoh.__file__).startswith(src + os.sep):
                raise RuntimeError(f"imported equicoh from "
                                   f"{equicoh.__file__}, not from {src}")
            spec = workloads.load_spec(name)
            if len(argv) > 4:
                spec.update(json.loads(argv[4]))
            state = workloads.setup(name, spec, seed)
            wall = _now() - spawned - sampler.spent
        setup_pace = sampler.pace()
        out.update(setup_s=pace.scale(wall, setup_pace), setup_wall_s=wall,
                   setup_pace_s=setup_pace)
        if mode != "probe":
            out.update(_solve(workloads, name, state, mode == "trace"))
    except Exception:
        out["error"] = traceback.format_exc(limit=-3)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 1 if "error" in out else 0


def _solve(workloads, name: str, state: dict, traced: bool) -> dict:
    if not traced:
        import pace
        with pace.Sampler(SOLVE_INTERVAL_S) as sampler:
            t0 = time.perf_counter()
            outcome = workloads.solve(name, state)
            digest = workloads.canonical_digest(outcome.output)
            wall = time.perf_counter() - t0 - sampler.spent
        solve_pace = sampler.pace()
        return {"solve_s": pace.scale(wall, solve_pace), "solve_wall_s": wall,
                "solve_pace_s": solve_pace, "digest": digest,
                "agrees": outcome.agrees, "detail": outcome.detail}
    import tracing
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        root = tr.wrap(lambda: workloads.solve(name, state), tracing.ROOT)
        t0 = time.perf_counter()
        outcome = root()
        digest = workloads.canonical_digest(outcome.output)
        solve_s = time.perf_counter() - t0
    finally:
        tracing.uninstall(restore)
    tracing.write_spans(tr, os.path.join(".bench_trace", name))
    layers = tracing.layer_metrics(tr)
    layers["trace.solve_s"] = solve_s
    return {"solve_s": solve_s, "digest": digest, "agrees": outcome.agrees,
            "detail": outcome.detail, "layers": layers}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
