"""Fast tests of the benchmark itself, on small versions of each workload.

    PYTHONPATH=src python -m pytest -q bench
"""

import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "weil-check": {"argv": ["example", "weil", "--sym-cap", "2"]},
    "cartan-slices": {"argv": ["example", "poiss1", "--slices", "0..2",
                               "--sym-cap", "2"]},
    "ss-pages": {"weil_sym_cap": 1},
    "poisson-identities": {"samples": 4},
}


def small_state(name: str, seed: int = 0) -> dict:
    spec = workloads.load_spec(name)
    spec.update(SMALL[name])
    return workloads.setup(name, spec, seed)


def snapshot() -> dict:
    """Identity of every attribute of every module and class tracing wraps."""
    owners = tracing._modules()
    for layer, cls_name, _, _ in tracing.METHODS:
        owners.append(getattr(sys.modules[f"equicoh.{layer}"], cls_name))
    return {(owner.__name__, key): id(value)
            for owner in owners for key, value in vars(owner).items()}


def traced_solve(name: str, state: dict) -> tuple:
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        outcome = tr.wrap(lambda: workloads.solve(name, state),
                          tracing.ROOT)()
    finally:
        tracing.uninstall(restore)
    return tr, outcome


def test_inputs_are_the_named_structures():
    from equicoh import lie, poisson
    spec = workloads.load_spec("poisson-identities")
    got = dict(workloads.setup("poisson-identities", spec, 0)["structures"])
    assert got == {
        "linear-su2": poisson.linear_poisson(lie.su2()),
        "linear-heisenberg": poisson.linear_poisson(lie.heisenberg()),
        "symplectic-2": poisson.symplectic_poisson(2),
        "symplectic-3": poisson.symplectic_poisson(3)}
    spec = workloads.load_spec("ss-pages")
    assert workloads.setup("ss-pages", spec, 0)["algebra"] == lie.su2()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_keeps_answers_and_is_removed(name):
    state = small_state(name)
    plain = workloads.solve(name, state)
    assert plain.agrees, plain.detail
    before = snapshot()
    tr, traced = traced_solve(name, state)
    assert snapshot() == before
    assert traced.agrees
    assert (workloads.canonical_digest(traced.output)
            == workloads.canonical_digest(plain.output))
    assert tr.totals()[tracing.ROOT][0] == 1
    metrics = tracing.layer_metrics(tr)
    busiest = max(tracing.LAYERS, key=lambda la: metrics[f"{la}.self_s"])
    assert busiest in {"weil-check": {"gdiff", "core"},
                       "cartan-slices": {"ratlin", "core"},
                       "ss-pages": {"ratlin", "core"},
                       "poisson-identities": {"poly", "poisson"}}[name]


def test_span_file_gives_the_same_self_times(tmp_path):
    tr, _ = traced_solve("cartan-slices", small_state("cartan-slices"))
    prefix = str(tmp_path / "spans")
    tracing.write_spans(tr, prefix)
    names, start, end, name, parent = tracing.read_spans(prefix)
    assert len(start) == len(tr.start)
    for i, p in enumerate(parent):
        if p >= 0:
            assert start[p] <= start[i] <= end[i] <= end[p]
    from_file = tracing.self_times(names, start, end, name, parent)
    for span, (_, self_s) in tr.totals().items():
        assert from_file[span] == pytest.approx(self_s, abs=1e-6)


def test_count_metrics_repeat_exactly():
    state = small_state("ss-pages")

    def counts():
        metrics = tracing.layer_metrics(traced_solve("ss-pages", state)[0])
        return {k: v for k, v in metrics.items() if not k.endswith("_s")}

    first = counts()
    assert first["ratlin.rref.calls"] > 0 and first["spectral.cells"] > 0
    assert counts() == first


def test_every_declared_layer_metric_is_reported():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    tr, _ = traced_solve("cartan-slices", small_state("cartan-slices"))
    reported = set(tracing.layer_metrics(tr)) | {"trace.solve_s"}
    assert declared <= reported


def test_wrong_reference_digest_is_a_failure():
    name = "weil-check"
    right = workloads.canonical_digest(
        workloads.solve(name, small_state(name)).output)
    records = run.run_jobs(ROOT, name, 0, 0, False, "0" * 64, SMALL[name])
    jobs = [(rec, why) for rec, why in records if rec["mode"] == "solve"]
    assert len(jobs) == 1
    rec, why = jobs[0]
    assert "differs from the reference" in why
    assert rec["digest"] == right
    assert run.judge(rec, right, set()) == ""
    assert all(not why for rec, why in records if rec["mode"] == "probe")


def test_refuses_optimized_python_and_a_missing_program():
    cmd = [sys.executable, "-O", os.path.join(HERE, "run.py"), "--workload",
           "weil-check", "--seed", "0", "--seconds", "1"]
    for argv, cwd in ((cmd, ROOT), ([sys.executable] + cmd[2:], HERE)):
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


def test_pace_sampler_is_subtracted_and_removed():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler(0.02) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent < 0.3
    assert min(sampler.samples) <= sampler.pace() <= max(sampler.samples)
    assert pace.scale(3.0, 2 * pace.REF_CHUNK_S) == 1.5
