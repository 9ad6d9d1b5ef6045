"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from speed import KERNELS, SpeedSampler
from tracer import Tracer
from workloads import (REFERENCE, WORKLOADS, CheckError, check_outputs, make_config,
                       oracle_error)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["failed"] == 0 and res["attempted"] >= 3
    return res


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert REFERENCE.keys() == WORKLOADS.keys() and set(REFERENCE.values()) <= KERNELS.keys()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0",
                 "--tiny")
    res = result_of(proc)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    assert "fail_frac 0 (0 of" in proc.stdout
    (env_line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("env ")]
    env = json.loads(env_line[4:])
    assert "numba_importable" in env
    # the pool size is fixed before numpy is first imported
    assert env["blas_threads_in_use"] in (None, env["blas_threads_requested"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_layer_metric_and_counts_agree(workload):
    proc = bench("--workload", workload, "--seed", "4", "--seconds", "0.5", "--trace", "1",
                 "--tiny")
    res = result_of(proc)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.PER_LAYER
    assert all(math.isfinite(v) for v in metrics.values())
    cfg = make_config(workload, 4, tiny=True)
    if workload == "verify_mc":
        expect = cfg["verify"]["paths"] + 2 * cfg["verify"]["stability_paths"]
        assert metrics["diagnostics.certify_stability.s"] > 0
    elif workload == "wide_basis":
        expect = cfg["monte_carlo"]["paths"]
    else:
        expect = cfg["optimize"]["budget"] * cfg["optimize"]["paths"]
        assert metrics["control.estimate_cost.calls"] == cfg["optimize"]["budget"]
        assert 0 < metrics["control.optimize.accepted_frac"] <= 1
    assert metrics["dynamics.paths_requested"] == expect
    assert metrics["dynamics.paths_blown_up"] == 0
    assert metrics["dynamics.assemble_operators.s"] > 0
    assert metrics["cli.write.s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify_mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_and_records_absent_names():
    from slipflow import cli, control, lifting

    orig = lifting.project_compatible
    tracer = Tracer({
        "lifting.project_compatible": "slipflow.lifting:project_compatible",
        "gone": "slipflow.lifting:no_such_function",
        "gone.method": "slipflow.dynamics:Simulator.no_such_method",
    })
    tracer.install()
    try:
        assert cli.project_compatible is not orig
        assert control.project_compatible is cli.project_compatible
    finally:
        tracer.uninstall()
    assert cli.project_compatible is orig and control.project_compatible is orig
    assert sorted(tracer.absent) == ["gone", "gone.method"]


def test_self_time_excludes_children():
    tracer = Tracer({})
    tracer.span("outer", lambda: tracer.span("inner", lambda: sum(range(10000))))
    dur, own = tracer.durations(), tracer.self_times()
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert own[0] == pytest.approx(dur[0] - dur[1])


def test_tail_has_ten_samples_above():
    vals = list(range(100))
    pct, val = run.tail(vals)
    assert sum(v > val for v in vals) == 10 and pct == 90.0


def test_oracle_catches_a_wrong_kernel(tmp_path, monkeypatch):
    from slipflow.dynamics import Simulator

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config("verify_mc", 5, tiny=True)))
    cfg, sim = run.setup_once(cfg_path)
    assert oracle_error(sim, cfg, 5) <= run.ORACLE_RTOL

    real = Simulator.run_many

    def off_by_a_little(self, seeds, **kw):
        out = real(self, seeds, **kw)
        for tr in out:
            tr.beta_final = tr.beta_final * (1 + 1e-6)
        return out

    monkeypatch.setattr(Simulator, "run_many", off_by_a_little)
    assert oracle_error(sim, cfg, 5) > run.ORACLE_RTOL


def test_optimize_check_rejects_rising_costs(tmp_path):
    cfg = make_config("optimize_crn", 1, tiny=True)
    (tmp_path / "history.json").write_text(json.dumps(
        {"evaluations": 3, "iterates": [{"cost": 1.0}, {"cost": 2.0}]}))
    with pytest.raises(CheckError, match="increase"):
        check_outputs("optimize_crn", cfg, tmp_path)


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_speed_sampler_samples_while_started_and_restores_the_handler(kernel):
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(kernel)
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * sampler.period:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    n = len(sampler.samples)
    assert n >= 5 and all(speed > 0 for _, speed in sampler.samples)
    inside = [s for t, s in sampler.samples if t0 <= t <= t1]
    assert sampler.factor(t0, t1) == pytest.approx(sum(inside) / len(inside))
    # no sample in the window: the mean over all of them
    assert sampler.factor(t1 + 1, t1 + 2) == pytest.approx(
        sum(s for _, s in sampler.samples) / n)
