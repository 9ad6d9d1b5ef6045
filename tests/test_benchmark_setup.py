"""The set-up calls of the benchmark in perfbench/, kept working by tier 1.

perfbench's own tests are collected only by `python -m pytest perfbench`, so
a changed builder signature would otherwise show first when the benchmark
runs.  Each workload's tiny config is built into a simulator the
way `perfbench/run.py:setup_once` builds it, through the public `RunConfig`
builders, and the kernel is checked against the `step_em` reference with
the benchmark's own oracle.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from slipflow.config import load_config

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name, theta", [pytest.param(name, None, id=name)
                                         for name in sorted(workloads.WORKLOADS)]
                         + [pytest.param("verify_mc", [0.0, 0.0], id="verify_mc-control-free")])
def test_workload_setup_matches_reference(tmp_path, name, theta):
    # a control-free workload (theta all zero) runs the zero control
    cfg = workloads.make_config(name, 1, tiny=True)
    if theta is not None:
        cfg["control"]["theta"] = theta
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cfg = load_config(path)
    basis = cfg.basis()
    cache = cfg.lifting_cache(basis.grid)
    noise = cfg.noise()
    sim = cfg.simulator(basis, cache, noise)
    assert workloads.oracle_error(sim, cfg, 1) <= 1e-9


def test_workload_oracle_on_pseudospectral_path(tmp_path, monkeypatch):
    # the tiny configs all sit below N_PS; the benchmark's oracle runs
    # step_em through sim.ops beside a `Convection` simulator too, on the
    # simulator's own evaluator: neither builds the dense tensors
    from slipflow.dynamics import N_PS, Convection, DenseConvection

    def refuse(*args, **kw):
        raise AssertionError("a DenseConvection was built from N_PS on")

    monkeypatch.setattr(DenseConvection, "__init__", refuse)
    cfg = workloads.make_config("wide_basis", 1)
    cfg["basis_size"], cfg["time"]["t_final"] = N_PS, 0.01
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cfg = load_config(path)
    basis = cfg.basis()
    sim = cfg.simulator(basis, cfg.lifting_cache(basis.grid), cfg.noise())
    assert isinstance(sim.convection, Convection) and sim.convection is sim.ops.convection
    assert workloads.oracle_error(sim, cfg, 1) <= 1e-9


def _count(counts, paths):
    """Record the path count of a run_many result, the number perfbench's probe reads."""
    counts.append(len(paths))
    return paths


def test_optimize_counts_match_history(tmp_path, monkeypatch):
    # perfbench checks its traced counts against the artifacts: one
    # estimate_cost call per evaluation in history.json, and run_many paths
    # of one bank per evaluation; a change that bypasses either name would
    # otherwise fail only as the benchmark's outputs_incorrect.  Each poll is
    # one run_many call: two-scale polls of 4 dim candidates, the last cut to
    # the budget, the starting point riding the first one's call
    from slipflow import control
    from slipflow.cli import main
    from slipflow.dynamics import Simulator

    costs, counts = [], []
    estimate_cost, run_many = control.estimate_cost, Simulator.run_many
    monkeypatch.setattr(control, "estimate_cost",
                        lambda *a, **kw: costs.append(1) or estimate_cost(*a, **kw))
    monkeypatch.setattr(Simulator, "run_many",
                        lambda self, s, **kw: _count(counts, run_many(self, s, **kw)))
    cfg = workloads.make_config("optimize_crn", 1, tiny=True)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main(workloads.cli_args("optimize_crn", path, out, 1)) == 0
    evaluations = json.loads((out / "history.json").read_text())["evaluations"]
    assert len(costs) == evaluations == cfg["optimize"]["budget"]
    assert sum(counts) == evaluations * cfg["optimize"]["paths"]
    poll = 4 * len(cfg["control"]["theta"])
    assert len(counts) == -(-(evaluations - 1) // poll) == 1


def test_verify_counts_match_paths(tmp_path, monkeypatch):
    # perfbench's traced check_counts reads the run_many paths of verify as
    # paths + 2 min(stability_paths, paths): the bundle, then the stability
    # pair as one call of its seeds under two controls
    from slipflow.cli import main
    from slipflow.dynamics import Simulator

    counts, run_many = [], Simulator.run_many
    monkeypatch.setattr(Simulator, "run_many",
                        lambda self, s, **kw: _count(counts, run_many(self, s, **kw)))
    cfg = workloads.make_config("verify_mc", 1, tiny=True)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main(workloads.cli_args("verify_mc", path, out, 1)) == 0
    paths = cfg["verify"]["paths"]
    assert counts == [paths, 2 * min(cfg["verify"]["stability_paths"], paths)]
    assert sum(counts) == workloads.check_outputs("verify_mc", cfg, out)
