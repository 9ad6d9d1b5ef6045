"""The benchmark's workloads: generated configs, output checks and path counts.

Every workload uses modes_x=8, nodes_y=24, dt=0.0025 and t_final=0.5, so a
path is 200 Euler-Maruyama steps.  They differ in the command, the basis
size and the number of paths per call into the kernel:

* ``verify_mc``: ``slipflow verify`` at n=16 with 200 paths plus 24
  common-noise stability pairs.  Per-path kernel overhead dominates, so path
  batching shows here and assembly work does not; it is the only workload
  that runs all five certifiers.
* ``wide_basis``: ``slipflow simulate`` at n=128 with 16 paths.  Operator
  assembly dominates set-up and the dense n^3 convection contraction
  dominates stepping; operator storage moves peak memory.
* ``optimize_crn``: ``slipflow optimize`` at n=16 with noise on, a 4-path
  seed bank and a budget of 80 cost evaluations.  Fixed costs per
  ``estimate_cost`` call matter; a change that speeds wide batches but
  slows narrow ones shows here.

The workload seed enters only the generated config (noise and initial
condition seeds) and the ``--seed`` seed-bank start.  ``tiny=True`` shrinks
every size so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BANK_STRIDE = 1000  # seed-bank start = seed * BANK_STRIDE


# workload name -> slipflow command
WORKLOADS = {"verify_mc": "verify", "wide_basis": "simulate", "optimize_crn": "optimize"}

# workload name -> the speed.KERNELS entry whose speed converts its times to
# reference seconds: the kind of work most of the workload's time goes to
REFERENCE = {"verify_mc": "small", "wide_basis": "small+stream", "optimize_crn": "small"}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The run configuration of a workload for one seed."""
    if name not in WORKLOADS:
        raise KeyError(name)
    cfg = {
        "domain": {"modes_x": 3 if tiny else 8, "nodes_y": 16 if tiny else 24,
                   "friction_alpha": 1.0, "viscosity": 0.5},
        "time": {"t_final": 0.05 if tiny else 0.5, "dt": 0.0025},
        "noise": {"seed": seed},
        "initial": {"seed": seed},
        "control": {"n_modes": 2, "theta": [0.3, 0.2]},
        "basis_size": 8 if tiny else 16,
    }
    if name == "verify_mc":
        paths = 6 if tiny else 200
        cfg["monte_carlo"] = {"paths": paths}
        cfg["verify"] = {"paths": paths, "stability_paths": 3 if tiny else 24}
    elif name == "wide_basis":
        cfg["basis_size"] = 12 if tiny else 128
        cfg["monte_carlo"] = {"paths": 3 if tiny else 16}
        cfg["simulate"] = {"save_paths": 2}
    else:
        # step_min far below any step the budget can reach, so every seed
        # spends the whole budget and runs do the same amount of work
        cfg["optimize"] = {"budget": 6 if tiny else 80, "paths": 3 if tiny else 4,
                           "noise_on": True, "step_min": 1e-12}
    return cfg


def cli_args(name: str, config_path: Path, out: Path, seed: int) -> list:
    return [WORKLOADS[name], "--config", str(config_path), "--out", str(out),
            "--seed", str(seed * BANK_STRIDE), "--threads", "1"]


# -- output checks -------------------------------------------------------------


class CheckError(Exception):
    """An invocation's artifacts are missing, malformed or wrong."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckError(what)


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def _csv_rows(path: Path) -> list:
    try:
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    _require(len(rows) >= 2, f"{path.name} has no data rows")
    try:
        [float(v) for r in rows[1:] for v in r]
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    return rows


def _finite(*vals) -> bool:
    return all(math.isfinite(float(v)) for v in vals)


def check_outputs(name: str, cfg: dict, out: Path) -> int:
    """Check one invocation's artifacts; return the paths it simulated.

    The path count is the one the config and the artifacts imply.  Raises
    CheckError on any failed check.
    """
    if name == "verify_mc":
        summary = _load_json(out / "verify_summary.json")
        _require(summary.get("all_finite") is True, "verify: all_finite is not true")
        _require(summary.get("holder_chain_exact") is True,
                 "verify: holder_chain_exact is not true")
        for rep in ("second_moment", "fourth_moment", "wellposed_cost", "stability"):
            r = _load_json(out / f"report_{rep}.json")
            _require(_finite(r["fitted_c"], r["ci_low"], r["ci_high"]),
                     f"verify: {rep} constant is not finite")
        paths = summary["paths"]
        _require(paths == cfg["verify"]["paths"], "verify: path count differs from config")
        return paths + 2 * min(cfg["verify"]["stability_paths"], paths)
    if name == "wide_basis":
        summary = _load_json(out / "summary.json")
        _require(summary.get("blowups") == 0, "simulate: some paths blew up")
        _require(_finite(summary["mean_final_u_sq"], summary["mean_sup_u_sq"],
                         *summary["ci_final_u_sq"]), "simulate: summary is not finite")
        paths = summary["paths"]
        _require(paths == cfg["monte_carlo"]["paths"], "simulate: path count differs")
        _require(len(_csv_rows(out / "summary.csv")) == paths + 1,
                 "simulate: summary.csv row count differs")
        for i in range(cfg["simulate"]["save_paths"]):
            _csv_rows(out / f"traj_{i:03d}.csv")
        return paths
    hist = _load_json(out / "history.json")
    costs = [it["cost"] for it in hist["iterates"]]
    _require(len(costs) >= 2 and _finite(*costs), "optimize: too few or nonfinite costs")
    _require(all(b <= a for a, b in zip(costs, costs[1:])),
             "optimize: accepted costs increase")
    _require(costs[-1] < costs[0], "optimize: last cost is not below the first")
    _require(len(_csv_rows(out / "history.csv")) == len(costs) + 1,
             "optimize: history.csv row count differs")
    _load_json(out / "best_control.json")
    try:
        with np.load(out / "target.npz") as data:
            _require(np.isfinite(data["beta_series"]).all(), "optimize: target not finite")
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"target.npz: {exc}") from exc
    return hist["evaluations"] * cfg["optimize"]["paths"]


def artifact_digest(out: Path) -> dict:
    """File name to bytes of every artifact, for the rerun identity check."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


# -- reference oracle ------------------------------------------------------------


def oracle_error(sim, cfg_obj, seed: int) -> float:
    """Relative max deviation of the kernel from the step_em reference.

    Simulates one path with the workload's control and keeps its Wiener
    increments, then integrates the same increments, operators and control
    series with ``dynamics.step_em``.  The path goes through
    ``Simulator.run_many``, the entry point every workflow uses.
    """
    from slipflow.dynamics import DynamicsError, GalerkinState, step_em
    from slipflow.lifting import project_compatible

    ctrl = project_compatible(cfg_obj.control())
    u0 = cfg_obj.initial_coeffs()
    (tr,) = sim.run_many([seed * BANK_STRIDE], ctrl=ctrl, u0=u0, keep_wiener=True)
    _require(not tr.blown_up and tr.wiener is not None, "oracle: kernel path blew up")
    state = GalerkinState(t=0.0, beta=np.asarray(u0, float).copy())
    try:
        for ell in range(sim.n_steps):
            gamma, gdot = ctrl.interp(float(sim.times[ell]))
            state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, sim.noise, sim.nu,
                            gamma, gdot, include_nonlinear=sim.include_nonlinear)
    except DynamicsError as exc:
        raise CheckError(f"oracle: step_em failed: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(state.beta))))
    return float(np.max(np.abs(tr.beta_final - state.beta))) / scale
