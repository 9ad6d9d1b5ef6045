import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from slipflow.cli import _json_dump
from slipflow.control import (
    AdmissibleSpec,
    ControlError,
    ParamMap,
    Target,
    admissible_norm,
    estimate_cost,
    exponential_integrability_bound,
    make_target,
    optimize,
    penalty_term,
    project_admissible,
)
from slipflow.dynamics import Simulator, build_noise, make_initial_coeffs
from slipflow.lifting import BoundaryControl, compatibility_residual


@pytest.fixture(scope="module")
def aspec():
    return AdmissibleSpec(radius=20.0, lambda1=1e-4, lambda2=1e-4)


@pytest.fixture(scope="module")
def pmap():
    return ParamMap(
        length_x=2 * np.pi,
        n_modes=2,
        t_grid=(0.0, 0.5),
        slots=(("a", "bottom", 1, "re"), ("b", "top", 2, "re")),
    )


@pytest.fixture(scope="module")
def sim_det(basis_small, cache_small):
    noise = build_noise(basis_small.size, 2, 0.0, 1.0, 7, [0.0, 0.0])
    return Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)


@pytest.fixture(scope="module")
def sim_noisy(basis_small, cache_small):
    noise = build_noise(basis_small.size, 2, 0.0, 1.0, 7, [0.1, 0.1])
    return Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)


# -- admissible set --------------------------------------------------------------


def test_admissible_spec_guards():
    with pytest.raises(ControlError):
        AdmissibleSpec(radius=0.0)
    with pytest.raises(ControlError):
        AdmissibleSpec(radius=1.0, lambda1=0.0)


def test_project_admissible_interior(make_control, aspec):
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.05, seed=40)
    out = project_admissible(ctrl, aspec)
    assert np.array_equal(out.gamma, ctrl.gamma)


def test_project_admissible_radial(make_control):
    spec = AdmissibleSpec(radius=1.0)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 1.0, seed=41)
    ctrl.gamma *= 2.0 / admissible_norm(ctrl)  # norm exactly 2R
    out = project_admissible(ctrl, spec)
    assert abs(admissible_norm(out) - 1.0) < 1e-9


def test_project_admissible_idempotent(make_control):
    spec = AdmissibleSpec(radius=0.5)
    for seed in range(100):
        ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 1.0, seed=500 + seed)
        once = project_admissible(ctrl, spec)
        twice = project_admissible(once, spec)
        assert np.abs(twice.gamma - once.gamma).max() < 1e-12
        assert compatibility_residual(once) < 1e-14
        assert admissible_norm(once) <= spec.radius * (1 + 1e-12)


def test_exponential_integrability_bound(make_control):
    spec = AdmissibleSpec(radius=0.5)
    ctrl = project_admissible(
        make_control(2 * np.pi, 2, [0.0, 0.5], 1.0, seed=42), spec
    )
    val = exponential_integrability_bound(ctrl, 1.0)
    assert np.isfinite(val)
    assert val <= np.exp(4.0 * spec.radius**2) * (1 + 1e-9)


# -- cost ------------------------------------------------------------------------


def test_penalty_closed_form(aspec):
    # static single cosine mode on one wall: int a^2 over the wall = A^2 Lx/2
    lx = 2 * np.pi
    t_end = 0.5
    amp = 0.5
    ctrl = BoundaryControl.zeros(lx, 2, [0.0, t_end])
    ctrl.gamma[:, ctrl.dof_index("a", "bottom", 1, "re")] = amp / 2.0  # a = amp cos x
    pen = penalty_term(ctrl, aspec)
    expected = 0.5 * aspec.lambda1 * t_end * amp**2 * lx / 2.0
    assert abs(pen - expected) < 1e-12 * max(1.0, expected)


def test_penalty_piecewise_linear_exact(aspec, make_control):
    # Simpson per segment is exact for the squared linear interpolant:
    # refining the grid of the same control leaves the penalty unchanged
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.25, 0.5], 0.4, seed=43)
    fine_t = np.linspace(0.0, 0.5, 9)
    fine = BoundaryControl.zeros(2 * np.pi, 2, fine_t)
    for ell, t in enumerate(fine_t):
        fine.gamma[ell], _ = ctrl.interp(float(t))
    assert abs(penalty_term(ctrl, aspec) - penalty_term(fine, aspec)) < 1e-12


def test_cost_self_target(sim_det, pmap, aspec):
    theta = np.array([0.4, 0.3])
    ctrl = project_admissible(pmap.control(theta), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl, sim_det, u0=u0)
    rep = estimate_cost(ctrl, target, sim_det, aspec, [0], u0=u0, noise_on=False)
    assert rep.tracking == 0.0
    assert rep.total == rep.penalty
    assert rep.total == rep.tracking + rep.penalty
    assert rep.total >= 0.0


def test_cost_zero_everything(sim_det, aspec):
    target = Target.zero(sim_det)
    rep = estimate_cost(None, target, sim_det, aspec, [0], u0=None, noise_on=False)
    assert rep.total == 0.0


def test_cost_additivity_random(sim_noisy, pmap, aspec, make_control):
    ctrl = project_admissible(make_control(2 * np.pi, 2, [0.0, 0.5], 0.2, seed=44), aspec)
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = Target.zero(sim_noisy)
    rep = estimate_cost(ctrl, target, sim_noisy, aspec, range(6), u0=u0)
    assert rep.total == rep.tracking + rep.penalty
    assert rep.total >= 0.0
    assert rep.ci_half_width >= 0.0
    assert rep.paths_used == 6


def test_cost_empty_seed_bank(sim_det, aspec):
    with pytest.raises(ControlError):
        estimate_cost(None, Target.zero(sim_det), sim_det, aspec, [])


# -- target ----------------------------------------------------------------------


def test_target_zero_from_zero_data(sim_det):
    target = make_target(None, sim_det, u0=None)
    assert np.abs(target.beta_series).max() == 0.0


def test_target_roundtrip_bitwise(tmp_path, sim_det, pmap, aspec):
    ctrl = project_admissible(pmap.control(np.array([0.4, 0.3])), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl, sim_det, u0=u0, meta={"tag": "test"})
    p1 = tmp_path / "t1.npz"
    p2 = tmp_path / "t2.npz"
    target.save(p1)
    again = Target.load(p1)
    assert np.array_equal(again.beta_series, target.beta_series)
    assert np.array_equal(again.gamma_series, target.gamma_series)
    assert again.meta == target.meta
    again.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- optimizer -------------------------------------------------------------------


def test_optimize_zero_budget(sim_det, pmap, aspec):
    target = Target.zero(sim_det)
    best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=0)
    assert np.abs(best.gamma).max() == 0.0
    assert hist.evaluations == 0
    assert hist.iterates == []


def test_optimize_fixed_point_at_optimum(sim_det, pmap, aspec):
    theta = np.array([0.4, 0.3])
    ctrl = project_admissible(pmap.control(theta), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl, sim_det, u0=u0)
    best, hist = optimize(theta, pmap, aspec, target, sim_det, [0], budget=12,
                          u0=u0, noise_on=False, step0=0.05)
    # no candidate beats the optimum beyond penalty slack: history stays flat
    costs = hist.costs
    assert costs[-1] <= costs[0] * (1 + 1e-12)
    assert len(costs) <= 3


def test_optimize_recovery_quick(sim_det, pmap, aspec):
    theta_star = np.array([0.5, 0.6])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_det, u0=u0)
    best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=90,
                          u0=u0, noise_on=False, step0=0.25, step_min=1e-5)
    costs = hist.costs
    assert costs[-1] <= 0.1 * costs[0]
    assert (np.diff(costs) <= 0).all()
    theta = pmap.read(best)
    assert np.abs(theta - theta_star).max() / np.abs(theta_star).max() < 0.1
    # every accepted iterate admissible
    for it in hist.iterates:
        assert it["admissible_norm"] <= aspec.radius * (1 + 1e-12)
        assert np.isfinite(it["exp_integrability"])


def test_optimize_spsa_descends(sim_det, pmap, aspec):
    theta_star = np.array([0.5, 0.6])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_det, u0=u0)
    best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=120,
                          method="spsa", u0=u0, noise_on=False, step0=0.3)
    costs = hist.costs
    assert (np.diff(costs) <= 0).all()
    assert costs[-1] < costs[0]


def test_optimize_crn_deterministic(sim_noisy, pmap, aspec):
    theta_star = np.array([0.5, 0.6])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_noisy, u0=u0)
    runs = []
    for _ in range(2):
        best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_noisy,
                              list(range(4)), budget=30, u0=u0, step0=0.25)
        runs.append((pmap.read(best), hist.costs.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert (np.diff(runs[0][1]) <= 0).all()


def test_optimize_unknown_method(sim_det, pmap, aspec):
    with pytest.raises(ControlError):
        optimize(np.zeros(2), pmap, aspec, Target.zero(sim_det), sim_det, [0],
                 budget=5, method="genetic")


def test_history_serialization(tmp_path, sim_det, pmap, aspec):
    theta_star = np.array([0.4, 0.3])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_det, u0=u0)
    _, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=20,
                       u0=u0, noise_on=False)
    jpath = tmp_path / "hist.json"
    _json_dump(jpath, asdict(hist), SimpleNamespace(config_hash="cafe"))
    data = json.loads(jpath.read_text())
    assert data["config_hash"] == "cafe"
    assert len(data["iterates"]) == len(hist.iterates)
