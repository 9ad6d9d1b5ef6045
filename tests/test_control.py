import json
from dataclasses import asdict
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from slipflow import control as ctl_mod
from slipflow.basis import build_eigenbasis
from slipflow.cli import _json_dump
from slipflow.control import (
    AdmissibleSpec,
    ControlError,
    CostReport,
    ParamMap,
    admissible_norm,
    estimate_cost,
    exponential_integrability_bound,
    make_target,
    optimize,
    penalty_term,
    project_admissible,
)
from slipflow.diagnostics import bootstrap_ci
from slipflow.dynamics import N_PS, DenseConvection, Simulator, build_noise, make_initial_coeffs
from slipflow.lifting import BoundaryControl, project_compatible


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
        p=4.0,
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
        a_mean = once.gamma[:, [once.dof_index("a", "bottom", 0), once.dof_index("a", "top", 0)]]
        flux = a_mean.sum(axis=1)
        assert np.abs(flux).max() < 1e-14
        assert admissible_norm(once) <= spec.radius * (1 + 1e-12)


@pytest.mark.parametrize("t_grid", [[0.0, 0.25, 0.5], [0.0]])
def test_stack_matches_one_control_calls(make_control, t_grid):
    # a (C, n_t, n_dofs) stack's series, admissible norm, projection and
    # penalty are, row by row, the bits of the one-control calls: one
    # candidate inside the ball, one radially scaled onto it, one made
    # compatible, and a one-point time grid (a constant control, no penalty)
    spec = AdmissibleSpec(radius=10.0, lambda1=0.3, lambda2=0.7)
    ctrls = [make_control(2 * np.pi, 2, t_grid, scale, seed=60 + i)
             for i, scale in enumerate([0.01, 5.0, 0.02])]
    ctrls[2].gamma[:, [0, 5]] = [0.3, 0.1]                    # net flux: not compatible
    stack = BoundaryControl(2 * np.pi, 2, t_grid, np.stack([c.gamma for c in ctrls]), 4.0)
    norms = [admissible_norm(c) for c in ctrls]
    assert norms[0] < spec.radius < norms[1]
    times = np.linspace(0.0, t_grid[-1], 7)
    values, slopes = stack.series(times)
    projected = project_admissible(stack, spec)
    assert isinstance(admissible_norm(ctrls[0]), float) and admissible_norm(stack).shape == (3,)
    for c, ctrl in enumerate(ctrls):
        one_values, one_slopes = ctrl.series(times)
        assert np.array_equal(values[c], one_values) and np.array_equal(slopes[c], one_slopes)
        assert admissible_norm(stack)[c] == norms[c]
        assert np.array_equal(projected.gamma[c], project_admissible(ctrl, spec).gamma), c
        assert admissible_norm(projected)[c] == admissible_norm(project_admissible(ctrl, spec))
        assert np.array_equal(stack[c].gamma, ctrl.gamma)
    assert np.array_equal(projected.gamma[0], ctrls[0].gamma)
    assert not np.array_equal(projected.gamma[2], ctrls[2].gamma)
    if len(t_grid) == 1:
        with pytest.raises(ControlError, match="horizon"):
            penalty_term(stack, spec)
        return
    pens = penalty_term(stack, spec)
    assert pens.shape == (3,) and isinstance(penalty_term(ctrls[0], spec), float)
    for c, ctrl in enumerate(ctrls):
        assert pens[c] == penalty_term(ctrl, spec), c


@pytest.mark.parametrize("stacked", [False, True])
def test_projection_never_writes_or_aliases_its_input(make_control, stacked):
    # both projections return a gamma of their own and leave the input's bits
    # as they were (project_admissible scales its result in place), on one
    # control and on a 4-stack, each control with net flux and outside the ball
    spec = AdmissibleSpec(radius=0.1)
    ctrls = [make_control(2 * np.pi, 2, [0.0, 0.25, 0.5], 5.0, seed=70 + i) for i in range(4)]
    for c in ctrls:
        c.gamma[:, [0, 5]] = [0.3, 0.1]
    ctrl = (BoundaryControl(2 * np.pi, 2, ctrls[0].t_grid, np.stack([c.gamma for c in ctrls]), 4.0)
            if stacked else ctrls[0])
    before = ctrl.gamma.copy()
    for project in (project_compatible, lambda c: project_admissible(c, spec)):
        out = project(ctrl)
        assert np.array_equal(ctrl.gamma.view(np.int64), before.view(np.int64))
        assert not np.shares_memory(out.gamma, ctrl.gamma)
        assert out.gamma.shape == before.shape and not np.array_equal(out.gamma, before)


def test_exponential_integrability_bound(make_control):
    spec = AdmissibleSpec(radius=0.5)
    ctrl = project_admissible(
        make_control(2 * np.pi, 2, [0.0, 0.5], 1.0, seed=42), spec
    )
    val = exponential_integrability_bound(admissible_norm(ctrl), 1.0)
    assert np.isfinite(val)
    assert val <= np.exp(4.0 * spec.radius**2) * (1 + 1e-9)


# -- cost ------------------------------------------------------------------------


def cost(ctrl, target, sim, spec, seeds, **kw):
    """The report of the control's own run_many paths under the seed bank."""
    return estimate_cost(sim.run_many(seeds, ctrl=ctrl, target=target, **kw),
                         penalty_term(ctrl, spec))


def test_penalty_closed_form(aspec):
    # static single cosine mode on one wall: int a^2 over the wall = A^2 Lx/2
    lx = 2 * np.pi
    t_end = 0.5
    amp = 0.5
    ctrl = BoundaryControl.zeros(lx, 2, [0.0, t_end], 4.0)
    ctrl.gamma[:, ctrl.dof_index("a", "bottom", 1, "re")] = amp / 2.0  # a = amp cos x
    pen = penalty_term(ctrl, aspec)
    expected = 0.5 * aspec.lambda1 * t_end * amp**2 * lx / 2.0
    assert abs(pen - expected) < 1e-12 * max(1.0, expected)


def test_penalty_piecewise_linear_exact(aspec, make_control):
    # Simpson per segment is exact for the squared linear interpolant:
    # refining the grid of the same control leaves the penalty unchanged
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.25, 0.5], 0.4, seed=43)
    fine_t = np.linspace(0.0, 0.5, 9)
    fine = BoundaryControl.zeros(2 * np.pi, 2, fine_t, ctrl.p)
    for ell, t in enumerate(fine_t):
        fine.gamma[ell], _ = ctrl.interp(float(t))
    assert abs(penalty_term(ctrl, aspec) - penalty_term(fine, aspec)) < 1e-12


def test_cost_self_target(sim_det, pmap, aspec):
    theta = np.array([0.4, 0.3])
    ctrl = project_admissible(pmap.control(theta), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl, sim_det, u0=u0)
    rep = cost(ctrl, target, sim_det, aspec, [0], u0=u0, noise_on=False)
    assert rep.tracking == 0.0
    assert rep.total == rep.penalty
    assert rep.total == rep.tracking + rep.penalty
    assert rep.total >= 0.0


def test_cost_zero_everything(sim_det, pmap, aspec, zero_ctrl):
    target = make_target(zero_ctrl(sim_det), sim_det)
    rep = cost(pmap.control(np.zeros(pmap.dim)), target, sim_det, aspec, [0],
               u0=None, noise_on=False)
    assert rep.total == 0.0 and rep.penalty == 0.0


def test_cost_additivity_random(sim_noisy, pmap, aspec, make_control, zero_ctrl):
    ctrl = project_admissible(make_control(2 * np.pi, 2, [0.0, 0.5], 0.2, seed=44), aspec)
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(zero_ctrl(sim_noisy), sim_noisy)
    rep = cost(ctrl, target, sim_noisy, aspec, range(6), u0=u0)
    assert rep.total == rep.tracking + rep.penalty
    assert rep.total >= 0.0
    assert rep.ci_half_width >= 0.0
    assert rep.per_path.size == 6


def test_cost_with_bank_increments_is_the_same(sim_noisy, aspec, make_control, zero_ctrl):
    # a bank's increments drawn once and passed as dw give the report of
    # the call that draws them itself, bit for bit
    ctrl = project_admissible(make_control(2 * np.pi, 2, [0.0, 0.5], 0.2, seed=45), aspec)
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(zero_ctrl(sim_noisy), sim_noisy)
    seeds = [11, 2**64 + 3, 5, 8]
    drawn = cost(ctrl, target, sim_noisy, aspec, seeds, u0=u0)
    given = cost(ctrl, target, sim_noisy, aspec, seeds, u0=u0, dw=sim_noisy.increments(seeds))
    for name in ("total", "tracking", "penalty", "ci_half_width"):
        assert np.array_equal(getattr(given, name), getattr(drawn, name)), name
    assert drawn.ci_half_width > 0.0


def test_cost_interval_formed_on_first_read(sim_noisy, aspec, zero_ctrl, monkeypatch):
    # the interval is the eager bootstrap's, bit for bit, and is formed once,
    # when first read, not by estimate_cost; one usable path has none
    calls = []
    monkeypatch.setattr(ctl_mod, "bootstrap_ci", lambda *a: calls.append(1) or bootstrap_ci(*a))
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    zero = zero_ctrl(sim_noisy)
    target = make_target(zero, sim_noisy)
    rep = cost(zero, target, sim_noisy, aspec, range(5), u0=u0)
    assert calls == [] and rep.per_path.size == 5
    lo, hi = bootstrap_ci(lambda idx: rep.per_path[idx].mean(axis=1), 5,
                          np.random.SeedSequence([0xC051, 0]))
    half = 0.5 * (hi - lo)
    assert rep.ci_half_width == half and rep.ci_half_width == half
    assert calls == [1]
    one = cost(zero, target, sim_noisy, aspec, [4], u0=u0)
    assert one.ci_half_width == 0.0 and calls == [1]


def test_cost_empty_seed_bank(sim_det, aspec, zero_ctrl):
    with pytest.raises(ControlError):
        cost(zero_ctrl(sim_det), make_target(zero_ctrl(sim_det), sim_det), sim_det, aspec, [])


@pytest.mark.parametrize("bank", [3, 4])
@pytest.mark.parametrize("theta", [(0.0, 0.0), (0.4, 0.3)])
@pytest.mark.parametrize("n", [16, 128])
def test_poll_batch_reports_match_one_candidate_runs(wide, pmap, aspec, n, theta, bank):
    # each candidate's report from a two-scale poll's one run_many call, which
    # runs the bank under all 4 dim candidates (32 rows on a 4-seed bank, 24 on
    # a 3-seed one), is bitwise its one-candidate evaluation: on the dense
    # (n = 16) and the pseudospectral (n = 128) path, at theta = 0, where each
    # candidate's active columns ({1} or {18}) are fewer than the poll's, and
    # with a 3-seed bank, whose candidates share a block
    basis = wide.basis if n == wide.basis.size else build_eigenbasis(wide.basis.grid, n)
    sim = Simulator(basis, wide.cache, build_noise(n, 2, 0.05, 1.0, 7, [0.1, 0.05]),
                    t_final=0.05, dt=0.005, ops=wide.ops if basis is wide.basis else None)
    assert isinstance(sim.convection, DenseConvection) == (n < N_PS)
    u0 = make_initial_coeffs(n, "random", 3, 0.3, 1.0)
    target = make_target(project_admissible(pmap.control(np.array([0.5, 0.6])), aspec), sim,
                         u0=u0)
    seeds = list(range(10, 10 + bank))
    dw = sim.increments(seeds)
    thetas = np.tile(theta, (4 * pmap.dim, 1))
    for row, (scale, d, sgn) in zip(thetas, product((1.0, 0.5), range(pmap.dim), (1.0, -1.0))):
        row[d] += sgn * scale * 0.25
    poll = project_admissible(pmap.control(thetas), aspec)
    active = [set(np.flatnonzero(g.any(axis=0)).tolist()) for g in sim.gamma_series(poll)[0]]
    assert set().union(*active) == {1, 18}
    assert all(a < {1, 18} for a in active) == (theta == (0.0, 0.0))
    batch = sim.run_many(seeds, ctrl=poll, u0=u0, target=target, dw=dw)
    assert len(batch) == len(thetas) * bank == 8 * bank
    pens = penalty_term(poll, aspec)
    for i, th in enumerate(thetas):
        ctrl = project_admissible(pmap.control(th), aspec)
        rows = batch[i * bank : (i + 1) * bank]
        alone = sim.run_many(seeds, ctrl=ctrl, u0=u0, target=target, dw=dw)
        got = estimate_cost(rows, pens[i])
        want = estimate_cost(alone, penalty_term(ctrl, aspec))
        for name in ("total", "tracking", "penalty", "per_path"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)
        assert np.array_equal(rows.beta_final, alone.beta_final), i


# -- target ----------------------------------------------------------------------


def test_target_zero_from_zero_data(sim_det, zero_ctrl):
    target = make_target(zero_ctrl(sim_det), sim_det, u0=None)
    assert np.abs(target.beta_series).max() == 0.0


def test_target_roundtrip_bitwise(tmp_path, sim_det, pmap, aspec):
    ctrl = project_admissible(pmap.control(np.array([0.4, 0.3])), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl, sim_det, u0=u0, meta={"tag": "test"})
    p1 = tmp_path / "t1.npz"
    p2 = tmp_path / "t2.npz"
    target.save(p1)
    target.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    with np.load(p1) as data:
        assert sorted(data.files) == ["beta_series", "gamma_series", "meta", "times"]
        for name in ("times", "beta_series", "gamma_series"):
            assert np.array_equal(data[name], getattr(target, name)), name
            assert data[name].dtype == getattr(target, name).dtype, name
        assert json.loads(str(data["meta"])) == target.meta


# -- optimizer -------------------------------------------------------------------


def test_optimize_zero_budget(sim_det, pmap, aspec, zero_ctrl):
    target = make_target(zero_ctrl(sim_det), sim_det)
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
    costs = np.array([it["cost"] for it in hist.iterates])
    assert costs[-1] <= costs[0] * (1 + 1e-12)
    assert len(costs) <= 3


def test_optimize_recovery_quick(sim_det, pmap, aspec):
    theta_star = np.array([0.5, 0.6])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_det.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_det, u0=u0)
    best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=90,
                          u0=u0, noise_on=False, step0=0.25, step_min=1e-5)
    costs = np.array([it["cost"] for it in hist.iterates])
    assert costs[-1] <= 0.1 * costs[0]
    assert (np.diff(costs) <= 0).all()
    theta = pmap.read(best)
    assert np.abs(theta - theta_star).max() / np.abs(theta_star).max() < 0.1
    # every accepted iterate admissible
    for it in hist.iterates:
        assert it["admissible_norm"] <= aspec.radius * (1 + 1e-12)
        assert np.isfinite(it["exp_integrability"])


def test_optimize_crn_deterministic(sim_noisy, pmap, aspec, monkeypatch):
    # only the accepted iterates' intervals are formed
    calls = []
    monkeypatch.setattr(ctl_mod, "bootstrap_ci", lambda *a: calls.append(1) or bootstrap_ci(*a))
    theta_star = np.array([0.5, 0.6])
    ctrl_star = project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(ctrl_star, sim_noisy, u0=u0)
    runs = []
    for _ in range(2):
        best, hist = optimize(np.zeros(2), pmap, aspec, target, sim_noisy,
                              list(range(4)), budget=30, u0=u0, step0=0.25)
        runs.append((pmap.read(best), [it["cost"] for it in hist.iterates]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert (np.diff(runs[0][1]) <= 0).all()
    assert len(calls) == 2 * len(hist.iterates) < 2 * hist.evaluations


def test_optimize_projects_and_penalizes_each_poll_once(sim_noisy, pmap, aspec, monkeypatch):
    # a poll's candidates are one stack: one projection per poll (and one for
    # the starting point), one penalty call per poll, the starting point
    # riding the first poll's stack, and still one estimate_cost call per
    # evaluation
    calls = {"project_admissible": [], "penalty_term": [], "estimate_cost": []}
    for name, seen in calls.items():
        real = getattr(ctl_mod, name)
        monkeypatch.setattr(ctl_mod, name,
                            lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
    u0 = make_initial_coeffs(sim_noisy.ops.n, "random", 3, 0.3, 1.0)
    target = make_target(project_admissible(pmap.control(np.array([0.5, 0.6])), aspec),
                         sim_noisy, u0=u0)
    budget = 11                                # the last poll is cut to 2 candidates
    _, hist = optimize(np.zeros(2), pmap, aspec, target, sim_noisy, list(range(3)),
                       budget=budget, u0=u0)
    polls = -(-(budget - 1) // (4 * pmap.dim))
    assert hist.evaluations == budget and polls == 2
    assert len(calls["project_admissible"]) == 1 + polls
    assert len(calls["penalty_term"]) == polls
    assert len(calls["estimate_cost"]) == budget
    sizes = [a[0].gamma.shape[:-2] for a in calls["penalty_term"]]
    assert sizes == [(9,), (2,)]


def test_optimize_two_scale_poll_rule(sim_det, pmap, aspec, zero_ctrl, monkeypatch):
    # a poll tries +-step along every coordinate, then +-step/2 along every
    # coordinate; the first strictly lower cost is taken, a full-step one
    # keeps the step, a half-step one halves it, a poll without one (ties
    # included) quarters it, and the last poll is cut to the budget; the
    # starting point opens the first poll's stack
    polls, real_penalty = [], ctl_mod.penalty_term
    monkeypatch.setattr(ctl_mod, "penalty_term",
                        lambda ctrls, spec: polls.append(ctrls) or real_penalty(ctrls, spec))
    # scripted costs in evaluation order: the start, then four polls
    script = [10.0] + [11.0] * 8 + [12.0] * 8 + [8.0] * 8 + [9.0] * 3
    script[1 + 2] = 9.0                        # poll 1: the full step along +e_1
    script[9 + 5] = 8.0                        # poll 2: the half step along -e_0
    costs = iter(script)                       # poll 3 ties the incumbent throughout
    monkeypatch.setattr(ctl_mod, "estimate_cost",
                        lambda paths, pen: CostReport(next(costs), 0.0, pen, np.zeros(1)))
    target = make_target(zero_ctrl(sim_det), sim_det)
    _, hist = optimize(np.zeros(2), pmap, aspec, target, sim_det, [0], budget=len(script),
                       noise_on=False, step0=0.25)
    assert hist.evaluations == len(script) and hist.budget_exhausted
    assert [it["cost"] for it in hist.iterates] == [10.0, 9.0, 8.0]
    theta1, theta2 = np.array([0.0, 0.25]), np.array([-0.125, 0.25])
    assert np.array_equal([it["theta"] for it in hist.iterates], [[0.0, 0.0], theta1, theta2])
    offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                        [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
    want = [0.25 * offsets,                    # step 0.25
            theta1 + 0.25 * offsets,           # kept after the full-step acceptance
            theta2 + 0.125 * offsets,          # halved after the half-step one
            theta2 + 0.03125 * offsets[:3]]    # quartered after the failed poll, cut to 3
    assert polls[0].gamma.shape[:-2] == (9,)
    got = [[pmap.read(poll[c]) for c in range(poll.gamma.shape[0])] for poll in polls]
    assert np.array_equal(got[0].pop(0), [0.0, 0.0])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (g, w)


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
