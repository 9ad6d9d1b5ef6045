"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to watch); assertions
carry the same tolerances as the printed verdicts.
"""

import json

import numpy as np
import pytest

from slipflow import basis as bs
from slipflow import control as ctl
from slipflow import diagnostics as dg
from slipflow.basis import build_eigenbasis, inner_h, inner_v, truncate_basis
from slipflow.cli import main as cli_main
from slipflow.dynamics import (
    NoiseModel,
    Simulator,
    assemble_operators,
    build_noise,
    make_initial_coeffs,
    wiener_increments,
)
from slipflow.geometry import DomainSpec, build_grid
from slipflow.lifting import (
    BoundaryControl,
    LiftingCache,
    lift,
    project_compatible,
    solve_harmonic,
)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# shared medium-scale setup for the statistical criteria
SPEC = DomainSpec(length_x=2 * np.pi, modes_x=8, nodes_y=24,
                  friction_alpha=1.0, viscosity=0.5)


@pytest.fixture(scope="module")
def stack():
    grid = build_grid(SPEC)
    basis32 = build_eigenbasis(SPEC, 32, grid)
    cache = LiftingCache(grid, SPEC.friction_alpha, 2)
    return grid, basis32, cache


def _control(seed, scale=0.15, t_grid=None):
    rng = np.random.default_rng(np.random.SeedSequence([0xACC, seed]))
    c = BoundaryControl.zeros(2 * np.pi, 2, np.linspace(0.0, 0.5, 3) if t_grid is None else t_grid)
    c.gamma[:] = scale * rng.standard_normal(c.gamma.shape)
    return project_compatible(c)


def test_criterion_01_eigenbasis_certification():
    spec = DomainSpec(length_x=2 * np.pi, modes_x=16, nodes_y=48,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    basis = build_eigenbasis(spec, 32, grid)

    worst_resid = 0.0
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = basis.field(rng.standard_normal(32))
        v = v * (1.0 / np.sqrt(inner_h(v, v)))
        for i in range(32):
            r = abs(inner_v(v, basis.fields[i])
                    - basis.eigenvalues[i] * inner_h(v, basis.fields[i]))
            worst_resid = max(worst_resid, r / basis.eigenvalues[i])

    gram = np.array([[inner_h(basis.fields[i], basis.fields[j])
                      for j in range(32)] for i in range(32)])
    ortho = np.abs(gram - np.eye(32)).max()
    div = max(f.divergence_residual() for f in basis.fields)
    ntr = max(np.abs(f.normal_trace_coeffs()).max() for f in basis.fields)

    spec0 = DomainSpec(length_x=2 * np.pi, modes_x=16, nodes_y=48,
                       friction_alpha=0.0, viscosity=0.5)
    basis0 = build_eigenbasis(spec0, 32, build_grid(spec0))
    lam0 = basis0.eigenvalues[basis0.mode_j == 0]
    jj = np.arange(1, lam0.size + 1)
    eig_err = np.abs(lam0 - (jj * np.pi) ** 2).max() / ((jj * np.pi) ** 2).max()

    ok = (worst_resid <= 1e-6 and ortho <= 1e-8 and div <= 1e-10
          and ntr <= 1e-10 and eig_err <= 1e-6)
    _report(1, ok,
            f"weak residual {worst_resid:.2e} (<=1e-6), orthonormality {ortho:.2e} "
            f"(<=1e-8), divergence {div:.2e}, normal trace {ntr:.2e} (<=1e-10), "
            f"free-slip shear eigenvalues {eig_err:.2e} (<=1e-6)")


def test_criterion_02_lifting_certification(stack):
    grid, _, cache = stack
    worst = {"normal": 0.0, "tangential": 0.0, "harmonic": 0.0, "linearity": 0.0}
    ratios = []
    for seed in range(20):
        ctrl = _control(seed, scale=0.5)
        lifted = lift(ctrl, cache)
        res = lifted.boundary_residuals()
        worst["normal"] = max(worst["normal"], res["normal"])
        worst["tangential"] = max(worst["tangential"], res["tangential"])
        table = ctrl.coeffs(ctrl.gamma[0])
        har = solve_harmonic(table[0], table[1], grid, ctrl.n_modes)
        for j in range(1, ctrl.n_modes + 1):
            k = grid.kx[j]
            prof = har.vals[j, 0] / (1j * k)
            worst["harmonic"] = max(
                worst["harmonic"],
                np.abs(har.dvals[j, 1] - k * k * prof).max(),
            )
        f = lifted.field_at(0.0)
        df = lifted.dt_field_at(0.0)
        tn = lifted.trace_norms[0]
        if tn > 1e-12:
            ratios.append((bs.norm_h1(f) + np.sqrt(max(inner_h(df, df), 0.0))) / tn)
        # linearity against a second control
        other = _control(1000 + seed, scale=0.5)
        combo = cache.field(0.6 * ctrl.gamma[0] + 1.7 * other.gamma[0])
        split = 0.6 * cache.field(ctrl.gamma[0]) + 1.7 * cache.field(other.gamma[0])
        scale = max(np.abs(combo.vals).max(), 1.0)
        worst["linearity"] = max(
            worst["linearity"], np.abs(combo.vals - split.vals).max() / scale
        )
    bound = max(ratios)
    ok = (worst["normal"] <= 1e-8 and worst["tangential"] <= 1e-6
          and worst["harmonic"] <= 1e-8 and worst["linearity"] <= 1e-10
          and np.isfinite(bound))
    _report(2, ok,
            f"normal {worst['normal']:.2e} (<=1e-8), tangential "
            f"{worst['tangential']:.2e} (<=1e-6), harmonic interior "
            f"{worst['harmonic']:.2e} (<=1e-8), linearity {worst['linearity']:.2e} "
            f"(<=1e-10), lifting-bound constant {bound:.3f}")


def test_criterion_03_homogeneous_energy_identity(stack):
    _, basis32, _ = stack
    n = basis32.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis32, None)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    nu = SPEC.viscosity
    rates = []
    for dt in (2e-3, 1e-3, 5e-4):
        sim = Simulator(basis32, None, noise, t_final=0.2, dt=dt, ops=ops)
        tr = sim.run(seed=0, u0=b0, noise_on=False)
        defect = tr.u_sq[1:] - tr.u_sq[:-1] + 2 * nu * tr.u_esq[:-1] * dt
        rates.append(np.abs(defect).max() / dt)
    orders = np.log2(np.array(rates[:-1]) / np.array(rates[1:]))
    ok = bool(np.all(orders >= 0.9))
    _report(3, ok, f"defect-rate convergence orders {np.round(orders, 3)} (>= 0.9)")


def test_criterion_04_linear_closed_form(stack):
    _, basis32, _ = stack
    n = basis32.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis32, None)
    b0 = make_initial_coeffs(n, "random", 3, 1.0, 1.0)
    t_final = 0.25
    nu = SPEC.viscosity
    exact = b0 * np.exp(-nu * basis32.eigenvalues * t_final)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        sim = Simulator(basis32, None, noise, t_final=t_final, dt=dt,
                        include_nonlinear=False, ops=ops)
        tr = sim.run(seed=0, u0=b0, noise_on=False)
        errs.append(np.abs(tr.beta_final - exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = bool(np.all(orders > 0.8) and np.all(orders < 1.2))
    _report(4, ok, f"eigen-decay error orders {np.round(orders, 3)} (first order)")


def test_criterion_05_strong_sde_convergence():
    spec = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.05)
    grid = build_grid(spec)
    basis = build_eigenbasis(spec, 6, grid)
    n = basis.size
    noise = build_noise(n, 2, 0.3, 1.0, 3, [0.2, 0.2])
    ops = assemble_operators(basis, None)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    t_final = 0.25
    n_fine = 1024
    levels = [32, 64, 128]
    errs = {lv: [] for lv in levels}
    sims = {lv: Simulator(basis, None, noise, t_final=t_final, dt=t_final / lv, ops=ops)
            for lv in levels + [n_fine]}
    for seed in range(200):
        dw_fine = wiener_increments(seed, n_fine, noise.m, t_final / n_fine)
        finals = {}
        for lv in levels + [n_fine]:
            dw = dw_fine.reshape(lv, n_fine // lv, noise.m).sum(axis=1)
            finals[lv] = sims[lv].run(seed=seed, u0=b0, dw=dw).beta_final
        for lv in levels:
            errs[lv].append(np.linalg.norm(finals[lv] - finals[n_fine]))
    mean_err = np.array([np.mean(errs[lv]) for lv in levels])
    dts = np.array([t_final / lv for lv in levels])
    slope = float(np.polyfit(np.log(dts), np.log(mean_err), 1)[0])
    ok = 0.4 <= slope <= 0.6
    _report(5, ok, f"strong-error slope {slope:.3f} over 200 coupled paths (in [0.4, 0.6])")


def test_criterion_06_galerkin_consistency(stack):
    _, basis32, _ = stack
    noise_full = build_noise(32, 2, 0.05, 2.0, 5, [0.1, 0.1])
    b_full = make_initial_coeffs(32, "random", 8, 0.6, 0.7)
    finals = {}
    for n in (8, 16, 32):
        b = truncate_basis(basis32, n)
        nz = NoiseModel(additive=noise_full.additive[:n], mult_gain=noise_full.mult_gain)
        sim = Simulator(b, None, nz, t_final=0.4, dt=0.0025)
        trs = sim.run_many(range(50), u0=b_full[:n])
        mat = np.zeros((50, 32))
        for i, tr in enumerate(trs):
            mat[i, :n] = tr.beta_final
        finals[n] = mat
    gap_coarse = np.linalg.norm(finals[8] - finals[16], axis=1)
    gap_fine = np.linalg.norm(finals[16] - finals[32], axis=1)
    frac = float(np.mean(gap_coarse >= gap_fine))
    ok = frac >= 0.9
    _report(6, ok, f"truncation gap monotone on {100 * frac:.0f}% of 50 common-noise paths (>= 90%)")


def test_criterion_07_estimate_certification(stack):
    _, basis32, cache = stack
    ctrl = _control(7, scale=0.15)
    noise_full = build_noise(32, 2, 0.05, 1.5, 5, [0.1, 0.1])
    b_full = make_initial_coeffs(32, "random", 8, 0.5, 1.0)
    nu = SPEC.viscosity
    out = {}
    for n, paths in ((16, 400), (32, 1600)):
        b = truncate_basis(basis32, n)
        nz = NoiseModel(additive=noise_full.additive[:n], mult_gain=noise_full.mult_gain)
        sim = Simulator(b, cache, nz, t_final=0.5, dt=0.0025)
        trs = sim.run_many(range(paths), ctrl=ctrl, u0=b_full[:n])
        r2 = dg.certify_second_moment(trs, ctrl, 1.0, nu)
        r4 = dg.certify_fourth_moment(trs, ctrl, 1.0, nu, sim.ops)
        rw = dg.certify_wellposed_cost(trs, ctrl, 1.0)
        out[n] = (r2.fitted_c, r4.fitted_c, rw.details["holds_exactly"])
    c2_ratio = out[32][0] / out[16][0]
    c4_ratio = out[32][1] / out[16][1]
    finite = all(np.isfinite([out[16][0], out[16][1], out[32][0], out[32][1]]))
    chains = out[16][2] and out[32][2]
    ok = (finite and chains and 0.5 <= c2_ratio <= 2.0 and 0.5 <= c4_ratio <= 2.0)
    _report(7, ok,
            f"second-moment C {out[16][0]:.3f} -> {out[32][0]:.3f} (ratio {c2_ratio:.2f}),"
            f" fourth-moment C {out[16][1]:.2e} -> {out[32][1]:.2e} (ratio {c4_ratio:.2f}),"
            f" sample-exact bound chain {chains}; all finite, stable within 2x under"
            f" doubled truncation and quadrupled paths (400 -> 1600)")


def test_criterion_08_stability(stack):
    _, basis32, cache = stack
    basis = truncate_basis(basis32, 16)
    noise = build_noise(16, 2, 0.04, 1.5, 5, [0.1, 0.1])
    sim = Simulator(basis, cache, noise, t_final=0.5, dt=0.0025)
    b0 = make_initial_coeffs(16, "random", 8, 0.5, 1.0)
    c3 = 2.0 * noise.lipschitz_k
    consts = []
    first_pair = None
    for s in range(5):
        c1 = _control(10 + s, scale=0.2)
        c2 = _control(20 + s, scale=0.2)
        t1 = sim.run_many(range(40), ctrl=c1, u0=b0, store_beta=True)
        t2 = sim.run_many(range(40), ctrl=c2, u0=b0, store_beta=True)
        rep = dg.certify_stability(t1, c1, t2, c2, sim.ops, 1.0, sim.nu, c3=c3)
        consts.append(rep.fitted_c)
        if first_pair is None:
            first_pair = (c1, c2, t1)
    c_max = max(consts)
    c1, c2, t1 = first_pair
    cmid = c1.copy()
    cmid.gamma = c1.gamma + 0.5 * (c2.gamma - c1.gamma)
    tmid = sim.run_many(range(40), ctrl=cmid, u0=b0, store_beta=True)
    rep_half = dg.certify_stability(t1, c1, tmid, cmid, sim.ops, 1.0, sim.nu, c3=c3)
    ok = (all(np.isfinite(consts)) and np.isfinite(rep_half.fitted_c)
          and rep_half.fitted_c <= c_max)
    _report(8, ok,
            f"five common-noise pairs: constants {np.round(consts, 3)} (max {c_max:.3f});"
            f" halved control distance ratio {rep_half.fitted_c:.3f} stays within the max")


def test_criterion_09_control_recovery(stack):
    _, basis32, cache = stack
    basis = truncate_basis(basis32, 12)
    aspec = ctl.AdmissibleSpec(radius=20.0, lambda1=1e-4, lambda2=1e-4)
    pmap = ctl.ParamMap(length_x=2 * np.pi, n_modes=2, t_grid=(0.0, 0.5),
                        slots=(("a", "bottom", 1, "re"), ("b", "top", 2, "re")))
    theta_star = np.array([0.5, 0.6])
    ctrl_star = ctl.project_admissible(pmap.control(theta_star), aspec)
    u0 = make_initial_coeffs(12, "random", 3, 0.3, 1.0)

    # noise-off recovery
    noise_off = NoiseModel(additive=np.zeros((12, 1)), mult_gain=np.array([0.0]))
    sim_det = Simulator(basis, cache, noise_off, t_final=0.5, dt=0.0025)
    target = ctl.make_target(ctrl_star, sim_det, u0=u0)
    best, hist = ctl.optimize(np.zeros(2), pmap, aspec, target, sim_det, [0],
                              budget=120, u0=u0, noise_on=False,
                              step0=0.25, step_min=1e-5)
    costs = hist.costs
    theta = pmap.read(best)
    rel = np.abs(theta - theta_star) / np.abs(theta_star)
    det_ok = (costs[-1] <= 0.1 * costs[0] and rel.max() <= 0.1
              and bool((np.diff(costs) <= 0).all()))

    # multiplicative-noise recovery under frozen common random numbers
    noise_mult = NoiseModel(additive=np.zeros((12, 2)),
                            mult_gain=np.array([0.1, 0.1]))
    sim_sto = Simulator(basis, cache, noise_mult, t_final=0.5, dt=0.0025)
    target_s = ctl.make_target(ctrl_star, sim_sto, u0=u0)
    best_s, hist_s = ctl.optimize(np.zeros(2), pmap, aspec, target_s, sim_sto,
                                  list(range(8)), budget=60, u0=u0,
                                  noise_on=True, step0=0.25)
    costs_s = hist_s.costs
    sto_ok = (costs_s[-1] <= 0.5 * costs_s[0]
              and bool((np.diff(costs_s) <= 0).all()))
    ok = det_ok and sto_ok
    _report(9, ok,
            f"noise-off: J {costs[0]:.3e} -> {costs[-1]:.3e} "
            f"({100 * costs[-1] / costs[0]:.2f}% <= 10%), parameters within "
            f"{100 * rel.max():.2f}% (<= 10%); multiplicative noise: J "
            f"{costs_s[0]:.3e} -> {costs_s[-1]:.3e} "
            f"({100 * costs_s[-1] / costs_s[0]:.2f}% <= 50%); accepted costs nonincreasing")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "domain": {"modes_x": 3, "nodes_y": 16, "friction_alpha": 1.0, "viscosity": 0.5},
        "basis_size": 8,
        "time": {"t_final": 0.2, "dt": 0.005},
        "monte_carlo": {"paths": 4},
        "control": {"n_modes": 2, "theta": [0.3, 0.2]},
        "optimize": {"budget": 15, "theta_star": [0.4, 0.5], "paths": 2, "noise_on": False},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for cmd in ("basis", "simulate", "optimize", "verify"):
            assert cli_main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        pairs.append(out)
    files = ["basis.npz", "eigenvalues.csv", "traj_000.csv", "summary.csv",
             "summary.json", "history.json", "history.csv", "best_control.json",
             "target.npz", "report_second_moment.json", "report_fourth_moment.json",
             "report_wellposed_cost.json", "report_stability.json",
             "verify_summary.json"]
    same = {f: (pairs[0] / f).read_bytes() == (pairs[1] / f).read_bytes() for f in files}
    ok = all(same.values())
    _report(10, ok, f"byte-identical reruns across {len(files)} artifacts: {ok}")
