import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from slipflow import basis as bs
from slipflow.basis import inner_h, inner_v, truncate_basis
from slipflow.dynamics import (
    BLOCK,
    N_PS,
    BlowupError,
    Convection,
    DynamicsError,
    GalerkinState,
    NoiseModel,
    Simulator,
    _check_convection,
    _probe_skew,
    assemble_operators,
    build_noise,
    diffusion,
    drift,
    make_initial_coeffs,
    nonlinear_term,
    step_em,
    wiener_increments,
)
from slipflow.geometry import DomainSpec, build_grid
from slipflow.lifting import LiftingCache


@pytest.fixture(scope="module")
def sim_small(basis_small, cache_small):
    noise = build_noise(basis_small.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    return Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)


# -- noise model ---------------------------------------------------------------


def test_noise_additive_only(basis_small):
    noise = build_noise(basis_small.size, 2, 0.1, 1.0, 3, [0.0, 0.0])
    m0 = diffusion(np.zeros(basis_small.size), noise)
    m1 = diffusion(np.ones(basis_small.size), noise)
    assert np.array_equal(m0, m1)
    assert np.array_equal(m0, noise.additive)


def test_noise_linear_multiplicative(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.3]))
    beta = np.arange(1.0, n + 1)
    assert np.allclose(diffusion(beta, noise)[:, 0], 0.3 * beta)


def test_noise_lipschitz_and_growth(basis_small):
    n = basis_small.size
    noise = build_noise(n, 3, 0.2, 0.5, 11, [0.1, 0.2, 0.05])
    k_lip = noise.lipschitz_k
    rng = np.random.default_rng(4)
    for _ in range(100):
        b1 = rng.standard_normal(n)
        b2 = rng.standard_normal(n)
        d = diffusion(b1, noise) - diffusion(b2, noise)
        lhs = np.sum(d * d)
        assert lhs <= k_lip * np.sum((b1 - b2) ** 2) * (1 + 1e-12)
    k_gr = noise.growth_k
    for _ in range(100):
        b = 3.0 * rng.standard_normal(n)
        g = diffusion(b, noise)
        total = np.linalg.norm(g, axis=0).sum()
        assert total <= k_gr * (1.0 + np.linalg.norm(b)) * (1 + 1e-12)


def test_noise_validation():
    with pytest.raises(DynamicsError):
        NoiseModel(additive=np.zeros((4, 2)), mult_gain=np.array([0.1]))
    with pytest.raises(DynamicsError):
        NoiseModel(additive=np.zeros((4, 1)), mult_gain=np.array([-0.1]))


# -- convection ----------------------------------------------------------------


def test_nonlinear_zero(basis_small, grid_small):
    out = nonlinear_term(bs.ModeField.zeros(grid_small), basis_small)
    assert np.abs(out).max() == 0.0


def test_nonlinear_pure_shear_vanishes(basis_small, grid_small):
    v = bs.ModeField.from_shear_profile(grid_small, np.cos(np.pi * grid_small.y_cgl))
    out = nonlinear_term(v, basis_small)
    assert np.abs(out).max() < 1e-12


def test_nonlinear_skew_symmetry(basis_small):
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta = rng.standard_normal(basis_small.size)
        v = basis_small.field(beta)
        val = beta @ nonlinear_term(v, basis_small)
        assert abs(val) <= 1e-8 * max(1.0, inner_v(v, v))


def test_nonlinear_band_guard(basis_small, grid_small):
    f = bs.ModeField.zeros(grid_small, n_modes=grid_small.spec.modes_x + 3)
    with pytest.raises(DynamicsError):
        nonlinear_term(f, basis_small)


def test_convection_tensors_match_direct(sim_small, basis_small, cache_small, make_control):
    rng = np.random.default_rng(8)
    ops = sim_small.ops
    n = basis_small.size
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=60)
    beta = rng.standard_normal(n)
    gam = ctrl.gamma[0]
    y = basis_small.field(beta) + cache_small.field(gam)
    direct = nonlinear_term(y, basis_small)
    tensor = (
        ops.conv_bb.reshape(n, -1) @ np.outer(beta, beta).ravel()
        + (ops.conv_bc @ gam) @ beta
        + (ops.conv_cc @ gam) @ gam
    )
    assert np.abs(tensor - direct).max() < 1e-10 * max(1.0, np.abs(direct).max())


@pytest.mark.parametrize("fault", ["skew", "triad"])
def test_convection_check_rejects_tampered_tensor(sim_small, basis_small, fault):
    conv = sim_small.ops.conv_bb.copy()
    j = basis_small.mode_j
    scale = np.abs(conv).max()
    _check_convection(conv, j, scale)
    if fault == "skew":
        # break skew symmetry on the largest (on-triad) entry
        conv[np.unravel_index(np.abs(conv).argmax(), conv.shape)] += 1e-6 * scale
    else:
        # a skew-symmetric pair of entries off the Fourier triads
        i, p, q = next((i, p, q) for i in range(j.size) for p in range(j.size)
                       for q in range(i + 1, j.size)
                       if j[i] not in (j[p] + j[q], abs(j[p] - j[q])))
        conv[i, p, q] += 1e-6 * scale
        conv[q, p, i] -= 1e-6 * scale
    with pytest.raises(DynamicsError, match=fault):
        _check_convection(conv, j, scale)


def test_mass_pairings_against_quadrature(sim_small, basis_small, cache_small, grid_small):
    w2d = grid_small.quad_weights_domain

    def quadrature(us, vs):
        su, sv = [f.physical() for f in us], [f.physical() for f in vs]
        return np.array([[np.sum((a[0] * b[0] + a[1] * b[1]) * w2d) for b in sv] for a in su])

    lift_h = quadrature(basis_small.fields, cache_small.fields)
    gram_h = quadrature(cache_small.fields, cache_small.fields)
    assert np.abs(sim_small.ops.lift_h - lift_h).max() <= 1e-12 * np.abs(lift_h).max()
    assert np.abs(sim_small.ops.gram_h - gram_h).max() <= 1e-12 * np.abs(gram_h).max()


# -- drift ----------------------------------------------------------------------


def test_drift_zero_state(sim_small):
    nc = sim_small.ops.n_ctrl
    f = drift(np.zeros(sim_small.ops.n), sim_small.ops, 0.5, np.zeros(nc), np.zeros(nc))
    assert np.abs(f).max() == 0.0


def test_drift_linear_eigendecay(sim_small, basis_small):
    rng = np.random.default_rng(12)
    beta = rng.standard_normal(basis_small.size)
    nc = sim_small.ops.n_ctrl
    f = drift(beta, sim_small.ops, 0.5, np.zeros(nc), np.zeros(nc), include_nonlinear=False)
    assert np.allclose(f, -0.5 * basis_small.eigenvalues * beta, rtol=1e-12, atol=1e-14)


def test_drift_control_terms_against_quadrature(sim_small, basis_small, cache_small,
                                                grid_small, make_control):
    # beta = 0, static control: drift must equal
    # nu int_G b (e_i . tau) - nu (lift, e_i)_E - ((lift . grad) lift, e_i)
    nu = grid_small.spec.viscosity
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.4, seed=61)
    gam = ctrl.gamma[0]
    f = drift(np.zeros(basis_small.size), sim_small.ops, nu, gam, np.zeros_like(gam))
    lifted = cache_small.field(gam)
    table = ctrl.coeffs(gam)
    x = grid_small.x_nodes
    oracle = np.empty(basis_small.size)
    conv = nonlinear_term(lifted, basis_small)
    for i, e in enumerate(basis_small.fields):
        wall = 0.0
        for w, btab in ((0, table[2]), (1, table[3])):
            bvals = btab[0].real + 2.0 * (
                btab[1:, None] * np.exp(1j * np.outer(grid_small.kx[1 : btab.size], x))
            ).real.sum(axis=0)
            ji = int(basis_small.mode_j[i])
            tc = basis_small.tau_trace[i, w]
            tvals = tc.real * np.ones_like(x) if ji == 0 else 2.0 * (
                tc * np.exp(1j * grid_small.kx[ji] * x)
            ).real
            wall += grid_small.w_x * float(bvals @ tvals)
        oracle[i] = nu * wall - nu * inner_v(lifted, e) - conv[i]
    assert np.abs(f - oracle).max() < 1e-8


def test_drift_time_derivative_term(sim_small, cache_small, basis_small, make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.4, seed=62)
    gam, gdot = ctrl.interp(0.25)
    f_move = drift(np.zeros(basis_small.size), sim_small.ops, 0.5, gam, gdot)
    f_stat = drift(np.zeros(basis_small.size), sim_small.ops, 0.5, gam, np.zeros_like(gdot))
    dfield = cache_small.field(gdot)
    expected = np.array([-inner_h(dfield, e) for e in basis_small.fields])
    assert np.abs((f_move - f_stat) - expected).max() < 1e-10


@pytest.mark.parametrize("nonlinear", [True, False])
def test_drift_stacked_rows_match_per_row(sim_small, make_control, nonlinear):
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.3, 1.0], 0.4, seed=63)
    gam, gdot = ctrl.series(np.linspace(0.0, 1.0, 7))
    beta = np.random.default_rng(64).standard_normal((2, 7, sim_small.ops.n))
    stacked = drift(beta, sim_small.ops, 0.5, gam, gdot, nonlinear)
    rows = np.array([[drift(b, sim_small.ops, 0.5, g, d, nonlinear)
                      for b, g, d in zip(path, gam, gdot)] for path in beta])
    assert np.abs(stacked - rows).max() <= 1e-13 * np.abs(rows).max()


# -- stepping -------------------------------------------------------------------


def test_step_em_trivial(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, None)
    ops.lam[:] = 0.0
    st = GalerkinState(t=0.0, beta=np.ones(n))
    out = step_em(st, 0.1, np.zeros(1), ops, noise, 0.5, include_nonlinear=False)
    assert out.t == pytest.approx(0.1)
    assert np.array_equal(out.beta, st.beta)


def test_linear_closed_form_first_order(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, None)
    b0 = make_initial_coeffs(n, "random", 3, 1.0, 1.0)
    t_final = 0.25
    nu = basis_small.grid.spec.viscosity
    exact = b0 * np.exp(-nu * basis_small.eigenvalues * t_final)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        sim = Simulator(basis_small, None, noise, t_final=t_final, dt=dt,
                        include_nonlinear=False, ops=ops)
        tr = sim.run(seed=0, u0=b0, noise_on=False)
        errs.append(np.abs(tr.beta_final - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 0.8) and np.all(rates < 1.2)


def test_homogeneous_energy_identity(basis_small):
    # noise off, control off: per-step defect of d|u|^2 + 2 nu |u|_E^2 dt
    # equals |drift|^2 dt^2 exactly, and the defect rate is first order in dt
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, None)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    nu = basis_small.grid.spec.viscosity
    defect_rates = []
    for dt in (4e-3, 2e-3, 1e-3):
        sim = Simulator(basis_small, None, noise, t_final=0.2, dt=dt, ops=ops)
        tr = sim.run(seed=0, u0=b0, noise_on=False, store_beta=True)
        d = tr.u_sq[1:] - tr.u_sq[:-1] + 2 * nu * tr.u_esq[:-1] * dt
        defect_rates.append(np.abs(d).max() / dt)
        # internal consistency: defect equals |drift|^2 dt^2 step by step
        nc = sim.ops.n_ctrl
        for ell in (0, len(tr.times) // 2):
            f = drift(tr.beta_series[ell], sim.ops, nu, np.zeros(nc), np.zeros(nc))
            assert abs(d[ell] - (f @ f) * dt * dt) < 1e-10 * max(1.0, f @ f * dt * dt)
    rates = np.log2(np.array(defect_rates[:-1]) / np.array(defect_rates[1:]))
    assert np.all(rates > 0.9)


def test_strong_order_multiplicative():
    # drift kept gentle so the multiplicative-noise error dominates the range
    spec = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.05)
    grid = build_grid(spec)
    basis = bs.build_eigenbasis(spec, 6, grid)
    n = basis.size
    noise = build_noise(n, 2, 0.3, 1.0, 3, [0.2, 0.2])
    ops = assemble_operators(basis, None)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    t_final = 0.25
    n_fine = 1024
    dt_fine = t_final / n_fine
    levels = [32, 64, 128]
    errs = {lv: [] for lv in levels}
    for seed in range(60):
        dw_fine = wiener_increments(seed, n_fine, noise.m, dt_fine)
        finals = {}
        for lv in levels + [n_fine]:
            fold = n_fine // lv
            dw = dw_fine.reshape(lv, fold, noise.m).sum(axis=1)
            sim = Simulator(basis, None, noise, t_final=t_final,
                            dt=t_final / lv, ops=ops)
            tr = sim.run(seed=seed, u0=b0, dw=dw)
            finals[lv] = tr.beta_final
        for lv in levels:
            errs[lv].append(np.linalg.norm(finals[lv] - finals[n_fine]))
    mean_err = np.array([np.mean(errs[lv]) for lv in levels])
    dts = np.array([t_final / lv for lv in levels])
    slope = np.polyfit(np.log(dts), np.log(mean_err), 1)[0]
    assert 0.3 < slope < 0.7  # strong half-order within sampling noise


def test_determinism_bitwise(sim_small, make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=70)
    b0 = make_initial_coeffs(sim_small.ops.n, "random", 3, 0.5, 1.0)
    t1 = sim_small.run(seed=9, ctrl=ctrl, u0=b0, store_beta=True)
    t2 = sim_small.run(seed=9, ctrl=ctrl, u0=b0, store_beta=True)
    assert np.array_equal(t1.beta_series, t2.beta_series)
    assert np.array_equal(t1.u_sq, t2.u_sq)
    t3 = sim_small.run(seed=10, ctrl=ctrl, u0=b0)
    assert not np.array_equal(t1.beta_final, t3.beta_final)


# -- kernel against the single-step reference ------------------------------------


def _check_kernel_matches_step_em(sim, ctrl):
    # the whole stored path agrees with step_em iterated on the same Wiener
    # increments
    b0 = make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0)
    tr = sim.run(seed=4, ctrl=ctrl, u0=b0, store_beta=True, keep_wiener=True)
    assert not tr.blown_up
    gamma, gdot = sim.gamma_series(ctrl)
    state = GalerkinState(t=0.0, beta=b0.copy())
    ref = [state.beta]
    for ell in range(sim.n_steps):
        state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, sim.noise, sim.nu,
                        gamma[ell], gdot[ell])
        ref.append(state.beta)
    assert np.abs(tr.beta_series - np.array(ref)).max() < 1e-12


def test_kernel_matches_step_em(sim_small, wide, make_control):
    # dense convection, additive and multiplicative noise on: with a
    # time-varying control, without one (the kernel reads only the beta rows
    # of its table), and at n = 48 on the modes_x = 8 grid, the widest dense
    # case below N_PS
    assert sim_small.convection is None and sim_small.table is not None
    _check_kernel_matches_step_em(sim_small, make_control(2 * np.pi, 2, [0.0, 0.25, 0.5],
                                                          0.3, seed=77))
    _check_kernel_matches_step_em(sim_small, None)
    basis = truncate_basis(wide.basis, 48)
    sim = Simulator(basis, wide.cache, build_noise(48, 2, 0.05, 1.0, 7, [0.1, 0.05]),
                    t_final=0.05, dt=0.005)
    assert basis.size < N_PS and sim.convection is None
    _check_kernel_matches_step_em(sim, make_control(2 * np.pi, 2, [0.0, 0.025, 0.05],
                                                    0.3, seed=77))


def test_dense_table_built_once(sim_small, make_control, monkeypatch):
    # T[q, (p, i)] = conv_bb[i, p, q] and T[n + c, (p, i)] = conv_bc[i, p, c],
    # built by the constructor and handed to every kernel call
    import slipflow.dynamics as dyn

    ops, table = sim_small.ops, sim_small.table
    n = ops.n
    assert table.shape == (n + ops.n_ctrl, n * n)
    assert np.array_equal(table[:n].reshape(n, n, n), ops.conv_bb.transpose(2, 1, 0))
    assert np.array_equal(table[n:].reshape(-1, n, n), ops.conv_bc.transpose(2, 1, 0))
    seen, kernel = [], dyn._em_block
    monkeypatch.setattr(dyn, "_em_block", lambda *a: seen.append(a[3]) or kernel(*a))
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=81)
    sim_small.run_many(range(3))
    sim_small.run_many(range(2), ctrl=ctrl)
    assert len(seen) == 2 and all(t is table for t in seen) and sim_small.table is table


@pytest.mark.parametrize("dt, t_final", [(0.5, 1.0), (0.1, 2.0)])
def test_kernel_blowup_step_matches_step_em(basis_small, dt, t_final):
    # explicit Euler past its stability limit on the linear problem
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    sim = Simulator(basis_small, None, noise, t_final=t_final, dt=dt,
                    include_nonlinear=False, blowup_limit=1e4)
    u0 = 10.0 * np.ones(n)
    tr = sim.run(seed=0, u0=u0, noise_on=False)
    state = GalerkinState(t=0.0, beta=u0)
    first = -1
    for ell in range(sim.n_steps):
        state = step_em(state, dt, np.zeros(1), sim.ops, noise, sim.nu,
                        include_nonlinear=False)
        if state.beta @ state.beta > sim.blowup_limit:
            first = ell + 1
            break
    assert first > 0
    assert tr.blown_up and tr.blowup_step == first


def test_parseval_reconstruction(sim_small, basis_small):
    b0 = make_initial_coeffs(basis_small.size, "random", 3, 0.5, 1.0)
    tr = sim_small.run(seed=2, u0=b0)
    field = basis_small.field(tr.beta_final)
    assert abs(inner_h(field, field) - tr.u_sq[-1]) < 1e-8 * max(1.0, tr.u_sq[-1])


def test_initial_projection_monotone(spec_small, grid_small):
    big = bs.build_eigenbasis(spec_small, 16, grid_small)
    rng = np.random.default_rng(14)
    beta_full = rng.standard_normal(16)
    full_norm = np.linalg.norm(beta_full)
    for n in (4, 8, 12, 16):
        assert np.linalg.norm(beta_full[:n]) <= full_norm * (1 + 1e-15)


def test_galerkin_consistency_common_noise(spec_small, grid_small):
    # common-noise truncations: the gap shrinks as the basis grows
    big = bs.build_eigenbasis(spec_small, 16, grid_small)
    noise_full = build_noise(16, 2, 0.05, 1.5, 5, [0.1, 0.1])
    b_full = make_initial_coeffs(16, "random", 8, 0.6, 0.8)
    finals = {}
    for n in (4, 8, 16):
        b = truncate_basis(big, n)
        noise = NoiseModel(additive=noise_full.additive[:n], mult_gain=noise_full.mult_gain)
        sim = Simulator(b, None, noise, t_final=0.4, dt=0.004)
        tr = sim.run(seed=21, u0=b_full[:n])
        pad = np.zeros(16)
        pad[:n] = tr.beta_final
        finals[n] = pad
    gap_small = np.linalg.norm(finals[4] - finals[8])
    gap_big = np.linalg.norm(finals[8] - finals[16])
    assert gap_big <= gap_small


def test_blowup_flagged(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    sim = Simulator(basis_small, None, noise, t_final=1.0, dt=0.5,
                    include_nonlinear=False, blowup_limit=1e4)
    # eigen-decay explicit Euler is unstable at dt = 0.5 for large eigenvalues
    tr = sim.run(seed=0, u0=10.0 * np.ones(n), noise_on=False)
    assert tr.blown_up and tr.blowup_step > 0
    assert np.isnan(tr.u_sq[-1])


def test_step_em_blowup_raises(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, None)
    st = GalerkinState(t=0.0, beta=np.full(n, 1e200))
    from slipflow.dynamics import BlowupError

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError):
        step_em(st, 1e6, np.zeros(1), ops, noise, 1e3)


def test_simulator_guards(basis_small, cache_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    with pytest.raises(DynamicsError):
        Simulator(basis_small, cache_small, noise, t_final=1.0, dt=0.3)
    sim = Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)
    short = make_control(2 * np.pi, 2, [0.0, 0.2], 0.1, seed=1) if False else None
    from slipflow.lifting import BoundaryControl

    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 0.2])
    with pytest.raises(DynamicsError):
        sim.gamma_series(ctrl)
    with pytest.raises(DynamicsError):
        sim.run(u0=np.zeros(n + 1))


def test_run_many_threads_match(sim_small):
    b0 = make_initial_coeffs(sim_small.ops.n, "random", 3, 0.5, 1.0)
    serial = sim_small.run_many(range(4), u0=b0)
    threaded = sim_small.run_many(range(4), u0=b0, threads=4)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.beta_final, b.beta_final)


_PATH_ARRAYS = ("times", "beta0", "beta_final", "u_sq", "u_esq", "tracking", "noise_sq",
                "beta_series", "wiener")


def _same_path(a, b):
    assert (a.seed, a.blown_up, a.blowup_step) == (b.seed, b.blown_up, b.blowup_step)
    for name in _PATH_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y, equal_nan=True), name


def test_seed_bits_independent_of_batch_and_threads(sim_small, make_control):
    # a seed's path is the same bits alone, first or last in a batch, in a
    # padded or a full chunk, and with more worker threads than cores
    from slipflow.control import Target

    n = sim_small.ops.n
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.25, 0.5], 0.3, seed=77)
    rng = np.random.default_rng(1)
    target = Target(times=sim_small.times.copy(),
                    beta_series=0.1 * rng.standard_normal((sim_small.n_steps + 1, n)),
                    gamma_series=sim_small.gamma_series(ctrl)[0] * 0.5)
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(n, "random", 3, 0.5, 1.0),
              store_beta=True, keep_wiener=True, target=target)
    seed = 7
    solo = sim_small.run(seed=seed, **kw)
    assert not solo.blown_up
    for size in (1, 5, BLOCK, BLOCK + 3, 3 * BLOCK + 1):
        for pos in {0, size - 1}:
            seeds = list(range(100, 100 + size))
            seeds[pos] = seed
            for threads in (1, 2, 4):
                bundle = sim_small.run_many(seeds, threads=threads, **kw)
                assert [tr.seed for tr in bundle] == seeds
                _same_path(bundle[pos], solo)


def test_blowup_masked_per_path(basis_small):
    # dt = 0.1 past the explicit stability limit with additive noise: some
    # paths of one bundle blow up, the others must not feel it
    n = basis_small.size
    noise = build_noise(n, 2, 1.0, 0.0, 5, [0.0, 0.0])
    sim = Simulator(basis_small, None, noise, t_final=2.0, dt=0.1,
                    include_nonlinear=False, blowup_limit=400.0)
    kw = dict(u0=np.zeros(n), store_beta=True, keep_wiener=True)
    bundle = sim.run_many(range(BLOCK + 4), **kw)
    blown = [tr for tr in bundle if tr.blown_up]
    assert 0 < len(blown) < len(bundle)
    for tr in bundle:
        _same_path(tr, sim.run(seed=tr.seed, **kw))
    for tr in blown:
        state = GalerkinState(t=0.0, beta=np.zeros(n))
        first = -1
        for ell in range(sim.n_steps):
            state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, noise, sim.nu,
                            include_nonlinear=False)
            if state.beta @ state.beta > sim.blowup_limit:
                first = ell + 1
                break
        s = tr.blowup_step
        assert s == first
        assert np.abs(tr.beta_final - state.beta).max() < 1e-12 * np.abs(state.beta).max()
        for series in (tr.u_sq, tr.u_esq, tr.tracking, tr.noise_sq):
            assert np.isfinite(series[:s]).all() and np.isnan(series[s:]).all()
        assert np.any(tr.beta_series[s - 1]) and not np.any(tr.beta_series[s:])


def test_nonfinite_abort_leaks_no_warning(basis_small, cache_small, make_control):
    # huge multiplicative noise and no norm limit: every path overflows, is
    # caught as nonfinite, and no RuntimeWarning leaks from its row
    import warnings

    n = basis_small.size
    noise = build_noise(n, 2, 0.05, 1.0, 7, [5000.0, 5000.0])
    sim = Simulator(basis_small, cache_small, noise, t_final=2.0, dt=0.005,
                    blowup_limit=np.inf)
    ctrl = make_control(2 * np.pi, 2, [0.0, 2.0], 0.3, seed=77)
    u0 = np.ones(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle = sim.run_many(range(3), ctrl=ctrl, u0=u0, keep_wiener=True)
    gamma, gdot = ctrl.series(sim.times)
    for tr in bundle:
        # the abort step is the first whose squared norm is not finite
        state = GalerkinState(t=0.0, beta=u0)
        first = -1
        with np.errstate(all="ignore"):
            for ell in range(sim.n_steps):
                try:
                    state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, noise,
                                    sim.nu, gamma[ell], gdot[ell])
                except BlowupError:
                    first = ell + 1
                    break
                if not np.isfinite(state.beta @ state.beta):
                    first = ell + 1
                    break
        assert first > 0
        assert tr.blown_up and tr.blowup_step == first


def test_weak_form_residual_of_trajectory(basis_small, cache_small, grid_small,
                                          make_control):
    # plug a coarse trajectory back into the tested momentum balance, with
    # every term rebuilt by direct quadrature on reconstructed fields
    from slipflow.basis import ModeField

    nu = grid_small.spec.viscosity
    noise = build_noise(basis_small.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    sim = Simulator(basis_small, cache_small, noise, t_final=0.2, dt=0.01)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.1, 0.2], 0.3, seed=81)
    b0 = make_initial_coeffs(basis_small.size, "random", 3, 0.4, 1.0)
    tr = sim.run(seed=3, ctrl=ctrl, u0=b0, store_beta=True, keep_wiener=True)
    gam = np.empty((sim.n_steps + 1, cache_small.n_dofs))
    for ell, t in enumerate(sim.times):
        gam[ell], _ = ctrl.interp(float(t))
    x = grid_small.x_nodes
    probes = [0, 3, 7]
    resid = np.zeros(len(probes))
    for pi, i in enumerate(probes):
        e = basis_small.fields[i]
        acc = 0.0
        for ell in range(sim.n_steps):
            y = basis_small.field(tr.beta_series[ell]) + cache_small.field(gam[ell])
            # wall forcing term by direct sampling
            table = ctrl.coeffs(gam[ell])
            wall = 0.0
            for w, btab in ((0, table[2]), (1, table[3])):
                bvals = btab[0].real + 2.0 * (
                    btab[1:, None] * np.exp(1j * np.outer(grid_small.kx[1 : btab.size], x))
                ).real.sum(axis=0)
                ji = int(basis_small.mode_j[i])
                tc = basis_small.tau_trace[i, w]
                tvals = tc.real * np.ones_like(x) if ji == 0 else 2.0 * (
                    tc * np.exp(1j * grid_small.kx[ji] * x)
                ).real
                wall += grid_small.w_x * float(bvals @ tvals)
            conv = nonlinear_term(y, basis_small)[i]
            acc += sim.dt * (-nu * inner_v(y, e) + nu * wall - conv)
            gk = noise.additive[i] + noise.mult_gain * tr.beta_series[ell][i]
            acc += float(gk @ tr.wiener[ell])
        y_end = basis_small.field(tr.beta_series[-1]) + cache_small.field(gam[-1])
        y_start = basis_small.field(tr.beta_series[0]) + cache_small.field(gam[0])
        lhs = inner_h(y_end, e) - inner_h(y_start, e)
        resid[pi] = abs(lhs - acc)
    assert resid.max() < 1e-9


def test_tracking_series_matches_field_quadrature(basis_small, cache_small,
                                                  make_control):
    # the in-loop tracking diagnostic equals the quadrature of |y - y_ref|^2
    # over reconstructed fields
    from slipflow.control import Target

    noise = build_noise(basis_small.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    sim = Simulator(basis_small, cache_small, noise, t_final=0.1, dt=0.01)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.1], 0.3, seed=83)
    ref_ctrl = make_control(2 * np.pi, 2, [0.0, 0.1], 0.2, seed=84)
    b0 = make_initial_coeffs(basis_small.size, "random", 4, 0.4, 1.0)
    rng = np.random.default_rng(0)
    beta_ref = 0.2 * rng.standard_normal((sim.n_steps + 1, basis_small.size))
    gamma_ref, _ = sim.gamma_series(ref_ctrl)
    target = Target(times=sim.times.copy(), beta_series=beta_ref,
                    gamma_series=gamma_ref)
    tr = sim.run(seed=5, ctrl=ctrl, u0=b0, store_beta=True, target=target)
    gam, _ = sim.gamma_series(ctrl)
    for ell in (0, sim.n_steps // 2, sim.n_steps):
        y = basis_small.field(tr.beta_series[ell]) + cache_small.field(gam[ell])
        y_ref = basis_small.field(beta_ref[ell]) + cache_small.field(gamma_ref[ell])
        diff = y - y_ref
        direct = inner_h(diff, diff)
        assert abs(tr.tracking[ell] - direct) < 1e-10 * max(1.0, direct)


def test_trajectory_npz_export(tmp_path, sim_small):
    b0 = make_initial_coeffs(sim_small.ops.n, "random", 3, 0.4, 1.0)
    tr = sim_small.run(seed=1, u0=b0, store_beta=True)
    p1 = tmp_path / "a.npz"
    p2 = tmp_path / "b.npz"
    tr.export_npz(p1)
    tr.export_npz(p2)
    assert p1.read_bytes() == p2.read_bytes()
    with np.load(p1) as data:
        assert np.array_equal(data["beta_series"], tr.beta_series)
        assert np.array_equal(data["u_sq"], tr.u_sq)
        assert int(data["seed"]) == 1


# -- pseudospectral convection (n >= N_PS) -----------------------------------------


def _wide_sim(wide, **kw):
    noise = build_noise(wide.basis.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    kw.setdefault("ops", wide.ops)
    return Simulator(wide.basis, wide.cache, noise, t_final=0.05, dt=0.005, **kw)


@pytest.fixture(scope="module")
def narrow():
    """A modes_x = 3 grid (n_x = 12) with an n = 24 basis, dense operators assembled."""
    spec = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    basis = bs.build_eigenbasis(spec, 24, grid)
    cache = LiftingCache(grid, spec.friction_alpha, 2)
    return SimpleNamespace(basis=basis, cache=cache, ops=assemble_operators(basis, cache))


def _check_matches_dense(stack, make_control, n, controlled):
    # conv_bb beta beta + conv_bc gamma beta + conv_cc gamma gamma, row by row
    basis = truncate_basis(stack.basis, n)
    ops = stack.ops if n == stack.basis.size else assemble_operators(basis, stack.cache)
    rng = np.random.default_rng(n)
    beta = 0.5 * rng.standard_normal((BLOCK, n))
    gam = np.zeros((BLOCK, stack.cache.n_dofs))
    if controlled:
        ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=n)
        gam[:] = ctrl.series(np.linspace(0.0, 1.0, BLOCK))[0]
    conv = Convection(basis, stack.cache.fields)
    ps = conv(conv.rows(beta, gam))
    dense = (np.einsum("ipq,wp,wq->wi", ops.conv_bb, beta, beta)
             + np.einsum("ipc,wc,wp->wi", ops.conv_bc, gam, beta)
             + np.einsum("icd,wc,wd->wi", ops.conv_cc, gam, gam))
    assert np.abs(ps - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_pseudospectral_matches_dense(wide, make_control, n, controlled):
    _check_matches_dense(wide, make_control, n, controlled)


@pytest.mark.parametrize("controlled", [False, True])
def test_pseudospectral_matches_dense_at_modes_x_3(narrow, make_control, controlled):
    _check_matches_dense(narrow, make_control, narrow.basis.size, controlled)


@pytest.mark.parametrize("modes_x", [1, 3, 8, 16])
def test_dft_matrices_match_numpy_fft(modes_x):
    spec = DomainSpec(length_x=2 * np.pi, modes_x=modes_x, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    conv = Convection(bs.build_eigenbasis(spec, 4, grid))
    n_bins, n_x = modes_x + 1, grid.n_x
    assert conv.to_grid.shape == (n_x, 2 * n_bins) and conv.from_grid.shape == (2 * n_bins, n_x)
    rng = np.random.default_rng(modes_x)
    spectra = rng.standard_normal((8, n_bins)) + 1j * rng.standard_normal((8, n_bins))
    planes = np.stack([spectra.real, spectra.imag], axis=-1).reshape(8, -1)
    ref = np.fft.irfft(spectra, n=n_x, norm="forward")
    assert np.abs(planes @ conv.to_grid.T - ref).max() <= 1e-14 * np.abs(ref).max()
    samples = rng.standard_normal((8, n_x))
    ref = np.ascontiguousarray(np.fft.rfft(samples)[:, :n_bins]).view(float)
    assert np.abs(samples @ conv.from_grid.T - ref).max() <= 1e-14 * np.abs(ref).max()


def test_convection_rejects_grid_without_room_below_nyquist(basis_small):
    # modes_x = 4 needs n_bins = 5 <= n_x // 2; 9 nodes leave 4
    grid = dataclasses.replace(basis_small.grid, x_nodes=basis_small.grid.x_nodes[:9])
    with pytest.raises(DynamicsError, match="Nyquist"):
        Convection(dataclasses.replace(basis_small, grid=grid))


def test_pseudospectral_kernel_matches_step_em(wide, make_control):
    sim = _wide_sim(wide)
    assert wide.basis.size >= N_PS and sim.convection is not None and sim.table is None
    _check_kernel_matches_step_em(sim, make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=77))


def test_pseudospectral_seed_bits_independent_of_batch(wide, make_control):
    sim = _wide_sim(wide)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=78)
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0),
              store_beta=True, keep_wiener=True)
    seed = 7
    solo = sim.run(seed=seed, **kw)
    for size in (5, 19):
        for pos in (0, size - 1):
            seeds = list(range(100, 100 + size))
            seeds[pos] = seed
            bundle = sim.run_many(seeds, threads=2 if size > BLOCK else 1, **kw)
            _same_path(bundle[pos], solo)


def test_pseudospectral_path_builds_no_dense_tensors(wide, sim_small, make_control):
    from slipflow.diagnostics import empirical_damping_rate

    assert sim_small.convection is None and sim_small.ops._conv_bb is not None
    sim = _wide_sim(wide, ops=None)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=79)
    trajs = sim.run_many(range(3), ctrl=ctrl, store_beta=True)
    assert np.isfinite(empirical_damping_rate(trajs, ctrl, sim))
    assert all(getattr(sim.ops, f"_conv_{k}") is None for k in ("bb", "bc", "cc"))


def test_linear_run_builds_no_dense_tensors(basis_small, cache_small, make_control):
    from slipflow.diagnostics import empirical_damping_rate

    noise = build_noise(basis_small.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    kw = dict(t_final=0.1, dt=0.005, include_nonlinear=False)
    sim = Simulator(basis_small, cache_small, noise, **kw)
    dense = Simulator(basis_small, cache_small, noise,
                      ops=assemble_operators(basis_small, cache_small), **kw)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.1], 0.3, seed=80)
    run = dict(ctrl=ctrl, u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0),
               store_beta=True)
    trajs = sim.run_many(range(3), **run)
    assert np.isfinite(empirical_damping_rate(trajs, ctrl, sim))
    assert all(getattr(sim.ops, f"_conv_{k}") is None for k in ("bb", "bc", "cc"))
    for a, b in zip(trajs, dense.run_many(range(3), **run)):
        _same_path(a, b)


@pytest.mark.parametrize("table",["projection", "synthesis", "to_grid", "from_grid"])
def test_skew_probe_rejects_tampered_table(wide, table):
    conv = Convection(wide.basis, wide.cache.fields)
    _probe_skew(conv)
    tab = {"projection": conv.projection[2][2], "synthesis": conv.synthesis[2][2],
           "to_grid": conv.to_grid, "from_grid": conv.from_grid}[table]
    tab[4, 4] += 1e-6 * np.abs(tab).max()
    with pytest.raises(DynamicsError, match="skew"):
        _probe_skew(conv)
