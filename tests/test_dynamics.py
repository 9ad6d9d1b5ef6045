import copy
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    advective_convection,
    loop_project,
    loop_samples,
    padded,
    quad_weights_domain,
    sample_fields,
    sampled_convection_tensors,
    x_rule,
)

from slipflow import basis as bs
from slipflow import dynamics as dyn
from slipflow.basis import energy_pairing, mass_pairing
from slipflow.dynamics import (
    BLOCK,
    N_PS,
    STACK,
    BlowupError,
    Convection,
    DenseConvection,
    DynamicsError,
    GalerkinState,
    InsufficientPathsError,
    NoiseModel,
    Paths,
    Simulator,
    Trajectory,
    _check_scales,
    _Pieces,
    _probe_skew,
    assemble_operators,
    build_noise,
    drift,
    make_initial_coeffs,
    step_em,
    wiener_increments,
)
from slipflow.geometry import DomainSpec, GeometryError, build_grid
from slipflow.lifting import LiftingCache


@pytest.fixture(scope="module")
def sim_small(basis_small, cache_small):
    noise = build_noise(basis_small.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    return Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)


# -- noise model ---------------------------------------------------------------


def test_noise_additive_only(basis_small):
    noise = build_noise(basis_small.size, 2, 0.1, 1.0, 3, [0.0, 0.0])
    m0 = noise.matrix(np.zeros(basis_small.size))
    m1 = noise.matrix(np.ones(basis_small.size))
    assert np.array_equal(m0, m1)
    assert np.array_equal(m0, noise.additive)


def test_noise_linear_multiplicative(basis_small):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.3]))
    beta = np.arange(1.0, n + 1)
    assert np.allclose(noise.matrix(beta)[:, 0], 0.3 * beta)


def test_noise_lipschitz_and_growth(basis_small):
    n = basis_small.size
    noise = build_noise(n, 3, 0.2, 0.5, 11, [0.1, 0.2, 0.05])
    k_lip = noise.lipschitz_k
    rng = np.random.default_rng(4)
    for _ in range(100):
        b1 = rng.standard_normal(n)
        b2 = rng.standard_normal(n)
        d = noise.matrix(b1) - noise.matrix(b2)
        lhs = np.sum(d * d)
        assert lhs <= k_lip * np.sum((b1 - b2) ** 2) * (1 + 1e-12)
    # linear-growth constant of the summed channel norms
    k_gr = max(np.linalg.norm(noise.additive, axis=0).sum(), noise.mult_gain.sum())
    for _ in range(100):
        b = 3.0 * rng.standard_normal(n)
        g = noise.matrix(b)
        total = np.linalg.norm(g, axis=0).sum()
        assert total <= k_gr * (1.0 + np.linalg.norm(b)) * (1 + 1e-12)


def test_noise_validation():
    with pytest.raises(DynamicsError):
        NoiseModel(additive=np.zeros((4, 2)), mult_gain=np.array([0.1]))
    with pytest.raises(DynamicsError):
        NoiseModel(additive=np.zeros((4, 1)), mult_gain=np.array([-0.1]))


# -- convection ----------------------------------------------------------------


def test_nonlinear_zero(basis_small, grid_small):
    # ((y . grad) y, e_i) of one field y is Convection's one-field case
    conv = Convection(basis_small, bs.ModeField.zeros(grid_small)[None])
    out = conv.stacked(np.zeros(basis_small.size), np.ones(1))
    assert np.abs(out).max() == 0.0


def test_nonlinear_pure_shear_vanishes(basis_small, grid_small):
    v = bs.ModeField.zeros(grid_small)
    v[None]._put_shear([0], np.cos(np.pi * grid_small.y_cgl)[:, None])
    out = Convection(basis_small, v[None]).stacked(np.zeros(basis_small.size), np.ones(1))
    assert np.abs(out).max() < 1e-12


def test_nonlinear_skew_symmetry(basis_small):
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta = rng.standard_normal(basis_small.size)
        v = basis_small.fields.combine(beta)
        val = beta @ Convection(basis_small, v[None]).stacked(np.zeros(len(beta)), np.ones(1))
        assert abs(val) <= 1e-8 * max(1.0, energy_pairing(v[None], v[None])[0, 0])


def test_nonlinear_band_guard(basis_small, grid_small):
    # three modes past the grid's band
    nj, nq = grid_small.spec.modes_x + 4, grid_small.n_q
    f = bs.ModeField(grid_small, *(np.zeros((nj, 2, q)) for q in (nq, nq, 2, 2)))
    with pytest.raises(DynamicsError):
        Convection(basis_small, f[None])


def test_convection_tensors_match_direct(sim_small, basis_small, cache_small, make_control):
    rng = np.random.default_rng(8)
    dense = sim_small.ops.convection
    n = basis_small.size
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=60)
    beta = rng.standard_normal(n)
    gam = ctrl.gamma[0]
    y = basis_small.fields.combine(beta) + padded(cache_small.fields.combine(gam))
    direct = Convection(basis_small, y[None]).stacked(np.zeros(n), np.ones(1))
    z = np.concatenate([beta, gam])
    tensor = dense.conv.reshape(n, -1) @ np.outer(z, z).ravel()
    assert np.abs(tensor - direct).max() < 1e-10 * max(1.0, np.abs(direct).max())


@pytest.mark.parametrize("block,fault", [((0, 0), "skew"), ((0, 0), "triad"), ((0, 1), "triad"),
                                         ((1, 0), "triad"), ((1, 1), "triad")],
                         ids=["skew", "triad", "bc-triad", "cb-triad", "cc-triad"])
def test_convection_check_rejects_tampered_tensor(sim_small, basis_small, cache_small,
                                                  block, fault, monkeypatch):
    # a fault of 1e-6 of its block's scale in the triad sum's C, in each of
    # the four blocks (advecting part, advected part: 0 the basis entries, 1
    # the lifted fields), makes the constructor raise
    clean, n, j = sim_small.ops.convection.conv, basis_small.size, basis_small.mode_j
    z = _Pieces(basis_small.fields, cache_small.fields)
    scale = _check_scales(_Pieces(basis_small.fields), z)[block]
    ps, qs = (np.arange(n) if b == 0 else n + np.arange(cache_small.n_dofs) for b in block)
    faults = {}
    if fault == "skew":
        # break skew symmetry on the largest (on-triad) entry
        faults[np.unravel_index(np.abs(clean[:, :n, :n]).argmax(), (n, n, n))] = 1e-6 * scale
    elif block == (0, 0):
        # a skew-symmetric pair of entries off the Fourier triads
        i, p, q = next((i, p, q) for i in range(n) for p in range(n) for q in range(i + 1, n)
                       if j[i] not in (j[p] + j[q], abs(j[p] - j[q])))
        faults[i, p, q], faults[q, p, i] = 1e-6 * scale, -1e-6 * scale
    else:
        # an entry no triad of the two fields' modes reaches
        i, p, q = next((i, p, q) for i in range(n) for p in ps for q in qs
                       if not any(j[i] in (a + b, abs(a - b)) for a in np.flatnonzero(z.support[p])
                                  for b in np.flatnonzero(z.support[q])))
        assert clean[i, p, q] == 0.0
        faults[i, p, q] = 1e-6 * scale
    triad_sum = dyn._triad_sum

    def faulty(out, *pieces):                 # out is C viewed as (i, q, p)
        triad_sum(out, *pieces)
        for (i, p, q), d in faults.items():
            out[i, q, p] += d

    monkeypatch.setattr(dyn, "_triad_sum", faulty)
    with pytest.raises(DynamicsError, match=fault):
        DenseConvection(basis_small, cache_small.fields)


def test_reach_counts_fourier_triads():
    # R[k, a, b] on one-hot mode tables: the signs s with |s a + b| = k,
    # s = +1 alone at a = 0 (a real mode has no conjugate to pair with)
    j = 6
    ref = np.zeros((j, j, j))
    for a in range(j):
        for b in range(j):
            for s in (1,) if a == 0 else (1, -1):
                if abs(s * a + b) < j:
                    ref[abs(s * a + b), a, b] += 1
    assert np.array_equal(dyn._reach(np.eye(j), np.eye(j)), ref)


@pytest.fixture(scope="module")
def full_band(wide):
    """n = 48 on the modes_x = 8 grid with a control of n_modes = 8: the lifted
    fields reach the top mode, so products land past the band."""
    basis = bs.build_eigenbasis(wide.basis.grid, 48)
    cache = LiftingCache(basis.grid, 8)
    return SimpleNamespace(basis=basis, cache=cache, ops=assemble_operators(basis, cache))


@pytest.fixture(scope="module", params=["sim_small", "narrow", "full_band"])
def sampled_case(request):
    """A config's assembled operators with the sampled-quadrature oracle of its tensors."""
    stack = request.getfixturevalue(request.param)       # basis, cache and ops
    return stack, sampled_convection_tensors(stack.basis, stack.cache)


def _blocks(tensor, n):
    """The four blocks of a tensor C (n, n + n_a, n + n_a), by (advecting part,
    advected part), 0 the basis entries and 1 the lifted fields."""
    parts = (slice(None, n), slice(n, None))
    return {(b, c): tensor[:, parts[b], parts[c]] for b in (0, 1) for c in (0, 1)}


def test_convection_tensors_match_sampled_oracle(sampled_case):
    # each block against its own largest entry, and the two mixed blocks'
    # sum C(E, A) + C(A, E)^T against its own
    stack, (ref, _) = sampled_case
    n = stack.basis.size
    assert n < N_PS
    tensor = stack.ops.convection.conv
    assert tensor.shape == ref.shape
    got, want = _blocks(tensor, n), _blocks(ref, n)
    for t in (got, want):
        t["mixed"] = t[0, 1] + t[1, 0].transpose(0, 2, 1)
    for key in got:
        assert np.abs(got[key] - want[key]).max() <= 1e-13 * np.abs(want[key]).max(), key


def test_check_scales_from_coefficients(sampled_case):
    # each block's scale bounds its every entry (an entry is at most its
    # summed term magnitudes), and the basis block's is no larger than the
    # sampled quadrature's
    stack, (_, oracle_scale) = sampled_case
    scales = _check_scales(_Pieces(stack.basis.fields),
                           _Pieces(stack.basis.fields, stack.cache.fields))
    assert scales[0, 0] <= oracle_scale
    for key, block in _blocks(stack.ops.convection.conv, stack.basis.size).items():
        assert np.abs(block).max() <= scales[key], key


def test_dense_assembly_samples_no_grid(basis_small, cache_small, monkeypatch):
    # src has no field sampler and no FFT: the assembly reads coefficients only
    def refuse(*args, **kw):
        raise AssertionError("the dense assembly sampled fields on an x grid")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert not hasattr(bs, "sample_fields") and not hasattr(dyn, "sample_fields")
    assert basis_small.size < N_PS
    ops = assemble_operators(basis_small, cache_small)
    assert "convection" not in vars(ops)
    ops.convection  # the first read assembles all three tensors
    assert "convection" in vars(ops)


def test_operators_reject_lifting_of_other_friction(basis_small, grid_free):
    # the basis and the lifting read alpha from their grids, so a basis at
    # alpha = 1 and a lifting at alpha = 0 do not assemble
    with pytest.raises(GeometryError):
        assemble_operators(basis_small, LiftingCache(grid_free, 2))


def test_mass_pairings_against_quadrature(sim_small, basis_small, cache_small, grid_small):
    w2d = quad_weights_domain(grid_small)

    def quadrature(us, vs):
        su, sv = sample_fields(us), sample_fields(vs)
        return np.array([[np.sum((a[0] * b[0] + a[1] * b[1]) * w2d) for b in sv] for a in su])

    lift_h = quadrature(basis_small.fields, cache_small.fields)
    gram_h = quadrature(cache_small.fields, cache_small.fields)
    assert np.abs(sim_small.ops.lift_h - lift_h).max() <= 1e-12 * np.abs(lift_h).max()
    assert np.abs(sim_small.ops.gram_h - gram_h).max() <= 1e-12 * np.abs(gram_h).max()


def test_y_sq_matches_field_pairings(sim_small, basis_small, cache_small):
    # the squared mass and energy norms of y = sum beta_i e_i + sum gamma_c a_c
    # for one state, an (L, n) series with (L, n_ctrl) controls and a (P, L, n)
    # stack of series; with gamma = 0 they are |beta|^2 and beta . Lambda beta
    ops, rng = sim_small.ops, np.random.default_rng(31)
    n, nc = ops.n, ops.cache.n_dofs
    for shape in [(), (5,), (3, 5)]:
        beta = rng.standard_normal(shape + (n,))
        gamma = rng.standard_normal(shape[-1:] + (nc,))
        y = (basis_small.fields.combine(beta.reshape(-1, n))
             + padded(cache_small.fields.combine(
                 np.broadcast_to(gamma, shape + (nc,)).reshape(-1, nc))))
        for energy, pairing in ((False, mass_pairing), (True, energy_pairing)):
            direct = np.diagonal(pairing(y, y)).reshape(shape)
            got = ops.y_sq(beta, gamma, energy=energy)
            assert got.shape == shape
            assert np.abs(got - direct).max() <= 1e-10 * np.abs(direct).max()
        zero = np.zeros(nc)
        assert np.allclose(ops.y_sq(beta, zero), (beta**2).sum(-1), rtol=1e-14, atol=0)
        assert np.allclose(ops.y_sq(beta, zero, energy=True), (beta**2 * ops.lam).sum(-1),
                           rtol=1e-14, atol=0)


# -- drift ----------------------------------------------------------------------


def test_drift_zero_state(sim_small):
    nc = sim_small.ops.cache.n_dofs
    f = drift(np.zeros(sim_small.ops.n), sim_small.ops, 0.5, np.zeros(nc), np.zeros(nc),
              sim_small.convection)
    assert np.abs(f).max() == 0.0


def test_drift_linear_eigendecay(sim_small, basis_small):
    rng = np.random.default_rng(12)
    beta = rng.standard_normal(basis_small.size)
    nc = sim_small.ops.cache.n_dofs
    f = drift(beta, sim_small.ops, 0.5, np.zeros(nc), np.zeros(nc), None)
    assert np.allclose(f, -0.5 * basis_small.eigenvalues * beta, rtol=1e-12, atol=1e-14)


def test_drift_control_terms_against_quadrature(sim_small, basis_small, cache_small,
                                                grid_small, make_control):
    # beta = 0, static control: drift must equal
    # nu int_G b (e_i . tau) - nu (lift, e_i)_E - ((lift . grad) lift, e_i)
    nu = grid_small.spec.viscosity
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.4, seed=61)
    gam = ctrl.gamma[0]
    f = drift(np.zeros(basis_small.size), sim_small.ops, nu, gam, np.zeros_like(gam),
              sim_small.convection)
    lifted = cache_small.fields.combine(gam)
    table = ctrl.coeffs(gam)
    x, w_x = x_rule(grid_small)
    oracle = np.empty(basis_small.size)
    conv = Convection(basis_small, lifted[None]).stacked(np.zeros(basis_small.size),
                                                         np.ones(1))
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
            wall += w_x * float(bvals @ tvals)
        oracle[i] = nu * wall - nu * energy_pairing(lifted[None], e[None])[0, 0] - conv[i]
    assert np.abs(f - oracle).max() < 1e-8


def test_drift_time_derivative_term(sim_small, cache_small, basis_small, make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.4, seed=62)
    gam, gdot = ctrl.interp(0.25)
    conv = sim_small.convection
    f_move = drift(np.zeros(basis_small.size), sim_small.ops, 0.5, gam, gdot, conv)
    f_stat = drift(np.zeros(basis_small.size), sim_small.ops, 0.5, gam, np.zeros_like(gdot), conv)
    dfield = cache_small.fields.combine(gdot)
    expected = -mass_pairing(basis_small.fields, dfield[None])[:, 0]
    assert np.abs((f_move - f_stat) - expected).max() < 1e-10


@pytest.mark.parametrize("nonlinear", [True, False])
def test_drift_stacked_rows_match_per_row(sim_small, make_control, nonlinear):
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.3, 1.0], 0.4, seed=63)
    gam, gdot = ctrl.series(np.linspace(0.0, 1.0, 7))
    beta = np.random.default_rng(64).standard_normal((2, 7, sim_small.ops.n))
    conv = sim_small.convection if nonlinear else None
    stacked = drift(beta, sim_small.ops, 0.5, gam, gdot, conv)
    rows = np.array([[drift(b, sim_small.ops, 0.5, g, d, conv)
                      for b, g, d in zip(path, gam, gdot)] for path in beta])
    assert np.abs(stacked - rows).max() <= 1e-13 * np.abs(rows).max()


# -- stepping -------------------------------------------------------------------


def test_step_em_trivial(basis_small, cache_mean):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, cache_mean)
    ops.lam[:] = 0.0
    st = GalerkinState(t=0.0, beta=np.ones(n))
    zero = np.zeros(ops.cache.n_dofs)
    out = step_em(st, 0.1, np.zeros(1), ops, noise, 0.5, zero, zero, include_nonlinear=False)
    assert out.t == pytest.approx(0.1)
    assert np.array_equal(out.beta, st.beta)


def test_linear_closed_form_first_order(basis_small, cache_mean, zero_ctrl):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, cache_mean)
    b0 = make_initial_coeffs(n, "random", 3, 1.0, 1.0)
    t_final = 0.25
    nu = basis_small.grid.spec.viscosity
    exact = b0 * np.exp(-nu * basis_small.eigenvalues * t_final)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        sim = Simulator(basis_small, cache_mean, noise, t_final=t_final, dt=dt,
                        include_nonlinear=False, ops=ops)
        tr = sim.run(seed=0, ctrl=zero_ctrl(sim), u0=b0, noise_on=False)
        errs.append(np.abs(tr.beta_final - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 0.8) and np.all(rates < 1.2)


def test_homogeneous_energy_identity(basis_small, cache_mean, zero_ctrl):
    # noise off, zero control: per-step defect of d|u|^2 + 2 nu |u|_E^2 dt
    # equals |drift|^2 dt^2 exactly, and the defect rate is first order in dt
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, cache_mean)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    nu = basis_small.grid.spec.viscosity
    defect_rates = []
    for dt in (4e-3, 2e-3, 1e-3):
        sim = Simulator(basis_small, cache_mean, noise, t_final=0.2, dt=dt, ops=ops)
        tr = sim.run(seed=0, ctrl=zero_ctrl(sim), u0=b0, noise_on=False, store_beta=True)
        d = tr.u_sq[1:] - tr.u_sq[:-1] + 2 * nu * tr.u_esq[:-1] * dt
        defect_rates.append(np.abs(d).max() / dt)
        # internal consistency: defect equals |drift|^2 dt^2 step by step
        nc = sim.ops.cache.n_dofs
        for ell in (0, len(tr.times) // 2):
            f = drift(tr.beta_series[ell], sim.ops, nu, np.zeros(nc), np.zeros(nc), sim.convection)
            assert abs(d[ell] - (f @ f) * dt * dt) < 1e-10 * max(1.0, f @ f * dt * dt)
    rates = np.log2(np.array(defect_rates[:-1]) / np.array(defect_rates[1:]))
    assert np.all(rates > 0.9)


def test_strong_order_multiplicative(zero_ctrl):
    # drift kept gentle so the multiplicative-noise error dominates the range
    spec = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.05)
    grid = build_grid(spec)
    basis = bs.build_eigenbasis(grid, 6)
    n = basis.size
    noise = build_noise(n, 2, 0.3, 1.0, 3, [0.2, 0.2])
    cache = LiftingCache(grid, 0)
    ops = assemble_operators(basis, cache)
    b0 = make_initial_coeffs(n, "random", 5, 0.5, 1.0)
    t_final = 0.25
    n_fine = 1024
    dt_fine = t_final / n_fine
    levels = [32, 64, 128]
    seeds = range(60)
    dw_fine = np.stack([wiener_increments(s, n_fine, noise.m, dt_fine) for s in seeds])
    finals = {}
    for lv in levels + [n_fine]:
        dw = dw_fine.reshape(len(seeds), lv, n_fine // lv, noise.m).sum(axis=2)
        sim = Simulator(basis, cache, noise, t_final=t_final, dt=t_final / lv, ops=ops)
        paths = sim.run_many(seeds, ctrl=zero_ctrl(sim), u0=b0, dw=dw)
        finals[lv] = [tr.beta_final for tr in paths]
    mean_err = np.array([np.mean([np.linalg.norm(a - b)
                                  for a, b in zip(finals[lv], finals[n_fine])])
                         for lv in levels])
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


def _check_kernel_matches_step_em(sim, ctrl, dense=None):
    # the whole stored path agrees with step_em iterated on the same Wiener
    # increments and, given a pseudospectral simulator's `dense` reference,
    # with Euler-Maruyama on drift(..., dense)
    b0 = make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0)
    tr = sim.run(seed=4, ctrl=ctrl, u0=b0, store_beta=True, keep_wiener=True)
    assert not tr.blown_up
    gamma, gdot = sim.gamma_series(ctrl)
    state = GalerkinState(t=0.0, beta=b0.copy())
    ref, ref_dense = [state.beta], [state.beta]
    for ell in range(sim.n_steps):
        state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, sim.noise, sim.nu,
                        gamma[ell], gdot[ell])
        ref.append(state.beta)
        if dense is not None:
            b = ref_dense[-1]
            ref_dense.append(b + sim.dt * drift(b, sim.ops, sim.nu, gamma[ell], gdot[ell], dense)
                             + sim.noise.matrix(b) @ tr.wiener[ell])
    assert np.abs(tr.beta_series - np.array(ref)).max() < 1e-12
    if dense is not None:
        assert np.abs(tr.beta_series - np.array(ref_dense)).max() < 1e-12


def test_kernel_matches_step_em(sim_small, wide, make_control, zero_ctrl):
    # dense convection, additive and multiplicative noise on: with a
    # time-varying control, with the zero control (the kernel reads only the
    # beta rows of its table), and at n = 48 on the modes_x = 8 grid, the
    # widest dense case below N_PS
    assert sim_small.convection is sim_small.ops.convection
    _check_kernel_matches_step_em(sim_small, make_control(2 * np.pi, 2, [0.0, 0.25, 0.5],
                                                          0.3, seed=77))
    _check_kernel_matches_step_em(sim_small, zero_ctrl(sim_small))
    basis = bs.build_eigenbasis(wide.basis.grid, 48)
    sim = Simulator(basis, wide.cache, build_noise(48, 2, 0.05, 1.0, 7, [0.1, 0.05]),
                    t_final=0.05, dt=0.005)
    assert basis.size < N_PS and isinstance(sim.convection, DenseConvection)
    _check_kernel_matches_step_em(sim, make_control(2 * np.pi, 2, [0.0, 0.025, 0.05],
                                                    0.3, seed=77))


@pytest.mark.parametrize("n", [59, 60])
def test_evaluator_switches_at_60(wide, n):
    # on the workloads' grid the kernel's evaluator is the dense tensors up to
    # 59 entries and `Convection` from 60 on: moving N_PS moves the bits of
    # every size in between, which the numeric reference does not run
    basis = bs.build_eigenbasis(wide.basis.grid, n)
    sim = Simulator(basis, wide.cache, build_noise(n, 2, 0.05, 1.0, 7, [0.1, 0.05]),
                    t_final=0.05, dt=0.005)
    assert (wide.basis.grid.spec.modes_x, wide.basis.grid.spec.nodes_y) == (8, 24)
    assert sim.convection is sim.ops.convection
    assert isinstance(sim.convection, DenseConvection if n < 60 else Convection)


def test_dense_table_built_once(sim_small, make_control, zero_ctrl, monkeypatch):
    # the simulator's evaluator is ops.convection, handed to every kernel call, and
    # two passes with one active set read one restricted table T, T[q, (p, i)]
    # = C[i, p, q] over the rows r = (0..n-1, n + active)
    dense, n = sim_small.ops.convection, sim_small.ops.n
    assert sim_small.convection is dense
    seen, kernel = [], dyn._em_block
    monkeypatch.setattr(dyn, "_em_block", lambda *a: seen.append(a[2]) or kernel(*a))
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=81)
    active = np.flatnonzero(sim_small.gamma_series(ctrl)[0].any(axis=0))
    sim_small.run_many(range(3), ctrl=zero_ctrl(sim_small))
    sim_small.run_many(range(2), ctrl=ctrl)
    table = dense.restricted(active).table
    sim_small.run_many(range(BLOCK + 1), ctrl=ctrl)
    assert len(seen) == 3 and all(c is dense for c in seen) and sim_small.convection is dense
    assert dense.restricted(active).table is table
    r = np.r_[:n, n + active]
    assert table.shape == (r.size, r.size * n)
    assert np.array_equal(table.reshape(r.size, r.size, n),
                          dense.conv[:, r][:, :, r].transpose(2, 1, 0))


@pytest.mark.parametrize("dt, t_final", [(0.5, 1.0), (0.1, 2.0)])
def test_kernel_blowup_step_matches_step_em(basis_small, cache_mean, zero_ctrl, dt, t_final,
                                            monkeypatch):
    # explicit Euler past its stability limit on the linear problem
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    monkeypatch.setattr(dyn, "BLOWUP_LIMIT", 1e4)
    sim = Simulator(basis_small, cache_mean, noise, t_final=t_final, dt=dt,
                    include_nonlinear=False)
    u0 = 10.0 * np.ones(n)
    tr = sim.run(seed=0, ctrl=zero_ctrl(sim), u0=u0, noise_on=False)
    state = GalerkinState(t=0.0, beta=u0)
    first = -1
    zero = np.zeros(sim.ops.cache.n_dofs)
    for ell in range(sim.n_steps):
        state = step_em(state, dt, np.zeros(1), sim.ops, noise, sim.nu, zero, zero,
                        include_nonlinear=False)
        if state.beta @ state.beta > dyn.BLOWUP_LIMIT:
            first = ell + 1
            break
    assert first > 0
    assert tr.blown_up and tr.blowup_step == first


def test_parseval_reconstruction(sim_small, basis_small, zero_ctrl):
    b0 = make_initial_coeffs(basis_small.size, "random", 3, 0.5, 1.0)
    tr = sim_small.run(seed=2, ctrl=zero_ctrl(sim_small), u0=b0)
    field = basis_small.fields.combine(tr.beta_final)
    u_sq = mass_pairing(field[None], field[None])[0, 0]
    assert abs(u_sq - tr.u_sq[-1]) < 1e-8 * max(1.0, tr.u_sq[-1])


def test_initial_projection_monotone(grid_small):
    # the fields of a coefficient vector's heads beta[:n]: the basis is
    # orthonormal, so their mass norms are |beta[:n]|^2, nondecreasing in n
    big = bs.build_eigenbasis(grid_small, 16)
    beta = np.random.default_rng(14).standard_normal(16)
    fields = big.fields.combine(np.tril(np.ones((16, 16))) * beta)   # row n - 1: beta[:n]
    norms = np.diagonal(mass_pairing(fields, fields))
    assert np.abs(norms - np.cumsum(beta**2)).max() <= 1e-12 * (beta @ beta)
    assert (np.diff(norms) > 0).all()


def test_galerkin_consistency_common_noise(grid_small, zero_ctrl):
    # common-noise truncations: the gap shrinks as the basis grows
    big = bs.build_eigenbasis(grid_small, 16)
    noise_full = build_noise(16, 2, 0.05, 1.5, 5, [0.1, 0.1])
    b_full = make_initial_coeffs(16, "random", 8, 0.6, 0.8)
    cache = LiftingCache(grid_small, 0)
    finals = {}
    for n in (4, 8, 16):
        b = bs.build_eigenbasis(grid_small, n)
        noise = NoiseModel(additive=noise_full.additive[:n], mult_gain=noise_full.mult_gain)
        sim = Simulator(b, cache, noise, t_final=0.4, dt=0.004)
        tr = sim.run(seed=21, ctrl=zero_ctrl(sim), u0=b_full[:n])
        pad = np.zeros(16)
        pad[:n] = tr.beta_final
        finals[n] = pad
    gap_small = np.linalg.norm(finals[4] - finals[8])
    gap_big = np.linalg.norm(finals[8] - finals[16])
    assert gap_big <= gap_small


def test_blowup_flagged(basis_small, cache_mean, zero_ctrl, monkeypatch):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    monkeypatch.setattr(dyn, "BLOWUP_LIMIT", 1e4)
    sim = Simulator(basis_small, cache_mean, noise, t_final=1.0, dt=0.5,
                    include_nonlinear=False)
    # eigen-decay explicit Euler is unstable at dt = 0.5 for large eigenvalues
    tr = sim.run(seed=0, ctrl=zero_ctrl(sim), u0=10.0 * np.ones(n), noise_on=False)
    assert tr.blown_up and tr.blowup_step > 0
    assert np.isnan(tr.u_sq[-1])


def test_step_em_blowup_raises(basis_small, cache_mean):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    ops = assemble_operators(basis_small, cache_mean)
    st = GalerkinState(t=0.0, beta=np.full(n, 1e200))
    zero = np.zeros(ops.cache.n_dofs)
    from slipflow.dynamics import BlowupError

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError):
        step_em(st, 1e6, np.zeros(1), ops, noise, 1e3, zero, zero)


def test_simulator_guards(basis_small, cache_small, zero_ctrl):
    n = basis_small.size
    noise = NoiseModel(additive=np.zeros((n, 1)), mult_gain=np.array([0.0]))
    with pytest.raises(DynamicsError):
        Simulator(basis_small, cache_small, noise, t_final=1.0, dt=0.3)
    sim = Simulator(basis_small, cache_small, noise, t_final=0.5, dt=0.005)
    short = make_control(2 * np.pi, 2, [0.0, 0.2], 0.1, seed=1) if False else None
    from slipflow.lifting import BoundaryControl

    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 0.2], 4.0)
    with pytest.raises(DynamicsError):
        sim.gamma_series(ctrl)
    with pytest.raises(DynamicsError):
        sim.run(ctrl=zero_ctrl(sim), u0=np.zeros(n + 1))


_PATH_ARRAYS = ("times", "beta0", "beta_final", "u_sq", "u_esq", "tracking", "noise_sq",
                "beta_series", "wiener")


def _same_path(a, b):
    assert (a.seed, a.blown_up, a.blowup_step) == (b.seed, b.blown_up, b.blowup_step)
    for name in _PATH_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y, equal_nan=True), name


def test_seed_bits_independent_of_batch(sim_small, make_control):
    # a seed's path is the same bits alone, first or last in a batch, and in
    # a padded or a full chunk
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
    for size in (1, 5, BLOCK, BLOCK + 3, 3 * BLOCK + 1, STACK * BLOCK, STACK * BLOCK + 3):
        for pos in {0, size - 1}:
            seeds = list(range(100, 100 + size))
            seeds[pos] = seed
            bundle = sim_small.run_many(seeds, **kw)
            assert [tr.seed for tr in bundle] == seeds
            _same_path(bundle[pos], solo)


def test_kernel_arrays_reused_across_calls(sim_small, basis_small, cache_small, make_control):
    # the kernel's large arrays live on the simulator, one buffer for every
    # pass width; a run after one whose paths all stopped at the first step,
    # and a pass after a wider or a narrower one, is the same bits as on a
    # fresh simulator, and a one-block pass leaves the rest of the buffer
    # untouched
    n = basis_small.size
    fresh = Simulator(basis_small, cache_small, sim_small.noise, t_final=0.5, dt=0.005,
                      ops=sim_small.ops)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=82)
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(n, "random", 3, 0.5, 1.0), store_beta=True)
    sim_small.run_many(range(3), **kw)
    work = sim_small._work

    def same_as_fresh(seeds):
        for a, b in zip(sim_small.run_many(seeds, **kw), fresh.run_many(seeds, **kw)):
            _same_path(a, b)
        assert sim_small._work is work

    blown = sim_small.run_many(range(3), ctrl=ctrl, u0=np.full(n, 1e7))
    assert all(tr.blowup_step == 1 for tr in blown) and sim_small._work is work
    same_as_fresh(range(BLOCK + 2))
    one_block = 2 * (sim_small.n_steps + 1) * BLOCK * n
    assert work.size == STACK * one_block
    same_as_fresh(range(STACK * BLOCK))
    work[one_block:] = np.nan
    same_as_fresh(range(50, 50 + BLOCK))
    assert np.isnan(work[one_block:]).all()
    same_as_fresh(range(7, 7 + STACK * BLOCK))


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_stacked_pass_matches_single_blocks(path, request, make_control):
    # a pass of k blocks is the same bits as k one-block passes, with a
    # control, a target, multiplicative noise and one row driven past the
    # blow-up limit in the pass's last block
    from slipflow.control import Target

    if path == "dense":
        sim = request.getfixturevalue("sim_small")
        assert isinstance(sim.convection, DenseConvection)
    else:
        sim = _wide_sim(request.getfixturevalue("wide"))
        assert isinstance(sim.convection, Convection)
    assert sim.noise.mult_gain.all()
    n = sim.ops.n
    ctrl = make_control(2 * np.pi, 2, [0.0, sim.t_final], 0.3, seed=83)
    rng = np.random.default_rng(2)
    target = Target(times=sim.times.copy(),
                    beta_series=0.1 * rng.standard_normal((sim.n_steps + 1, n)),
                    gamma_series=0.5 * sim.gamma_series(ctrl)[0])
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(n, "random", 3, 0.5, 1.0), target=target,
              store_beta=True, keep_wiener=True)
    for k in range(1, STACK + 1):
        seeds = list(range(200, 200 + k * BLOCK - 2))
        dw = np.stack([wiener_increments(s, sim.n_steps, sim.noise.m, sim.dt) for s in seeds])
        blow = (k - 1) * BLOCK + 1
        dw[blow] *= 1e5
        stacked = sim.run_many(seeds, dw=dw, **kw)
        assert [tr.blown_up for tr in stacked] == [w == blow for w in range(len(seeds))]
        for b in range(k):
            cut = slice(b * BLOCK, (b + 1) * BLOCK)
            for a, c in zip(stacked[cut], sim.run_many(seeds[cut], dw=dw[cut], **kw)):
                _same_path(a, c)


def test_narrow_banks_step_no_padding(sim_small, make_control, monkeypatch):
    # optimize's 4-seed bank is one block and verify's 24-seed stability
    # bundle whole blocks: the kernel is handed no padding row
    seen, kernel = [], dyn._em_block
    monkeypatch.setattr(dyn, "_em_block", lambda *a: seen.append(len(a[0])) or kernel(*a))
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=86)
    for count in (4, 24):
        assert len(sim_small.run_many(range(count), ctrl=ctrl)) == count
    assert seen == [-(-4 // BLOCK) * BLOCK, -(-24 // BLOCK) * BLOCK] == [4, 24]


def test_wiener_stack_rows_follow_seeds(sim_small, zero_ctrl):
    # row w of a dw stack drives the w-th seed's path, past the first pass
    # too, and a stack must have one row per seed
    size = STACK * BLOCK + 2
    dw = 0.01 * np.random.default_rng(4).standard_normal((size, sim_small.n_steps,
                                                            sim_small.noise.m))
    ctrl = zero_ctrl(sim_small)
    bundle = sim_small.run_many(range(size), ctrl=ctrl, dw=dw, keep_wiener=True)
    assert all(np.array_equal(tr.wiener, dw[w]) for w, tr in enumerate(bundle))
    _same_path(bundle[-1], sim_small.run(seed=size - 1, ctrl=ctrl, dw=dw[-1:], keep_wiener=True))
    with pytest.raises(DynamicsError, match="stack"):
        sim_small.run_many(range(2), ctrl=ctrl, dw=dw[:3])
    with pytest.raises(DynamicsError, match="stack"):
        sim_small.run(seed=0, ctrl=ctrl, dw=dw[0])
    assert np.array_equal(sim_small.increments(range(3)), np.stack(
        [wiener_increments(s, sim_small.n_steps, sim_small.noise.m, sim_small.dt)
         for s in range(3)]))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1, 2**64, 2**64 + 5,
                                  3 * 2**64 + 1, 2**100 + 3])
def test_rekeyed_draw_is_a_fresh_philox(seed):
    # the one re-keyed generator draws a fresh Philox(key=seed)'s bits, also
    # right after another seed's odd-length draw left a half-used Philox
    # buffer, and after a 32-bit draw left spare bits in the generator
    dt = 0.01
    ref = np.sqrt(dt) * np.random.Generator(np.random.Philox(key=seed)).standard_normal((7, 3))
    assert np.array_equal(wiener_increments(seed, 7, 3, dt), ref)
    wiener_increments(seed + 1, 5, 1, dt)
    assert np.array_equal(wiener_increments(seed, 7, 3, dt), ref)
    dyn._NORMAL.integers(0, 7, dtype=np.uint32)
    dyn._PHILOX.random_raw()
    assert np.array_equal(wiener_increments(seed, 7, 3, dt), ref)


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_result_outlives_the_next_call(path, request, make_control):
    # a result owns its arrays: a later, wider run on the same simulator
    # reuses the kernel's work buffer and leaves every array of it as it was
    if path == "dense":
        sim = request.getfixturevalue("sim_small")
    else:
        sim = _wide_sim(request.getfixturevalue("wide"))
    ctrl = make_control(2 * np.pi, 2, [0.0, sim.t_final], 0.3, seed=84)
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0),
              store_beta=True, keep_wiener=True)
    first = sim.run_many(range(BLOCK + 3), **kw)
    names = ("seeds", "times", "beta0", "blowup_step") + _PATH_ARRAYS[2:]
    before = {k: getattr(first, k).copy() for k in names}
    sim.run_many(range(50, 50 + STACK * BLOCK), **kw)
    for k, x in before.items():
        assert np.array_equal(getattr(first, k), x), k


def test_result_protocol(sim_small, make_control, monkeypatch):
    # what callers outside the package read of a result: len(), iteration
    # with per-path flags, one-path unpacking, per-path views built once,
    # slices, the usable mask; and make_target does not go through run_many
    from slipflow.control import make_target

    n, m = sim_small.ops.n, sim_small.noise.m
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.5], 0.3, seed=85)
    bundle = sim_small.run_many(range(5), ctrl=ctrl, store_beta=True)
    assert len(bundle) == 5 and [tr.seed for tr in bundle] == list(range(5))
    assert all(type(tr.blown_up) is bool and not tr.blown_up for tr in bundle)
    assert bundle.usable().all()
    (tr,) = sim_small.run_many([7], ctrl=ctrl, keep_wiener=True)
    assert tr.wiener.shape == (sim_small.n_steps, m) and tr.beta_final.shape == (n,)

    for tr in bundle:                       # rebinding is seen by the next iteration
        tr.beta_final = 2.0 * tr.beta_final
    assert all(np.array_equal(tr.beta_final, 2.0 * bundle.beta_final[w])
               for w, tr in enumerate(bundle))
    assert bundle[3] is list(bundle)[3] and isinstance(bundle[3], Trajectory)
    assert np.shares_memory(bundle[3].beta_series, bundle.beta_series)
    part = bundle[1:3]
    assert isinstance(part, Paths) and list(part.seeds) == [1, 2]
    assert np.shares_memory(part.u_sq, bundle.u_sq)
    assert np.array_equal(part[1].u_sq, bundle[2].u_sq)

    blown = sim_small.run_many(range(3), ctrl=ctrl, u0=np.full(n, 1e7))
    assert blown.blown_up.all()
    with pytest.raises(InsufficientPathsError, match="all 3 paths blew up"):
        blown.usable()

    calls = []
    real = Simulator.run_many
    monkeypatch.setattr(Simulator, "run_many",
                        lambda self, seeds, **kw: calls.append(1) or real(self, seeds, **kw))
    make_target(ctrl, sim_small)
    assert calls == []
    sim_small.run_many(range(2), ctrl=ctrl)
    assert calls == [1]


def test_blowup_masked_per_path(basis_small, cache_mean, zero_ctrl, monkeypatch):
    # dt = 0.1 past the explicit stability limit with additive noise: some
    # paths of one bundle blow up, the others must not feel it
    n = basis_small.size
    noise = build_noise(n, 2, 1.0, 0.0, 5, [0.0, 0.0])
    monkeypatch.setattr(dyn, "BLOWUP_LIMIT", 400.0)
    sim = Simulator(basis_small, cache_mean, noise, t_final=2.0, dt=0.1,
                    include_nonlinear=False)
    kw = dict(ctrl=zero_ctrl(sim), u0=np.zeros(n), store_beta=True, keep_wiener=True)
    bundle = sim.run_many(range(BLOCK + 4), **kw)
    blown = [tr for tr in bundle if tr.blown_up]
    assert 0 < len(blown) < len(bundle)
    for tr in bundle:
        _same_path(tr, sim.run(seed=tr.seed, **kw))
    zero = np.zeros(sim.ops.cache.n_dofs)
    for tr in blown:
        state = GalerkinState(t=0.0, beta=np.zeros(n))
        first = -1
        for ell in range(sim.n_steps):
            state = step_em(state, sim.dt, tr.wiener[ell], sim.ops, noise, sim.nu,
                            zero, zero, include_nonlinear=False)
            if state.beta @ state.beta > dyn.BLOWUP_LIMIT:
                first = ell + 1
                break
        s = tr.blowup_step
        assert s == first
        assert np.abs(tr.beta_final - state.beta).max() < 1e-12 * np.abs(state.beta).max()
        for series in (tr.u_sq, tr.u_esq, tr.tracking, tr.noise_sq):
            assert np.isfinite(series[:s]).all() and np.isnan(series[s:]).all()
        assert np.any(tr.beta_series[s - 1]) and not np.any(tr.beta_series[s:])


def test_nonfinite_abort_leaks_no_warning(basis_small, cache_small, make_control, monkeypatch):
    # huge multiplicative noise and no norm limit: every path overflows, is
    # caught as nonfinite, and no RuntimeWarning leaks from its row
    import warnings

    n = basis_small.size
    noise = build_noise(n, 2, 0.05, 1.0, 7, [5000.0, 5000.0])
    monkeypatch.setattr(dyn, "BLOWUP_LIMIT", np.inf)
    sim = Simulator(basis_small, cache_small, noise, t_final=2.0, dt=0.005)
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
    x, w_x = x_rule(grid_small)

    def y_at(ell):
        return (basis_small.fields.combine(tr.beta_series[ell])
                + padded(cache_small.fields.combine(gam[ell])))

    probes = [0, 3, 7]
    resid = np.zeros(len(probes))
    for pi, i in enumerate(probes):
        e = basis_small.fields[i]
        acc = 0.0
        for ell in range(sim.n_steps):
            y = y_at(ell)
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
                wall += w_x * float(bvals @ tvals)
            conv = Convection(basis_small, y[None]).stacked(np.zeros(basis_small.size),
                                                            np.ones(1))[i]
            acc += sim.dt * (-nu * energy_pairing(y[None], e[None])[0, 0] + nu * wall - conv)
            gk = noise.additive[i] + noise.mult_gain * tr.beta_series[ell][i]
            acc += float(gk @ tr.wiener[ell])
        y_end, y_start = y_at(-1), y_at(0)
        lhs = (mass_pairing(y_end[None], e[None]) - mass_pairing(y_start[None], e[None]))[0, 0]
        resid[pi] = abs(lhs - acc)
    assert resid.max() < 1e-9


def test_tracking_series_matches_field_quadrature(basis_small, cache_small,
                                                  make_control):
    # the tracking series equals the quadrature of |y - y_ref|^2 over
    # reconstructed fields, and of |y|^2 on a run without a target
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
    free = sim.run(seed=5, ctrl=ctrl, u0=b0, store_beta=True)
    assert np.array_equal(free.beta_series, tr.beta_series)
    gam, _ = sim.gamma_series(ctrl)
    for ell in (0, sim.n_steps // 2, sim.n_steps):
        # y - y_ref, combined from the coefficient differences, and y alone
        diff = (basis_small.fields.combine(tr.beta_series[ell] - beta_ref[ell])
                + padded(cache_small.fields.combine(gam[ell] - gamma_ref[ell])))
        y = (basis_small.fields.combine(tr.beta_series[ell])
             + padded(cache_small.fields.combine(gam[ell])))
        for series, field in ((tr.tracking, diff), (free.tracking, y)):
            direct = mass_pairing(field[None], field[None])[0, 0]
            assert abs(series[ell] - direct) < 1e-10 * max(1.0, direct)


# -- pseudospectral convection (n >= N_PS) -----------------------------------------


def _wide_sim(wide, **kw):
    noise = build_noise(wide.basis.size, 2, 0.05, 1.0, 7, [0.1, 0.05])
    kw.setdefault("ops", wide.ops)
    return Simulator(wide.basis, wide.cache, noise, t_final=0.05, dt=0.005, **kw)


@pytest.fixture(scope="module")
def narrow():
    """A modes_x = 3 grid (12 x-nodes in the oracles, 10 in `Convection`) with an
    n = 24 basis and its operators."""
    spec = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    basis = bs.build_eigenbasis(grid, 24)
    cache = LiftingCache(grid, 2)
    return SimpleNamespace(basis=basis, cache=cache, ops=assemble_operators(basis, cache))


def _check_matches_dense(stack, make_control, n, controlled):
    # C z z of the rows z = (beta, gamma), row by row, against Convection on
    # the full rows and both evaluators restricted to the two-dof columns
    # [1, 18] and to every column
    basis = bs.build_eigenbasis(stack.basis.grid, n)
    rng = np.random.default_rng(n)
    beta = 0.5 * rng.standard_normal((BLOCK, n))
    gam = np.zeros((BLOCK, stack.cache.n_dofs))
    if controlled:
        ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=n)
        gam[:] = ctrl.series(np.linspace(0.0, 1.0, BLOCK))[0]
    # the dense reference: the wide stack's own, built once, at its size
    conv = Convection(basis, stack.cache.fields)
    dense = (stack.dense if n == stack.basis.size >= N_PS
             else DenseConvection(basis, stack.cache.fields))

    def einsum_ref(g):
        z = np.concatenate([beta, g], axis=1)
        return np.einsum("ipq,wp,wq->wi", dense.conv, z, z)

    ref = einsum_ref(gam)
    assert np.abs(conv(conv.rows(beta, gam)) - ref).max() <= 1e-12 * np.abs(ref).max()
    for active in (np.array([1, 18]), np.arange(gam.shape[1])):
        g = np.zeros_like(gam)
        g[:, active] = gam[:, active]
        ref = einsum_ref(g)
        z = np.concatenate([beta, gam[:, active]], axis=1)[None]    # one (1, BLOCK, .) block
        sub = dense.restricted(active)
        for got in (sub(z), conv.restricted(active)(z)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_pseudospectral_matches_dense(wide, make_control, n, controlled):
    _check_matches_dense(wide, make_control, n, controlled)


@pytest.mark.parametrize("controlled", [False, True])
def test_pseudospectral_matches_dense_at_modes_x_3(narrow, make_control, controlled):
    _check_matches_dense(narrow, make_control, narrow.basis.size, controlled)


@pytest.mark.parametrize("stack", ["wide", "narrow"])
def test_divergence_form_matches_advective_oracle(request, make_control, stack):
    # a 16-row block with a control, so the wall term is on
    stack = request.getfixturevalue(stack)
    basis, fields = stack.basis, stack.cache.fields
    beta = 0.5 * np.random.default_rng(basis.size).standard_normal((BLOCK, basis.size))
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=basis.size)
    conv = Convection(basis, fields)
    z = conv.rows(beta, ctrl.series(np.linspace(0.0, 1.0, BLOCK))[0])
    ref = advective_convection(basis, fields, z)
    assert np.abs(conv(z) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("active", [None, [1, 18]])
def test_stacked_convection_matches_loop_oracle(wide, active):
    # one stacked product per stage is the per-mode loop form, bitwise: on
    # (k, BLOCK) stacks of 4-row blocks, 16-row blocks, the 2-D rows of
    # `stacked`, for the full tables and a restriction
    conv = Convection(wide.basis, wide.cache.fields)
    if active is not None:
        conv = conv.restricted(np.array(active))
    assert conv.s_len.min() < conv.s_idx.shape[1]                  # some mode is padded
    rng = np.random.default_rng(13)
    for lead in ((1, 4), (4, 4), (16, 4), (2, 16), (STACK * BLOCK,), (5,)):
        z = 0.5 * rng.standard_normal(lead + (conv.n + conv.n_a,))
        s = conv.samples(z)
        assert np.array_equal(s, loop_samples(conv, z))
        assert np.array_equal(conv.project(s), loop_project(conv, s))


def test_convection_conserves_energy(wide):
    # <N(y), beta> = 0 for y in the basis span, to 1e-12 of the summed
    # magnitudes of the terms of the pairing
    conv = Convection(wide.basis, wide.cache.fields)
    beta = np.random.default_rng(12).standard_normal((BLOCK, conv.n))
    nl = conv(conv.rows(beta))
    assert (np.abs(np.vecdot(nl, beta)) <= 1e-12 * np.vecdot(np.abs(nl), np.abs(beta))).all()


def test_convection_rejects_non_solenoidal_field(wide):
    f = wide.cache.fields
    bad = bs.ModeField(f.grid, f.vals.copy(), f.dvals, f.wall_vals, f.wall_dvals)
    bad.vals[:, 1, 0] *= 1.0 + 1e-9           # v1 at mode 1 no longer matches v2'
    with pytest.raises(DynamicsError, match="divergence"):
        Convection(wide.basis, bad)


@pytest.mark.parametrize("modes_x", [1, 3, 8, 16])
def test_dft_matrices_match_numpy_fft(modes_x):
    spec = DomainSpec(length_x=2 * np.pi, modes_x=modes_x, nodes_y=16,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    conv = Convection(bs.build_eigenbasis(grid, 4), LiftingCache(grid, 0).fields)
    n_bins, n_x = modes_x + 1, 3 * modes_x + 1          # the evaluator's own x-rule
    assert conv.to_grid.shape == (n_x, 2 * n_bins) and conv.from_grid.shape == (2 * n_bins, n_x)
    rng = np.random.default_rng(modes_x)
    spectra = rng.standard_normal((8, n_bins)) + 1j * rng.standard_normal((8, n_bins))
    planes = np.stack([spectra.real, spectra.imag], axis=-1).reshape(8, -1)
    ref = np.fft.irfft(spectra, n=n_x, norm="forward")
    assert np.abs(planes @ conv.to_grid.T - ref).max() <= 1e-14 * np.abs(ref).max()
    samples = rng.standard_normal((8, n_x))
    ref = np.ascontiguousarray(np.fft.rfft(samples)[:, :n_bins]).view(float)
    assert np.abs(samples @ conv.from_grid.T - ref).max() <= 1e-14 * np.abs(ref).max()


def test_convection_x_rule_is_3k_plus_1_nodes(basis_small, cache_mean):
    # the evaluator's x-rule has 3 modes_x + 1 nodes, 13 at modes_x = 4, and
    # is the only one: the grid holds no x-nodes it could read instead, and on
    # the oracles' own 16 nodes the advective form gives the same coefficients
    g = basis_small.grid
    assert not any(hasattr(g, name) for name in ("x_nodes", "n_x", "w_x"))
    assert x_rule(g)[0].size == 16
    conv = Convection(basis_small, cache_mean.fields)
    assert conv.to_grid.shape == (13, 10) and conv.from_grid.shape == (10, 13)
    z = conv.rows(np.random.default_rng(9).standard_normal((BLOCK, basis_small.size)))
    ref = advective_convection(basis_small, cache_mean.fields, z)
    assert np.abs(conv(z) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_pseudospectral_kernel_matches_step_em(wide, make_control):
    sim = _wide_sim(wide)
    assert wide.basis.size >= N_PS and isinstance(sim.convection, Convection)
    _check_kernel_matches_step_em(sim, make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=77),
                                  dense=wide.dense)


def test_pseudospectral_seed_bits_independent_of_batch(wide, make_control):
    sim = _wide_sim(wide)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=78)
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0),
              store_beta=True, keep_wiener=True)
    seed = 7
    solo = sim.run(seed=seed, **kw)
    for size in (5, 19, STACK * BLOCK + 1):
        for pos in (0, size - 1):
            seeds = list(range(100, 100 + size))
            seeds[pos] = seed
            bundle = sim.run_many(seeds, **kw)
            _same_path(bundle[pos], solo)


def test_pseudospectral_path_builds_no_dense_tensors(wide, sim_small, make_control,
                                                    monkeypatch):
    # the simulator, step_em and the damping rate read the one `Convection`
    from slipflow.diagnostics import empirical_damping_rate

    def refuse(*args, **kw):
        raise AssertionError("a DenseConvection was built from N_PS on")

    assert sim_small.convection is sim_small.ops.convection
    monkeypatch.setattr(DenseConvection, "__init__", refuse)
    sim = _wide_sim(wide, ops=None)
    assert sim.convection is sim.ops.convection and isinstance(sim.convection, Convection)
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.05], 0.3, seed=79)
    trajs = sim.run_many(range(3), ctrl=ctrl, store_beta=True, keep_wiener=True)
    assert np.isfinite(empirical_damping_rate(trajs, ctrl, sim))
    gamma, gdot = sim.gamma_series(ctrl)
    state = step_em(GalerkinState(t=0.0, beta=np.zeros(sim.ops.n)), sim.dt, trajs[0].wiener[0],
                    sim.ops, sim.noise, sim.nu, gamma[0], gdot[0])
    assert np.abs(state.beta - trajs[0].beta_series[1]).max() < 1e-12


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
    assert "convection" not in vars(sim.ops)
    for a, b in zip(trajs, dense.run_many(range(3), **run)):
        _same_path(a, b)


@pytest.mark.parametrize("table",["projection", "synthesis", "to_grid", "from_grid"])
def test_skew_probe_rejects_tampered_table(wide, table):
    # the packed tables the probe and the kernel read; entry [4, 4] of mode
    # 2's tables is a real one, not padding: its fifth row, its fifth entry
    conv = Convection(wide.basis, wide.cache.fields)
    _probe_skew(conv)
    assert conv.s_len[2] > 4 and (conv.pos // conv.p_tab.shape[-1] == 2).sum() > 4
    tab = {"projection": conv.p_tab[2], "synthesis": conv.s_tab[2],
           "to_grid": conv.to_grid, "from_grid": conv.from_grid}[table]
    tab[4, 4] += 1e-6 * np.abs(tab).max()
    with pytest.raises(DynamicsError, match="skew"):
        _probe_skew(conv)


# -- the control columns a pass carries ----------------------------------------------


def _two_dof_control(t_final, theta=(0.3, 0.2)):
    # the workloads' control: static slots a-bottom-1 and b-top-2 (columns 1
    # and 18 of gamma), made compatible, which leaves the mean pair at +0/-0
    from slipflow.control import ParamMap
    from slipflow.lifting import project_compatible

    pmap = ParamMap(2 * np.pi, 2, (0.0, t_final), (("a", "bottom", 1, "re"),
                                                   ("b", "top", 2, "re")), 4.0)
    return project_compatible(pmap.control(theta))


def _path_sim(path, request):
    if path == "dense":
        sim_small = request.getfixturevalue("sim_small")
        return Simulator(sim_small.basis, sim_small.cache, sim_small.noise, t_final=0.5,
                         dt=0.005, ops=sim_small.ops)
    return _wide_sim(request.getfixturevalue("wide"))


def _same_paths(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        _same_path(x, y)


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_two_dof_kernel_matches_step_em(path, request):
    sim = _path_sim(path, request)
    assert isinstance(sim.convection, DenseConvection) == (path == "dense")
    ctrl = _two_dof_control(sim.t_final)
    assert np.signbit(ctrl.gamma[:, ctrl.dof_index("a", "top", 0)]).all()   # -0.0
    assert np.flatnonzero(sim.gamma_series(ctrl)[0].any(axis=0)).tolist() == [1, 18]
    _check_kernel_matches_step_em(
        sim, ctrl, dense=None if path == "dense" else request.getfixturevalue("wide").dense)


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_inactive_control_rows_never_read(path, request):
    # NaN in every control column the two-dof control does not use, in the
    # rows of the dense C or in the packed pseudospectral synthesis
    # rows that its restriction repacks, leaves the paths finite and the same
    # bits: 0 * NaN would be NaN
    clean, poisoned = _path_sim(path, request), _path_sim(path, request)
    n, ctrl = clean.ops.n, _two_dof_control(clean.t_final)
    inactive = np.setdiff1d(np.arange(clean.ops.cache.n_dofs), [1, 18])
    # a copy with its own restricted tables: ops.convection is shared
    conv = poisoned.convection = copy.copy(poisoned.convection)
    conv._restricted = {}
    if path == "dense":
        conv.conv = conv.conv.copy()
        conv.conv[:, n + inactive] = conv.conv[:, :, n + inactive] = np.nan
    else:
        conv.s_tab = conv.s_tab.copy()
        for j, m in enumerate(conv.s_len):
            conv.s_tab[j, :m][np.isin(conv.s_idx[j, :m], n + inactive)] = np.nan
        assert np.isnan(conv.s_tab).any(axis=2).sum() == 18 * 3        # modes 0-2 reach them
    kw = dict(ctrl=ctrl, u0=make_initial_coeffs(n, "random", 3, 0.5, 1.0), store_beta=True)
    paths = poisoned.run_many(range(BLOCK + 3), **kw)
    assert np.isfinite(paths.beta_series).all() and np.isfinite(paths.tracking).all()
    _same_paths(paths, clean.run_many(range(BLOCK + 3), **kw))


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_zero_control_same_as_no_control(path, request, zero_ctrl):
    # the zero control runs the same bits on a 2-mode cache (20 dofs) and on a
    # 0-mode one (the 4 mean dofs): no control column is active on either
    sim = _path_sim(path, request)
    cache = LiftingCache(sim.grid, 0)
    mean = Simulator(sim.basis, cache, sim.noise, t_final=sim.t_final, dt=sim.dt)
    assert isinstance(mean.convection, type(sim.convection))
    ctrl = _two_dof_control(sim.t_final, theta=(0.0, 0.0))
    assert not ctrl.gamma.any() and (sim.ops.cache.n_dofs, mean.ops.cache.n_dofs) == (20, 4)
    kw = dict(u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0), store_beta=True,
              keep_wiener=True)
    _same_paths(sim.run_many(range(5), ctrl=ctrl, **kw),
                mean.run_many(range(5), ctrl=zero_ctrl(mean), **kw))


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_active_set_switch_leaks_nothing(path, request, make_control):
    # a two-dof run, a run with every column active, the two-dof run again
    sim = _path_sim(path, request)
    full = make_control(2 * np.pi, 2, [0.0, sim.t_final], 0.3, seed=85)
    assert sim.gamma_series(full)[0].all()
    kw = dict(ctrl=_two_dof_control(sim.t_final),
              u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0), store_beta=True)
    first = sim.run_many(range(BLOCK + 3), **kw)
    sim.run_many(range(BLOCK + 3), **{**kw, "ctrl": full})
    _same_paths(first, sim.run_many(range(BLOCK + 3), **kw))


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_two_dof_seed_bits_independent_of_batch(path, request):
    sim = _path_sim(path, request)
    kw = dict(ctrl=_two_dof_control(sim.t_final),
              u0=make_initial_coeffs(sim.ops.n, "random", 3, 0.5, 1.0),
              store_beta=True, keep_wiener=True)
    seed = 7
    solo = sim.run(seed=seed, **kw)
    assert not solo.blown_up
    for size in (5, BLOCK + 3, STACK * BLOCK + 1):
        for pos in (0, size - 1):
            seeds = list(range(100, 100 + size))
            seeds[pos] = seed
            _same_path(sim.run_many(seeds, **kw)[pos], solo)


@pytest.mark.parametrize("size", [3, STACK * BLOCK // 3 + 1])
@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_control_groups_match_one_control_runs(path, request, size):
    # a stack of controls runs every seed under each control, group c the
    # contiguous rows of control c: every row of the middle group blows up,
    # the others' do not, and each group's paths are the same bits as a run
    # of the seeds under its control alone, blowup_step, beta_final and
    # tracking included; groups of 3 share blocks, and the third group of 22
    # straddles the 64-row pass boundary.  A dw bank of one row per seed
    # drives every group, and an empty stack runs no path
    from slipflow.control import Target

    sim = _path_sim(path, request)
    n = sim.ops.n
    thetas = [(0.3, 0.2), (100.0, 100.0), (0.0, 0.0)]
    stack = _two_dof_control(sim.t_final, theta=thetas)
    assert stack.gamma.shape[0] == len(thetas)
    rng = np.random.default_rng(5)
    target = Target(times=sim.times.copy(),
                    beta_series=0.1 * rng.standard_normal((sim.n_steps + 1, n)),
                    gamma_series=0.5 * sim.gamma_series(stack[0])[0])
    kw = dict(u0=make_initial_coeffs(n, "random", 3, 0.5, 1.0), target=target,
              store_beta=True, keep_wiener=True)
    seeds = list(range(300, 300 + size))
    bank = sim.increments(range(900, 900 + size))
    paths = sim.run_many(seeds, ctrl=stack, **kw)
    shared = sim.run_many(seeds, ctrl=stack, dw=bank, **kw)
    assert len(paths) == len(shared) == len(thetas) * size
    assert paths.seeds.tolist() == shared.seeds.tolist() == seeds * len(thetas)
    for c, theta in enumerate(thetas):
        cut = slice(c * size, (c + 1) * size)
        ctrl = _two_dof_control(sim.t_final, theta=theta)
        alone = sim.run_many(seeds, ctrl=ctrl, **kw)
        assert alone.blown_up.all() == alone.blown_up.any() == (c == 1)
        _same_paths(paths[cut], alone)
        _same_paths(shared[cut], sim.run_many(seeds, ctrl=ctrl, dw=bank, **kw))
    empty = sim.run_many(seeds, ctrl=stack[:0], **kw)
    assert len(empty) == 0 and empty.beta_series.shape == (0, sim.n_steps + 1, n)
    with pytest.raises(DynamicsError, match="dw"):
        sim.run_many(seeds, ctrl=stack, dw=sim.increments(seeds * len(thetas)))


def test_control_groups_draw_each_seed_once_a_pass(sim_small, monkeypatch):
    # a stack's groups share their seeds' increments: verify's 24-seed pair
    # draws 24, not 48, and a 3-control stack of 22 seeds draws all 22 in its
    # first 64-row pass and the 2 seeds of its second pass's rows once more
    drawn, draw = [], dyn.wiener_increments
    monkeypatch.setattr(dyn, "wiener_increments",
                        lambda seed, *a: drawn.append(seed) or draw(seed, *a))
    for size, thetas, want in ((24, [(0.3, 0.2), (0.15, 0.1)], list(range(24))),
                               (22, [(0.3, 0.2), (0.1, 0.0), (0.0, 0.0)],
                                list(range(22)) + [20, 21])):
        drawn.clear()
        stack = _two_dof_control(sim_small.t_final, theta=thetas)
        assert len(sim_small.run_many(range(size), ctrl=stack)) == len(thetas) * size
        assert drawn == want


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_kernel_matches_step_em_on_m_channels(path, m, request, make_control):
    # the pushes' GEMM and the multiplicative mat-vec over one and five noise
    # channels, with unequal gains and additive noise on, against step_em
    base = _path_sim(path, request)
    noise = build_noise(base.ops.n, m, 0.05, 1.0, 7, np.linspace(0.12, 0.02, m))
    assert noise.m == m and np.abs(noise.additive).min() > 0.0
    sim = Simulator(base.basis, base.cache, noise, t_final=base.t_final, dt=base.dt,
                    ops=base.ops)
    ctrl = make_control(2 * np.pi, 2, [0.0, sim.t_final / 2, sim.t_final], 0.3, seed=77)
    _check_kernel_matches_step_em(
        sim, ctrl, dense=None if path == "dense" else request.getfixturevalue("wide").dense)


@pytest.mark.parametrize("path", ["dense", "pseudospectral"])
def test_nonlinear_blowup_in_a_shared_pass(path, wide, make_control):
    # Wiener kicks send one row of each block of an 8-row pass past
    # BLOWUP_LIMIT through the convection and on to nonfinite values before
    # the pass ends; the kernel steps them on, so their NaN rows run through
    # the evaluator (dense at n = 16, pseudospectral at n = 128).  Every other
    # row is the bits of its own run; a blown row's blowup step is step_em's
    # first step past the limit, and its series are NaN and its history zero
    # from there on, with no RuntimeWarning
    import warnings

    n = 16 if path == "dense" else wide.basis.size
    basis = wide.basis if n == wide.basis.size else bs.build_eigenbasis(wide.basis.grid, n)
    sim = Simulator(basis, wide.cache, build_noise(n, 2, 0.05, 1.0, 7, [0.1, 0.05]),
                    t_final=0.1, dt=0.005, ops=wide.ops if basis is wide.basis else None)
    assert isinstance(sim.convection, DenseConvection) == (path == "dense")
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.1], 0.3, seed=77)
    u0 = make_initial_coeffs(n, "random", 3, 0.5, 1.0)
    kw = dict(ctrl=ctrl, u0=u0, store_beta=True, keep_wiener=True)
    seeds = list(range(2 * BLOCK))
    dw = sim.increments(seeds)
    dw[1, 1], dw[6, 0] = 1e4, 1e8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        paths = sim.run_many(seeds, dw=dw, **kw)
    assert paths.blown_up.tolist() == [w in (1, 6) for w in seeds]
    gamma, gdot = sim.gamma_series(ctrl)
    for w, tr in enumerate(paths):
        if not tr.blown_up:
            _same_path(tr, sim.run_many([w], dw=dw[w : w + 1], **kw)[0])
            continue
        state, first, nonfinite = GalerkinState(t=0.0, beta=u0), -1, -1
        with np.errstate(over="ignore", invalid="ignore"):
            for ell in range(sim.n_steps):
                try:
                    state = step_em(state, sim.dt, dw[w, ell], sim.ops, sim.noise, sim.nu,
                                    gamma[ell], gdot[ell])
                except BlowupError:
                    nonfinite = ell + 1
                    break
                if first < 0 and not state.beta @ state.beta <= dyn.BLOWUP_LIMIT:
                    first, at_first = ell + 1, state.beta
        assert 0 < first < nonfinite <= sim.n_steps
        s = tr.blowup_step
        assert s == first
        assert np.abs(tr.beta_final - at_first).max() <= 1e-12 * np.abs(at_first).max()
        for series in (tr.u_sq, tr.u_esq, tr.tracking, tr.noise_sq):
            assert np.isfinite(series[:s]).all() and np.isnan(series[s:]).all()
        assert np.isfinite(tr.beta_series[:s]).all() and not tr.beta_series[s:].any()
