import numpy as np
import pytest

from oracles import fd_harmonic, fd_stokes_mode, fd_stokes_shear
from slipflow.basis import inner_h, norm_h1
from slipflow.lifting import (
    BoundaryControl,
    CompatibilityError,
    LiftingCache,
    LiftingError,
    StokesCorrectionSolver,
    compatibility_residual,
    lift,
    project_compatible,
    solve_harmonic,
    trace_norm,
    trace_norm_series,
)


# -- compatibility projection --------------------------------------------------


def test_project_compatible_mean_removal():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0])
    ib = ctrl.dof_index("a", "bottom", 0)
    it = ctrl.dof_index("a", "top", 0)
    ctrl.gamma[0, ib] = 1.0
    ctrl.gamma[0, it] = 1.0
    out = project_compatible(ctrl)
    assert out.gamma[0, ib] == 0.0 and out.gamma[0, it] == 0.0


def test_project_compatible_oblique():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0])
    ctrl.gamma[0, ctrl.dof_index("a", "bottom", 0)] = 2.0
    out = project_compatible(ctrl)
    assert out.gamma[0, out.dof_index("a", "bottom", 0)] == 1.0
    assert out.gamma[0, out.dof_index("a", "top", 0)] == -1.0


def test_project_compatible_idempotent_bitwise(make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 0.5, seed=3)
    twice = project_compatible(ctrl)
    assert np.array_equal(twice.gamma, ctrl.gamma)
    assert compatibility_residual(ctrl) < 1e-14


def test_project_compatible_leaves_other_modes(make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0], 1.0, seed=4)
    before = ctrl.gamma.copy()
    out = project_compatible(ctrl)
    keep = np.ones(ctrl.n_dofs, bool)
    keep[ctrl.dof_index("a", "bottom", 0)] = False
    keep[ctrl.dof_index("a", "top", 0)] = False
    assert np.array_equal(out.gamma[:, keep], before[:, keep])


# -- harmonic stage ------------------------------------------------------------


def test_harmonic_zero(grid_small):
    h = solve_harmonic(np.zeros(3, complex), np.zeros(3, complex), grid_small, 2)
    assert np.abs(h.vals).max() == 0.0


def test_harmonic_closed_form(grid_small):
    # a = cos(x) on the bottom wall only: H(y) = cosh(1 - y) / (2 sinh 1)
    ab = np.zeros(3, complex)
    ab[1] = 0.5
    h = solve_harmonic(ab, np.zeros(3, complex), grid_small, 2)
    k = grid_small.kx[1]
    prof = h.vals[1, 0] / (1j * k)
    exact = 0.5 * np.cosh(1.0 - grid_small.y_nodes) / np.sinh(1.0)
    assert np.abs(prof - exact).max() < 1e-12


def test_harmonic_against_fd_oracle(grid_small):
    rng = np.random.default_rng(11)
    for j in (1, 2):
        ab = complex(rng.standard_normal(), rng.standard_normal())
        at = complex(rng.standard_normal(), rng.standard_normal())
        avb = np.zeros(3, complex)
        avt = np.zeros(3, complex)
        avb[j], avt[j] = ab, at
        h = solve_harmonic(avb, avt, grid_small, 2)
        k = grid_small.kx[j]
        y_fd, h_fd = fd_harmonic(k, ab, at, n=1600)
        # compare the vertical velocity H'(y) at the fd nodes
        prof_gauss = h.vals[j, 1]  # H'
        # evaluate spectral H' from closed form instead: dh at fd nodes
        sh, ch = np.sinh(k), np.cosh(k)
        bb = -ab / k
        aa = (at + ab * ch) / (k * sh)
        dh_exact = k * (aa * np.sinh(k * y_fd) + bb * np.cosh(k * y_fd))
        h_exact = aa * np.cosh(k * y_fd) + bb * np.sinh(k * y_fd)
        assert np.abs(h_fd - h_exact).max() < 1e-8 * max(1.0, np.abs(h_exact).max())
        # and the solver profile matches the closed form at quadrature nodes
        dh_gauss = k * (aa * np.sinh(k * grid_small.y_nodes) + bb * np.cosh(k * grid_small.y_nodes))
        assert np.abs(prof_gauss - dh_gauss).max() < 1e-12


def test_harmonic_interior_residual(grid_small, make_control):
    # h'' - k^2 h = 0 checked with collocation differentiation of the samples
    for seed in range(5):
        ctrl = make_control(2 * np.pi, 2, [0.0], 1.0, seed=seed)
        table = ctrl.coeffs(ctrl.gamma[0])
        h = solve_harmonic(table[0], table[1], grid_small, 2)
        for j in (1, 2):
            k = grid_small.kx[j]
            dh = h.vals[j, 1]  # H' at gauss nodes
            # reconstruct H at CGL from the closed form via vals: H = v1/(ik)
            prof = h.vals[j, 0] / (1j * k)
            d2h = h.dvals[j, 1]  # H''
            assert np.abs(d2h - k * k * prof).max() < 1e-8
        assert h.divergence_residual() < 1e-10


def test_harmonic_incompatible_rejected(grid_small):
    ab = np.zeros(2, complex)
    at = np.zeros(2, complex)
    ab[0] = 1.0
    with pytest.raises(CompatibilityError):
        solve_harmonic(ab, at, grid_small, 1)


# -- correction stage ----------------------------------------------------------


def test_correction_zero(grid_small):
    solver = StokesCorrectionSolver(grid_small, 1.0, 2)
    out = solver.solve(np.zeros(3, complex), np.zeros(3, complex))
    assert np.abs(out.vals).max() == 0.0


def test_correction_shear_against_fd(grid_small):
    # constant tangential stress on the top wall, zero friction branch
    solver = StokesCorrectionSolver(grid_small, 0.0, 2)
    c0 = 0.8
    out = solver.solve(np.zeros(3, complex), np.array([c0, 0, 0], complex))
    y_fd, u_fd = fd_stokes_shear(0.0, 0.0, c0, n=1000)
    # spectral profile interpolated at fd nodes via the closed quadratic form:
    # u'' = G, u'(0) = 0, u'(1) = -c0, zero mean -> u = -c0 (y^2/2 - 1/6)
    exact = -c0 * (y_fd**2 / 2 - 1.0 / 6.0)
    assert np.abs(u_fd - exact).max() < 1e-10
    prof = out.vals[0, 0].real
    exact_gauss = -c0 * (grid_small.y_nodes**2 / 2 - 1.0 / 6.0)
    assert np.abs(prof - exact_gauss).max() < 1e-8


def _resample(y_src, vals, y_tgt, deg):
    # exact polynomial resampling of a degree <= deg profile
    if np.iscomplexobj(vals):
        return _resample(y_src, vals.real, y_tgt, deg) + 1j * _resample(
            y_src, vals.imag, y_tgt, deg
        )
    c = np.polynomial.chebyshev.chebfit(2 * y_src - 1, vals, deg)
    return np.polynomial.chebyshev.chebval(2 * y_tgt - 1, c)


def test_correction_shear_alpha_against_fd(grid_small):
    solver = StokesCorrectionSolver(grid_small, 1.0, 2)
    bt_b, bt_t = 0.4, -0.9
    out = solver.solve(np.array([bt_b, 0, 0], complex), np.array([bt_t, 0, 0], complex))
    y_fd, u_fd = fd_stokes_shear(1.0, bt_b, bt_t, n=1600)
    prof_fd_nodes = _resample(grid_small.y_nodes, out.vals[0, 0].real, y_fd,
                              grid_small.n_y - 1)
    assert np.abs(prof_fd_nodes - u_fd).max() < 1e-8
    # strong residuals: -u'(0) + a u(0) = bt_b and u'(1) + a u(1) = -bt_t
    stress = out.tangential_stress_coeffs(1.0)
    assert abs(stress[0, 0] - bt_b) < 1e-10
    assert abs(stress[0, 1] - bt_t) < 1e-10


def test_correction_mode_against_fd(grid_small):
    solver = StokesCorrectionSolver(grid_small, 1.0, 2)
    rng = np.random.default_rng(2)
    bt_b = complex(rng.standard_normal(), rng.standard_normal())
    bt_t = complex(rng.standard_normal(), rng.standard_normal())
    bb = np.zeros(3, complex)
    tt = np.zeros(3, complex)
    bb[1], tt[1] = bt_b, bt_t
    out = solver.solve(bb, tt)
    k = grid_small.kx[1]
    y_fd, phi_fd = fd_stokes_mode(k, 1.0, bt_b, bt_t, n=1600)
    # streamfunction from the solved field: phi = v2 / (-ik)
    phi_gauss = out.vals[1, 1] / (-1j * k)
    phi_fd_nodes = _resample(grid_small.y_nodes, phi_gauss, y_fd, grid_small.n_y - 1)
    scale = max(np.abs(phi_fd).max(), 1e-12)
    assert np.abs(phi_fd_nodes - phi_fd).max() < 1e-8 * max(1.0, scale)


def test_correction_normal_trace_zero(grid_small, make_control):
    solver = StokesCorrectionSolver(grid_small, 1.0, 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        tt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        bb[0] = bb[0].real
        tt[0] = tt[0].real
        out = solver.solve(bb, tt)
        assert np.abs(out.normal_trace_coeffs()).max() < 1e-10
        assert out.divergence_residual() < 1e-10


# -- full lifting ---------------------------------------------------------------


def test_lift_zero(cache_small):
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 1.0])
    lf = lift(ctrl, cache_small)
    f = lf.field_at(0.5)
    assert np.abs(f.vals).max() == 0.0
    assert np.abs(lf.trace_norms).max() == 0.0


def test_lift_static_time_derivative(cache_small, make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=8)
    ctrl.gamma[1] = ctrl.gamma[0]
    lf = lift(ctrl, cache_small)
    df = lf.dt_field_at(0.3)
    assert np.abs(df.vals).max() < 1e-12


def test_lift_requires_compatibility(cache_small):
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 1.0])
    ctrl.gamma[:, ctrl.dof_index("a", "bottom", 0)] = 1.0
    with pytest.raises(CompatibilityError):
        lift(ctrl, cache_small)


def test_lift_linearity(cache_small, make_control):
    c1 = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=11)
    c2 = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=12)
    combo = cache_small.field(0.7 * c1.gamma[0] - 1.3 * c2.gamma[0])
    parts = 0.7 * cache_small.field(c1.gamma[0]) + (-1.3) * cache_small.field(c2.gamma[0])
    scale = max(np.abs(combo.vals).max(), 1.0)
    assert np.abs(combo.vals - parts.vals).max() < 1e-10 * scale
    assert np.abs(combo.wall_vals - parts.wall_vals).max() < 1e-10 * scale


def test_lift_boundary_residuals_random(cache_small, make_control):
    worst = {"normal": 0.0, "tangential": 0.0, "divergence": 0.0}
    for seed in range(20):
        ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 3), 0.8, seed=100 + seed)
        res = lift(ctrl, cache_small).boundary_residuals()
        for key in worst:
            worst[key] = max(worst[key], res[key])
    assert worst["normal"] < 1e-8
    assert worst["tangential"] < 1e-6
    assert worst["divergence"] < 1e-10


def test_lift_bound_ratio(cache_small, make_control):
    # lifted size controlled by the trace norm with one finite constant
    ratios = []
    for seed in range(20):
        ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=300 + seed)
        lf = lift(ctrl, cache_small)
        f = lf.field_at(0.0)
        df = lf.dt_field_at(0.0)
        tn = lf.trace_norms[0]
        if tn > 1e-12:
            ratios.append((norm_h1(f) + np.sqrt(max(inner_h(df, df), 0))) / tn)
    ratios = np.array(ratios)
    assert np.isfinite(ratios).all()
    assert ratios.max() < 10 * np.median(ratios)


# -- trace norm -----------------------------------------------------------------


def test_trace_norm_zero():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 1.0])
    assert trace_norm(ctrl, 0.5) == 0.0


def test_trace_norm_homogeneous(make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.7, seed=21)
    doubled = ctrl.copy()
    doubled.gamma *= 2.0
    for t in (0.0, 0.4, 1.0):
        assert abs(trace_norm(doubled, t) - 2.0 * trace_norm(ctrl, t)) < 1e-12 * max(
            1.0, trace_norm(ctrl, t)
        )


def test_trace_norm_single_mode_formula():
    lx = 2 * np.pi
    p = 4.0
    ctrl = BoundaryControl.zeros(lx, 2, [0.0], p=p)
    ctrl.gamma[0, ctrl.dof_index("a", "bottom", 1, "re")] = 0.5  # a = cos(x)
    k = 2 * np.pi / lx
    expected = (1 + k * k) ** ((1 - 1 / p) / 2.0) * np.sqrt(lx / 2.0)
    assert abs(trace_norm(ctrl, 0.0) - expected) < 1e-12


def test_trace_norm_series_matches_pointwise(make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 0.5, seed=33)
    times = np.linspace(0, 1, 9)
    series = trace_norm_series(ctrl, times)
    for t, v in zip(times, series):
        assert v == trace_norm(ctrl, float(t))


def test_control_serialization_roundtrip(tmp_path, make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 0.5, seed=44)
    path = tmp_path / "control.json"
    ctrl.save(path)
    again = BoundaryControl.load(path)
    assert np.array_equal(again.gamma, ctrl.gamma)
    assert np.array_equal(again.t_grid, ctrl.t_grid)
    assert again.p == ctrl.p and again.n_modes == ctrl.n_modes
    # bitwise stable file on re-save
    path2 = tmp_path / "control2.json"
    again.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_control_validation():
    with pytest.raises(LiftingError):
        BoundaryControl(2 * np.pi, 2, np.array([0.0]), np.zeros((2, 20)))
    with pytest.raises(LiftingError):
        BoundaryControl.zeros(2 * np.pi, 2, [0.0], p=2.0)


@pytest.mark.parametrize("slot", [("z", "bottom", 1, "re"), ("a", "middle", 1, "re"),
                                  ("b", "top", 1, "imag"), ("a", "top", 3, "re"),
                                  ("b", "top", -1, "re"), ("a", "bottom", 1.0, "re"),
                                  ("a", "bottom", 0, "im")])
def test_dof_index_rejects_missing_coefficient(slot):
    with pytest.raises(LiftingError):
        BoundaryControl.zeros(2 * np.pi, 2, [0.0]).dof_index(*slot)


def test_coeffs_stack_matches_rows(make_control):
    ctrl = make_control(2 * np.pi, 3, np.linspace(0, 1, 5), 0.5, seed=52)
    stack = np.stack([ctrl.gamma, -2.0 * ctrl.gamma])
    tables = ctrl.coeffs(stack)
    assert tables.shape == (2, 5, 4, 4)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(tables[idx], ctrl.coeffs(stack[idx]))


def test_control_horizon_guard(make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=50)
    with pytest.raises(LiftingError):
        ctrl.interp(1.5)


def test_control_series_piecewise_linear(make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 0.3, 1.0], 0.5, seed=51)
    times = np.linspace(0.0, 1.0, 11)
    gamma, slope = ctrl.series(times)
    for d in range(ctrl.n_dofs):
        ref = np.interp(times, ctrl.t_grid, ctrl.gamma[:, d])
        assert np.allclose(gamma[:, d], ref, rtol=0.0, atol=1e-14)
    seg = np.where(times < 0.3, 0, 1)
    expected = np.diff(ctrl.gamma, axis=0) / np.diff(ctrl.t_grid)[:, None]
    assert np.array_equal(slope, expected[seg])
    for ell, t in enumerate(times):
        g, s = ctrl.interp(float(t))
        assert np.array_equal(g, gamma[ell]) and np.array_equal(s, slope[ell])
    with pytest.raises(LiftingError, match="outside the control horizon"):
        ctrl.series([0.5, 1.5])
    static = BoundaryControl.zeros(2 * np.pi, 2, [0.0])
    static.gamma[:] = 1.0
    g, s = static.series(times)
    assert np.array_equal(g, np.ones((times.size, static.n_dofs))) and not s.any()
