from dataclasses import replace

import numpy as np
import pytest

from oracles import (fd_harmonic, fd_stokes_mode, fd_stokes_shear, loop_lifting_fields,
                     padded, quad_weights_domain, sample_fields)
from slipflow import lifting
from slipflow.basis import ModeField, energy_pairing, h1_sq, mass_pairing
from slipflow.geometry import DomainSpec, build_grid
from slipflow.lifting import (
    HARMONIC_K_MAX,
    BoundaryControl,
    CompatibilityError,
    LiftingCache,
    LiftingError,
    lift,
    project_compatible,
    solve_correction,
    solve_harmonic,
    trace_norm_series,
)


# -- compatibility projection --------------------------------------------------


def test_project_compatible_mean_removal():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0], 4.0)
    ib = ctrl.dof_index("a", "bottom", 0)
    it = ctrl.dof_index("a", "top", 0)
    ctrl.gamma[0, ib] = 1.0
    ctrl.gamma[0, it] = 1.0
    out = project_compatible(ctrl)
    assert out.gamma[0, ib] == 0.0 and out.gamma[0, it] == 0.0


def test_project_compatible_oblique():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0], 4.0)
    ctrl.gamma[0, ctrl.dof_index("a", "bottom", 0)] = 2.0
    out = project_compatible(ctrl)
    assert out.gamma[0, out.dof_index("a", "bottom", 0)] == 1.0
    assert out.gamma[0, out.dof_index("a", "top", 0)] == -1.0


def test_project_compatible_idempotent_bitwise(make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 0.5, seed=3)
    twice = project_compatible(ctrl)
    assert np.array_equal(twice.gamma, ctrl.gamma)
    a_mean = ctrl.gamma[:, [ctrl.dof_index("a", "bottom", 0), ctrl.dof_index("a", "top", 0)]]
    flux = a_mean.sum(axis=1)
    assert np.abs(flux).max() < 1e-14


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


def test_harmonic_band_bound():
    # just inside the bound the profiles keep about sqrt(eps) of accuracy,
    # against the cancellation-free form H'(y) = (a_t sinh(k y) - a_b sinh(k (1 - y))) / sinh k;
    # just past it the stage refuses
    grid = build_grid(DomainSpec(2 * np.pi / (0.999 * HARMONIC_K_MAX), 1, 24, 0.0, 0.5))
    k, y = grid.kx[1], grid.y_nodes
    rng = np.random.default_rng(5)
    for _ in range(4):
        ab, at = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h = solve_harmonic(np.array([0, ab]), np.array([0, at]), grid, 1)
        decay = 1.0 - np.exp(-2.0 * k)
        exact = (at * np.exp(k * (y - 1.0)) * (1.0 - np.exp(-2.0 * k * y))
                 - ab * np.exp(-k * y) * (1.0 - np.exp(-2.0 * k * (1.0 - y)))) / decay
        assert np.abs(h.vals[1, 1] - exact).max() < 1e-7 * max(abs(ab), abs(at))
    grid = build_grid(DomainSpec(2 * np.pi / (1.001 * HARMONIC_K_MAX), 1, 24, 0.0, 0.5))
    with pytest.raises(LiftingError, match="too short for n_modes = 1"):
        solve_harmonic(np.zeros(2, complex), np.zeros(2, complex), grid, 1)


def test_harmonic_incompatible_rejected(grid_small):
    ab = np.zeros(2, complex)
    at = np.zeros(2, complex)
    ab[0] = 1.0
    with pytest.raises(CompatibilityError):
        solve_harmonic(ab, at, grid_small, 1)


# -- correction stage ----------------------------------------------------------


def test_correction_zero(grid_small):
    out = solve_correction(np.zeros(3, complex), np.zeros(3, complex), grid_small, 2)
    assert np.abs(out.vals).max() == 0.0


def test_correction_rejects_modes_past_the_band(grid_small):
    n = grid_small.spec.modes_x + 1
    with pytest.raises(LiftingError, match="resolved band"):
        solve_correction(np.zeros(n + 1, complex), np.zeros(n + 1, complex), grid_small, n)


def test_correction_shear_against_fd(grid_free):
    # constant tangential stress on the top wall, zero friction branch
    c0 = 0.8
    out = solve_correction(np.zeros(3, complex), np.array([c0, 0, 0], complex), grid_free, 2)
    y_fd, u_fd = fd_stokes_shear(0.0, 0.0, c0, n=1000)
    # spectral profile interpolated at fd nodes via the closed quadratic form:
    # u'' = G, u'(0) = 0, u'(1) = -c0, zero mean -> u = -c0 (y^2/2 - 1/6)
    exact = -c0 * (y_fd**2 / 2 - 1.0 / 6.0)
    assert np.abs(u_fd - exact).max() < 1e-10
    prof = out.vals[0, 0].real
    exact_gauss = -c0 * (grid_free.y_nodes**2 / 2 - 1.0 / 6.0)
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
    bt_b, bt_t = 0.4, -0.9
    out = solve_correction(np.array([bt_b, 0, 0], complex), np.array([bt_t, 0, 0], complex),
                           grid_small, 2)
    y_fd, u_fd = fd_stokes_shear(1.0, bt_b, bt_t, n=1600)
    prof_fd_nodes = _resample(grid_small.y_nodes, out.vals[0, 0].real, y_fd,
                              grid_small.n_y - 1)
    assert np.abs(prof_fd_nodes - u_fd).max() < 1e-8
    # strong residuals: -u'(0) + a u(0) = bt_b and u'(1) + a u(1) = -bt_t
    stress = out.tangential_stress_coeffs()
    assert abs(stress[0, 0] - bt_b) < 1e-10
    assert abs(stress[0, 1] - bt_t) < 1e-10


def test_correction_mode_against_fd(grid_small):
    rng = np.random.default_rng(2)
    bt_b = complex(rng.standard_normal(), rng.standard_normal())
    bt_t = complex(rng.standard_normal(), rng.standard_normal())
    bb = np.zeros(3, complex)
    tt = np.zeros(3, complex)
    bb[1], tt[1] = bt_b, bt_t
    out = solve_correction(bb, tt, grid_small, 2)
    k = grid_small.kx[1]
    y_fd, phi_fd = fd_stokes_mode(k, 1.0, bt_b, bt_t, n=1600)
    # streamfunction from the solved field: phi = v2 / (-ik)
    phi_gauss = out.vals[1, 1] / (-1j * k)
    phi_fd_nodes = _resample(grid_small.y_nodes, phi_gauss, y_fd, grid_small.n_y - 1)
    scale = max(np.abs(phi_fd).max(), 1e-12)
    assert np.abs(phi_fd_nodes - phi_fd).max() < 1e-8 * max(1.0, scale)


def test_correction_normal_trace_zero(grid_small, make_control):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        tt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        bb[0] = bb[0].real
        tt[0] = tt[0].real
        out = solve_correction(bb, tt, grid_small, 2)
        assert np.abs(out.normal_trace_coeffs()).max() < 1e-10
        assert out.divergence_residual() < 1e-10


# -- stacked stages and the unit-response cache ---------------------------------

_ARRAYS = ("vals", "dvals", "wall_vals", "wall_dvals")


def _close(got, ref, rel=1e-12):
    # each array to rel of its largest magnitude: a stacked solve rounds
    # differently from a one-row solve
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), name


def test_stacked_stages_match_rows(grid_small, make_control):
    # (..., J) rows of wall data give a stack whose rows are the one-row fields
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 5), 1.0, seed=21)
    tables = ctrl.coeffs(ctrl.gamma)
    stages = (lambda t: solve_harmonic(t[..., 0, :], t[..., 1, :], grid_small, 2),
              lambda t: solve_correction(t[..., 2, :], t[..., 3, :], grid_small, 2))
    for stage in stages:
        stacked = stage(tables)
        assert len(stacked) == len(tables)
        for r, table in enumerate(tables):
            _close(stacked[r], stage(table))
        _close(stage(tables[None])[0], stacked, rel=0.0)


def test_harmonic_stack_rejects_one_incompatible_row(grid_small, make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 5), 1.0, seed=22)
    tables = ctrl.coeffs(ctrl.gamma)
    solve_harmonic(tables[:, 0], tables[:, 1], grid_small, 2)
    bottom = tables[:, 0].copy()
    bottom[3, 0] += 1e-6
    with pytest.raises(CompatibilityError):
        solve_harmonic(bottom, tables[:, 1], grid_small, 2)


# the fixture grid and the benchmark workloads' grid
@pytest.mark.parametrize("modes_x", [4, 8])
def test_cache_matches_loop_reference(modes_x):
    grid = build_grid(DomainSpec(length_x=2 * np.pi, modes_x=modes_x, nodes_y=24,
                                 friction_alpha=1.0, viscosity=0.5))
    _close(LiftingCache(grid, 2).fields, loop_lifting_fields(grid, 2))


def test_cache_makes_one_solve_per_mode(grid_small, monkeypatch):
    # every unit coefficient's correction at a mode is one column of one solve
    calls = []
    solve = lifting.np.linalg.solve

    def counting(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(lifting.np.linalg, "solve", counting)
    cache = LiftingCache(grid_small, 2)
    assert len(calls) == cache.n_modes + 1
    assert all(shape[-1] == cache.n_dofs for shape in calls)


# -- full lifting ---------------------------------------------------------------


def test_lift_zero(cache_small):
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 0.5, 1.0], 4.0)
    lifted = lift(ctrl, cache_small)
    for key in ("normal", "tangential", "divergence", "size", "trace_norm"):
        assert lifted[key].shape == (3,)
        assert np.abs(lifted[key]).max() == 0.0, key


def test_lift_static_time_derivative(cache_small, make_control):
    # a constant control lifts to a field with no time derivative: the size is
    # the H1 norm of the field alone
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.5, seed=8)
    ctrl.gamma[1] = ctrl.gamma[0]
    size = lift(ctrl, cache_small)["size"]
    h1 = np.sqrt(h1_sq(cache_small.fields.combine(ctrl.gamma)))
    assert np.abs(size - h1).max() < 1e-12 * h1.max()


def test_lift_requires_compatibility(cache_small):
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 1.0], 4.0)
    ctrl.gamma[:, ctrl.dof_index("a", "bottom", 0)] = 1.0
    with pytest.raises(CompatibilityError):
        lift(ctrl, cache_small)


def test_lift_requires_the_cache_mode_count(cache_small, cache_mean, make_control):
    for cache, n_modes in ((cache_small, 3), (cache_mean, 2)):
        ctrl = make_control(2 * np.pi, n_modes, [0.0, 1.0], 1.0, seed=9)
        with pytest.raises(LiftingError, match="mode counts differ"):
            lift(ctrl, cache)


def test_lift_linearity(cache_small, make_control):
    c1 = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=11)
    c2 = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=12)
    combo = cache_small.fields.combine(0.7 * c1.gamma[0] - 1.3 * c2.gamma[0])
    f1, f2 = (cache_small.fields.combine(c.gamma[0]) for c in (c1, c2))
    scale = max(np.abs(combo.vals).max(), 1.0)
    for name in ("vals", "wall_vals"):
        parts = 0.7 * getattr(f1, name) + (-1.3) * getattr(f2, name)
        assert np.abs(getattr(combo, name) - parts).max() < 1e-10 * scale


# the alpha = 1 and the alpha = 0 grid: the stress residual is taken at the
# friction the cache reads from its grid
@pytest.mark.parametrize("grid", ["grid_small", "grid_free"])
def test_lift_boundary_residuals_random(grid, request, make_control):
    cache = LiftingCache(request.getfixturevalue(grid), 2)
    worst = {"normal": 0.0, "tangential": 0.0, "divergence": 0.0}
    for seed in range(20):
        ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 3), 0.8, seed=100 + seed)
        res = lift(ctrl, cache)
        for key in worst:
            worst[key] = max(worst[key], res[key].max())
    assert worst["normal"] < 1e-8
    assert worst["tangential"] < 1e-6
    assert worst["divergence"] < 1e-10


def test_lift_bound_ratio(cache_small, make_control):
    # lifted size controlled by the trace norm with one finite constant
    ratios = []
    for seed in range(20):
        ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 1.0, seed=300 + seed)
        lifted = lift(ctrl, cache_small)
        tn = lifted["trace_norm"][0]
        if tn > 1e-12:
            ratios.append(lifted["size"][0] / tn)
    ratios = np.array(ratios)
    assert np.isfinite(ratios).all()
    assert ratios.max() < 10 * np.median(ratios)


def test_h1_sq_matches_grid_quadrature(grid_small, basis_small, cache_small, make_control):
    # basis entries and lifted fields in one stack, against the tensor-product
    # quadrature of |v|^2 + |grad v|^2 on the grid samples
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 1.0, seed=61)
    lifted = padded(cache_small.fields.combine(ctrl.gamma))
    stack = ModeField(grid_small, *(np.concatenate([getattr(basis_small.fields, name),
                                                    getattr(lifted, name)])
                                    for name in _ARRAYS))
    got = h1_sq(stack)
    samples = sample_fields(stack)
    ref = np.einsum("mxq,xq->m", (samples * samples).sum(axis=1), quad_weights_domain(grid_small))
    assert got.shape == (len(stack),)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()
    for r in range(len(stack)):
        assert abs(h1_sq(stack[r][None])[0] - got[r]) <= 1e-15 * got[r]


@pytest.mark.parametrize("cache", ["cache_mean", "cache_small"])
def test_band_stack_pairs_as_its_padded_stack(request, basis_small, cache):
    # the lifted fields hold the control's modes 0..n_modes only, and a band
    # stack pairs with itself and with the full-band basis as its zero-padded
    # stack does
    cache = request.getfixturevalue(cache)
    band = cache.fields
    assert band.n_modes == cache.n_modes
    assert all(getattr(band, name).shape[1] == cache.n_modes + 1 for name in _ARRAYS)
    full, e = padded(band), basis_small.fields
    for pairing in (mass_pairing, energy_pairing):
        for got, ref in ((pairing(band, band), pairing(full, full)),
                         (pairing(e, band), pairing(e, full)),
                         (pairing(band, e), pairing(full, e))):
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    ref = h1_sq(full)
    assert np.abs(h1_sq(band) - ref).max() <= 1e-15 * ref.max()


# -- trace norm -----------------------------------------------------------------


def test_trace_norm_zero():
    ctrl = BoundaryControl.zeros(2 * np.pi, 2, [0.0, 1.0], 4.0)
    assert trace_norm_series(ctrl, [0.5])[0] == 0.0


def test_trace_norm_homogeneous(make_control):
    ctrl = make_control(2 * np.pi, 2, [0.0, 1.0], 0.7, seed=21)
    doubled = replace(ctrl, gamma=ctrl.gamma * 2.0)
    for t in (0.0, 0.4, 1.0):
        one, two = trace_norm_series(ctrl, [t])[0], trace_norm_series(doubled, [t])[0]
        assert abs(two - 2.0 * one) < 1e-12 * max(1.0, one)


def test_trace_norm_single_mode_formula():
    lx = 2 * np.pi
    p = 4.0
    ctrl = BoundaryControl.zeros(lx, 2, [0.0], p=p)
    ctrl.gamma[0, ctrl.dof_index("a", "bottom", 1, "re")] = 0.5  # a = cos(x)
    k = 2 * np.pi / lx
    expected = (1 + k * k) ** ((1 - 1 / p) / 2.0) * np.sqrt(lx / 2.0)
    assert abs(trace_norm_series(ctrl, [0.0])[0] - expected) < 1e-12


def test_trace_norm_series_matches_pointwise(make_control):
    ctrl = make_control(2 * np.pi, 2, np.linspace(0, 1, 4), 0.5, seed=33)
    times = np.linspace(0, 1, 9)
    series = trace_norm_series(ctrl, times)
    for t, v in zip(times, series):
        assert v == trace_norm_series(ctrl, [float(t)])[0]


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
        BoundaryControl(2 * np.pi, 2, np.array([0.0]), np.zeros((2, 20)), 4.0)
    with pytest.raises(LiftingError):
        BoundaryControl.zeros(2 * np.pi, 2, [0.0], p=2.0)
    for t_grid in ([0.1, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.2], [0.0, np.nan]):
        with pytest.raises(LiftingError, match="start at 0 and strictly increase"):
            BoundaryControl.zeros(2 * np.pi, 2, t_grid, 4.0)


@pytest.mark.parametrize("slot", [("z", "bottom", 1, "re"), ("a", "middle", 1, "re"),
                                  ("b", "top", 1, "imag"), ("a", "top", 3, "re"),
                                  ("b", "top", -1, "re"), ("a", "bottom", 1.0, "re"),
                                  ("a", "bottom", 0, "im")])
def test_dof_index_rejects_missing_coefficient(slot):
    with pytest.raises(LiftingError):
        BoundaryControl.zeros(2 * np.pi, 2, [0.0], 4.0).dof_index(*slot)


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
    static = BoundaryControl.zeros(2 * np.pi, 2, [0.0], 4.0)
    static.gamma[:] = 1.0
    g, s = static.series(times)
    assert np.array_equal(g, np.ones((times.size, static.n_dofs))) and not s.any()
