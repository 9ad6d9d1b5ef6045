import dataclasses

import numpy as np
import pytest
import scipy.linalg
from oracles import loop_basis_fields, quad_weights_domain, sample_fields, stack_fields, x_rule

from slipflow import basis as bs
from slipflow.basis import (
    BasisError,
    ModeField,
    build_eigenbasis,
    energy_pairing,
    h1_sq,
    mass_pairing,
    max_basis_size,
    save_basis,
)
from slipflow.geometry import DomainSpec, build_grid


def l2_sq(v):
    """Squared L2 norm of one field."""
    return mass_pairing(v[None], v[None])[0, 0]


def shear_field(grid, u_cgl):
    """The x-independent field (u(y), 0) of the CGL profile u_cgl."""
    f = ModeField.zeros(grid)
    f[None]._put_shear([0], u_cgl[:, None])
    return f


def random_field(grid, seed, smooth=1.5):
    """Random divergence-free field in the discrete space: a zero-mean shear
    profile and a complex streamfunction at every mode."""
    rng = np.random.default_rng(np.random.SeedSequence([0xF1E1D, seed]))
    y = grid.y_cgl
    ms = np.arange(1, 7)
    u0 = (rng.standard_normal(6) / ms**smooth) @ np.cos(np.outer(ms, np.pi * y))
    f = shear_field(grid, u0 - (grid.w_y @ grid.interp) @ u0)
    for j in range(1, grid.spec.modes_x + 1):
        coef = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / ms**smooth
        f[None]._put_streamfunction([0], j, (coef @ np.sin(np.outer(ms, np.pi * y)))[:, None])
    return f


def test_orthonormality(basis_small):
    n = basis_small.size
    g = mass_pairing(basis_small.fields, basis_small.fields)
    assert np.abs(g - np.eye(n)).max() < 1e-8


def test_energy_orthogonality(basis_small):
    n = basis_small.size
    lam = basis_small.eigenvalues
    g = energy_pairing(basis_small.fields, basis_small.fields)
    assert np.abs(g - np.diag(lam)).max() < 1e-6 * lam.max()


def test_eigenvalues_positive_sorted(basis_small):
    lam = basis_small.eigenvalues
    assert (lam > 0).all()
    assert (np.diff(lam) >= -1e-12).all()


def test_free_slip_shear_eigenvalues(grid_free):
    # mean-mode branch under zero friction: (j pi)^2 with cosine profiles
    big = build_eigenbasis(grid_free, 24)
    lam0 = big.eigenvalues[big.mode_j == 0]
    jj = np.arange(1, lam0.size + 1)
    assert np.abs(lam0 - (jj * np.pi) ** 2).max() < 1e-6 * ((jj * np.pi) ** 2).max()
    # profile of the first shear entry correlates with cos(pi y)
    idx = int(np.nonzero(big.mode_j == 0)[0][0])
    prof = big.fields[idx].vals[0, 0].real
    ref = np.cos(np.pi * big.grid.y_nodes)
    corr = abs(prof @ (big.grid.w_y * ref)) / np.sqrt(
        (prof**2 @ big.grid.w_y) * (ref**2 @ big.grid.w_y)
    )
    assert corr > 1 - 1e-10


def test_free_slip_energy_ratio(grid_free):
    # (v, v)_E / (v, v) = (j pi)^2 for the free-slip shear mode cos(j pi y)
    for j in (1, 2, 3):
        v = shear_field(grid_free, np.cos(j * np.pi * grid_free.y_cgl))
        ratio = energy_pairing(v[None], v[None])[0, 0] / l2_sq(v)
        assert abs(ratio - (j * np.pi) ** 2) < 1e-6 * (j * np.pi) ** 2


def test_friction_increases_energy_norm(grid_small, grid_free):
    # one profile on the alpha = 1 and the alpha = 0 grid, which differ in nothing else
    rough, free = (shear_field(g, np.cos(np.pi * g.y_cgl) + 0.3) for g in (grid_small, grid_free))
    e_rough, e_free = (energy_pairing(f[None], f[None])[0, 0] for f in (rough, free))
    assert e_rough > e_free >= 0.0


def test_weak_eigen_residual(basis_small):
    rng = np.random.default_rng(5)
    lam = basis_small.eigenvalues
    for _ in range(10):
        v = basis_small.fields.combine(rng.standard_normal(basis_small.size))
        norm = np.sqrt(l2_sq(v))
        # the residual is linear in v: that of the unit field v / norm
        r = (energy_pairing(v[None], basis_small.fields)[0]
             - lam * mass_pairing(v[None], basis_small.fields)[0]) / norm
        assert (np.abs(r) <= 1e-6 * lam).all()


def test_self_check_catches_a_wrong_eigenvalue(basis_small):
    bs._self_check(basis_small)
    # the check's own draws name the first entry it tests
    rng = np.random.default_rng(0)
    rng.standard_normal(basis_small.size)
    i = rng.integers(0, basis_small.size, size=4)[0]
    lam = basis_small.eigenvalues.copy()
    lam[i] *= 1.0 + 1e-4
    with pytest.raises(BasisError, match="eigen-residual"):
        bs._self_check(dataclasses.replace(basis_small, eigenvalues=lam))


def test_eigenfields_constraints(basis_small):
    for f in basis_small.fields:
        assert f.divergence_residual() < 1e-10
        assert np.abs(f.normal_trace_coeffs()).max() < 1e-10


def test_mean_free(basis_small, grid_small):
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = basis_small.fields.combine(rng.standard_normal(basis_small.size))
        # the channel integral: only the j = 0 row contributes
        mean = grid_small.spec.length_x * np.real(v.vals[0] @ grid_small.w_y)
        assert np.abs(mean).max() < 1e-10 * np.sqrt(l2_sq(v))


def test_project_unit_vector(basis_small):
    c = mass_pairing(basis_small.fields, basis_small.fields[3][None])[:, 0]
    expected = np.zeros(basis_small.size)
    expected[3] = 1.0
    assert np.abs(c - expected).max() < 1e-8


def test_project_zero(basis_small, grid_small):
    c = mass_pairing(basis_small.fields, ModeField.zeros(grid_small)[None])[:, 0]
    assert np.abs(c).max() == 0.0


def test_projection_contracts(basis_small, grid_small):
    # truncation never increases the mass norm (random fields with content
    # outside the span)
    for seed in range(8):
        v = random_field(grid_small, seed)
        c = mass_pairing(basis_small.fields, v[None])[:, 0]
        assert np.sqrt(c @ c) <= np.sqrt(l2_sq(v)) * (1 + 1e-12)


def test_interpolation_inequality_sampling(basis_small, grid_small):
    # |v|_4 <= C |v|_2^(1/2) |grad v|_2^(1/2) with one stable constant
    rng = np.random.default_rng(17)
    consts, w_x = [], x_rule(grid_small)[1]
    for _ in range(100):
        v = basis_small.fields.combine(rng.standard_normal(basis_small.size))
        u1, u2 = sample_fields(v[None])[0, :2]
        l4 = (w_x * ((u1 * u1 + u2 * u2) ** 2.0).sum(axis=0) @ grid_small.w_y) ** 0.25
        l2_v = l2_sq(v)
        l2, gr = np.sqrt(l2_v), np.sqrt(h1_sq(v[None])[0] - l2_v)
        consts.append(l4 / (np.sqrt(l2) * np.sqrt(gr)))
    consts = np.array(consts)
    assert np.isfinite(consts).all()
    assert consts.max() < 10 * np.median(consts)


def test_trace_inequality_sampling(basis_small, grid_small):
    # wall L2 trace against |v|_2^(1/2) |grad v|_2^(1/2)
    rng = np.random.default_rng(23)
    consts, (x, w_x) = [], x_rule(grid_small)
    for _ in range(100):
        v = basis_small.fields.combine(rng.standard_normal(basis_small.size))
        # both walls' traces at the x nodes, (n_x, component, wall)
        t = np.fft.irfft(v.wall_vals, x.size, axis=0, norm="forward")
        tr = (w_x * (t * t).sum()) ** 0.5
        l2_v = l2_sq(v)
        l2, gr = np.sqrt(l2_v), np.sqrt(h1_sq(v[None])[0] - l2_v)
        consts.append(tr / (np.sqrt(l2) * np.sqrt(gr)))
    consts = np.array(consts)
    assert np.isfinite(consts).all()
    assert consts.max() < 10 * np.median(consts)


def test_korn_sampling(basis_small):
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(100):
        v = basis_small.fields.combine(rng.standard_normal(basis_small.size))
        r = np.sqrt(h1_sq(v[None])[0] / energy_pairing(v[None], v[None])[0, 0])
        assert np.isfinite(r) and r > 0
        ratios.append(r)
    ratios = np.array(ratios)
    assert ratios.max() < 10 * np.median(ratios)
    e = basis_small.fields[0]
    assert np.isfinite(np.sqrt(h1_sq(e[None])[0] / energy_pairing(e[None], e[None])[0, 0]))


def test_capacity_guard(spec_small, grid_small):
    # max_basis_size is the exact count of the grid's eigenpairs
    cap = max_basis_size(spec_small)
    assert build_eigenbasis(grid_small, cap).size == cap
    with pytest.raises(BasisError):
        build_eigenbasis(grid_small, cap + 1)


FIELD_ARRAYS = ("vals", "dvals", "wall_vals", "wall_dvals")
BASIS_ARRAYS = ("eigenvalues", "mode_j", "family", "shell_index", "profiles_cgl", "tau_trace")


def test_save_load_roundtrip(tmp_path, basis_small):
    # the file holds the basis's per-entry arrays, its grid's spec and the
    # meta, bit for bit, and saving again writes the same bytes
    paths = [tmp_path / "basis.npz", tmp_path / "again.npz"]
    for path in paths:
        save_basis(path, basis_small, meta={"config_hash": "abc123"})
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with np.load(paths[0]) as data:
        assert sorted(data.files) == sorted(BASIS_ARRAYS[:5] + ("spec", "meta_config_hash"))
        for name in BASIS_ARRAYS[:5]:
            assert np.array_equal(data[name], getattr(basis_small, name)), name
            assert data[name].dtype == getattr(basis_small, name).dtype, name
        assert data["spec"].tolist() == list(dataclasses.astuple(basis_small.grid.spec))
        assert str(data["meta_config_hash"]) == "abc123"


def test_deterministic_rebuild(grid_small, basis_small):
    again = build_eigenbasis(grid_small, basis_small.size)
    assert np.array_equal(again.eigenvalues, basis_small.eigenvalues)
    assert np.array_equal(again.fields.vals, basis_small.fields.vals)


def test_truncation_nested(basis_small, wide):
    # a smaller basis is the head of a larger build, bit for bit, in every
    # per-entry and field array: on the small grid and on the acceptance grid
    for big, heads in ((basis_small, (4, 6, 8)),
                       (build_eigenbasis(wide.basis.grid, 32), (8, 12, 16)),
                       (wide.basis, (48,))):
        for m in heads:
            small = build_eigenbasis(big.grid, m)
            for name in BASIS_ARRAYS:
                assert np.array_equal(getattr(small, name), getattr(big, name)[:m]), (m, name)
            for name in FIELD_ARRAYS:
                assert np.array_equal(getattr(small.fields, name),
                                      getattr(big.fields, name)[:m]), (m, name)


def test_parseval(basis_small):
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(basis_small.size)
    v = basis_small.fields.combine(beta)
    assert abs(l2_sq(v) - beta @ beta) < 1e-8 * (beta @ beta)


def test_tiebreak_order_deterministic(basis_small):
    # equal eigenvalues (cos/sin pairs) keep the cos-before-sin order
    lam = basis_small.eigenvalues
    for i in range(basis_small.size - 1):
        if lam[i] == lam[i + 1] and basis_small.mode_j[i] == basis_small.mode_j[i + 1]:
            if basis_small.shell_index[i] == basis_small.shell_index[i + 1]:
                assert basis_small.family[i] < basis_small.family[i + 1]


def test_stack_pairings_against_quadrature(basis_small, grid_small):
    # mass and energy pairings of a stack against sampled-field quadrature
    g = grid_small
    fields = [random_field(g, s) for s in range(3)] + list(basis_small.fields[:4])
    stack = stack_fields(fields)
    w2d, (x, w_x) = quad_weights_domain(g), x_rule(g)
    m = len(fields)
    mass, energy = np.empty((m, m)), np.empty((m, m))
    for r, u in enumerate(fields):
        for s, v in enumerate(fields):
            (u1, u2, *a), (v1, v2, *b) = (sample_fields(f[None])[0] for f in (u, v))
            strain = a[0] * b[0] + a[3] * b[3] + 0.5 * (a[1] + a[2]) * (b[1] + b[2])
            # wall traces at the x nodes, (n_x, component, wall)
            tu, tv = (np.fft.irfft(f.wall_vals, x.size, axis=0, norm="forward") for f in (u, v))
            wall = np.sum(tu * tv)
            mass[r, s] = np.sum((u1 * v1 + u2 * v2) * w2d)
            energy[r, s] = 2.0 * np.sum(strain * w2d) + g.spec.friction_alpha * w_x * wall
    assert np.abs(bs.mass_pairing(stack, stack) - mass).max() < 1e-12 * np.abs(mass).max()
    assert np.abs(bs.energy_pairing(stack, stack) - energy).max() < 1e-12 * np.abs(energy).max()


def test_fields_are_one_stack(basis_small, cache_small):
    # a set of fields is one ModeField whose arrays carry a leading stack axis
    assert isinstance(basis_small.fields, ModeField)
    assert isinstance(cache_small.fields, ModeField)
    assert len(basis_small.fields) == basis_small.size
    assert len(cache_small.fields) == cache_small.n_dofs
    weights = np.random.default_rng(5).standard_normal((5, basis_small.size))
    rows = basis_small.fields.combine(weights)
    for r, w in enumerate(weights):
        one = basis_small.fields.combine(w)
        for name in FIELD_ARRAYS:
            ref = getattr(one, name)
            assert np.abs(getattr(rows, name)[r] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_canonical_sign_survives_rounding():
    # an odd profile takes its largest magnitude at two mirrored nodes; a
    # perturbation at rounding level must not move the sign of any profile
    spec = DomainSpec(length_x=2 * np.pi, modes_x=8, nodes_y=24, friction_alpha=1.0,
                      viscosity=0.5)
    rng = np.random.default_rng(41)
    for prof in build_eigenbasis(build_grid(spec), 128).profiles_cgl:
        for _ in range(20):
            noisy = prof * (1.0 + 1e-12 * rng.standard_normal(prof.size))
            assert np.array_equal(bs._canonical_sign(noisy), noisy)


_TINY = DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=8, friction_alpha=1.0, viscosity=0.5)


# the fixture basis, a free-slip grid, the benchmark workloads' two bases, a
# shear-only basis (no streamfunction row) and every entry a small grid resolves
@pytest.mark.parametrize("modes_x, nodes_y, alpha, n",
                         [(4, 24, 1.0, 12), (3, 16, 0.0, 12), (8, 24, 1.0, 16), (8, 24, 1.0, 128),
                          (4, 24, 1.0, 1), (3, 8, 1.0, max_basis_size(_TINY))])
def test_basis_fields_match_loop_reference(modes_x, nodes_y, alpha, n):
    # every entry written into its row of one stack gives the bits of the
    # entry written into a field of its own
    basis = build_eigenbasis(build_grid(DomainSpec(length_x=2 * np.pi, modes_x=modes_x,
                                                   nodes_y=nodes_y, friction_alpha=alpha,
                                                   viscosity=0.5)), n)
    fields, tau = loop_basis_fields(basis)
    for name in FIELD_ARRAYS:
        assert np.array_equal(getattr(basis.fields, name), getattr(fields, name)), name
    assert np.array_equal(basis.tau_trace, tau)


# the grids of the test fixtures, the CLI tests and the benchmark workloads
@pytest.mark.parametrize("modes_x, nodes_y, alpha", [(3, 16, 0.0), (4, 24, 1.0), (8, 24, 1.0)])
def test_pencil_matches_scipy_eigh(modes_x, nodes_y, alpha):
    grid = build_grid(DomainSpec(length_x=2 * np.pi, modes_x=modes_x, nodes_y=nodes_y,
                                 friction_alpha=alpha, viscosity=0.5))
    for j in range(modes_x + 1):
        a, m, cols = bs.reduced_pencil(grid, j)
        lam, vecs = bs._solve_pencil(a, m)
        ref_lam, ref_vecs = scipy.linalg.eigh(a, m)
        assert (np.abs(lam - ref_lam) <= 1e-11 * ref_lam).all()
        got, ref = (bs._canonical_sign(cols @ v) for v in (vecs, ref_vecs))
        err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
        assert err.max() <= 1e-11
    # the pencils of modes 1..K as one stack keep every bit of the per-mode solves
    pencils = [bs.reduced_pencil(grid, j)[:2] for j in range(1, modes_x + 1)]
    lam, vecs = bs._solve_pencil(*(np.stack(a) for a in zip(*pencils)))
    for j, (a, m) in enumerate(pencils):
        one_lam, one_vecs = bs._solve_pencil(a, m)
        assert np.array_equal(lam[j], one_lam) and np.array_equal(vecs[j], one_vecs)


@pytest.mark.parametrize("bad", ["energy", "mass", "stacked"])
def test_solve_pencil_raises_basis_error_on_nonfinite_pencil(bad):
    # an overflowed pencil (inf and nan entries) fails in numpy.linalg; the
    # LinAlgError reaches the caller as one BasisError
    grid = build_grid(DomainSpec(length_x=2 * np.pi, modes_x=3, nodes_y=16,
                                 friction_alpha=0.0, viscosity=0.5))
    a, m, _ = bs.reduced_pencil(grid, 1)
    if bad == "energy":
        a = np.where(a != 0.0, np.inf, a)
    elif bad == "mass":
        m = np.full_like(m, np.nan)
    else:                                     # one bad pencil of a stack
        a, m = np.stack([a, np.full_like(a, np.inf)]), np.stack([m, m])
    with pytest.raises(BasisError, match="eigensolver failed"):
        bs._solve_pencil(a, m)
