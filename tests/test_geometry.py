import numpy as np
import pytest

from oracles import loop_diff_matrix, loop_interp_matrix, quad_weights_domain, x_rule
from slipflow.geometry import (
    DomainSpec,
    GeometryError,
    _cheb_bary_weights,
    build_grid,
    cheb_lobatto_nodes,
    diff_matrix,
    gauss_legendre_01,
    interp_matrix,
)


def test_spec_rejects_bad_parameters():
    good = dict(length_x=1.0, modes_x=4, nodes_y=16, friction_alpha=1.0, viscosity=0.5)
    DomainSpec(**good)
    for bad in ({"length_x": -1.0}, {"modes_x": 0}, {"nodes_y": 4}, {"viscosity": 0.0},
                {"friction_alpha": -0.1}):
        with pytest.raises(GeometryError):
            DomainSpec(**{**good, **bad})


@pytest.mark.parametrize("modes_x", [1, 3, 8])
def test_spec_bounds_the_top_wavenumber(modes_x):
    # (2 pi modes_x / length_x)^4 must be finite: the bound rejects without
    # an overflow warning or error down to the smallest float, and a length
    # 5% above it builds a grid
    good = dict(modes_x=modes_x, nodes_y=16, friction_alpha=1.0, viscosity=0.5)
    bound = 2.0 * np.pi * modes_x / np.finfo(float).max ** 0.25
    for tiny in (0.95 * bound, 1e-300, 5e-324):
        with pytest.raises(GeometryError, match="fourth power overflows"):
            DomainSpec(length_x=tiny, **good)
    build_grid(DomainSpec(length_x=1.05 * bound, **good))


def test_domain_area(grid_small):
    area = quad_weights_domain(grid_small).sum()
    assert abs(area - 2 * np.pi) < 1e-12


def test_boundary_measure(grid_small):
    # the two walls' line integrals of 1
    x, w_x = x_rule(grid_small)
    ones = np.ones(x.size)
    total = w_x * ones.sum() + w_x * ones.sum()
    assert abs(total - 2 * grid_small.spec.length_x) < 1e-12


def test_integrate_closed_form(grid_small):
    # int_0^{2pi} sin^2 x dx * int_0^1 y dy = pi / 2
    nodes, w_x = x_rule(grid_small)
    x, y = np.meshgrid(nodes, grid_small.y_nodes, indexing="ij")
    val = w_x * (np.sin(x) ** 2 * y).sum(axis=0) @ grid_small.w_y
    assert abs(val - np.pi / 2) < 1e-12


def test_integrate_zero_mean_mode(grid_small):
    nodes, w_x = x_rule(grid_small)
    x, _ = np.meshgrid(nodes, grid_small.y_nodes, indexing="ij")
    f = np.cos(2 * np.pi * x / grid_small.spec.length_x)
    val = w_x * f.sum(axis=0) @ grid_small.w_y
    assert abs(val) < 1e-12


def test_integrate_constant(grid_small):
    x, w_x = x_rule(grid_small)
    val = w_x * np.ones((x.size, grid_small.n_q)).sum(axis=0) @ grid_small.w_y
    assert abs(val - grid_small.spec.length_x) < 1e-12


def test_quadrature_exact_on_resolved_band(grid_small):
    # products of resolved Fourier-polynomial fields integrate analytically
    lx = grid_small.spec.length_x
    nodes, w_x = x_rule(grid_small)
    x, y = np.meshgrid(nodes, grid_small.y_nodes, indexing="ij")
    f = np.cos(2 * np.pi * 2 * x / lx) * y**2
    g = np.cos(2 * np.pi * 2 * x / lx) * (1 - y)
    # int cos^2 = lx/2; int y^2 (1 - y) dy = 1/3 - 1/4 = 1/12
    exact = lx / 2 * (1.0 / 12.0)
    val = w_x * (f * g).sum(axis=0) @ grid_small.w_y
    assert abs(val - exact) < 1e-10 * abs(exact)


def test_boundary_cancellation_and_zero_mean(grid_small):
    # line integrals over the bottom and top walls, summed
    x, w_x = x_rule(grid_small)
    c = 0.7 * np.ones(x.size)
    assert abs(w_x * c.sum() + w_x * (-c).sum()) < 1e-12
    wave = np.cos(2 * np.pi * x / grid_small.spec.length_x)
    zero = np.zeros(x.size)
    assert abs(w_x * wave.sum() + w_x * zero.sum()) < 1e-12


def test_grid_weights_positive(grid_small):
    assert (grid_small.w_y > 0).all()
    assert x_rule(grid_small)[1] > 0


@pytest.mark.parametrize("n_y", [16, 24, 48])
def test_grid_matrices_match_loop_forms_bitwise(n_y):
    # the broadcast matrices are the loop forms' bits, for targets off the
    # nodes (Gauss nodes, as build_grid uses) and on them (nodes themselves,
    # and a node moved by less than the 1e-14 hit tolerance)
    y, bw = cheb_lobatto_nodes(n_y), _cheb_bary_weights(n_y)
    yq = gauss_legendre_01(int(np.ceil(1.5 * n_y)) + 2)[0]
    targets = np.concatenate([yq[:5], y[[0, 3, -1]], [y[5] + 5e-15], yq[5:], [0.5]])
    assert np.array_equal(diff_matrix(y, bw), loop_diff_matrix(y, bw))
    p = interp_matrix(y, bw, targets)
    assert np.array_equal(p, loop_interp_matrix(y, bw, targets))
    assert (p[5:9] == np.eye(n_y)[[0, 3, -1, 5]]).all()
