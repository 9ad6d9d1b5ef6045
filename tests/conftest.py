from types import SimpleNamespace

import numpy as np
import pytest

from slipflow.basis import build_eigenbasis
from slipflow.dynamics import DenseConvection, assemble_operators
from slipflow.geometry import DomainSpec, build_grid
from slipflow.lifting import BoundaryControl, LiftingCache, project_compatible


@pytest.fixture(scope="session")
def spec_small():
    return DomainSpec(length_x=2 * np.pi, modes_x=4, nodes_y=24,
                      friction_alpha=1.0, viscosity=0.5)


@pytest.fixture(scope="session")
def grid_small(spec_small):
    return build_grid(spec_small)


@pytest.fixture(scope="session")
def basis_small(grid_small):
    return build_eigenbasis(grid_small, 12)


@pytest.fixture(scope="session")
def cache_small(grid_small):
    return LiftingCache(grid_small, 2)


@pytest.fixture(scope="session")
def cache_mean(grid_small):
    """A 0-mode lifting cache: the four mean wall coefficients only."""
    return LiftingCache(grid_small, 0)


@pytest.fixture(scope="session")
def wide():
    """An n = 128 basis, above N_PS, with its lifting cache and operators.

    The simulators on `ops` evaluate with `ops.convection`, a `Convection`,
    and so does `step_em`; `dense`, the `DenseConvection` of the basis and
    the lifted fields, is the tests' reference for it, built here once for
    the session: src builds the dense tensors below N_PS only.
    """
    spec = DomainSpec(length_x=2 * np.pi, modes_x=8, nodes_y=24,
                      friction_alpha=1.0, viscosity=0.5)
    grid = build_grid(spec)
    basis = build_eigenbasis(grid, 128)
    cache = LiftingCache(grid, 2)
    return SimpleNamespace(basis=basis, cache=cache, ops=assemble_operators(basis, cache),
                           dense=DenseConvection(basis, cache.fields))


@pytest.fixture(scope="session")
def spec_free():
    return DomainSpec(length_x=2 * np.pi, modes_x=4, nodes_y=24,
                      friction_alpha=0.0, viscosity=1.0)


@pytest.fixture(scope="session")
def grid_free(spec_free):
    return build_grid(spec_free)


def random_compatible_control(length_x, n_modes, t_grid, scale, seed, p=4.0):
    rng = np.random.default_rng(np.random.SeedSequence([0xC0, seed]))
    ctrl = BoundaryControl.zeros(length_x, n_modes, t_grid, p)
    ctrl.gamma[:] = scale * rng.standard_normal(ctrl.gamma.shape)
    return project_compatible(ctrl)


@pytest.fixture(scope="session")
def make_control():
    return random_compatible_control


def zero_control(sim):
    """The zero control over a simulator's horizon: the uncontrolled flow."""
    return BoundaryControl.zeros(sim.grid.spec.length_x, sim.cache.n_modes, [0.0, sim.t_final],
                                 4.0)


@pytest.fixture(scope="session")
def zero_ctrl():
    return zero_control
