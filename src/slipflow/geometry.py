"""Periodic-channel geometry: the y collocation grid, its quadrature and the
x wavenumbers.

The computational domain is the channel (0, L_x) x (0, 1), periodic in x and
bounded by two flat walls.  Fields are resolved by Fourier modes in x and by
polynomial collocation in y.  Integrals in x are exact by orthogonality of the
Fourier modes, so the grid holds no x-nodes: the one x-rule of the package is
the pseudospectral convection's own (`dynamics.Convection`).  Integrals in y
use Gauss-Legendre quadrature, chosen fine enough that all bilinear and
trilinear products of resolved profiles are integrated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "DomainSpec",
    "Grid",
    "build_grid",
]

MIN_NODES_Y = 8
MIN_MODES_X = 1


class GeometryError(ValueError):
    """Invalid domain specification or sample layout."""


@dataclass(frozen=True)
class DomainSpec:
    """Physical and resolution parameters of the periodic channel.

    length_x: channel period L_x, with (2 pi modes_x / L_x)^4 finite.
    modes_x: number K of resolved Fourier wavenumbers (k_j = 2*pi*j/L_x, |j| <= K).
    nodes_y: wall-normal collocation nodes across y in [0, 1].
    friction_alpha: wall friction coefficient (>= 0), the one alpha that the
        energy form, the lifting's Stokes correction and the slip stress read.
    viscosity: kinematic viscosity (> 0).
    """

    length_x: float
    modes_x: int
    nodes_y: int
    friction_alpha: float
    viscosity: float

    def __post_init__(self):
        if not self.length_x > 0:
            raise GeometryError("length_x must be positive")
        if not self.viscosity > 0:
            raise GeometryError("viscosity must be positive")
        if self.friction_alpha < 0:
            raise GeometryError("friction_alpha must be nonnegative")
        if int(self.modes_x) != self.modes_x or self.modes_x < MIN_MODES_X:
            raise GeometryError(f"modes_x must be an integer >= {MIN_MODES_X}")
        if int(self.nodes_y) != self.nodes_y or self.nodes_y < MIN_NODES_Y:
            raise GeometryError(f"nodes_y must be an integer >= {MIN_NODES_Y}")
        k = 2.0 * math.pi * float(self.modes_x) / float(self.length_x)
        if not math.isfinite(k * k * k * k):    # k^4 scales the j >= 1 pencils; floats give inf
            raise GeometryError(f"length_x = {self.length_x:g} is too small for modes_x = "
                                f"{self.modes_x}: the top wavenumber's fourth power overflows")


def cheb_lobatto_nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes mapped to [0, 1], ascending, endpoints included."""
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos(np.pi * i / (n - 1)))


def _cheb_bary_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def diff_matrix(nodes: np.ndarray, bary_w: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix with the negative-sum diagonal."""
    with np.errstate(divide="ignore"):  # the diagonal, overwritten below
        d = (bary_w / bary_w[:, None]) / (nodes[:, None] - nodes)
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def interp_matrix(nodes: np.ndarray, bary_w: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from `nodes` to `targets`.

    A target within 1e-14 of a node gets the unit row of the first such node.
    """
    hit = np.isclose(targets[:, None], nodes, rtol=0.0, atol=1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of hits, overwritten below
        terms = bary_w / (targets[:, None] - nodes)
        p = terms / terms.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    p[on_node] = 0.0
    p[on_node, hit[on_node].argmax(axis=1)] = 1.0
    return p


def gauss_legendre_01(nq: int):
    x, w = np.polynomial.legendre.leggauss(nq)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable discrete geometry shared by all field operations.

    y carries both the Chebyshev-Lobatto representation nodes and an embedded
    Gauss-Legendre quadrature fine enough for exact triple products of
    collocation polynomials; x carries only the wavenumbers of the modes.
    """

    spec: DomainSpec
    y_cgl: np.ndarray          # (n_y,) Chebyshev-Lobatto nodes in [0, 1]
    d1: np.ndarray             # (n_y, n_y) differentiation on CGL nodes
    d2: np.ndarray             # d1 @ d1
    y_nodes: np.ndarray        # (n_q,) Gauss quadrature nodes in (0, 1)
    w_y: np.ndarray            # (n_q,) Gauss weights, sum = 1
    interp: np.ndarray         # (n_q, n_y) CGL values -> Gauss values
    interp_d1: np.ndarray      # (n_q, n_y) CGL values -> first derivative at Gauss
    interp_d2: np.ndarray      # (n_q, n_y) CGL values -> second derivative at Gauss
    kx: np.ndarray             # (modes_x + 1,) wavenumbers 2*pi*j/L_x

    @property
    def n_y(self) -> int:
        return self.y_cgl.size

    @property
    def n_q(self) -> int:
        return self.y_nodes.size


def build_grid(spec: DomainSpec) -> Grid:
    """Construct the collocation/quadrature grid for a domain specification."""
    n_y = spec.nodes_y
    y = cheb_lobatto_nodes(n_y)
    bw = _cheb_bary_weights(n_y)
    d1 = diff_matrix(y, bw)
    d2 = d1 @ d1

    n_q = int(np.ceil(1.5 * n_y)) + 2  # exact for triple products of profiles
    yq, wq = gauss_legendre_01(n_q)
    p = interp_matrix(y, bw, yq)

    kx = 2.0 * np.pi * np.arange(spec.modes_x + 1) / spec.length_x
    return Grid(
        spec=spec,
        y_cgl=y,
        d1=d1,
        d2=d2,
        y_nodes=yq,
        w_y=wq,
        interp=p,
        interp_d1=p @ d1,
        interp_d2=p @ d2,
        kx=kx,
    )

