"""Divergence-free velocity fields and the slip-wall Stokes eigenbasis.

Fields live in mode space: a real velocity field on the channel is stored as
complex Fourier-coefficient profiles

    v(x, y) = C_0(y) + 2 Re sum_{j>=1} C_j(y) exp(i k_j x),

with each profile sampled at the Gauss quadrature nodes together with its
wall-normal derivative and wall traces.  A set of fields is one ModeField
whose arrays carry a leading stack axis; the pairings
`mass_pairing`/`energy_pairing` and the squared H1 norms `h1_sq` work on
such stacks, and a one-field stack `f[None]` gives one field's value.  They
integrate in x by Parseval on the coefficients, so no field is sampled in x.
A stack's mode axis is its band: it holds modes 0..n_modes, where n_modes
may be below the grid's modes_x (the lifted fields live on the control's
modes), and the pairings run over the modes both stacks hold.
Divergence-free fields are built from per-mode streamfunctions (j >= 1) and
shear profiles (j = 0), which makes the incompressibility constraint exact
by construction.

The eigenbasis diagonalizes the strain-plus-friction energy form

    (v, z)_E = 2 int D(v):D(z) dx + alpha int_Gamma v . z

against the L2 mass form on the space of divergence-free fields with zero
normal trace, alpha being the friction of the fields' grid.  Per wavenumber
this reduces to a symmetric-definite 1D pencil, built by `reduced_pencil` on
the mode's admissible profiles (zero-mean shear profiles at j = 0, clamped
streamfunctions at j >= 1); the Stokes correction of the lifting solves on
the same reduced systems.  Each generating profile is signed so that its
first entry within 1e-8 relative of its largest magnitude is positive, which
keeps the sign of profiles with mirrored extrema independent of rounding.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .geometry import DomainSpec, Grid, GeometryError

__all__ = [
    "BasisError",
    "ModeField",
    "Basis",
    "mass_pairing",
    "energy_pairing",
    "h1_sq",
    "reduced_pencil",
    "max_basis_size",
    "build_eigenbasis",
    "save_basis",
]

FAMILY_SHEAR = 0
FAMILY_COS = 1
FAMILY_SIN = 2


class BasisError(RuntimeError):
    """Eigenbasis construction or field-algebra failure."""


def _check_same_grid(u: "ModeField", v: "ModeField"):
    if u.grid is not v.grid and (
        u.grid.n_q != v.grid.n_q
        or u.grid.n_y != v.grid.n_y
        or u.grid.spec != v.grid.spec
    ):
        raise GeometryError("fields live on different grids")


class ModeField:
    """Two-component velocity field in Fourier-mode representation.

    vals[j, c, q]   complex coefficient profile of component c at Gauss node q
    dvals           wall-normal derivative profiles
    wall_vals[j, c, w]   trace at wall w (0 = bottom, 1 = top)
    wall_dvals           wall-normal derivative traces

    A stack of fields on one grid is one ModeField whose four arrays carry a
    leading stack axis: indexing and len act on that axis, and `f[None]` is
    the one-field stack of f.  The mode axis j = 0..n_modes is the stack's
    band; the modes above it are zero.
    """

    __slots__ = ("grid", "vals", "dvals", "wall_vals", "wall_dvals")

    def __init__(self, grid: Grid, vals, dvals, wall_vals, wall_dvals):
        self.grid = grid
        self.vals = np.asarray(vals, dtype=complex)
        self.dvals = np.asarray(dvals, dtype=complex)
        self.wall_vals = np.asarray(wall_vals, dtype=complex)
        self.wall_dvals = np.asarray(wall_dvals, dtype=complex)

    @property
    def n_modes(self) -> int:
        return self.vals.shape[-3] - 1

    @classmethod
    def zeros(cls, grid: Grid, stack: tuple = (), n_modes: int | None = None) -> "ModeField":
        """The zero field, or a zero stack of the given shape, on modes 0..n_modes
        (the grid's modes_x by default)."""
        j = (grid.spec.modes_x if n_modes is None else n_modes) + 1
        return cls(
            grid,
            np.zeros(stack + (j, 2, grid.n_q), complex),
            np.zeros(stack + (j, 2, grid.n_q), complex),
            np.zeros(stack + (j, 2, 2), complex),
            np.zeros(stack + (j, 2, 2), complex),
        )

    def _put_shear(self, rows, u_cgl):
        """Write mode 0 of the stack rows `rows` from the shear profiles u_cgl,
        laid out (n_y, m) as columns or (m, n_y, 1) as one column per row."""
        g = self.grid
        walls = slice(None, None, g.n_y - 1)  # nodes 0 and n_y - 1
        self.vals[rows, 0, 0] = _by_row(g.interp @ u_cgl)
        self.dvals[rows, 0, 0] = _by_row(g.interp_d1 @ u_cgl)
        self.wall_vals[rows, 0, 0] = _by_row(u_cgl)[:, walls]
        self.wall_dvals[rows, 0, 0] = _by_row(g.d1 @ u_cgl)[:, walls]

    def _put_streamfunction(self, rows, j, phi):
        """Write mode j (an int, or one mode per row) of the stack rows `rows`
        from the complex streamfunctions phi, laid out as in `_put_shear`."""
        g = self.grid
        walls = slice(None, None, g.n_y - 1)
        ik = -1j * g.kx[np.reshape(j, (-1, 1))]
        dphi = g.d1 @ phi
        u = _by_row(g.interp @ dphi)
        phi_w, dphi_w = _by_row(phi)[:, walls], _by_row(dphi)[:, walls]
        self.vals[rows, j, 0] = u
        self.vals[rows, j, 1] = ik * _by_row(g.interp @ phi)
        self.dvals[rows, j, 0] = _by_row(g.interp_d2 @ phi)
        self.dvals[rows, j, 1] = ik * u
        self.wall_vals[rows, j, 0] = dphi_w
        self.wall_vals[rows, j, 1] = ik * phi_w
        self.wall_dvals[rows, j, 0] = _by_row(g.d2 @ phi)[:, walls]
        self.wall_dvals[rows, j, 1] = ik * dphi_w

    def combine(self, weights) -> "ModeField":
        """The stack's linear combination(s) with (..., m) weights over its m fields."""
        w = np.asarray(weights)
        return ModeField(self.grid, *(np.tensordot(w, a, axes=1) for a in
                                      (self.vals, self.dvals, self.wall_vals, self.wall_dvals)))

    # -- algebra -----------------------------------------------------------

    def __len__(self) -> int:
        return self.vals.shape[0]

    def __getitem__(self, idx) -> "ModeField":
        return ModeField(self.grid, self.vals[idx], self.dvals[idx],
                         self.wall_vals[idx], self.wall_dvals[idx])

    def __add__(self, other: "ModeField") -> "ModeField":
        _check_same_grid(self, other)
        return ModeField(
            self.grid,
            self.vals + other.vals,
            self.dvals + other.dvals,
            self.wall_vals + other.wall_vals,
            self.wall_dvals + other.wall_dvals,
        )

    # -- evaluation and residuals -------------------------------------------

    def divergence_residual(self) -> float | np.ndarray:
        """Max abs of i*k*v1 + v2' over modes and quadrature nodes; one per field of a stack."""
        k = self.grid.kx[: self.n_modes + 1, None]
        res = np.abs(1j * k * self.vals[..., 0, :] + self.dvals[..., 1, :]).max(axis=(-2, -1))
        return float(res) if res.ndim == 0 else res

    def normal_trace_coeffs(self) -> np.ndarray:
        """Coefficients of v.n per ([field,] mode, wall); bottom normal is (0,-1)."""
        out = np.empty(self.wall_vals.shape[:-2] + (2,), complex)
        out[..., 0] = -self.wall_vals[..., 1, 0]
        out[..., 1] = self.wall_vals[..., 1, 1]
        return out

    def tangential_trace_coeffs(self) -> np.ndarray:
        """Coefficients of v.tau per ([field,] mode, wall); tau is (1,0) bottom, (-1,0) top."""
        out = np.empty(self.wall_vals.shape[:-2] + (2,), complex)
        out[..., 0] = self.wall_vals[..., 0, 0]
        out[..., 1] = -self.wall_vals[..., 0, 1]
        return out

    def tangential_stress_coeffs(self) -> np.ndarray:
        """Coefficients of [2 D(v) n + alpha v] . tau per ([field,] mode, wall),
        alpha the friction of the field's grid."""
        alpha = self.grid.spec.friction_alpha
        k = self.grid.kx[: self.n_modes + 1]
        two_d12 = self.wall_dvals[..., 0, :] + 1j * k[:, None] * self.wall_vals[..., 1, :]
        out = np.empty(two_d12.shape, complex)
        out[..., 0] = -two_d12[..., 0] + alpha * self.wall_vals[..., 0, 0]
        out[..., 1] = -two_d12[..., 1] - alpha * self.wall_vals[..., 0, 1]
        return out


def _by_row(x) -> np.ndarray:
    """(m, len) view of profiles laid out (len, m) or (m, len, 1)."""
    return x[..., 0] if x.ndim == 3 else x.T


def _mode_weights(n_modes: int) -> np.ndarray:
    w = np.full(n_modes + 1, 2.0)
    w[0] = 1.0
    return w


def _real_gram(a, b) -> np.ndarray:
    """Re sum a_r conj(b_s) over all trailing axes, as one real GEMM."""
    a = np.ascontiguousarray(a).reshape(a.shape[0], -1).view(float)
    b = np.ascontiguousarray(b).reshape(b.shape[0], -1).view(float)
    return a @ b.T


def mass_pairing(a: ModeField, b: ModeField) -> np.ndarray:
    """L2 pairings (a_r, b_s) of two stacks of fields on one grid."""
    _check_same_grid(a, b)
    grid = a.grid
    nj = min(a.n_modes, b.n_modes) + 1
    w = grid.spec.length_x * _mode_weights(nj - 1)[:, None, None] * grid.w_y
    return _real_gram(a.vals[:, :nj] * w, b.vals[:, :nj])


def energy_pairing(a: ModeField, b: ModeField) -> np.ndarray:
    """Pairings 2(D a_r, D b_s) + alpha int_Gamma a_r . b_s of two stacks of fields."""
    _check_same_grid(a, b)
    grid = a.grid
    nj = min(a.n_modes, b.n_modes) + 1
    k = grid.kx[:nj][:, None]

    def rows(f):
        d11 = 1j * k * f.vals[:, :nj, 0]
        d12 = 0.5 * (f.dvals[:, :nj, 0] + 1j * k * f.vals[:, :nj, 1])
        return d11, d12, f.dvals[:, :nj, 1], f.wall_vals[:, :nj]

    lw = grid.spec.length_x * _mode_weights(nj - 1)
    wq = lw[:, None] * grid.w_y
    scales = (2.0 * wq, 4.0 * wq, 2.0 * wq, grid.spec.friction_alpha * lw[:, None, None])
    left = [(s * f).reshape(f.shape[0], -1) for s, f in zip(scales, rows(a))]
    right = [f.reshape(f.shape[0], -1) for f in rows(b)]
    return _real_gram(np.concatenate(left, axis=1), np.concatenate(right, axis=1))


def h1_sq(fields: ModeField) -> np.ndarray:
    """Squared H1 norms |v|^2 + |grad v|^2 of a stack of fields, one per field."""
    grid = fields.grid
    nj = fields.n_modes + 1
    k2 = grid.kx[:nj, None] ** 2
    sq = ((1.0 + k2) * (np.abs(fields.vals) ** 2).sum(axis=-2)
          + (np.abs(fields.dvals) ** 2).sum(axis=-2))
    w = grid.spec.length_x * _mode_weights(nj - 1)[:, None] * grid.w_y
    # vecdot sums each row as a 1-D dot does, so a stack and its rows agree bitwise
    return np.vecdot(sq.reshape(sq.shape[:-2] + (-1,)), w.ravel())


# -- eigenbasis -------------------------------------------------------------


@dataclass(eq=False)
class Basis:
    """H-orthonormal eigenbasis of the energy form, sorted by eigenvalue."""

    grid: Grid
    eigenvalues: np.ndarray       # (n,) positive, nondecreasing
    mode_j: np.ndarray            # (n,) wavenumber index of each entry
    family: np.ndarray            # (n,) FAMILY_SHEAR / FAMILY_COS / FAMILY_SIN
    shell_index: np.ndarray       # (n,) index within the per-mode spectrum
    profiles_cgl: np.ndarray      # (n, n_y) generating profile (u or psi) on CGL
    fields: ModeField             # stack of the n single-mode entries
    tau_trace: np.ndarray         # (n, 2) coefficients of e_i . tau on each wall

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def reduced_pencil(grid: Grid, j: int):
    """Energy and mass matrices of mode j on its admissible profiles.

    Returns (energy, mass, cols): the reduced matrices and the columns that
    map reduced coordinates to nodal CGL profiles.  At j = 0 the profiles are
    shear profiles u with zero mean, and cols is an orthonormal basis of the
    null space of the mean functional; at j >= 1 they are streamfunctions
    clamped at the walls, and cols picks the interior nodes.
    """
    lx, alpha = grid.spec.length_x, grid.spec.friction_alpha
    p, pd, w = grid.interp, grid.interp_d1, grid.w_y
    if j == 0:
        wall = np.zeros((grid.n_y, grid.n_y))
        wall[0, 0] = 1.0
        wall[-1, -1] = 1.0
        energy = lx * ((pd.T * w) @ pd + alpha * wall)
        mass = lx * (p.T * w) @ p
        cols = np.linalg.svd((w @ p)[None])[2][1:].T
    else:
        k = grid.kx[j]
        curl = grid.interp_d2 + k * k * p
        d1 = grid.d1
        energy = lx * (
            2.0 * k * k * (pd.T * w) @ pd
            + 0.5 * (curl.T * w) @ curl
            + 0.5 * alpha * (np.outer(d1[0], d1[0]) + np.outer(d1[-1], d1[-1]))
        )
        mass = 0.5 * lx * ((pd.T * w) @ pd + k * k * (p.T * w) @ p)
        cols = np.eye(grid.n_y)[:, 1:-1]
    return cols.T @ energy @ cols, cols.T @ mass @ cols, cols


def _canonical_sign(vecs: np.ndarray) -> np.ndarray:
    """Profiles along axis 0 of vecs (columns, or one vector) signed so that
    their leading entry is positive.

    The leading entry is the first one within 1e-8 relative of the largest
    magnitude, not the largest itself: the channel is mirror-symmetric in y,
    so an odd profile takes its largest magnitude at two mirrored nodes with
    opposite signs, and argmax would pick one of the two by rounding.
    """
    mag = np.abs(vecs)
    lead = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    sign = np.take_along_axis(vecs, lead[None], axis=0)[0]
    return np.where(sign < 0, -vecs, vecs)


def _solve_pencil(a, m):
    """Eigenpairs of the symmetric-definite pencil (a, m), ascending, m-orthonormal;
    (..., k, k) stacks of pencils are solved matrix by matrix.

    Cholesky reduction m = L L^T turns it into the standard problem for
    L^-1 a L^-T, whose eigenvectors y give the pencil's as L^-T y.  A solver
    failure (a degenerate grid's pencils overflow) raises BasisError.
    """
    try:
        low = np.linalg.cholesky(m)
        c = np.linalg.solve(low, np.linalg.solve(low, a).mT)
        lam, y = np.linalg.eigh(c)
        return lam, np.linalg.solve(low.mT, y)
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"eigensolver failed: {exc}") from exc


def max_basis_size(spec: DomainSpec) -> int:
    """The eigenpairs the grid of spec resolves: nodes_y - 1 shear profiles at
    j = 0 and a cos and a sin of nodes_y - 2 streamfunctions at each j >= 1."""
    return (spec.nodes_y - 1) + 2 * spec.modes_x * (spec.nodes_y - 2)


def build_eigenbasis(grid: Grid, n: int) -> Basis:
    """Eigenbasis of the energy form over divergence-free zero-normal-trace fields.

    Per wavenumber the problem reduces to the symmetric-definite pencil of
    `reduced_pencil` (each eigenvalue at j >= 1 carries a cos and a sin
    realization).  The merged spectrum is sorted by eigenvalue with
    deterministic tie-breaking by (wavenumber, shell index, family).
    """
    spec = grid.spec
    capacity = max_basis_size(spec)
    if n < 1 or n > capacity:
        raise BasisError(f"requested {n} eigenpairs, capacity is {capacity}")

    # mode 0, then the equal-size pencils of modes 1..K as one stack
    energy, mass, cols = reduced_pencil(grid, 0)
    lam0, vec0 = _solve_pencil(energy, mass)
    energy, mass, cols_k = (np.stack(a) for a in zip(
        *(reduced_pencil(grid, j) for j in range(1, spec.modes_x + 1))))
    lamk, veck = _solve_pencil(energy, mass)
    # entries in (mode, shell, family) order, each eigenvalue at j >= 1 a cos and a sin
    m0, (k, mk) = lam0.size, lamk.shape
    lams = np.concatenate([lam0, np.repeat(lamk, 2, axis=1).ravel()])
    js = np.concatenate([np.zeros(m0, int), np.repeat(np.arange(1, k + 1), 2 * mk)])
    fams = np.concatenate([np.full(m0, FAMILY_SHEAR), np.tile([FAMILY_COS, FAMILY_SIN], k * mk)])
    shells = np.concatenate([np.arange(m0), np.tile(np.repeat(np.arange(mk), 2), k)])
    prof_k = _canonical_sign(np.moveaxis(cols_k @ veck, 1, 0))   # (n_y, K, mk)
    profiles = np.concatenate([_canonical_sign(cols @ vec0).T, np.repeat(
        prof_k.transpose(1, 2, 0), 2, axis=1).reshape(-1, grid.n_y)])

    order = np.argsort(lams, kind="stable")[:n]
    lam = lams[order]
    if lam[0] <= 0:
        raise BasisError("nonpositive eigenvalue: resolution too low")

    basis = _basis_from_profiles(grid, lam, js[order], fams[order], shells[order],
                                 profiles[order])
    _self_check(basis)
    return basis


def _self_check(basis: Basis):
    """Weak eigen-residual (v, e_i)_E = lam_i (v, e_i), to 1e-6 relative, for 4
    gathered entries e_i against each of 3 random fields v."""
    n_tests, tol = 3, 1e-6
    rng = np.random.default_rng(0)
    n = basis.size
    draws = [(rng.standard_normal(n), rng.integers(0, n, size=4)) for _ in range(n_tests)]
    idx = np.concatenate([i for _, i in draws])
    v, e = basis.fields.combine([c for c, _ in draws]), basis.fields[idx]
    pair = (np.repeat(np.arange(n_tests), 4), np.arange(idx.size))
    lam = basis.eigenvalues[idx]
    lhs = energy_pairing(v, e)[pair]
    rhs = lam * mass_pairing(v, e)[pair]
    norm = np.sqrt(np.maximum(mass_pairing(v, v).diagonal(), 0.0))[pair[0]]
    if (np.abs(lhs - rhs) > tol * lam * np.maximum(1.0, norm)).any():
        raise BasisError("weak eigen-residual check failed")


def _basis_from_profiles(grid: Grid, eigenvalues, mode_j, family, shell_index,
                         profiles) -> Basis:
    """Basis whose fields are written from their generating CGL profiles.

    A shear profile u at mode 0 gives the field (u(y), 0), and a
    streamfunction phi at a mode j >= 1 the cos or sin real field of
    (phi', -i k_j phi).  All entries are written into one zeroed stack, each
    derivative matrix applied once to the (m, n_y, 1) stack of the shear
    profiles and once to that of the scaled streamfunctions: one mat-vec per
    entry, the product a field of its own would get, scattered into the
    entry's row at its mode.
    """
    fields = ModeField.zeros(grid, stack=(len(profiles),))
    shear = family == FAMILY_SHEAR
    rows = np.flatnonzero(shear)
    fields._put_shear(rows, profiles[rows, :, None])
    rows = np.flatnonzero(~shear)
    scale = np.where(family[rows] == FAMILY_COS, 0.5, -0.5j)[:, None, None]
    fields._put_streamfunction(rows, mode_j[rows], profiles[rows, :, None] * scale)
    tau = fields.tangential_trace_coeffs()[np.arange(len(fields)), mode_j]
    return Basis(
        grid=grid,
        eigenvalues=eigenvalues,
        mode_j=mode_j,
        family=family,
        shell_index=shell_index,
        profiles_cgl=profiles,
        fields=fields,
        tau_trace=tau,
    )


# -- persistence -------------------------------------------------------------


def save_basis(path, basis: Basis, meta: dict | None = None):
    payload = {
        "eigenvalues": basis.eigenvalues,
        "mode_j": basis.mode_j,
        "family": basis.family,
        "shell_index": basis.shell_index,
        "profiles_cgl": basis.profiles_cgl,
        "spec": np.array(astuple(basis.grid.spec)),
    }
    if meta:
        for key, val in meta.items():
            payload[f"meta_{key}"] = np.array(val)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)

