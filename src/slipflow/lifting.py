"""Lifting of non-homogeneous slip-wall data to divergence-free channel fields.

Boundary data is a pair of wall traces: a prescribed normal velocity `a`
and a prescribed tangential stress `b`, each a truncated Fourier series per
wall with piecewise-linear time dependence.  The lifting runs in two stages
per wavenumber:

1. a harmonic potential whose normal derivative matches `a` (closed-form
   cosh/sinh profiles, a linear profile for the mean mode); `solve_harmonic`
   returns its gradient c = grad h as a `ModeField`;
2. a stationary Stokes correction with zero normal trace whose tangential
   stress supplies the remainder b - [2 D(c) n + alpha c] . tau, alpha the
   friction of the grid, where the stress of c is
   `ModeField.tangential_stress_coeffs`, the one slip-stress formula of the
   package.  `solve_correction` solves it on the reduced energy systems of
   `basis.reduced_pencil` that the eigenbasis also uses (zero-mean shear
   profiles for the mean mode, clamped streamfunctions above).

Both stages are linear and take (..., n_modes+1) stacks of wall data, so
`LiftingCache` lifts the unit response of every control degree of freedom
in one pass: one harmonic call on the stacked rows, then, per x-mode, one
Stokes solve whose right-hand-side columns are all the coefficients' data
at that mode.  Any compatible control is a superposition of these fields,
and `lift` evaluates a control on its whole time grid as one stack: one
`combine` for the values and one for the slopes give every node's wall
residuals and lifted size at once.

Trace regularity is measured by a Fourier-multiplier surrogate of the mixed
fractional wall norm: a term of differential order s contributes
sqrt(L_x * sum_walls sum_j (1 + k_j^2)^s |f_j|^2), and the exponent p enters
only through the orders 1 - 1/p (for a) and -1/p (for b).  This keeps the
scaling structure of the continuous norms while remaining a quadratic form
of the coefficients; it is the one deliberate modelling simplification of
this module.  `wall_norm_sq` is that one weighted form over stacked
coefficient tables: the trace-norm series and, at order 0, the wall penalty
of the control problem are calls to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ModeField, h1_sq, mass_pairing, reduced_pencil
from .geometry import Grid

__all__ = [
    "LiftingError",
    "CompatibilityError",
    "BoundaryControl",
    "project_compatible",
    "trace_tables",
    "check_harmonic_band",
    "solve_harmonic",
    "solve_correction",
    "LiftingCache",
    "lift",
    "trace_norm_series",
    "wall_norm_sq",
]

KIND_A = "a"
KIND_B = "b"
WALLS = ("bottom", "top")
TRACES = ((KIND_A, 0), (KIND_A, 1), (KIND_B, 0), (KIND_B, 1))


class LiftingError(RuntimeError):
    """Lifting solver failure."""


class CompatibilityError(LiftingError):
    """Net inflow does not balance net outflow."""


@dataclass(eq=False)
class BoundaryControl:
    """Wall data (a, b) as per-wall Fourier coefficients on a time grid.

    Coefficients are stored as a flat real vector per time point; each of
    the four traces (a-bottom, a-top, b-bottom, b-top) occupies a block
    [mean, re_1, im_1, ..., re_K, im_K].  Values between grid points are
    piecewise linear, so time derivatives are segment slopes.

    gamma may carry a leading stack axis, (C, n_t, n_dofs): C controls on one
    time grid, such as a compass poll's candidates.  `series` and the norms
    and penalty built on it then give (C, ...) results, each row the bits of
    its control's own call, and `ctrl[c]` is control c.
    """

    length_x: float
    n_modes: int                 # Fourier modes per wall beyond the mean
    t_grid: np.ndarray           # (n_t,) increasing, t_grid[0] = 0
    gamma: np.ndarray            # (n_t, n_dofs), or (C, n_t, n_dofs) for a stack
    p: float                     # trace exponent, in (2, inf)

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, float)
        self.gamma = np.asarray(self.gamma, float)
        if self.t_grid.ndim != 1 or self.t_grid.size < 1:
            raise LiftingError("time grid must hold at least one point")
        if not (self.t_grid[0] == 0.0 and (np.diff(self.t_grid) > 0.0).all()):
            raise LiftingError("time grid must start at 0 and strictly increase")
        shape = (self.t_grid.size, self.n_dofs)
        if self.gamma.ndim not in (2, 3) or self.gamma.shape[-2:] != shape:
            raise LiftingError(f"gamma must have shape {shape} or (C, {shape[0]}, {shape[1]})")
        if not 2.0 < self.p < np.inf:
            raise LiftingError("trace exponent p must lie in (2, inf)")
        if not (np.abs(self.gamma) <= 1e150).all():     # so that products of two stay finite
            raise LiftingError("gamma must be finite and at most 1e150 in magnitude")

    # -- layout ---------------------------------------------------------

    @property
    def block(self) -> int:
        return 2 * self.n_modes + 1

    @property
    def n_dofs(self) -> int:
        return 4 * self.block

    @classmethod
    def zeros(cls, length_x, n_modes, t_grid, p, stack: tuple = ()) -> "BoundaryControl":
        t = np.atleast_1d(np.asarray(t_grid, float))
        return cls(length_x, n_modes, t, np.zeros(stack + (t.size, 4 * (2 * n_modes + 1))), p)

    def __getitem__(self, c) -> "BoundaryControl":
        """Control c of a stack; its gamma views the stack's."""
        return BoundaryControl(self.length_x, self.n_modes, self.t_grid, self.gamma[c], self.p)

    def dof_index(self, kind: str, wall: str, j: int, part: str = "re") -> int:
        """Position of one coefficient in a gamma row; LiftingError if it does not exist."""
        if kind not in (KIND_A, KIND_B) or wall not in WALLS or part not in ("re", "im"):
            raise LiftingError(f"no trace coefficient {kind!r} on wall {wall!r}, part {part!r}")
        if not isinstance(j, (int, np.integer)) or not 0 <= j <= self.n_modes:
            raise LiftingError(f"mode {j!r} must be an integer in 0..{self.n_modes}")
        t = TRACES.index((kind, WALLS.index(wall)))
        if j == 0:
            if part != "re":
                raise LiftingError("mean mode has no imaginary part")
            return t * self.block
        return t * self.block + 2 * j - 1 + (part == "im")

    def coeffs(self, gamma_rows: np.ndarray) -> np.ndarray:
        """(..., 4, n_modes+1) complex coefficient tables of (..., n_dofs) rows."""
        return trace_tables(gamma_rows, self.n_modes)

    def covers(self, t_final: float) -> bool:
        """Whether the control is defined up to t_final; a one-point grid is constant."""
        return self.t_grid.size == 1 or self.t_grid[-1] >= t_final - 1e-12

    def interp(self, t: float):
        """Piecewise-linear value and slope of the coefficient vector at t."""
        gamma, slope = self.series([t])
        return gamma[0], slope[0]

    def series(self, times):
        """Piecewise-linear values and slopes at each time, (..., n_times, n_dofs) each."""
        t = np.asarray(times, float)
        tg, g = self.t_grid, self.gamma
        if tg.size == 1:
            values = np.repeat(g[..., :1, :], t.size, axis=-2)
            return values, np.zeros_like(values)
        outside = (t < tg[0] - 1e-12) | (t > tg[-1] + 1e-12)
        if outside.any():
            raise LiftingError(f"time {float(t[outside][0])} outside the control horizon")
        s = np.clip(np.searchsorted(tg, t, side="right") - 1, 0, tg.size - 2)
        slope = (np.diff(g, axis=-2) / np.diff(tg)[:, None])[..., s, :]    # of s's segment
        values = (t - tg[s])[:, None] * slope
        values += g[..., s, :]
        return values, slope

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "length_x": self.length_x,
            "n_modes": self.n_modes,
            "p": self.p,
            "t_grid": self.t_grid.tolist(),
            "traces": [
                {"kind": k, "wall": WALLS[w]}
                for k, w in TRACES
            ],
            "gamma": self.gamma.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryControl":
        for key, kind in (("length_x", (int, float)), ("n_modes", int), ("p", (int, float))):
            if isinstance(data[key], bool) or not isinstance(data[key], kind):
                raise LiftingError(f"{key} must be {'an integer' if kind is int else 'a number'}")
        gamma = np.asarray(data["gamma"], float)
        if gamma.ndim != 2:             # a stack of controls is never read from a file
            raise LiftingError("gamma must be one control's (n_t, n_dofs) table")
        return cls(
            length_x=float(data["length_x"]),
            n_modes=data["n_modes"],
            t_grid=np.asarray(data["t_grid"], float),
            gamma=gamma,
            p=float(data["p"]),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BoundaryControl":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def trace_tables(gamma_rows: np.ndarray, n_modes: int) -> np.ndarray:
    """(..., 4, n_modes+1) complex coefficient tables of (..., n_dofs) rows of
    the `BoundaryControl` layout with n_modes modes per wall."""
    rows = np.asarray(gamma_rows, float)
    blk = rows.reshape(rows.shape[:-1] + (4, 2 * n_modes + 1))
    out = np.empty(blk.shape[:-1] + (n_modes + 1,), complex)
    out[..., 0] = blk[..., 0]
    out[..., 1:] = blk[..., 1::2] + 1j * blk[..., 2::2]
    return out


def compatible_rows(gamma_rows: np.ndarray, n_modes: int) -> np.ndarray:
    """(..., n_dofs) rows with the means of a on the two walls (the first
    entry of the first and second trace block) replaced by their
    antisymmetric part: the nearest rows of zero net normal flux."""
    out = np.array(gamma_rows, float)
    ib, it = 0, 2 * n_modes + 1
    mean = 0.5 * (out[..., ib] - out[..., it])
    out[..., ib] = mean
    out[..., it] = -mean
    return out


def project_compatible(ctrl: BoundaryControl) -> BoundaryControl:
    """Orthogonal projection onto zero net normal flux through the walls.

    Only the two mean coefficients of `a` are touched: they are replaced by
    their antisymmetric part, which is the nearest compatible point in
    coefficient space.  Idempotent.  The result is a new control with a
    gamma of its own; ctrl is left as it is.
    """
    return replace(ctrl, gamma=compatible_rows(ctrl.gamma, ctrl.n_modes))


# -- trace norms --------------------------------------------------------------


def wall_norm_sq(tables: np.ndarray, order: float, length_x: float) -> np.ndarray:
    """L_x sum_walls sum_j m_j (1 + k_j^2)^order |c_j|^2 over (..., 2, J) wall pairs.

    m_0 = 1 and m_j = 2 otherwise: the mean and the two conjugate modes of a
    real trace.
    """
    k = 2.0 * np.pi * np.arange(tables.shape[-1]) / length_x
    mult = (1.0 + k * k) ** order
    sq = (np.abs(tables) ** 2).sum(axis=-2)
    # vecdot sums each row as a 1-D dot does, so a stack and its rows agree bitwise
    return length_x * (mult[0] * sq[..., 0] + 2.0 * np.vecdot(sq[..., 1:], mult[1:]))


def trace_norm_series(ctrl: BoundaryControl, times) -> np.ndarray:
    """Trace norm at each time, (..., n_times): a at order 1 - 1/p, b at -1/p
    and 0, and the slopes of a and b at 1/2 and -1/2."""
    rows, slopes = ctrl.series(times)
    tab, dtab = ctrl.coeffs(rows), ctrl.coeffs(slopes)
    p, lx = ctrl.p, ctrl.length_x
    return (
        np.sqrt(wall_norm_sq(tab[..., :2, :], 1.0 - 1.0 / p, lx))
        + np.sqrt(wall_norm_sq(dtab[..., :2, :], 0.5, lx))
        + np.sqrt(wall_norm_sq(tab[..., 2:, :], -1.0 / p, lx))
        + np.sqrt(wall_norm_sq(tab[..., 2:, :], 0.0, lx))
        + np.sqrt(wall_norm_sq(dtab[..., 2:, :], -0.5, lx))
    )


# -- harmonic stage -----------------------------------------------------------


# Largest wavenumber the harmonic stage resolves.  Its profiles are
# differences of cosh and sinh terms of size e^k / k that cancel to the
# field's size 1 / k, so its rounding error relative to the field is about
# eps e^k: sqrt(eps) at this k.  Measured on unit wall data against the
# decaying-exponential form: 7e-9 at k = 18, 3e-6 at 24, 10 at 40, and past
# 1e60 at some k in the hundreds; cosh itself overflows past 710.
HARMONIC_K_MAX = 0.5 * math.log(1.0 / np.finfo(float).eps)


def check_harmonic_band(length_x: float, n_modes: int) -> None:
    """Raise LiftingError unless the top lifted wavenumber 2 pi n_modes /
    length_x is at most HARMONIC_K_MAX.  The check compares Python floats,
    so a rejected length leaves no numpy warning."""
    k = 2.0 * math.pi * n_modes / length_x
    if k > HARMONIC_K_MAX:
        raise LiftingError(f"length_x = {length_x:g} is too short for n_modes = {n_modes}: "
                           f"the top lifted wavenumber {k:.4g} passes {HARMONIC_K_MAX:.4g}, "
                           "past which the harmonic profiles' cosh and sinh terms cancel "
                           "to rounding error")


def solve_harmonic(a_bottom, a_top, grid: Grid, n_modes: int) -> ModeField:
    """Neumann potential per mode: h'' = k^2 h with -h'(0)=a_b, h'(1)=a_t.

    The mean mode reduces to a linear profile and is solvable only under the
    zero-net-flux compatibility a_b(0) + a_t(0) = 0; the potential is pinned
    by a zero boundary mean.  Returns the gradient as a velocity field on
    modes 0..n_modes, and (..., n_modes+1) rows of data give a stack of fields.
    """
    check_harmonic_band(grid.spec.length_x, n_modes)
    a_bottom = np.asarray(a_bottom, complex)
    a_top = np.asarray(a_top, complex)
    scale = np.maximum(np.abs(a_bottom).max(axis=-1), np.abs(a_top).max(axis=-1))
    if (np.abs(a_bottom[..., 0] + a_top[..., 0]) > 1e-12 * np.maximum(scale, 1e-30)).any():
        raise CompatibilityError(
            "mean normal data does not cancel across the walls"
        )
    f = ModeField.zeros(grid, stack=a_bottom.shape[:-1], n_modes=n_modes)

    # mean mode: h = c0 + c1 y, c1 = -a_b(0); vertical through-flow (0, c1)
    c1 = -a_bottom[..., :1]
    f.vals[..., 0, 1, :] = c1
    f.wall_vals[..., 0, 1, :] = c1

    # modes 1..n_modes at once: k is (J,), the data (..., J), profiles (..., J, n_q)
    k = grid.kx[1 : n_modes + 1]
    ky = k[:, None] * grid.y_nodes
    sh, ch = np.sinh(k), np.cosh(k)
    bb = -a_bottom[..., 1:] / k
    aa = (a_top[..., 1:] + a_bottom[..., 1:] * ch) / (k * sh)
    h = aa[..., None] * np.cosh(ky) + bb[..., None] * np.sinh(ky)
    dh = k[:, None] * (aa[..., None] * np.sinh(ky) + bb[..., None] * np.cosh(ky))
    ik = 1j * k[:, None]
    m = slice(1, n_modes + 1)
    f.vals[..., m, 0, :] = ik * h
    f.vals[..., m, 1, :] = dh
    f.dvals[..., m, 0, :] = ik * dh
    f.dvals[..., m, 1, :] = (k * k)[:, None] * h
    h01 = np.stack([aa, aa * ch + bb * sh], axis=-1)
    dh01 = np.stack([k * bb, k * (aa * sh + bb * ch)], axis=-1)
    f.wall_vals[..., m, 0, :] = ik * h01
    f.wall_vals[..., m, 1, :] = dh01
    f.wall_dvals[..., m, 0, :] = ik * dh01
    f.wall_dvals[..., m, 1, :] = (k * k)[:, None] * h01
    return f


# -- Stokes correction stage --------------------------------------------------


def solve_correction(bt_bottom, bt_top, grid: Grid, n_modes: int) -> ModeField:
    """Stationary Stokes correction per mode with prescribed tangential stress.

    Seeks a divergence-free field with zero normal trace whose tangential
    stress at the grid's friction equals the given wall data, variationally:
    the energy form tested against all admissible fields equals the wall
    pairing with the data.  The mean mode runs on zero-mean shear profiles,
    which fixes the one-parameter indeterminacy of the periodic channel (a
    mean pressure gradient appears implicitly as the Lagrange multiplier of
    that constraint).  (..., n_modes+1) rows of data give a stack of fields on
    modes 0..n_modes, solved as the columns of one right-hand side per mode.
    """
    if n_modes > grid.spec.modes_x:
        raise LiftingError("control modes exceed the resolved band")
    lx = grid.spec.length_x
    bt_bottom = np.asarray(bt_bottom, complex)
    stack = bt_bottom.shape[:-1]
    bt_bottom = bt_bottom.reshape(-1, n_modes + 1).T
    bt_top = np.asarray(bt_top, complex).reshape(-1, n_modes + 1).T
    out = ModeField.zeros(grid, stack=bt_bottom.shape[1:], n_modes=n_modes)
    for j in range(n_modes + 1):
        if j == 0:
            # zero-mean shear profiles; the mean data of a real trace is real
            rhs = np.zeros((grid.n_y, bt_bottom.shape[1]))
            rhs[0] = lx * bt_bottom[0].real
            rhs[-1] = -lx * bt_top[0].real
        else:
            rhs = 0.5 * lx * (np.outer(grid.d1[0], bt_bottom[j])
                              - np.outer(grid.d1[-1], bt_top[j]))
        # nodal profiles whose energy pairings with every admissible profile
        # are the columns of rhs
        energy, _, cols = reduced_pencil(grid, j)
        try:
            prof = cols @ np.linalg.solve(energy, cols.T @ rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise LiftingError(f"singular correction system at mode {j}") from exc
        if j == 0:
            out._put_shear(slice(None), prof)
        else:
            out._put_streamfunction(slice(None), j, prof)
    return ModeField(grid, *(a.reshape(stack + a.shape[1:])
                             for a in (out.vals, out.dvals, out.wall_vals, out.wall_dvals)))


# -- unit-response cache ------------------------------------------------------


class LiftingCache:
    """Unit lifted fields per control degree of freedom (compatible projection).

    `fields` stacks the lifting of each projected unit coefficient on the
    control's band, modes 0..n_modes, so any compatible coefficient vector
    lifts by superposition.  The cache is immutable after construction and
    safe to share.
    """

    def __init__(self, grid: Grid, n_modes: int):
        self.grid = grid
        self.n_modes = n_modes
        self.n_dofs = 4 * (2 * n_modes + 1)
        # every unit coefficient at once, as the rows of an identity made compatible
        tables = trace_tables(compatible_rows(np.eye(self.n_dofs), n_modes), n_modes)
        # harmonic stage for a, then the correction supplies the rest of b
        har = solve_harmonic(tables[:, 0], tables[:, 1], grid, n_modes)
        stress = har.tangential_stress_coeffs()
        corr = solve_correction(tables[:, 2] - stress[..., 0], tables[:, 3] - stress[..., 1],
                                grid, n_modes)
        self.fields = har + corr


def lift(ctrl: BoundaryControl, cache: LiftingCache) -> dict:
    """The lifting of a compatible control at every node of its time grid.

    The lifted fields A(gamma) and A(gamma-dot) of all nodes are two stacks,
    one `combine` each.  Returns (n_t,) arrays: the worst coefficient-space
    residuals of the two wall conditions against the node's data (`normal`,
    `tangential`) and the `divergence` residual, the lifted `size`
    |A(gamma)|_H1 + |A(gamma-dot)|_L2 and the `trace_norm`.  Raises if the
    control violates the compatibility constraint or its mode count is not
    the cache's.
    """
    g = ctrl.gamma
    flux = g[:, ctrl.dof_index(KIND_A, "bottom", 0)] + g[:, ctrl.dof_index(KIND_A, "top", 0)]
    if np.abs(flux).max() > 1e-10 * max(1.0, np.abs(g).max()):
        raise CompatibilityError("control violates the zero-net-flux constraint")
    if ctrl.n_modes != cache.n_modes:
        raise LiftingError("control and cache mode counts differ")
    rows, slopes = ctrl.series(ctrl.t_grid)
    f, df = cache.fields.combine(rows), cache.fields.combine(slopes)
    # per node, (mode, wall) tables of the data: a on the two walls, then b
    table = ctrl.coeffs(g).swapaxes(-2, -1)
    normal = np.abs(f.normal_trace_coeffs() - table[..., :2])
    tangential = np.abs(f.tangential_stress_coeffs() - table[..., 2:])
    return {
        "normal": normal.max(axis=(-2, -1)),
        "tangential": tangential.max(axis=(-2, -1)),
        "divergence": f.divergence_residual(),
        "size": np.sqrt(h1_sq(f)) + np.sqrt(mass_pairing(df, df).diagonal()),
        "trace_norm": trace_norm_series(ctrl, ctrl.t_grid),
    }
