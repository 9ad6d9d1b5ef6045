"""Lifting of non-homogeneous slip-wall data to divergence-free channel fields.

Boundary data is a pair of wall traces: a prescribed normal velocity `a`
and a prescribed tangential stress `b`, each a truncated Fourier series per
wall with piecewise-linear time dependence.  The lifting runs in two stages
per wavenumber:

1. a harmonic potential whose normal derivative matches `a` (closed-form
   cosh/sinh profiles, a linear profile for the mean mode), giving c = grad h;
2. a stationary Stokes correction with zero normal trace whose tangential
   stress supplies the remainder b - [2 D(c) n + alpha c] . tau, solved on
   the reduced energy systems of `basis.reduced_pencil` that the eigenbasis
   also uses (zero-mean shear profiles for the mean mode, clamped
   streamfunctions above).

Both stages are linear, so unit responses per control degree of freedom are
precomputed once and superposed.

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
from dataclasses import dataclass, field

import numpy as np

from .basis import ModeField, reduced_pencil
from .geometry import Grid

__all__ = [
    "LiftingError",
    "CompatibilityError",
    "BoundaryControl",
    "project_compatible",
    "solve_harmonic",
    "StokesCorrectionSolver",
    "LiftingCache",
    "LiftedField",
    "lift",
    "trace_norm",
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
    """

    length_x: float
    n_modes: int                 # Fourier modes per wall beyond the mean
    t_grid: np.ndarray           # (n_t,) increasing, t_grid[0] = 0
    gamma: np.ndarray            # (n_t, n_dofs)
    p: float = 4.0

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, float)
        self.gamma = np.asarray(self.gamma, float)
        if self.t_grid.ndim != 1 or self.t_grid.size < 1:
            raise LiftingError("time grid must hold at least one point")
        if self.gamma.shape != (self.t_grid.size, self.n_dofs):
            raise LiftingError(
                f"gamma must have shape {(self.t_grid.size, self.n_dofs)}"
            )
        if not 2.0 < self.p < np.inf:
            raise LiftingError("trace exponent p must lie in (2, inf)")

    # -- layout ---------------------------------------------------------

    @property
    def block(self) -> int:
        return 2 * self.n_modes + 1

    @property
    def n_dofs(self) -> int:
        return 4 * self.block

    @classmethod
    def zeros(cls, length_x, n_modes, t_grid, p=4.0) -> "BoundaryControl":
        t = np.atleast_1d(np.asarray(t_grid, float))
        return cls(length_x, n_modes, t, np.zeros((t.size, 4 * (2 * n_modes + 1))), p)

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
        rows = np.asarray(gamma_rows, float)
        blk = rows.reshape(rows.shape[:-1] + (4, self.block))
        out = np.empty(blk.shape[:-1] + (self.n_modes + 1,), complex)
        out[..., 0] = blk[..., 0]
        out[..., 1:] = blk[..., 1::2] + 1j * blk[..., 2::2]
        return out

    def interp(self, t: float):
        """Piecewise-linear value and slope of the coefficient vector at t."""
        gamma, slope = self.series([t])
        return gamma[0], slope[0]

    def series(self, times):
        """Piecewise-linear values and slopes at each time, (n_times, n_dofs) each."""
        t = np.asarray(times, float)
        tg = self.t_grid
        if tg.size == 1:
            return np.repeat(self.gamma[:1], t.size, axis=0), np.zeros((t.size, self.n_dofs))
        outside = (t < tg[0] - 1e-12) | (t > tg[-1] + 1e-12)
        if outside.any():
            raise LiftingError(f"time {float(t[outside][0])} outside the control horizon")
        s = np.clip(np.searchsorted(tg, t, side="right") - 1, 0, tg.size - 2)
        slope = (self.gamma[s + 1] - self.gamma[s]) / (tg[s + 1] - tg[s])[:, None]
        return self.gamma[s] + (t - tg[s])[:, None] * slope, slope

    def copy(self) -> "BoundaryControl":
        return BoundaryControl(
            self.length_x, self.n_modes, self.t_grid.copy(), self.gamma.copy(), self.p
        )

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
        return cls(
            length_x=float(data["length_x"]),
            n_modes=int(data["n_modes"]),
            t_grid=np.asarray(data["t_grid"], float),
            gamma=np.asarray(data["gamma"], float),
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


def project_compatible(ctrl: BoundaryControl) -> BoundaryControl:
    """Orthogonal projection onto zero net normal flux through the walls.

    Only the two mean coefficients of `a` are touched: they are replaced by
    their antisymmetric part, which is the nearest compatible point in
    coefficient space.  Idempotent.
    """
    out = ctrl.copy()
    ib = ctrl.dof_index(KIND_A, "bottom", 0)
    it = ctrl.dof_index(KIND_A, "top", 0)
    mean = 0.5 * (out.gamma[:, ib] - out.gamma[:, it])
    out.gamma[:, ib] = mean
    out.gamma[:, it] = -mean
    return out


def compatibility_residual(ctrl: BoundaryControl) -> float:
    ib = ctrl.dof_index(KIND_A, "bottom", 0)
    it = ctrl.dof_index(KIND_A, "top", 0)
    return float(np.abs(ctrl.gamma[:, ib] + ctrl.gamma[:, it]).max())


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


def trace_norm(ctrl: BoundaryControl, t: float) -> float:
    """Mixed fractional wall norm of (a, b) at time t (multiplier surrogate)."""
    return float(trace_norm_series(ctrl, [t])[0])


def trace_norm_series(ctrl: BoundaryControl, times) -> np.ndarray:
    """Trace norm at each time: a at order 1 - 1/p, b at -1/p and 0, and the
    slopes of a and b at 1/2 and -1/2."""
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


@dataclass(eq=False)
class HarmonicLift:
    """Potential-gradient field c = grad h matching the normal data."""

    field: ModeField
    # closed-form wall data needed for the tangential-stress correction
    h_wall: np.ndarray      # (n_modes+1, 2) potential profile at walls
    dh_wall: np.ndarray     # (n_modes+1, 2) wall-normal derivative at walls


def solve_harmonic(a_bottom, a_top, grid: Grid, n_modes: int) -> HarmonicLift:
    """Neumann potential per mode: h'' = k^2 h with -h'(0)=a_b, h'(1)=a_t.

    The mean mode reduces to a linear profile and is solvable only under the
    zero-net-flux compatibility a_b(0) + a_t(0) = 0; the potential is pinned
    by a zero boundary mean.  Returns the gradient as a velocity field plus
    the wall data needed downstream.
    """
    a_bottom = np.asarray(a_bottom, complex)
    a_top = np.asarray(a_top, complex)
    scale = max(np.abs(a_bottom).max(), np.abs(a_top).max(), 1e-30)
    if abs(a_bottom[0] + a_top[0]) > 1e-12 * scale:
        raise CompatibilityError(
            "mean normal data does not cancel across the walls"
        )
    f = ModeField.zeros(grid)
    h_wall = np.zeros((n_modes + 1, 2), complex)
    dh_wall = np.zeros((n_modes + 1, 2), complex)
    yq = grid.y_nodes

    # mean mode: h = c0 + c1 y, c1 = -a_b(0); vertical through-flow (0, c1)
    c1 = -a_bottom[0]
    c0 = -0.5 * c1
    f.vals[0, 1] = c1
    f.wall_vals[0, 1] = (c1, c1)
    h_wall[0] = (c0, c0 + c1)
    dh_wall[0] = (c1, c1)

    for j in range(1, n_modes + 1):
        k = grid.kx[j]
        sh, ch = np.sinh(k), np.cosh(k)
        bb = -a_bottom[j] / k
        aa = (a_top[j] + a_bottom[j] * ch) / (k * sh)
        h = aa * np.cosh(k * yq) + bb * np.sinh(k * yq)
        dh = k * (aa * np.sinh(k * yq) + bb * np.cosh(k * yq))
        d2h = k * k * h
        f.vals[j, 0] = 1j * k * h
        f.vals[j, 1] = dh
        f.dvals[j, 0] = 1j * k * dh
        f.dvals[j, 1] = d2h
        h0, h1 = aa, aa * ch + bb * sh
        dh0, dh1 = k * bb, k * (aa * sh + bb * ch)
        f.wall_vals[j, 0] = (1j * k * h0, 1j * k * h1)
        f.wall_vals[j, 1] = (dh0, dh1)
        f.wall_dvals[j, 0] = (1j * k * dh0, 1j * k * dh1)
        f.wall_dvals[j, 1] = (k * k * h0, k * k * h1)
        h_wall[j] = (h0, h1)
        dh_wall[j] = (dh0, dh1)
    return HarmonicLift(field=f, h_wall=h_wall, dh_wall=dh_wall)


def harmonic_stress_trace(lift_h: HarmonicLift, grid: Grid, alpha: float, n_modes: int):
    """Coefficients of [2 D(c) n + alpha c] . tau on each wall for c = grad h."""
    out = np.zeros((n_modes + 1, 2), complex)
    for j in range(1, n_modes + 1):
        k = grid.kx[j]
        h0, h1 = lift_h.h_wall[j]
        dh0, dh1 = lift_h.dh_wall[j]
        out[j, 0] = 1j * k * (alpha * h0 - 2.0 * dh0)
        out[j, 1] = -1j * k * (2.0 * dh1 + alpha * h1)
    # mean mode: c is a constant vertical flow, D(c) = 0 and c . tau = 0
    return out


# -- Stokes correction stage --------------------------------------------------


class StokesCorrectionSolver:
    """Per-mode stationary Stokes solves with prescribed tangential stress.

    Seeks a divergence-free field with zero normal trace whose tangential
    stress equals the given wall data, variationally: the energy form tested
    against all admissible fields equals the wall pairing with the data.  The
    mean mode runs on zero-mean shear profiles, which fixes the one-parameter
    indeterminacy of the periodic channel (a mean pressure gradient appears
    implicitly as the Lagrange multiplier of that constraint).
    """

    def __init__(self, grid: Grid, alpha: float, n_modes: int):
        if n_modes > grid.spec.modes_x:
            raise LiftingError("control modes exceed the resolved band")
        self.grid = grid
        self.alpha = float(alpha)
        self.n_modes = n_modes
        # (reduced energy matrix, columns) per mode
        self._systems = [reduced_pencil(grid, j, alpha)[::2] for j in range(n_modes + 1)]

    def _solve_mode(self, j: int, rhs) -> np.ndarray:
        """Nodal profile of mode j whose energy pairing with every admissible profile is rhs."""
        energy, cols = self._systems[j]
        try:
            return cols @ np.linalg.solve(energy, cols.T @ rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise LiftingError(f"singular correction system at mode {j}") from exc

    def solve(self, bt_bottom, bt_top) -> ModeField:
        """Correction field for tangential-stress coefficients per wall."""
        g = self.grid
        lx = g.spec.length_x
        bt_bottom = np.asarray(bt_bottom, complex)
        bt_top = np.asarray(bt_top, complex)
        out = ModeField.zeros(g)
        for j in range(self.n_modes + 1):
            if j == 0:
                # zero-mean shear profiles; the mean data of a real trace is real
                rhs = np.zeros(g.n_y)
                rhs[0] = lx * bt_bottom[0].real
                rhs[-1] = -lx * bt_top[0].real
                mf = ModeField.from_shear_profile(g, self._solve_mode(0, rhs))
            else:
                rhs = 0.5 * lx * (bt_bottom[j] * g.d1[0] - bt_top[j] * g.d1[-1])
                mf = ModeField.from_streamfunction(g, j, self._solve_mode(j, rhs), "complex")
            for name in ("vals", "dvals", "wall_vals", "wall_dvals"):
                getattr(out, name)[j] = getattr(mf, name)[j]
        return out


def lift_static_coeffs(table, grid: Grid, alpha: float, n_modes: int,
                       solver: StokesCorrectionSolver | None = None) -> ModeField:
    """Lift one coefficient table (4, n_modes+1): harmonic stage plus correction."""
    if solver is None:
        solver = StokesCorrectionSolver(grid, alpha, n_modes)
    har = solve_harmonic(table[0], table[1], grid, n_modes)
    stress = harmonic_stress_trace(har, grid, alpha, n_modes)
    corr = solver.solve(table[2] - stress[:, 0], table[3] - stress[:, 1])
    return har.field + corr


# -- unit-response cache ------------------------------------------------------


class LiftingCache:
    """Unit lifted fields per control degree of freedom (compatible projection).

    `fields` stacks the lifting of each projected unit coefficient, so any
    compatible coefficient vector lifts by superposition.  The cache is
    immutable after construction and safe to share.
    """

    def __init__(self, grid: Grid, alpha: float, n_modes: int, p: float = 4.0):
        self.grid = grid
        self.alpha = float(alpha)
        self.n_modes = n_modes
        self.p = p
        proto = BoundaryControl.zeros(grid.spec.length_x, n_modes, [0.0], p)
        self.n_dofs = proto.n_dofs
        solver = StokesCorrectionSolver(grid, alpha, n_modes)
        fields = []
        for c in range(self.n_dofs):
            unit = BoundaryControl.zeros(grid.spec.length_x, n_modes, [0.0], p)
            unit.gamma[0, c] = 1.0
            unit = project_compatible(unit)
            table = unit.coeffs(unit.gamma[0])
            fields.append(lift_static_coeffs(table, grid, alpha, n_modes, solver))
        self.fields = ModeField.stack(fields)

    def field(self, gamma_row) -> ModeField:
        return self.fields.combine(np.asarray(gamma_row, float))


@dataclass(eq=False)
class LiftedField:
    """Lifted boundary data over the control time grid."""

    ctrl: BoundaryControl
    cache: LiftingCache
    trace_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.trace_norms = trace_norm_series(self.ctrl, self.ctrl.t_grid)

    def field_at(self, t: float) -> ModeField:
        row, _ = self.ctrl.interp(t)
        return self.cache.field(row)

    def dt_field_at(self, t: float) -> ModeField:
        _, slope = self.ctrl.interp(t)
        return self.cache.field(slope)

    def boundary_residuals(self) -> dict:
        """Worst-case coefficient-space residuals of the two wall conditions."""
        normal = 0.0
        tangential = 0.0
        divr = 0.0
        nm = self.ctrl.n_modes
        for ti, t in enumerate(self.ctrl.t_grid):
            table = self.ctrl.coeffs(self.ctrl.gamma[ti])
            f = self.field_at(float(t))
            ntr = f.normal_trace_coeffs()[: nm + 1]
            normal = max(
                normal,
                np.abs(ntr[:, 0] - table[0]).max(),
                np.abs(ntr[:, 1] - table[1]).max(),
            )
            stress = f.tangential_stress_coeffs(self.cache.alpha)[: nm + 1]
            tangential = max(
                tangential,
                np.abs(stress[:, 0] - table[2]).max(),
                np.abs(stress[:, 1] - table[3]).max(),
            )
            divr = max(divr, f.divergence_residual())
        return {"normal": normal, "tangential": tangential, "divergence": divr}


def lift(ctrl: BoundaryControl, cache: LiftingCache) -> LiftedField:
    """Lift a compatible control; raises if the compatibility constraint fails."""
    if compatibility_residual(ctrl) > 1e-10 * max(1.0, np.abs(ctrl.gamma).max()):
        raise CompatibilityError("control violates the zero-net-flux constraint")
    if ctrl.n_modes != cache.n_modes:
        raise LiftingError("control and cache mode counts differ")
    return LiftedField(ctrl=ctrl, cache=cache)
