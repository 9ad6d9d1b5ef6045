"""Galerkin SDE for the channel flow driven by slip-wall boundary data.

The state is the coefficient vector beta of the homogeneous part u against
the eigenbasis; the physical velocity is y = u + a_lift with a_lift the
lifted boundary data.  Testing the momentum balance against each basis field
e_i gives the coefficient dynamics

    d beta_i = [ -nu * lam_i * beta_i - nu (a_lift, e_i)_E
                 + nu int_Gamma b (e_i . tau)
                 - (dt a_lift, e_i) - ((y . grad) y, e_i) ] dt
               + sum_k (G_k(y), e_i) dW_k,

with the noise family G_k = g_k + rho_k * u (additive plus diagonal
multiplicative).  All couplings are precomputed as dense tensors once per
(basis, lifting cache), so a time step is a handful of small contractions.
One numpy kernel steps a fixed-width block of BLOCK paths together;
`Simulator.run_many` splits its seeds into such chunks (the last one padded)
and `--threads` spreads chunks over workers.  Every path is stepped on the
same shapes, so a seed's path is bitwise the same whatever its batch,
position or thread count.  `drift`/`step_em` are the single-step reference
the kernel is tested against.

Convection projections are evaluated pseudospectrally on a physical grid
wide enough that quadratic products are integrated exactly (no aliasing
reaches the resolved band).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, ModeField, inner_h, inner_v
from .geometry import Grid
from .lifting import BoundaryControl, LiftingCache

__all__ = [
    "DynamicsError",
    "BlowupError",
    "InsufficientPathsError",
    "NoiseModel",
    "GalerkinState",
    "Trajectory",
    "GalerkinOperators",
    "assemble_operators",
    "nonlinear_term",
    "drift",
    "diffusion",
    "step_em",
    "Simulator",
    "make_initial_coeffs",
    "build_noise",
]


class DynamicsError(RuntimeError):
    """Simulation setup or stepping failure."""


class BlowupError(DynamicsError):
    """State left the finite range during stepping."""


class InsufficientPathsError(DynamicsError):
    """No usable (non-blown-up) path is left to estimate from."""


@dataclass(eq=False)
class NoiseModel:
    """Wiener forcing: m channels, each g_k + rho_k * u in basis coordinates."""

    additive: np.ndarray   # (n, m) columns g_k
    mult_gain: np.ndarray  # (m,) nonnegative gains rho_k

    def __post_init__(self):
        self.additive = np.asarray(self.additive, float)
        self.mult_gain = np.asarray(self.mult_gain, float)
        if self.additive.ndim != 2 or self.additive.shape[1] != self.mult_gain.size:
            raise DynamicsError("additive matrix must be (n, m) matching mult_gain")
        if (self.mult_gain < 0).any():
            raise DynamicsError("multiplicative gains must be nonnegative")

    @property
    def m(self) -> int:
        return self.mult_gain.size

    @property
    def lipschitz_k(self) -> float:
        """Exact squared-increment constant: |G(v)-G(z)|_F^2 = K |v-z|^2."""
        return float(np.sum(self.mult_gain**2))

    @property
    def growth_k(self) -> float:
        """Linear-growth constant for the summed channel norms."""
        g_sum = float(np.linalg.norm(self.additive, axis=0).sum())
        return max(g_sum, float(self.mult_gain.sum()))

    def matrix(self, beta: np.ndarray) -> np.ndarray:
        return self.additive + np.outer(beta, self.mult_gain)


def build_noise(n: int, m: int, additive_scale: float, additive_decay: float,
                seed: int, mult_gain) -> NoiseModel:
    """Seeded additive coefficient vectors with power-law decay across the basis."""
    rng = np.random.default_rng(np.random.SeedSequence([0x6E01, seed]))
    decay = (1.0 + np.arange(n)) ** (-additive_decay)
    g = additive_scale * rng.standard_normal((n, m)) * decay[:, None]
    rho = np.broadcast_to(np.asarray(mult_gain, float), (m,)).copy()
    return NoiseModel(additive=g, mult_gain=rho)


@dataclass
class GalerkinState:
    t: float
    beta: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """One simulated path with its per-step diagnostics.

    Series are indexed by the time grid; `u_sq` and `u_esq` are the squared
    mass and energy norms of the homogeneous part, `tracking` the squared
    L2 distance of y to the target at each time, `noise_sq` the squared
    Frobenius magnitude of the diffusion.  Same seed and configuration
    reproduce every array bitwise.
    """

    times: np.ndarray
    seed: int
    beta0: np.ndarray
    beta_final: np.ndarray
    u_sq: np.ndarray
    u_esq: np.ndarray
    tracking: np.ndarray
    noise_sq: np.ndarray
    blown_up: bool
    blowup_step: int
    beta_series: np.ndarray | None = None
    wiener: np.ndarray | None = None

    def export_csv(self, path, n_beta: int = 4, meta: str = ""):
        cols = min(n_beta, self.beta_final.size)
        with open(path, "w") as fh:
            if meta:
                fh.write(f"# {meta}\n")
            names = ",".join(f"beta_{i}" for i in range(cols))
            fh.write(f"time,u_l2,u_energy,tracking,noise_frob{',' + names if cols else ''}\n")
            for ell, t in enumerate(self.times):
                row = [
                    t,
                    np.sqrt(self.u_sq[ell]) if np.isfinite(self.u_sq[ell]) else np.nan,
                    np.sqrt(self.u_esq[ell]) if np.isfinite(self.u_esq[ell]) else np.nan,
                    self.tracking[ell],
                    np.sqrt(self.noise_sq[ell]) if np.isfinite(self.noise_sq[ell]) else np.nan,
                ]
                if cols and self.beta_series is not None:
                    row.extend(self.beta_series[ell, :cols])
                elif cols:
                    row.extend([np.nan] * cols)
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def export_npz(self, path):
        payload = {
            "times": self.times,
            "seed": np.array(self.seed),
            "beta0": self.beta0,
            "beta_final": self.beta_final,
            "u_sq": self.u_sq,
            "u_esq": self.u_esq,
            "tracking": self.tracking,
            "noise_sq": self.noise_sq,
            "blown_up": np.array(self.blown_up),
            "blowup_step": np.array(self.blowup_step),
        }
        if self.beta_series is not None:
            payload["beta_series"] = self.beta_series
        np.savez(path, **payload)


# -- convection projections ---------------------------------------------------


def _weighted_basis_samples(basis: Basis):
    g = basis.grid
    e1 = np.empty((basis.size, g.n_x, g.n_q))
    e2 = np.empty_like(e1)
    for i, f in enumerate(basis.fields):
        e1[i], e2[i] = f.physical()
    w2d = g.quad_weights_domain
    return e1, e2, e1 * w2d, e2 * w2d


def nonlinear_term(y: ModeField, basis: Basis) -> np.ndarray:
    """Coefficients ((y . grad) y, e_i) by pseudospectral quadrature.

    Exact for fields within the resolved band; the physical grid is wide
    enough that the quadratic product cannot alias back onto it.
    """
    g = basis.grid
    if y.n_modes > g.spec.modes_x:
        raise DynamicsError("field exceeds the dealiased band of the grid")
    u1, u2 = y.physical()
    gx1, gy1, gx2, gy2 = y.physical_gradient()
    w1 = u1 * gx1 + u2 * gy1
    w2 = u1 * gx2 + u2 * gy2
    w2d = g.quad_weights_domain
    out = np.empty(basis.size)
    for i, f in enumerate(basis.fields):
        e1, e2 = f.physical()
        out[i] = float(np.sum(w1 * e1 * w2d) + np.sum(w2 * e2 * w2d))
    return out


@dataclass(eq=False)
class GalerkinOperators:
    """Dense couplings of the basis and the lifting cache.

    conv_bb[i, p, q] = ((e_p . grad) e_q, e_i)
    conv_bc[i, p, c] = ((e_p . grad) A_c + (A_c . grad) e_p, e_i)
    conv_cc[i, c, d] = ((A_c . grad) A_d, e_i)
    lift_h / lift_v  = (A_c, e_i) in the mass / energy pairing
    btrace[i, c]     = int_Gamma b_c (e_i . tau)
    gram_h / gram_v  = pairings of the unit lifted fields
    """

    lam: np.ndarray
    conv_bb: np.ndarray
    conv_bc: np.ndarray
    conv_cc: np.ndarray
    lift_h: np.ndarray
    lift_v: np.ndarray
    btrace: np.ndarray
    gram_h: np.ndarray
    gram_v: np.ndarray

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def n_ctrl(self) -> int:
        return self.lift_h.shape[1]


def assemble_operators(basis: Basis, cache: LiftingCache | None) -> GalerkinOperators:
    g = basis.grid
    n = basis.size
    lx = g.spec.length_x
    e1, e2, we1, we2 = _weighted_basis_samples(basis)

    grads = []
    for f in basis.fields:
        grads.append(f.physical_gradient())
    gx1 = np.stack([gr[0] for gr in grads])
    gy1 = np.stack([gr[1] for gr in grads])
    gx2 = np.stack([gr[2] for gr in grads])
    gy2 = np.stack([gr[3] for gr in grads])

    conv_bb = np.empty((n, n, n))
    for p in range(n):
        w1 = e1[p][None] * gx1 + e2[p][None] * gy1
        w2 = e1[p][None] * gx2 + e2[p][None] * gy2
        conv_bb[:, p, :] = np.einsum("ixy,qxy->iq", we1, w1) + np.einsum(
            "ixy,qxy->iq", we2, w2
        )

    if cache is None:
        nc = 1
        conv_bc = np.zeros((n, n, nc))
        conv_cc = np.zeros((n, nc, nc))
        lift_h = np.zeros((n, nc))
        lift_v = np.zeros((n, nc))
        btrace = np.zeros((n, nc))
        gram_h = np.zeros((nc, nc))
        gram_v = np.zeros((nc, nc))
    else:
        nc = cache.n_dofs
        a1 = np.empty((nc, g.n_x, g.n_q))
        a2 = np.empty_like(a1)
        agx1 = np.empty_like(a1)
        agy1 = np.empty_like(a1)
        agx2 = np.empty_like(a1)
        agy2 = np.empty_like(a1)
        for c, f in enumerate(cache.fields):
            a1[c], a2[c] = f.physical()
            agx1[c], agy1[c], agx2[c], agy2[c] = f.physical_gradient()

        conv_bc = np.empty((n, n, nc))
        for p in range(n):
            w1 = e1[p][None] * agx1 + e2[p][None] * agy1
            w1 += a1 * gx1[p][None] + a2 * gy1[p][None]
            w2 = e1[p][None] * agx2 + e2[p][None] * agy2
            w2 += a1 * gx2[p][None] + a2 * gy2[p][None]
            conv_bc[:, p, :] = np.einsum("ixy,cxy->ic", we1, w1) + np.einsum(
                "ixy,cxy->ic", we2, w2
            )
        conv_cc = np.empty((n, nc, nc))
        for c in range(nc):
            w1 = a1[c][None] * agx1 + a2[c][None] * agy1
            w2 = a1[c][None] * agx2 + a2[c][None] * agy2
            conv_cc[:, c, :] = np.einsum("ixy,dxy->id", we1, w1) + np.einsum(
                "ixy,dxy->id", we2, w2
            )

        lift_h = np.empty((n, nc))
        lift_v = np.empty((n, nc))
        for c, f in enumerate(cache.fields):
            for i, e in enumerate(basis.fields):
                lift_h[i, c] = inner_h(f, e)
                lift_v[i, c] = inner_v(f, e, cache.alpha)
        gram_h = np.empty((nc, nc))
        gram_v = np.empty((nc, nc))
        for c in range(nc):
            for d in range(c, nc):
                gram_h[c, d] = gram_h[d, c] = inner_h(cache.fields[c], cache.fields[d])
                gram_v[c, d] = gram_v[d, c] = inner_v(
                    cache.fields[c], cache.fields[d], cache.alpha
                )

        # wall pairings on the physical x grid (exact: trace products stay
        # below the quadrature band)
        tr = np.zeros((n, 2, g.n_x))
        for i in range(n):
            ji = int(basis.mode_j[i])
            for wall in (0, 1):
                cvec = np.zeros(ji + 1, complex)
                cvec[ji] = basis.tau_trace[i, wall]
                tr[i, wall] = g.trace_values(cvec)

        btrace = np.zeros((n, nc))
        for c in range(nc):
            unit = BoundaryControl.zeros(lx, cache.n_modes, [0.0], cache.p)
            unit.gamma[0, c] = 1.0
            table = unit.coeffs(unit.gamma[0])  # (4, nm+1): a_b, a_t, b_b, b_t
            b_vals = np.stack([g.trace_values(table[2]), g.trace_values(table[3])])
            btrace[:, c] = g.w_x * np.einsum("wx,iwx->i", b_vals, tr)

    return GalerkinOperators(
        lam=basis.eigenvalues.copy(),
        conv_bb=conv_bb,
        conv_bc=conv_bc,
        conv_cc=conv_cc,
        lift_h=lift_h,
        lift_v=lift_v,
        btrace=btrace,
        gram_h=gram_h,
        gram_v=gram_v,
    )


# -- single-step reference operations ----------------------------------------


def drift(beta: np.ndarray, ops: GalerkinOperators, nu: float,
          gamma: np.ndarray, gamma_dot: np.ndarray,
          include_nonlinear: bool = True) -> np.ndarray:
    """Reference drift assembly (numpy, mirrors the kernel contraction)."""
    f = (
        -nu * ops.lam * beta
        - nu * (ops.lift_v @ gamma)
        + nu * (ops.btrace @ gamma)
        - ops.lift_h @ gamma_dot
    )
    if include_nonlinear:
        n = ops.n
        nl = (
            ops.conv_bb.reshape(n, -1) @ np.outer(beta, beta).ravel()
            + (ops.conv_bc @ gamma) @ beta
            + (ops.conv_cc @ gamma) @ gamma
        )
        f = f - nl
    return f


def diffusion(beta: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Diffusion matrix: column k holds the coefficients of g_k + rho_k u."""
    return noise.matrix(beta)


def step_em(state: GalerkinState, dt: float, dw: np.ndarray,
            ops: GalerkinOperators, noise: NoiseModel, nu: float,
            gamma: np.ndarray | None = None, gamma_dot: np.ndarray | None = None,
            include_nonlinear: bool = True) -> GalerkinState:
    """One explicit step; raises BlowupError on a nonfinite update."""
    if dt <= 0:
        raise DynamicsError("dt must be positive")
    nc = ops.n_ctrl
    g = np.zeros(nc) if gamma is None else gamma
    gd = np.zeros(nc) if gamma_dot is None else gamma_dot
    f = drift(state.beta, ops, nu, g, gd, include_nonlinear)
    beta = state.beta + dt * f + diffusion(state.beta, noise) @ dw
    if not np.all(np.isfinite(beta)):
        raise BlowupError(f"state became nonfinite at t = {state.t + dt}")
    return GalerkinState(t=state.t + dt, beta=beta)


# -- path simulation ----------------------------------------------------------


def make_initial_coeffs(n: int, kind: str = "zero", seed: int = 0,
                        scale: float = 1.0, decay: float = 1.0) -> np.ndarray:
    if kind == "zero":
        return np.zeros(n)
    if kind == "random":
        rng = np.random.default_rng(np.random.SeedSequence([0x0111, seed]))
        return scale * rng.standard_normal(n) * (1.0 + np.arange(n)) ** (-decay)
    raise DynamicsError(f"unknown initial kind {kind!r}")


def wiener_increments(seed: int, n_steps: int, m: int, dt: float) -> np.ndarray:
    """Counter-based increments, independent across seeds, N(0, dt I_m) rows."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.sqrt(dt) * rng.standard_normal((n_steps, m))


# Paths per kernel call.  Fixed, and the last chunk of a batch is padded, so
# every path is stepped by the same BLAS calls on the same shapes: BLAS
# rounding depends on the row count, and this makes a seed's bits
# independent of its batch, its position in it and the thread count.
BLOCK = 16


def _em_block(beta0, ops: GalerkinOperators, nu, dt, include_nonlinear,
              gamma, gamma_dot, beta_ref, gamma_ref, add, rho, dw, blowup_limit, paths):
    """Euler-Maruyama over a (W, n) block of paths sharing control and target.

    beta0 is (W, n) and dw (W, n_steps, m); rows from `paths` on are padding.
    The control drift (lift_v, btrace, lift_h and conv_cc terms) is the same
    for every path and is formed once per step; the quadratic term is one
    GEMM of the (W, n^2) outer products against conv_bb.  The history
    (n_steps + 1, W, n) is kept and the per-step diagnostics (squared
    mass/energy norms, tracking error against the reference series, squared
    noise magnitude) are evaluated from it afterwards.  A path aborts when
    its squared norm is not finite or passes blowup_limit: its abort step is
    returned, its final state is the offending one, its later diagnostics
    are NaN and its later history is zero, and its working row is zeroed.
    Stepping stops once every non-padding row has aborted.
    """
    w_rows, n = beta0.shape
    n_steps = dw.shape[1]
    lam = ops.lam
    dw_t = dw.transpose(1, 0, 2)                             # (n_steps, W, m)
    # path-independent drift per step, then each path's additive noise
    ctrl_drift = (-nu * (gamma @ ops.lift_v.T) + nu * (gamma @ ops.btrace.T)
                  - gamma_dot @ ops.lift_h.T)
    ctrl_on = include_nonlinear and bool(np.any(gamma))
    if ctrl_on:
        ctrl_drift -= np.einsum("icd,tc,td->ti", ops.conv_cc, gamma, gamma)
    push = np.empty((n_steps, w_rows, n))
    push[:] = (dt * ctrl_drift[:n_steps])[:, None, :]
    for k in range(rho.size):
        push += dw_t[:, :, k, None] * add[:, k]
    growth = (dw_t * rho).sum(axis=-1, keepdims=True)     # multiplicative noise
    decay = 1.0 - dt * nu * lam
    conv_t = ops.conv_bb.reshape(n, -1).T                  # views, no copies
    conv_bc = ops.conv_bc.reshape(n * n, -1)
    outer = np.empty((w_rows, n, n))
    outer_flat = outer.reshape(w_rows, n * n)
    # a nonfinite norm fails `<= limit` even for an infinite blowup_limit;
    # below `fast` the block's total norm proves every row is inside
    limit = min(blowup_limit, np.finfo(float).max)
    fast = limit * (1.0 - 1e-9)

    hist = np.zeros((n_steps + 1, w_rows, n))
    hist[0] = beta0
    b = beta0
    beta_final = np.empty((w_rows, n))
    blowup_step = np.full(w_rows, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(n_steps):
            step = b * (decay + growth[ell]) + push[ell]
            if include_nonlinear:
                np.einsum("wp,wq->wpq", b, b, out=outer)
                nl = outer_flat @ conv_t
                if ctrl_on:
                    nl += b @ (conv_bc @ gamma[ell]).reshape(n, n).T
                step -= dt * nl
            if not np.vdot(step, step) <= fast:
                bad = ~(np.einsum("ij,ij->i", step, step) <= limit)
                fresh = bad & (blowup_step < 0)
                blowup_step[fresh] = ell + 1
                beta_final[fresh] = step[fresh]
                step[bad] = 0.0
                if (blowup_step[:paths] >= 0).all():
                    break
            b = step
            hist[ell + 1] = b
    alive = blowup_step < 0
    beta_final[alive] = b[alive]
    del push, outer

    u_sq = np.einsum("twi,twi->tw", hist, hist)
    u_esq = np.einsum("twi,twi,i->tw", hist, hist, lam)
    gd = gamma - gamma_ref
    buf = np.subtract(hist, beta_ref[:, None, :])
    tracking = (np.einsum("twi,twi->tw", buf, buf)
                + 2.0 * np.einsum("twi,ti->tw", buf, gd @ ops.lift_h.T)
                + np.einsum("tc,cd,td->t", gd, ops.gram_h, gd)[:, None])
    noise_sq = np.zeros_like(u_sq)
    for k in range(rho.size):
        np.multiply(hist, rho[k], out=buf)
        buf += add[:, k]
        noise_sq += np.einsum("twi,twi->tw", buf, buf)
    for w in np.flatnonzero(~alive):
        s = blowup_step[w]
        for series in (u_sq, u_esq, tracking, noise_sq):
            series[s:, w] = np.nan
        hist[s:, w] = 0.0
    return hist, beta_final, u_sq, u_esq, tracking, noise_sq, blowup_step


class Simulator:
    """Bundles the assembled operators with a time grid and noise model."""

    def __init__(self, basis: Basis, cache: LiftingCache | None, noise: NoiseModel,
                 t_final: float, dt: float, include_nonlinear: bool = True,
                 blowup_limit: float = 1e12, ops: GalerkinOperators | None = None):
        if dt <= 0 or t_final <= 0:
            raise DynamicsError("dt and t_final must be positive")
        n_steps = int(round(t_final / dt))
        if abs(n_steps * dt - t_final) > 1e-9 * t_final or n_steps < 1:
            raise DynamicsError("t_final must be an integer multiple of dt")
        self.basis = basis
        self.grid: Grid = basis.grid
        self.cache = cache
        self.noise = noise
        if noise.additive.shape[0] != basis.size:
            raise DynamicsError("noise model dimension does not match the basis")
        self.nu = basis.grid.spec.viscosity
        self.t_final = t_final
        self.dt = dt
        self.n_steps = n_steps
        self.times = dt * np.arange(n_steps + 1)
        self.include_nonlinear = include_nonlinear
        self.blowup_limit = blowup_limit
        self.ops = assemble_operators(basis, cache) if ops is None else ops

    # -- control plumbing --------------------------------------------------

    def gamma_series(self, ctrl: BoundaryControl | None):
        """Control values and slopes on the time grid; zeros without a control."""
        if ctrl is None:
            z = np.zeros((self.n_steps + 1, self.ops.n_ctrl))
            return z, z.copy()
        if self.cache is None or ctrl.n_modes != self.cache.n_modes:
            raise DynamicsError("control does not match the lifting cache")
        if ctrl.t_grid[-1] < self.t_final - 1e-9:
            raise DynamicsError("control horizon shorter than the simulation")
        return ctrl.series(self.times)

    def _plan(self, ctrl=None, u0=None, noise_on=True, store_beta=False, target=None,
              dw=None, keep_wiener=False, gamma_pair=None) -> dict:
        """Check a run's options once; the result is what every chunk shares."""
        n = self.ops.n
        beta0 = np.zeros(n) if u0 is None else np.asarray(u0, float).copy()
        if beta0.shape != (n,):
            raise DynamicsError("initial coefficients do not match the basis size")
        gamma, gdot = self.gamma_series(ctrl) if gamma_pair is None else gamma_pair
        if target is None:
            beta_ref = np.zeros((self.n_steps + 1, n))
            gamma_ref = np.zeros((self.n_steps + 1, self.ops.n_ctrl))
        else:
            beta_ref, gamma_ref = target.beta_series, target.gamma_series
            if beta_ref.shape != (self.n_steps + 1, n):
                raise DynamicsError("target does not match the simulation grid")
        add, rho = self.noise.additive, self.noise.mult_gain
        if not noise_on:
            add, rho = np.zeros_like(add), np.zeros_like(rho)
        return dict(beta0=beta0, gamma=gamma, gdot=gdot, beta_ref=beta_ref,
                    gamma_ref=gamma_ref, add=add, rho=rho, noise_on=noise_on, dw=dw,
                    store_beta=store_beta, keep_wiener=keep_wiener)

    def _chunk(self, seeds, plan: dict) -> list:
        """Simulate up to BLOCK seeds as one padded block of the kernel."""
        n, m = self.ops.n, self.noise.m
        beta0 = np.zeros((BLOCK, n))
        beta0[: len(seeds)] = plan["beta0"]
        dw = np.zeros((BLOCK, self.n_steps, m))      # padding rows: no noise
        if plan["noise_on"]:
            for w, seed in enumerate(seeds):
                dw[w] = (wiener_increments(seed, self.n_steps, m, self.dt)
                         if plan["dw"] is None else plan["dw"])
        hist, beta_final, u_sq, u_esq, tracking, noise_sq, blow = _em_block(
            beta0, self.ops, self.nu, self.dt, self.include_nonlinear,
            plan["gamma"], plan["gdot"], plan["beta_ref"], plan["gamma_ref"],
            plan["add"], plan["rho"], dw, self.blowup_limit, len(seeds),
        )
        return [
            Trajectory(
                times=self.times.copy(),
                seed=seed,
                beta0=plan["beta0"].copy(),
                beta_final=beta_final[w].copy(),
                u_sq=u_sq[:, w].copy(),
                u_esq=u_esq[:, w].copy(),
                tracking=tracking[:, w].copy(),
                noise_sq=noise_sq[:, w].copy(),
                blown_up=bool(blow[w] >= 0),
                blowup_step=int(blow[w]),
                beta_series=hist[:, w].copy() if plan["store_beta"] else None,
                wiener=dw[w] if plan["keep_wiener"] else None,
            )
            for w, seed in enumerate(seeds)
        ]

    def run(self, seed: int = 0, ctrl: BoundaryControl | None = None,
            u0: np.ndarray | None = None, noise_on: bool = True,
            store_beta: bool = False, target=None,
            dw: np.ndarray | None = None, keep_wiener: bool = False,
            gamma_pair=None) -> Trajectory:
        """One path: a chunk holding one seed, bitwise equal to its run_many path."""
        plan = self._plan(ctrl, u0, noise_on, store_beta, target, dw, keep_wiener,
                          gamma_pair)
        return self._chunk([seed], plan)[0]

    def run_many(self, seeds, threads: int = 1, **kw) -> list:
        """Paths for many seeds, stepped in chunks of BLOCK; threads map chunks."""
        seeds = [int(s) for s in seeds]
        plan = self._plan(**kw)
        chunks = [seeds[i : i + BLOCK] for i in range(0, len(seeds), BLOCK)]
        if threads <= 1 or len(chunks) <= 1:
            done = [self._chunk(c, plan) for c in chunks]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
                done = list(pool.map(lambda c: self._chunk(c, plan), chunks))
        return [tr for chunk in done for tr in chunk]
