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
multiplicative).  The linear couplings (eigenvalues, lift pairings, wall
term) are small matrices assembled once per (basis, lifting cache).  The
convection acts on the whole velocity y and is evaluated on one of two
paths, chosen by the basis size n:

* below N_PS, dense tensors conv_bb, conv_bc, conv_cc (n^3 entries): the
  kernel contracts conv_bb and conv_bc on the rows (beta, gamma) of its
  block by one GEMM against a table T built once per simulator and one
  batched mat-vec per step, and conv_cc gamma gamma joins the control drift
  by two GEMMs before the loop;
* from N_PS on, the transform method (`Convection`): per step the block's
  y and grad y are synthesized on the physical grid by one GEMM per x-mode
  and one by a real DFT matrix, (y . grad) y is formed pointwise, and the
  analysis DFT matrix and one GEMM per x-mode project it back (no FFT).

Both are the same quadrature: the grid is wide enough that quadratic
products are integrated exactly (no aliasing reaches the resolved band).
The dense tensors come from one batched sampler (`basis.sample_fields`)
and one convection contraction, one GEMM per advecting field, and are
checked for skew symmetry and the Fourier-triad pattern of their nonzeros;
the pseudospectral tables are checked by a skew probe b(u, v, w) =
-b(u, w, v) on seeded random fields.  The lift couplings and Gram matrices
are the mass and energy pairings of the basis and lifting stacks, and the
wall term is exact by Parseval on the trace coefficients.

One numpy kernel steps a fixed-width block of BLOCK paths together;
`Simulator.run_many` splits its seeds into such chunks (the last one padded)
and `--threads` spreads chunks over workers.  Every path is stepped on the
same shapes, so a seed's path is bitwise the same whatever its batch,
position or thread count.  `drift`/`step_em` on the dense tensors are the
single-step reference the kernel is tested against on both paths; the
tensors are assembled on first read, so only that reference builds them
from N_PS on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, ModeField, energy_pairing, mass_pairing, sample_fields
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
    "Convection",
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


# -- convection ------------------------------------------------------------------


class Convection:
    """Pseudospectral convection ((y . grad) y, e_i) for stacks of fields y.

    y = sum_i beta_i e_i + sum_c gamma_c a_c lies in the span of the basis
    entries e_i and of a stack of further fields a_c (the lifted unit
    fields); a call maps rows z = (beta, gamma) of shape (W, n + n_a) to the
    (W, n) convection coefficients.  Per x-mode j one real GEMM synthesizes
    the [re | im] planes of the spectral samples (v1, v2, d_x v1, d_x v2,
    d_y v1, d_y v2) of y at j from the coefficients of the entries at j and
    of the a_c reaching j; the real DFT matrix `to_grid` (n_x, 2 n_bins)
    gives the grid, the products are formed pointwise, `from_grid` (2 n_bins,
    n_x) goes back, and one GEMM per j projects onto the entries at j with
    the Parseval weights w_x m_j w_y.  The grid is wide enough that the
    quadratic product cannot alias onto the resolved band, so this is the
    same quadrature as the dense tensors.  The tables depend on (basis,
    fields) only and every row is independent, so a row's bits depend on
    its coefficients and the row count W alone.
    """

    def __init__(self, basis: Basis, fields: ModeField | None = None):
        g = basis.grid
        n_a = 0 if fields is None else len(fields)
        if n_a and fields.n_modes > g.spec.modes_x:
            raise DynamicsError("field exceeds the dealiased band of the grid")
        self.grid, self.n, self.n_a = g, basis.size, n_a
        self.n_bins = g.spec.modes_x + 1
        if self.n_bins > g.n_x // 2:
            raise DynamicsError("the x-grid has no room for the resolved bins below Nyquist")
        # bin axis rows 2j, 2j + 1: re and im of bin j at phase k_j x_m mod 2 pi
        phase = np.outer(np.arange(self.n_bins), np.arange(g.n_x)) % g.n_x * (2 * np.pi / g.n_x)
        self.from_grid = np.stack([np.cos(phase), -np.sin(phase)], axis=1).reshape(-1, g.n_x)
        self.to_grid = 2.0 * self.from_grid.T     # irfft(., n_x, norm="forward"),
        self.to_grid[:, 0] = 1.0                  # where bin 0 counts once
        e = basis.fields
        self.synthesis, self.projection = [], []
        for j in range(self.n_bins):
            own = np.flatnonzero(basis.mode_j == j)
            rows, vals, dvals = own, e.vals[own, j], e.dvals[own, j]
            if n_a and j <= fields.n_modes and (fields.vals[:, j].any()
                                                or fields.dvals[:, j].any()):
                rows = np.concatenate([own, self.n + np.arange(n_a)])
                vals = np.concatenate([vals, fields.vals[:, j]])
                dvals = np.concatenate([dvals, fields.dvals[:, j]])
            if rows.size:                       # [re | im] planes of (rows, 6, n_q)
                spec = np.concatenate([vals, 1j * g.kx[j] * vals, dvals], axis=1)
                spec = np.concatenate([spec.real, spec.imag], axis=1)
                self.synthesis.append((j, rows, spec.reshape(rows.size, -1)))
            if own.size:                        # [re | im] planes of (n_j, 2, n_q)
                proj = e.vals[own, j] * (g.w_x * (1.0 if j == 0 else 2.0) * g.w_y)
                proj = np.concatenate([proj.real, proj.imag], axis=1)
                self.projection.append((j, own, proj.reshape(own.size, -1).T.copy()))

    def samples(self, z: np.ndarray) -> np.ndarray:
        """(W, n_x, 6, n_q) grid samples of the fields with coefficient rows z."""
        w_rows = z.shape[0]
        spec = np.zeros((w_rows, 2 * self.n_bins, 6 * self.grid.n_q))
        for j, rows, table in self.synthesis:
            np.matmul(z[:, rows], table, out=spec[:, 2 * j : 2 * j + 2].reshape(w_rows, -1))
        return np.matmul(self.to_grid, spec).reshape(w_rows, self.grid.n_x, 6, -1)

    def project(self, w: np.ndarray) -> np.ndarray:
        """(W, n) coefficients (w, e_i) of (W, n_x, 2, n_q) grid samples."""
        w_rows = w.shape[0]
        f = np.matmul(self.from_grid, w.reshape(w_rows, self.grid.n_x, -1))
        out = np.empty((w_rows, self.n))
        for j, own, table in self.projection:
            out[:, own] = f[:, 2 * j : 2 * j + 2].reshape(w_rows, -1) @ table
        return out

    def __call__(self, z: np.ndarray) -> np.ndarray:
        s = self.samples(z)
        return self.project(_advect(s, s))

    def rows(self, beta: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
        """(m, n + n_a) rows z of stacked states beta (..., n) and controls that broadcast."""
        beta = np.asarray(beta, float)
        lead = beta.shape[:-1]
        z = np.zeros(lead + (self.n + self.n_a,))
        z[..., : self.n] = beta
        if self.n_a and gamma is not None:
            z[..., self.n :] = gamma
        return z.reshape(-1, self.n + self.n_a)

    def stacked(self, beta: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
        """Convection of stacked states beta (..., n); 64 rows a call bound the temporaries."""
        z = self.rows(beta, gamma)
        out = np.concatenate([self(z[s : s + 64]) for s in range(0, len(z), 64)])
        return out.reshape(np.shape(beta))


def _advect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grid samples of (u . grad) v: u from the rows of a, grad v from those of b."""
    return a[:, :, 0:1] * b[:, :, 2:4] + a[:, :, 1:2] * b[:, :, 4:6]


def nonlinear_term(y: ModeField, basis: Basis) -> np.ndarray:
    """Coefficients ((y . grad) y, e_i): the one-field case of `Convection`.

    Exact for fields within the resolved band; the physical grid is wide
    enough that the quadratic product cannot alias back onto it.
    """
    conv = Convection(basis, y[None])
    return conv.stacked(np.zeros(basis.size), np.ones(1))


def _probe_skew(conv: Convection):
    """Raise unless b(u, v, w) = -b(u, w, v) for 4 seeded random u, v, w in the basis span.

    This is the check of the evaluator's tables that `_check_convection` is
    for the dense tensors, with the same rule: 1e-12 times the summed
    magnitudes of the quadrature terms of both sides.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE3, conv.n]))
    coef = rng.standard_normal((3, 4, conv.n))
    su, sv, sw = (conv.samples(conv.rows(c)) for c in coef)
    b_uvw = np.vecdot(conv.project(_advect(su, sv)), coef[2])
    b_uwv = np.vecdot(conv.project(_advect(su, sw)), coef[1])
    w2d = conv.grid.quad_weights_domain
    au, av, aw = np.abs(su), np.abs(sv), np.abs(sw)
    scale = ((_advect(au, av) * aw[:, :, :2]).sum(axis=2) * w2d).sum(axis=(1, 2)) + (
        (_advect(au, aw) * av[:, :, :2]).sum(axis=2) * w2d).sum(axis=(1, 2))
    if (np.abs(b_uvw + b_uwv) > 1e-12 * scale).any():
        raise DynamicsError("pseudospectral convection is not skew-symmetric")


class _Dense:
    """A convection tensor of GalerkinOperators, assembled (and checked) on first read."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, ops, owner=None):
        if ops is None:
            return None                  # the dataclass default: not given
        if getattr(ops, self.slot) is None:
            built = _convection_tensors(ops.basis, ops.cache)
            for name, tensor in zip(("_conv_bb", "_conv_bc", "_conv_cc"), built):
                if getattr(ops, name) is None:
                    setattr(ops, name, tensor)
        return getattr(ops, self.slot)

    def __set__(self, ops, value):
        setattr(ops, self.slot, value)


@dataclass(eq=False, repr=False)
class GalerkinOperators:
    """Couplings of the basis and the lifting cache.

    lift_h / lift_v  = (A_c, e_i) in the mass / energy pairing
    btrace[i, c]     = int_Gamma b_c (e_i . tau)
    gram_h / gram_v  = pairings of the unit lifted fields
    conv_bb[i, p, q] = ((e_p . grad) e_q, e_i)
    conv_bc[i, p, c] = ((e_p . grad) A_c + (A_c . grad) e_p, e_i)
    conv_cc[i, c, d] = ((A_c . grad) A_d, e_i)

    The dense convection tensors (n^3 entries) are the reference of
    `drift`/`step_em`, and the kernel's convection below N_PS.  Unless
    given, they are assembled from `basis` and `cache` on first read and
    checked there for skew symmetry and the Fourier-triad pattern; at
    N_PS and above the simulator never reads them.
    """

    lam: np.ndarray
    lift_h: np.ndarray
    lift_v: np.ndarray
    btrace: np.ndarray
    gram_h: np.ndarray
    gram_v: np.ndarray
    conv_bb: np.ndarray | None = _Dense()
    conv_bc: np.ndarray | None = _Dense()
    conv_cc: np.ndarray | None = _Dense()
    basis: Basis | None = None
    cache: LiftingCache | None = None

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def n_ctrl(self) -> int:
        return self.lift_h.shape[1]


def _convection(test_w, u, grad_v) -> np.ndarray:
    """C[i, p, q] = ((u_p . grad) v_q, e_i) from sampled fields.

    test_w (n, 2, n_x, n_q) holds the quadrature-weighted test fields, u the
    (P, 2, n_x, n_q) advecting velocities and grad_v the (Q, 4, n_x, n_q)
    gradients (d_x v1, d_y v1, d_x v2, d_y v2) of the advected fields.  One
    GEMM per p contracts both components.
    """
    n, n_p, n_v = test_w.shape[0], u.shape[0], grad_v.shape[0]
    test = test_w.reshape(n, -1)
    gx, gy = grad_v[:, 0::2], grad_v[:, 1::2]
    out = np.empty((n, n_p, n_v))
    w, tmp = np.empty(gx.shape), np.empty(gx.shape)
    for p in range(n_p):
        np.multiply(gx, u[p, 0], out=w)
        w += np.multiply(gy, u[p, 1], out=tmp)
        out[:, p] = test @ w.reshape(n_v, -1).T
    return out


def _check_convection(conv_bb: np.ndarray, mode_j, scale: float):
    """Raise unless conv_bb is skew in (i, q) and vanishes off the Fourier
    triads j_i in {j_p + j_q, |j_p - j_q|}, both to 1e-12 * scale."""
    bound = 1e-12 * scale
    j = np.asarray(mode_j)
    for p in range(conv_bb.shape[1]):
        block = conv_bb[:, p, :]
        if np.abs(block + block.T).max() > bound:
            raise DynamicsError("convection tensor is not skew-symmetric")
        off = (j[:, None] != j[p] + j) & (j[:, None] != np.abs(j[p] - j))
        if np.abs(block[off]).max(initial=0.0) > bound:
            raise DynamicsError("convection tensor couples modes off the Fourier triads")


def _convection_tensors(basis: Basis, cache: LiftingCache | None):
    """The checked dense tensors (conv_bb, conv_bc, conv_cc) of GalerkinOperators."""
    g = basis.grid
    n = basis.size
    e = sample_fields(basis.fields)
    test_w = e[:, :2] * g.quad_weights_domain
    conv_bb = _convection(test_w, e[:, :2], e[:, 2:])
    # bound on the summed magnitudes of any entry's quadrature terms: the
    # scale of its rounding, even where the tensor vanishes in exact arithmetic
    u_max, g_max = (max(x.max(), -x.min()) for x in (e[:, :2], e[:, 2:]))
    scale = 2.0 * np.abs(test_w).sum(axis=(1, 2, 3)).max() * u_max * g_max
    _check_convection(conv_bb, basis.mode_j, scale)
    if cache is None:
        return conv_bb, np.zeros((n, n, 1)), np.zeros((n, 1, 1))
    a = sample_fields(cache.fields)
    conv_bc = _convection(test_w, e[:, :2], a[:, 2:])
    conv_bc += _convection(test_w, a[:, :2], e[:, 2:]).transpose(0, 2, 1)
    return conv_bb, conv_bc, _convection(test_w, a[:, :2], a[:, 2:])


def assemble_operators(basis: Basis, cache: LiftingCache | None,
                       dense: bool = True) -> GalerkinOperators:
    """The couplings of basis and cache; with `dense=False` the convection
    tensors are left to be assembled on first read."""
    g = basis.grid
    n = basis.size
    ops = dict(lam=basis.eigenvalues.copy(), basis=basis, cache=cache)
    if dense:
        ops.update(zip(("conv_bb", "conv_bc", "conv_cc"), _convection_tensors(basis, cache)))
    if cache is None:
        return GalerkinOperators(lift_h=np.zeros((n, 1)), lift_v=np.zeros((n, 1)),
                                 btrace=np.zeros((n, 1)), gram_h=np.zeros((1, 1)),
                                 gram_v=np.zeros((1, 1)), **ops)

    # wall pairing int_Gamma b_c (e_i . tau) by Parseval on the trace
    # coefficients; only entries with j_i <= n_modes meet the control band
    nc, nm = cache.n_dofs, cache.n_modes
    proto = BoundaryControl.zeros(g.spec.length_x, nm, [0.0], cache.p)
    b_rows = np.zeros((nc, 2, g.spec.modes_x + 1), complex)
    b_rows[:, :, : nm + 1] = proto.coeffs(np.eye(nc))[:, 2:]
    j = basis.mode_j
    btrace = g.spec.length_x * np.where(j == 0, 1.0, 2.0)[:, None] * np.einsum(
        "iw,cwi->ic", basis.tau_trace, b_rows[:, :, j].conj()
    ).real

    return GalerkinOperators(
        lift_h=mass_pairing(basis.fields, cache.fields),
        lift_v=energy_pairing(basis.fields, cache.fields, cache.alpha),
        btrace=btrace,
        gram_h=mass_pairing(cache.fields, cache.fields),
        gram_v=energy_pairing(cache.fields, cache.fields, cache.alpha),
        **ops,
    )


# -- single-step reference operations ----------------------------------------


def drift(beta: np.ndarray, ops: GalerkinOperators, nu: float,
          gamma: np.ndarray, gamma_dot: np.ndarray,
          include_nonlinear: bool = True) -> np.ndarray:
    """Reference drift assembly (numpy, mirrors the kernel contraction).

    beta is one state (n,) or a stack (..., n) with controls (..., n_ctrl)
    that broadcast against it; the one-state case is the reference of
    `step_em` and of the kernel.
    """
    f = (
        -nu * ops.lam * beta
        - nu * (gamma @ ops.lift_v.T)
        + nu * (gamma @ ops.btrace.T)
        - gamma_dot @ ops.lift_h.T
    )
    if include_nonlinear:
        n, nc = ops.n, ops.n_ctrl
        outer = (beta[..., :, None] * beta[..., None, :]).reshape(beta.shape[:-1] + (n * n,))
        bc = (gamma @ ops.conv_bc.reshape(n * n, nc).T).reshape(gamma.shape[:-1] + (n, n))
        cc = (gamma @ ops.conv_cc.reshape(n * nc, nc).T).reshape(gamma.shape[:-1] + (n, nc))
        nl = (
            outer @ ops.conv_bb.reshape(n, -1).T
            + (bc @ beta[..., None])[..., 0]
            + (cc @ gamma[..., None])[..., 0]
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

# Basis size from which the kernel evaluates the convection pseudospectrally
# (`Convection`) instead of through the dense n^3 tensors.  Measured at
# modes_x = 8, nodes_y = 24 with BLAS on one thread, per step of a 16-path
# block with a control: dense 0.28-0.35 ms at n = 56, 0.34-0.38 ms at n = 60
# and 0.42-0.48 ms at n = 64, growing as n^3; pseudospectral 0.45-0.60 ms,
# nearly flat in n.  The dense path also pays 0.12-0.16 s of tensor assembly
# at these sizes, so the step alone now favours it up to about n = 64.
N_PS = 60


def _em_block(beta0, ops: GalerkinOperators, conv: Convection | None,
              table: np.ndarray | None, nu, dt, gamma, gamma_dot, beta_ref, gamma_ref,
              add, rho, dw, blowup_limit, paths):
    """Euler-Maruyama over a (W, n) block of paths sharing control and target.

    beta0 is (W, n) and dw (W, n_steps, m); rows from `paths` on are padding.
    The control drift (lift_v, btrace, lift_h terms) is the same for every
    path and is formed once per step.  The convection is evaluated on the
    rows z = (beta, gamma) of the block: by `conv`, pseudospectrally, or,
    with `table` the dense (n + n_ctrl, n^2) table T of `Simulator`, as
    y = z @ T (one GEMM) and nl_w = beta_w @ y_w reshaped (n, n) (one batched
    mat-vec); conv_cc then joins the control drift, by two GEMMs as in
    `drift`, and without a control only the beta rows of T are read.  Both
    None is a linear run.  The history (n_steps + 1, W, n) is written in
    place and the per-step diagnostics (squared mass/energy norms, tracking
    error against the reference series, squared noise magnitude) are
    evaluated from it afterwards.  A path aborts when its squared norm is
    not finite or passes blowup_limit: its abort step is returned, its final
    state is the offending one, its later diagnostics are NaN and its later
    history is zero, and its working row is zeroed.  Stepping stops once
    every non-padding row has aborted.
    """
    w_rows, n = beta0.shape
    n_steps = dw.shape[1]
    lam = ops.lam
    dw_t = dw.transpose(1, 0, 2)                             # (n_steps, W, m)
    # path-independent drift per step, then each path's additive noise
    ctrl_drift = (-nu * (gamma @ ops.lift_v.T) + nu * (gamma @ ops.btrace.T)
                  - gamma_dot @ ops.lift_h.T)
    ctrl_on = bool(np.any(gamma))
    if ctrl_on and table is not None:
        nc = ops.n_ctrl
        cc = (gamma @ ops.conv_cc.reshape(n * nc, nc).T).reshape(-1, n, nc)
        ctrl_drift -= (cc @ gamma[:, :, None])[:, :, 0]
    push = np.empty((n_steps, w_rows, n))
    push[:] = (dt * ctrl_drift[:n_steps])[:, None, :]
    for k in range(rho.size):
        push += dw_t[:, :, k, None] * add[:, k]
    # decay and multiplicative noise
    fac = (1.0 - dt * nu * lam) + (dw_t * rho).sum(axis=-1, keepdims=True)
    n_a = conv.n_a if conv is not None else ops.n_ctrl if ctrl_on else 0
    rows = np.zeros((w_rows, n + n_a))                       # (beta, gamma) per path
    if table is not None:
        table = table[: n + n_a]
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
            step = np.multiply(b, fac[ell], out=hist[ell + 1])
            step += push[ell]
            if conv is not None or table is not None:
                if n_a:
                    rows[:, :n] = b
                    rows[:, n:] = gamma[ell, :n_a]
                z = rows if n_a else b
                if conv is not None:
                    nl = conv(z)
                else:
                    nl = np.matmul(b[:, None, :], (z @ table).reshape(w_rows, n, n))[:, 0]
                nl *= dt
                step -= nl
            if not np.vdot(step, step) <= fast:
                bad = ~(np.vecdot(step, step) <= limit)
                fresh = bad & (blowup_step < 0)
                blowup_step[fresh] = ell + 1
                beta_final[fresh] = step[fresh]
                step[bad] = 0.0
                if (blowup_step[:paths] >= 0).all():
                    break
            b = step
    alive = blowup_step < 0
    beta_final[alive] = b[alive]
    del push, fac

    u_sq = np.einsum("twi,twi->tw", hist, hist)
    u_esq = np.einsum("twi,twi,i->tw", hist, hist, lam)
    gd = gamma - gamma_ref
    buf = np.subtract(hist, beta_ref[:, None, :])
    tracking = (np.einsum("twi,twi->tw", buf, buf)
                + 2.0 * np.einsum("twi,ti->tw", buf, gd @ ops.lift_h.T)
                + ((gd @ ops.gram_h) * gd).sum(axis=1)[:, None])
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
    """Bundles the assembled operators with a time grid and noise model.

    Below N_PS basis entries the convection is the dense tensors of `ops`,
    assembled here and laid out once as `table`, T[q, (p, i)] =
    conv_bb[i, p, q] and T[n + c, (p, i)] = conv_bc[i, p, c], the kernel's
    GEMM operand; from N_PS on it is `convection`, a `Convection` on the
    basis and the lifted unit fields whose tables are probed for skew
    symmetry here, and the dense tensors are not assembled.  A linear run
    (include_nonlinear False) assembles neither.
    """

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
        wide = basis.size >= N_PS
        self.ops = (assemble_operators(basis, cache, dense=include_nonlinear and not wide)
                    if ops is None else ops)
        self.convection = self.table = None
        if wide and include_nonlinear:
            self.convection = Convection(basis, None if cache is None else cache.fields)
            _probe_skew(self.convection)
        elif include_nonlinear:
            self.table = np.concatenate([t.transpose(2, 1, 0).reshape(t.shape[2], -1)
                                         for t in (self.ops.conv_bb, self.ops.conv_bc)])

    def drift(self, beta: np.ndarray, gamma: np.ndarray, gamma_dot: np.ndarray) -> np.ndarray:
        """The drift the kernel integrates, for one state or stacked (..., n) states."""
        if self.convection is None:
            return drift(beta, self.ops, self.nu, gamma, gamma_dot, self.include_nonlinear)
        f = drift(beta, self.ops, self.nu, gamma, gamma_dot, include_nonlinear=False)
        gamma = gamma[..., : self.convection.n_a]
        return f - self.convection.stacked(np.broadcast_to(beta, f.shape), gamma)

    def usable(self, trajs: list) -> list:
        """The paths of trajs that did not blow up; raises InsufficientPathsError if none."""
        good = [tr for tr in trajs if not tr.blown_up]
        if not good:
            raise InsufficientPathsError(f"all {len(trajs)} paths blew up{self.blowup_hint()}")
        return good

    def blowup_hint(self) -> str:
        """Names the explicit Euler limit dt < 2 / (nu lam_max) if dt is past it, else "".

        Past it the top mode's factor 1 - dt nu lam_max leaves [-1, 1].
        """
        lam_max = float(self.ops.lam.max())
        if self.dt * self.nu * lam_max < 2.0:
            return ""
        return (f"; dt = {self.dt:g} is at or past the explicit Euler limit "
                f"2/(nu*lam_max) = {2.0 / (self.nu * lam_max):.3g}")

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
              dw=None, keep_wiener=False) -> dict:
        """Check a run's options once; the result is what every chunk shares."""
        n = self.ops.n
        beta0 = np.zeros(n) if u0 is None else np.asarray(u0, float).copy()
        if beta0.shape != (n,):
            raise DynamicsError("initial coefficients do not match the basis size")
        gamma, gdot = self.gamma_series(ctrl)
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
            beta0, self.ops, self.convection, self.table, self.nu, self.dt,
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
            dw: np.ndarray | None = None, keep_wiener: bool = False) -> Trajectory:
        """One path: a chunk holding one seed, bitwise equal to its run_many path."""
        plan = self._plan(ctrl, u0, noise_on, store_beta, target, dw, keep_wiener)
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
