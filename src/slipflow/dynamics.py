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
term) are small matrices assembled once per (basis, lifting cache).  Every
simulator carries a lifting cache and every run a `BoundaryControl`: the
uncontrolled flow is the zero control a = b = 0, not another equation.  The
convection acts on the whole velocity y, through the control columns of
gamma not 0 at every time node (the others add exact zeros).  Two
evaluators with one contract of three parts give it, chosen by the basis
size n: `restricted(active)`, the evaluator on a pass's active columns; a
call, which maps the stacked (k, BLOCK, n + n_a) rows (beta,
gamma[active]) of its blocks to (k BLOCK, n); and `stacked`, the
convection of stacked states and controls, the reference of `drift`.

* below N_PS, `DenseConvection`, one dense tensor C of the trilinear form
  over the joint stack of the basis entries and the lifted unit fields,
  (n, n + n_a, n + n_a) entries: per step one GEMM of each block against a
  table T and one batched mat-vec, both over the whole row (beta, gamma);
* from N_PS on, `Convection`, the transform method in divergence form: per
  step the block's velocity y is synthesized on its own 3 modes_x + 1
  x-nodes, at the Gauss nodes and walls in y, by one stacked product over
  the x-modes, whose tables are padded to one shape, and one by a real DFT
  matrix, and y (x) y is projected onto grad e_i and the wall traces of e_i
  by the two transposed steps (no FFT).

Both integrate the quadratic products exactly: 3 modes_x + 1 x-nodes are
the fewest on which no aliasing of a product reaches the resolved band, and
the dense tensor is summed triad by triad from the Fourier coefficients
(`_triad_sum`), exact in x by orthogonality, so no x grid is sampled, and
in y by the Gauss rule.  Each evaluator checks itself where it is built:
each block of the tensor for vanishing off the Fourier triads its fields'
modes allow, the basis block also for skew symmetry, at a rounding scale
bounded from the coefficients; the pseudospectral tables by a skew probe
on seeded random fields, its lifted fields for div y = 0.  The lift
couplings and Gram matrices are the basis and lifting stacks' mass and
energy pairings; the wall term is exact by Parseval on trace coefficients.

One numpy kernel, `_em_block`, only steps a pass of up to STACK blocks of
BLOCK paths in one loop and returns its history; `Simulator.run_many` hands
it its rows STACK * BLOCK at a time, the last block of the run padded to
BLOCK rows, and `_measure` forms each pass's series from the history into
the (paths, times) arrays of one `Paths`, the norms of y = u + lift by
`GalerkinOperators.y_sq`.  Every product whose rounding depends on the row
count runs as a stacked matmul over (k, BLOCK, .) rows, k separate
BLOCK-row products, and every other operation is per row, so a seed's path
is bitwise the same whatever its batch, its position in it and the number
of blocks in its pass.  Only the noise set-up spans all W rows: per step
one (W, m) x (m, n) GEMM of the increments against the m additive
channels, each entry an m-term sum that OpenBLAS forms alike at every row
position (measured for m = 1 to 8; the seed-bits tests pin it).  A
blown-up row runs on, and the blow-up steps are read off the history after
the loop.  A run may take a stack of C controls (a compass poll's
candidates), each over every seed, one contiguous group per control, and
each seed's increments drawn once a pass: one `series` call samples the
stack, the kernel forms each group's control drift by `drift` at beta = 0
on that control's own series, with a one-control pass's bits, and fills
the rows' control columns of each step from one array made before the
loop; `_measure` forms the state's series of the whole pass at once and
each group's tracking on its row slice.  So a group's paths are the bits
of its own run.
`GalerkinOperators.convection` is the one evaluator of an operator set,
chosen by n once: the kernel, `drift`/`step_em` (the single-step reference
the kernel is tested against) and the damping rate all read it, so src
builds the dense tensor below N_PS only.
"""

from __future__ import annotations

import copy
import operator
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .basis import Basis, ModeField, energy_pairing, mass_pairing
from .geometry import Grid
from .lifting import BoundaryControl, LiftingCache, trace_tables

__all__ = [
    "DynamicsError",
    "BlowupError",
    "InsufficientPathsError",
    "NoiseModel",
    "GalerkinState",
    "Trajectory",
    "Paths",
    "GalerkinOperators",
    "Convection",
    "DenseConvection",
    "assemble_operators",
    "drift",
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

    def matrix(self, beta: np.ndarray) -> np.ndarray:
        """Diffusion matrix: column k holds the coefficients of g_k + rho_k u."""
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


class Trajectory(SimpleNamespace):
    """Path i of a `Paths`: `seed`, `blown_up`, `blowup_step` and views of its
    rows there under the same names, with the shared `times` and `beta0`."""


@dataclass(eq=False)
class Paths:
    """Simulated paths as stacks with one row per seed, on one time grid.

    `u_sq` and `u_esq` (paths, times) are the squared mass and energy norms
    of the homogeneous part, `tracking` the squared L2 distance of y to the
    target (|y|^2 without one), `noise_sq` the squared Frobenius magnitude of
    the diffusion, each NaN from a blown-up path's blowup step on;
    `beta_series` (paths, times, n) and `wiener` (paths, n_steps, m) are kept
    on request.  `blowup_step` is -1 on a path that did not blow up; `seeds`
    holds Python ints (a seed bank may pass 2**64).  `paths[i]` is path i as
    a `Trajectory` of views, built once per result; `paths[a:b]` is a `Paths`.
    """

    seeds: np.ndarray
    times: np.ndarray
    beta0: np.ndarray
    beta_final: np.ndarray
    u_sq: np.ndarray
    u_esq: np.ndarray
    tracking: np.ndarray
    noise_sq: np.ndarray
    blowup_step: np.ndarray
    beta_series: np.ndarray | None = None
    wiener: np.ndarray | None = None
    hint: str = ""                          # what `usable` appends to its error
    _rows = ("seeds", "blowup_step", "beta_final", "u_sq", "u_esq", "tracking", "noise_sq",
             "beta_series", "wiener")       # the per-path fields

    @property
    def blown_up(self) -> np.ndarray:
        return self.blowup_step >= 0

    def usable(self) -> np.ndarray:
        """Mask of the paths that did not blow up; raises InsufficientPathsError if none."""
        ok = self.blowup_step < 0
        if not ok.any():
            raise InsufficientPathsError(f"all {len(self)} paths blew up{self.hint}")
        return ok

    def __len__(self) -> int:
        return len(self.blowup_step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, **{k: getattr(self, k)[i] for k in self._rows
                                    if getattr(self, k) is not None})
        return self._views[i]

    def __iter__(self):
        return iter(self._views)

    @cached_property
    def _views(self) -> list:
        rows = {k: getattr(self, k) for k in self._rows[2:]}
        return [Trajectory(times=self.times, seed=seed, beta0=self.beta0,
                           blown_up=bool(step >= 0), blowup_step=int(step),
                           **{k: None if a is None else a[w] for k, a in rows.items()})
                for w, (seed, step) in enumerate(zip(self.seeds, self.blowup_step))]


# -- convection ------------------------------------------------------------------


class Convection:
    """Pseudospectral convection ((y . grad) y, e_i) for stacks of fields y.

    y = sum_i beta_i e_i + sum_c gamma_c a_c lies in the span of the basis
    entries e_i and of a stack of further fields a_c (the lifted unit
    fields); a call maps rows z = (beta, gamma) of shape (W, n + n_a) to the
    (W, n) convection coefficients.  As div y = 0 and e_i . n = 0, they are
    -(y (x) y, grad e_i) + int_Gamma (y . n)(y . tau)(e_i . tau), the wall
    term being [y1 y2 e_i1] from the bottom to the top wall.  Per x-mode j a
    real product synthesizes the [re | im] planes of (v1, v2) of y at the
    Gauss nodes and walls from the coefficients of the entries at j and of
    the a_c reaching j; the real DFT matrix `to_grid` (n_x, 2 n_bins) gives
    them on the evaluator's own n_x = 3 modes_x + 1 equispaced x-nodes, the
    package's one x-rule.  There y1^2 and y2^2 are formed pointwise into one
    contiguous array and y1 y2 into another, `from_grid` (2 n_bins, n_x)
    takes each back, and two products per j, summed, pair them with -d_x e1,
    -d_y e2, -(d_y e1 + d_x e2) and the wall traces -+e1 of the entries at
    j.  A product of two band-K fields reaches bin 2K, which on 3K + 1 nodes
    aliases only onto bins past K (Orszag's 3/2 rule); with the Gauss rule
    in y, exact for these triple products, this is the dense tensor's
    quadrature.

    The per-mode tables are padded to one stack each, so every stage is one
    stacked matmul over (modes, rows): `s_idx` (n_bins, R) holds the rows
    each mode reads, its first `s_len[j]` real and the rest the mode's first
    row again, `s_tab` (n_bins, R, 4 (n_q + 2)) their synthesis rows (0 on
    the padding), `p_tab` (n_bins, 6 (n_q + 2), N) the projection columns of
    the entries at each mode (0 past them), its rows [re | im] of (y1^2,
    y2^2) then [re | im] of y1 y2, and `pos` entry i's position in the
    flattened (n_bins, N) result.  A row's bits depend on it and W alone.
    The constructor probes the tables for skew symmetry (`_probe_skew`).
    """

    def __init__(self, basis: Basis, fields: ModeField):
        g = basis.grid
        if fields.n_modes > g.spec.modes_x:
            raise DynamicsError("field exceeds the dealiased band of the grid")
        if (fields.divergence_residual()                # the divergence form needs div y = 0
                > 1e-12 * (1.0 + g.kx[-1]) * np.abs(fields.vals).max(axis=(1, 2, 3))).any():
            raise DynamicsError("a lifted field is not divergence-free")
        self.grid, self.n, self.n_a = g, basis.size, len(fields)
        self._restricted, self._scratch = {}, np.empty(0)
        self.n_bins = g.spec.modes_x + 1
        # 3K + 1 nodes: a product of two band-K fields has bins up to 2K, and
        # none aliases onto bins 0..K
        n_x = 3 * g.spec.modes_x + 1
        # bin axis rows 2j, 2j + 1: re and im of bin j at phase k_j x_m mod 2 pi
        phase = np.outer(np.arange(self.n_bins), np.arange(n_x)) % n_x * (2 * np.pi / n_x)
        self.from_grid = np.stack([np.cos(phase), -np.sin(phase)], axis=1).reshape(-1, n_x)
        self.to_grid = 2.0 * self.from_grid.T     # irfft(., n_x, norm="forward"),
        self.to_grid[:, 0] = 1.0                  # where bin 0 counts once
        e, width, w_x = basis.fields, 2 * (g.n_q + 2), g.spec.length_x / n_x
        count = np.bincount(basis.mode_j, minlength=self.n_bins)
        self.p_tab = np.zeros((self.n_bins, 3 * width, count.max()))
        self.pos = np.empty(self.n, int)
        rows, tabs = [], []
        for j in range(self.n_bins):
            own = np.flatnonzero(basis.mode_j == j)
            r, vals, walls = own, e.vals[own, j], e.wall_vals[own, j]
            if j <= fields.n_modes and fields.vals[:, j].any():
                r = np.concatenate([own, self.n + np.arange(self.n_a)])
                vals = np.concatenate([vals, fields.vals[:, j]])
                walls = np.concatenate([walls, fields.wall_vals[:, j]])
            spec = np.concatenate([vals, walls], axis=2)   # [re | im] planes of (r, 2, n_q + 2)
            rows.append(r)
            tabs.append(np.concatenate([spec.real, spec.imag], axis=1).reshape(r.size, 2 * width))
            # [re | im] planes of (n_j, 3, n_q + 2) against y1^2, y2^2, y1 y2
            kv, d = 1j * g.kx[j] * e.vals[own, j], e.dvals[own, j]   # d_x e, d_y e
            proj = np.zeros((own.size, 3, g.n_q + 2), complex)
            proj[..., :-2] = -g.w_y * np.stack([kv[:, 0], d[:, 1], d[:, 0] + kv[:, 1]], 1)
            proj[:, 2, -2:] = e.wall_vals[own, j, 0] * [-1.0, 1.0]
            proj *= w_x * (1.0 if j == 0 else 2.0)
            # rows [re | im] of (y1^2, y2^2), then [re | im] of y1 y2
            proj = np.concatenate([proj[:, :2].real, proj[:, :2].imag,
                                   proj[:, 2:].real, proj[:, 2:].imag], axis=1)
            self.p_tab[j, :, : own.size] = proj.reshape(own.size, 3 * width).T
            self.pos[own] = j * count.max() + np.arange(own.size)
        self._pack(rows, tabs)
        _probe_skew(self)

    def _pack(self, rows: list, tabs: list):
        """`s_idx`, `s_len` and `s_tab` of the rows per mode and their synthesis tables."""
        self.s_len = np.array([r.size for r in rows])
        self.s_idx = np.zeros((self.n_bins, max(self.s_len.max(), 1)), int)
        self.s_tab = np.zeros(self.s_idx.shape + (tabs[0].shape[1],))
        for j, (r, t) in enumerate(zip(rows, tabs)):
            if r.size:                            # padding: the mode's first row, table rows 0
                self.s_idx[j], self.s_idx[j, : r.size], self.s_tab[j, : r.size] = r[0], r, t

    def samples(self, z: np.ndarray) -> np.ndarray:
        """(..., n_x, 2 (n_q + 2)) grid samples of v1 then v2 (Gauss nodes, walls) of rows z.

        z is (..., W, n + n_a), a stack of row blocks; the stacked matmul over
        (modes, rows) computes each (block, mode) product on its own, so a
        row's bits depend on its block's row count, not on the stack.
        """
        lead = z.shape[:-1]
        spec = np.empty(lead + (self.n_bins, self.s_tab.shape[-1]))
        np.matmul(np.take(z, self.s_idx, axis=-1).swapaxes(-3, -2), self.s_tab,
                  out=spec.swapaxes(-3, -2))
        return np.matmul(self.to_grid, spec.reshape(lead + (2 * self.n_bins, -1)))

    def project(self, s: np.ndarray) -> np.ndarray:
        """(..., n) convection coefficients of the fields with (..., W, n_x, 2 (n_q + 2))
        grid samples s: their products v1^2, v2^2 and v1 v2, projected."""
        lead, half, size = s.shape[:-2], s.shape[-1] // 2, s.size
        # kept between calls of one shape: glibc mmaps a fresh array of this size each time
        if self._scratch.size != size + size // 2:
            self._scratch = np.empty(size + size // 2)
        squares = np.multiply(s, s, out=self._scratch[:size].reshape(s.shape))
        cross = np.multiply(s[..., :half], s[..., half:],
                            out=self._scratch[size:].reshape(s.shape[:-1] + (half,)))
        # p_tab rows [re | im] of (v1^2, v2^2), then [re | im] of v1 v2
        f_sq, f_cross = (np.matmul(self.from_grid, p).reshape(lead + (self.n_bins, -1))
                         .swapaxes(-3, -2) for p in (squares, cross))
        out = np.empty(lead + self.p_tab.shape[::2])
        by_mode = out.swapaxes(-3, -2)
        np.matmul(f_sq, self.p_tab[:, : 4 * half], out=by_mode)
        by_mode += np.matmul(f_cross, self.p_tab[:, 4 * half :])
        return np.take(out.reshape(lead + (-1,)), self.pos, axis=-1)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """(k BLOCK, n) convection of stacked (k, BLOCK, n + n_a) rows z."""
        return self.project(self.samples(z)).reshape(-1, self.n)

    def restricted(self, active: np.ndarray) -> Convection:
        """This evaluator on rows (beta, gamma[active]), cached per active set: the
        synthesis rows of other controls cut and the rest repacked, the
        projection tables shared."""
        key = active.tobytes()
        if key not in self._restricted:
            new = np.full(self.n + self.n_a, -1)         # a row's position in the new rows
            new[np.r_[: self.n, self.n + active]] = np.arange(self.n + active.size)
            rows, tabs = [], []
            for j, m in enumerate(self.s_len):
                r = new[self.s_idx[j, :m]]
                rows.append(r[r >= 0])
                tabs.append(self.s_tab[j, :m][r >= 0])
            sub = self._restricted[key] = copy.copy(self)
            sub.n_a = active.size
            sub._pack(rows, tabs)
        return self._restricted[key]

    def rows(self, beta: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
        """(m, n + n_a) rows z of stacked states beta (..., n) and controls that broadcast."""
        z = np.zeros(np.shape(beta)[:-1] + (self.n + self.n_a,))
        z[..., : self.n] = beta
        if self.n_a and gamma is not None:
            z[..., self.n :] = gamma
        return z.reshape(-1, self.n + self.n_a)

    def stacked(self, beta: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
        """Convection of stacked states beta (..., n), a kernel pass's width of
        rows a call to bound the temporaries."""
        z, width = self.rows(beta, gamma), STACK * BLOCK
        out = np.concatenate([self(z[s : s + width]) for s in range(0, len(z), width)])
        return out.reshape(np.shape(beta))


def _probe_skew(conv: Convection):
    """Raise unless the evaluator N is skew on 3 x 2 seeded random u, v, w in the basis span.

    With 2 S(a, b) = N(a + b) - N(a) - N(b), <S(u, v), w> + <S(v, w), u> +
    <S(w, u), v> = -1/2 int [u . grad(v . w) + v . grad(w . u) + w . grad(u . v)]
    vanishes for divergence-free fields with zero normal trace.  The check of
    the tables that `_check_convection` is for the dense tensor, with its
    rule: 1e-12 times the summed magnitudes of the terms, here of |products|.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE3, conv.n]))
    u, v, w = coef = rng.standard_normal((3, 2, conv.n))
    s = conv.samples(conv.rows(np.stack([u, v, w, u + v, v + w, w + u])))
    mag = copy.copy(conv)                      # the projection on magnitudes
    mag.from_grid = np.abs(conv.from_grid)
    mag.p_tab = np.abs(conv.p_tab)
    nl, size = conv.project(s).reshape(6, 2, -1), mag.project(np.abs(s)).reshape(6, 2, -1)
    a, b, c = [0, 1, 2], [1, 2, 0], [2, 0, 1]               # row 3 + a holds a + b
    defect = np.vecdot(nl[3:] - nl[a] - nl[b], coef[c]).sum(axis=0)
    scale = np.vecdot(size[3:] + size[a] + size[b], np.abs(coef[c])).sum(axis=0)
    if (np.abs(defect) > 1e-12 * scale).any():
        raise DynamicsError("pseudospectral convection is not skew-symmetric")


@dataclass(eq=False, repr=False)
class GalerkinOperators:
    """Couplings of the basis and the lifting cache.

    lift_h / lift_v  = (A_c, e_i) in the mass / energy pairing
    btrace[i, c]     = int_Gamma b_c (e_i . tau)
    gram_h / gram_v  = pairings of the unit lifted fields

    `convection`, the one evaluator on `basis` and the lifted unit fields of
    `cache`, built on first read: a `DenseConvection` below N_PS basis
    entries and a `Convection` from N_PS on.  Its contract has three parts:
    `restricted(active)`, a call on the rows (beta, gamma[active]) and
    `stacked`.  Every simulator sharing these operators, and `step_em`,
    reads it, with its cache of restrictions.
    """

    lam: np.ndarray
    lift_h: np.ndarray
    lift_v: np.ndarray
    btrace: np.ndarray
    gram_h: np.ndarray
    gram_v: np.ndarray
    basis: Basis
    cache: LiftingCache

    @property
    def n(self) -> int:
        return self.lam.size

    @cached_property
    def convection(self) -> DenseConvection | Convection:
        kind = DenseConvection if self.n < N_PS else Convection
        return kind(self.basis, self.cache.fields)

    def y_sq(self, beta: np.ndarray, gamma: np.ndarray, energy: bool = False) -> np.ndarray:
        """Squared mass (energy) norm of y = sum_i beta_i e_i + sum_c gamma_c a_c,
        for stacked states beta (..., n) and controls (..., n_ctrl) that broadcast."""
        lift, gram = (self.lift_v, self.gram_v) if energy else (self.lift_h, self.gram_h)
        sq = (np.einsum("...i,...i,i->...", beta, beta, self.lam) if energy
              else np.einsum("...i,...i->...", beta, beta))
        return (sq + 2.0 * np.einsum("...i,...i->...", beta, gamma @ lift.T)
                + np.einsum("...c,...c->...", gamma, gamma @ gram.T))


class _Pieces:
    """The single-mode pieces of a stack of fields, or of stacks joined, sorted by mode.

    Piece r is the mode-`mode[r]` part A e^{i k x} + c.c. of field `owner[r]`
    (numbered stack after stack).  `u` (r, 2, n_q) holds A as an advecting
    velocity and `grad` (r, 2, 2, n_q) the gradient 2 (i k A_c, A_c') as an
    advected field (axis 1: d_x, d_y), with the 2 of the conjugate half that
    `_triad_sum` leaves out.  At j = 0 both hold the full real profile:
    synthesis on the grid drops the imaginary part of bin 0.  `blocks` maps
    each mode j to the slice of its pieces and their owners, the positions
    their entries take in a tensor over the fields.
    """

    def __init__(self, *stacks: ModeField):
        self.grid = stacks[0].grid
        # (fields, modes): where a field of the joint stack does not vanish
        at = np.cumsum([0] + [len(f) for f in stacks])
        self.support = np.zeros((at[-1], self.grid.spec.modes_x + 1), bool)
        for lo, f in zip(at, stacks):
            self.support[lo : lo + len(f), : f.n_modes + 1] = (f.vals.any(axis=(2, 3))
                                                              | f.dvals.any(axis=(2, 3)))
        self.mode, self.owner = np.nonzero(self.support.T)  # sorted by (mode, owner)
        zero = self.mode == 0
        self.u = np.empty((self.mode.size, 2, self.grid.n_q), complex)
        dvals = np.empty_like(self.u)
        for lo, hi, f in zip(at, at[1:], stacks):
            own = (self.owner >= lo) & (self.owner < hi)
            self.u[own] = f.vals[self.owner[own] - lo, self.mode[own]]
            dvals[own] = f.dvals[self.owner[own] - lo, self.mode[own]]
        self.u[zero], dvals[zero] = self.u[zero].real, dvals[zero].real
        ik = 1j * self.grid.kx[self.mode, None, None]
        self.grad = np.stack([ik * self.u, dvals], axis=1)
        self.grad[~zero] *= 2.0
        cuts = np.searchsorted(self.mode, np.arange(self.support.shape[1] + 1))
        self.blocks = {j: (slice(lo, hi), self.owner[lo:hi])
                       for j, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])) if hi > lo}

    def magnitudes(self):
        """(fields, modes) tables of max_y sum_d |u_d| and max |grad|; 0 off the support."""
        u_mag, g_mag = np.zeros(self.support.shape), np.zeros(self.support.shape)
        u_mag[self.owner, self.mode] = np.abs(self.u).sum(axis=1).max(axis=1)
        g_mag[self.owner, self.mode] = np.abs(self.grad).max(axis=(1, 2, 3))
        return u_mag, g_mag


def _reach(p_modes: np.ndarray, q_modes: np.ndarray) -> np.ndarray:
    """R[k, p, q] = sum_ab p_modes[p, a] N[k, a, b] q_modes[q, b] over (fields, modes)
    tables, N[k, a, b] the signs s with |s a + b| = k (s = +1 only at a = 0):
    the Fourier triads that take modes a and b to k."""
    j = np.arange(p_modes.shape[1])
    count = sum((np.abs(s * j[:, None] + j) == j[:, None, None]) & ((s > 0) | (j[:, None] > 0))
                for s in (1, -1))
    return np.matmul(np.asarray(p_modes, float) @ count, np.asarray(q_modes, float).T)


def _triad_sum(out: np.ndarray, test: _Pieces, adv: _Pieces, advd: _Pieces):
    """out[i, q, p] += ((u_p . grad) v_q, e_i) for the fields u_p of adv,
    v_q of advd and e_i of test (one piece each), summed over their pieces
    triad by triad.

    With every piece written A e^{i k_j x} + c.c., the x-integral of a
    product of three is L_x times the sum over the sign choices with
    s_i j_i + s_p j_p + s_q j_q = 0.  They come in conjugate pairs, so an
    entry is 2 L_x Re of the half with s_q = +1 (`grad` carries the 2).  Per
    mode j_p, sign s_p and block j_q reaching a test block at |s_p j_p + j_q|,
    one GEMM takes the profiles (u_p . grad) v_q of their pieces (formed a
    block at a time to bound the temporaries) against it, Gauss-weighted and
    conjugated where s_i = -1, and adds the result at its fields' positions.
    """
    g = test.grid
    w = g.spec.length_x * g.w_y * test.u
    rows = (w.view(float).reshape(len(w), -1),          # Re(conj(e) f) = [Re e, Im e] . f
            w.conj().view(float).reshape(len(w), -1))   # Re(e f)
    for jp, (ps, at_p) in adv.blocks.items():
        for sp in (1,) if jp == 0 else (1, -1):
            u = adv.u[ps] if sp > 0 else adv.u[ps].conj()
            for jq, (qs, at_q) in advd.blocks.items():
                t = sp * jp + jq
                if abs(t) in test.blocks:
                    i_s, at_i = test.blocks[abs(t)]
                    f = advd.grad[qs, None, 0] * u[None, :, 0, None]
                    f += advd.grad[qs, None, 1] * u[None, :, 1, None]   # (Q, P, 2, n_q)
                    res = rows[t < 0][i_s] @ f.view(float).reshape(f.shape[0] * f.shape[1], -1).T
                    out[at_i[:, None, None], at_q[:, None], at_p] += res.reshape(
                        at_i.size, at_q.size, -1)


def _check_convection(conv: np.ndarray, mode_j, scale: float, supp_p=None, supp_q=None):
    """Raise unless conv[i, p, q] vanishes off the Fourier triads j_i in
    {a + b, |a - b|}, a and b modes of the p-th and q-th fields, to 1e-12 * scale.

    supp_p and supp_q are the (fields, modes) supports of the advecting and
    advected stacks; without them conv is the basis block of a tensor, whose
    fields are the basis entries, and it must also be skew in (i, q).
    """
    bound = 1e-12 * scale
    j = np.asarray(mode_j)
    skew = supp_p is None
    if skew:
        supp_p = supp_q = j[:, None] == np.arange(j.max() + 1)
    reach = _reach(supp_p, supp_q)
    for p in range(0, conv.shape[1], 16):               # 16 p a pass bound the temporaries
        block = conv[:, p : p + 16]
        if skew:                                        # M + M^T per p on contiguous (i, q) M
            slab = np.ascontiguousarray(block.transpose(1, 0, 2))
            if np.abs(slab + slab.transpose(0, 2, 1)).max() > bound:
                raise DynamicsError("convection tensor is not skew-symmetric")
        if np.abs(block[reach[j, p : p + 16] == 0]).max(initial=0.0) > bound:
            raise DynamicsError("convection tensor couples modes off the Fourier triads")


def _check_scales(e: _Pieces, z: _Pieces) -> np.ndarray:
    """(2, 2) rounding scales of the blocks of a tensor over z's fields for
    their checks, the test fields those of e: entry [b, c] is the scale of
    the block whose advecting fields are part b of z and advected fields
    part c, part 0 e's fields and part 1 the rest.

    Each bounds the summed magnitudes |e_i| |u_p| |grad v_q| of the terms of
    any entry's sum in `_triad_sum`, over its triads, y and the components,
    even where the entry vanishes in exact arithmetic: the largest
    Gauss-weighted test magnitude at mode k times, per (p, q), the triads
    that reach k weighted by the pieces' largest magnitudes.
    """
    g = e.grid
    test = np.zeros(e.support.shape[1])
    np.maximum.at(test, e.mode, g.spec.length_x * (np.abs(e.u) * g.w_y).sum(axis=(1, 2)))
    per_pq = (test[:, None, None] * _reach(*z.magnitudes())).max(axis=0)
    cut = [len(e.support)]
    return np.array([[block.max(initial=0.0) for block in np.split(row, cut, axis=1)]
                     for row in np.split(per_pq, cut)])


class DenseConvection:
    """`Convection`'s contract on the dense tensor of the trilinear form over
    the joint stack z of the basis entries e_i and further fields a_c (the
    lifted unit fields), z_p = e_p and z_{n + c} = a_c:

    C[i, p, q] = ((z_p . grad) z_q, e_i),   (n, n + n_a, n + n_a)

    summed in one `_triad_sum` pass and checked here block by block: each
    of its four blocks vanishes off the Fourier triads, and the basis block
    C[:, :n, :n] is skew in (i, q).  A call takes rows z = (beta, gamma) to
    y = z @ `table` per block and each row's z @ y reshaped (n + n_a, n);
    `stacked` is the reference contraction of `drift`.
    """

    def __init__(self, basis: Basis, fields: ModeField):
        n, n_a = self.n, self.n_a = basis.size, len(fields)
        e, z = _Pieces(basis.fields), _Pieces(basis.fields, fields)
        scales = _check_scales(e, z)
        self.conv = np.zeros((n, n + n_a, n + n_a))
        _triad_sum(self.conv.transpose(0, 2, 1), e, z, z)
        parts = (slice(None, n), slice(n, None))
        for b, c in np.ndindex(2, 2):                 # the basis block: skew, no supports
            sup = () if b == c == 0 else (z.support[parts[b]], z.support[parts[c]])
            _check_convection(self.conv[:, parts[b], parts[c]], basis.mode_j, scales[b, c], *sup)
        self._restricted, self._scratch = {}, np.empty(0)

    @cached_property
    def table(self) -> np.ndarray:
        """T[q, (p, i)] = C[i, p, q] over the n + n_a rows."""
        return self.conv.transpose(2, 1, 0).reshape(self.conv.shape[2], -1)

    def restricted(self, active: np.ndarray) -> DenseConvection:
        """This evaluator on rows (beta, gamma[active]), cached per active set:
        C cut to the rows of those columns, with a T of its own."""
        key = active.tobytes()
        if key not in self._restricted:
            rows = np.r_[: self.n, self.n + active]
            sub = self._restricted[key] = copy.copy(self)
            sub.n_a, sub.conv = active.size, self.conv[:, rows[:, None], rows]
            vars(sub).pop("table", None)          # its T is built from the cut C
        return self._restricted[key]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """(k BLOCK, n) convection of stacked (k, BLOCK, n + n_a) rows z."""
        n, y = self.n, self._scratch
        if len(y) != len(z):       # y (k, BLOCK, n + n_a, n), kept between calls of one k
            y = self._scratch = np.empty(z.shape[:-1] + (z.shape[-1] * n,)).reshape(z.shape + (n,))
        np.matmul(z, self.table, out=y.base)      # y's base is its (k, BLOCK, (n + n_a) n) view
        return np.matmul(z[..., None, :], y).reshape(-1, n)

    def stacked(self, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Convection of stacked states beta (..., n) and controls (..., n_a)
        that broadcast against them: the reference contraction, by blocks of
        C, those that gamma enters first against gamma's (fewer) rows."""
        n, nc, c = self.n, self.n_a, self.conv
        outer = (beta[..., :, None] * beta[..., None, :]).reshape(beta.shape[:-1] + (n * n,))
        mixed = c[:, :n, n:] + c[:, n:, :n].transpose(0, 2, 1)       # [i, p, c]
        bc = (gamma @ mixed.reshape(n * n, nc).T).reshape(gamma.shape[:-1] + (n, n))
        cc = (gamma @ c[:, n:, n:].reshape(n * nc, nc).T).reshape(gamma.shape[:-1] + (n, nc))
        return (outer @ c[:, :n, :n].reshape(n, -1).T + (bc @ beta[..., None])[..., 0]
                + (cc @ gamma[..., None])[..., 0])


def assemble_operators(basis: Basis, cache: LiftingCache) -> GalerkinOperators:
    """The couplings of basis and cache; their `convection` is built on first
    read."""
    g = basis.grid

    # wall pairing int_Gamma b_c (e_i . tau) by Parseval on the trace
    # coefficients; only entries with j_i <= n_modes meet the control band
    nc, nm = cache.n_dofs, cache.n_modes
    b_rows = np.zeros((nc, 2, g.spec.modes_x + 1), complex)
    b_rows[:, :, : nm + 1] = trace_tables(np.eye(nc), nm)[:, 2:]
    j = basis.mode_j
    btrace = g.spec.length_x * np.where(j == 0, 1.0, 2.0)[:, None] * np.einsum(
        "iw,cwi->ic", basis.tau_trace, b_rows[:, :, j].conj()
    ).real

    return GalerkinOperators(
        lift_h=mass_pairing(basis.fields, cache.fields),
        lift_v=energy_pairing(basis.fields, cache.fields),
        btrace=btrace,
        gram_h=mass_pairing(cache.fields, cache.fields),
        gram_v=energy_pairing(cache.fields, cache.fields),
        lam=basis.eigenvalues.copy(),
        basis=basis,
        cache=cache,
    )


# -- single-step reference operations ----------------------------------------


def drift(beta: np.ndarray, ops: GalerkinOperators, nu: float,
          gamma: np.ndarray, gamma_dot: np.ndarray,
          conv: DenseConvection | Convection | None) -> np.ndarray:
    """The drift the kernel integrates, with the convection of the evaluator
    conv (None for a linear run).

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
    if conv is None:
        return f
    return f - conv.stacked(np.broadcast_to(beta, f.shape), gamma)


def step_em(state: GalerkinState, dt: float, dw: np.ndarray,
            ops: GalerkinOperators, noise: NoiseModel, nu: float,
            gamma: np.ndarray, gamma_dot: np.ndarray,
            include_nonlinear: bool = True) -> GalerkinState:
    """One explicit step; raises BlowupError on a nonfinite update."""
    if dt <= 0:
        raise DynamicsError("dt must be positive")
    f = drift(state.beta, ops, nu, gamma, gamma_dot, ops.convection if include_nonlinear else None)
    beta = state.beta + dt * f + noise.matrix(state.beta) @ dw
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


# One Philox generator per process, re-keyed for every seed.  Philox is
# counter-based, a stream a pure function of (key, counter), so setting the
# whole state (the 128-bit key, counter 0, an empty buffer, no spare 32 bits)
# draws the bits of a fresh Philox(key=seed) without building one; the lock
# keeps a re-key and its draw together.
_PHILOX = np.random.Philox(key=0)
_NORMAL = np.random.Generator(_PHILOX)
_PHILOX_LOCK = threading.Lock()


def wiener_increments(seed: int, n_steps: int, m: int, dt: float) -> np.ndarray:
    """Counter-based increments, independent across seeds, N(0, dt I_m) rows:
    those of Generator(Philox(key=seed)), for a seed >= 0 and < 2**128."""
    seed = operator.index(seed)
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, seed >> 64)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    with _PHILOX_LOCK:
        _PHILOX.state = state
        z = _NORMAL.standard_normal((n_steps, m))
    return np.sqrt(dt) * z


# Paths per block, the unit that fixes a seed's bits.  BLAS rounding may
# depend on a GEMM's row count, so every product whose rounding does runs on
# BLOCK-row blocks (a stacked matmul over (k, BLOCK, .) is k BLOCK-row
# GEMMs) and the last block of a run is padded: a seed's bits are
# independent of its batch, its position in it and the width of its pass.
# 4 is the narrowest bank a workload runs (optimize's seed bank), so it and
# verify's 24-seed stability groups step no padding row; 16-row blocks left
# 12 of optimize's 16 rows padding.
BLOCK = 4

# Blocks per kernel pass: one Python step loop serves up to STACK * BLOCK
# paths.  Per-step overhead, not arithmetic, sets the cost of a narrow pass;
# past 64 rows the gain per path-step is under a tenth (the sweep is in the
# README's time-stepping section), while 128 rows would add about 6 MB of
# work arrays to the 53 MB peak of a 200-path `slipflow verify` at n = 16.
STACK = 16

# Basis size from which the kernel evaluates the convection pseudospectrally
# (`Convection`) instead of through the dense tensor.  Per step of a
# 16-path pass of 4-row blocks with the workloads' 2-column control (modes_x =
# 8, nodes_y = 24, BLAS on one thread, four rounds, a 2-vCPU host), dense /
# pseudospectral ms: n = 40 0.09-0.12 / 0.22-0.34, 48 0.14-0.17 / 0.22-0.25,
# 52 0.17-0.21 / 0.23-0.27, 56 0.22-0.25 / 0.22-0.23, 60 0.28-0.30 /
# 0.22-0.24, 64 0.80-0.95 / 0.22-0.27, 72 1.09-1.22 / 0.25-0.39, and
# 0.012-0.030 s of dense assembly.  They cross near n = 54-56; on the grid's
# 32 x-nodes, with the products in one strided buffer, the pseudospectral
# step took 0.26-0.28 ms from n = 48 to 60 and they crossed near 58-60.
# From n = 64 on, 4-row blocks slow the dense step (each block reads all of
# T, 2.2 MB).  N_PS stays 60: moving it changes the path, and so the bits,
# of every size in between, for at most 0.06 ms a step.
N_PS = 60

# Squared coefficient norm past which a path counts as blown up.  run_many
# reads it at call time.
BLOWUP_LIMIT = 1e12


def _em_block(beta0, ops: GalerkinOperators, conv: Convection | DenseConvection | None,
              nu, dt, gamma, gamma_dot, groups, add, rho, dw, work):
    """Euler-Maruyama over W = k BLOCK paths in one loop, in contiguous row
    groups that each share one control: (history, beta_final, blowup_step).

    beta0 is (W, n) and dw (W, n_steps, m).  gamma and gamma_dot are (C, L,
    n_ctrl), the values and slopes of C controls on the time grid (a
    stack's `series`), and groups C row slices covering the W rows in
    order: the rows of groups[c] run under control c.  The convection takes
    the (k, BLOCK, .) view of the rows, k BLOCK-row products, so a row's
    bits do not depend on k; the step's other operations are per row.
    work (2, n_steps + 1, W, n) holds the kernel's large arrays and is
    overwritten: the per-step pushes, spent when the loop ends, and the
    history (n_steps + 1, W, n), returned, whose rows hold each step's decay
    factor until the step scales it by the state.
    The pushes are each path's additive noise, one (W, m) x (m, n) GEMM per
    step, plus its group's control drift: `drift` at beta = 0 on the group's
    own (L, n_ctrl) series, one call per group with a one-control pass's
    bits.  The multiplicative noise is one mat-vec per path, dw @ rho, added
    across the decay rows.  Of the evaluator's contract (`restricted`, a
    call on the rows (beta, gamma[active]), and `stacked`, the reference of
    `drift`) the kernel uses the first two: the convection, the terms of
    gamma alone included, is a call of `conv.restricted(active)` on the rows
    z of the block, active the columns not 0 at every node of some group's
    control; a column that a group does not use adds exact zeros to its
    rows' sums, a zero control has no active column, and conv None is a
    linear run.  The rows hold sqrt(dt) (beta, gamma[active]): the
    convection is quadratic in them, so the call returns dt times it.  A
    step writes the control columns of all rows in one assignment from an
    (n_steps, W, |active|) array scaled before the loop.
    Every step runs every row, each product row by row, so a blown-up row
    runs on, nonfinite, without touching the others.  After the loop a
    path's abort step is the first whose squared norm is not finite or
    passes BLOWUP_LIMIT, read at call time; its final state is the offending
    one and its history is zero from that step on.
    """
    w_rows, n = beta0.shape
    n_steps = dw.shape[1]
    # the convection carries only the control columns that are not 0 at
    # every node of some group's control
    active = np.flatnonzero(gamma.any(axis=(0, 1)))
    n_a, g_a = active.size, gamma[:, :, active]
    if conv is not None:
        conv = conv.restricted(active)
    push, hist = work[0, :n_steps], work[1]
    # each path's additive noise, then its group's drift per step, dt (the
    # linear drift at beta = 0; the convection's rows carry the control)
    np.matmul(dw.transpose(1, 0, 2), add.T, out=push)
    for g, g_dot, cut in zip(gamma, gamma_dot, groups):
        d = drift(np.zeros(n), ops, nu, g, g_dot, None)
        d *= dt
        push[:, cut] += d[:n_steps, None, :]
    # decay and multiplicative noise, in the history row each one scales into
    hist[0] = beta0
    hist[1:] = 1.0 - dt * nu * ops.lam
    hist[1:] += (dw @ rho).T[:, :, None]
    sqrt_dt = np.sqrt(dt)
    rows = np.zeros((w_rows, n + n_a))                 # sqrt(dt) (beta, gamma[active]) per path
    beta_rows, ctrl_cols = rows[:, :n], rows[:, n:]
    stacked = rows.reshape(-1, BLOCK, n + n_a)               # the same rows, block by block
    cols = repeat(None)                        # the rows' control columns per step, if read
    if conv is not None:
        cols = np.repeat(g_a[:, :n_steps].swapaxes(0, 1),
                         [c.stop - c.start for c in groups], axis=1)
        cols *= sqrt_dt
    with np.errstate(over="ignore", invalid="ignore"):
        for b, step, p, c in zip(hist, hist[1:], push, cols):
            step *= b
            step += p
            if conv is not None:
                np.multiply(b, sqrt_dt, out=beta_rows)
                ctrl_cols[...] = c
                step -= conv(stacked)
        if conv is not None:
            conv._scratch = np.empty(0)       # its scratch array lives for the pass
        # each step's squared norms, into the spent pushes; a nonfinite norm
        # fails `<= limit` even for an infinite BLOWUP_LIMIT
        norms = np.vecdot(hist[1:], hist[1:], out=push[..., 0])
        bad = ~(norms <= min(BLOWUP_LIMIT, np.finfo(float).max))
    blown = bad.any(axis=0)
    blowup_step = np.where(blown, bad.argmax(axis=0) + 1, -1)
    beta_final = hist[np.where(blown, blowup_step, n_steps), np.arange(w_rows)]
    for w in np.flatnonzero(blown):
        hist[blowup_step[w]:, w] = 0.0
    return hist, beta_final, blowup_step


def _measure(out: Paths, cut: slice, groups: list, hist, ops: GalerkinOperators, gamma, target,
             add, rho, buf):
    """Write u_sq, u_esq, tracking and noise_sq of the paths out[cut] from the
    first rows of a pass's history hist (n_steps + 1, W, n), whose row groups
    ran under the control values gamma (C, L, n_ctrl).

    tracking is |y - y_ref|^2 against the target's series, |y|^2 without one,
    formed by `y_sq` on each group's rows with its control; the other series
    take all the rows at once.  buf, scratch of the history's shape, holds
    the differences from a target; without one the history and gamma are
    their own.  A blown-up path's series are NaN from its blowup step on.
    """
    k = cut.stop - cut.start
    # (paths, times, n) views of the (times, W, n) layout; einsum follows it
    h, buf = (a[:, :k].transpose(1, 0, 2) for a in (hist, buf))
    out.u_sq[cut] = np.einsum("...i,...i->...", h, h)
    out.u_esq[cut] = np.einsum("...i,...i,i->...", h, h, ops.lam)
    diff = h if target is None else np.subtract(h, target.beta_series, out=buf)
    tracking = out.tracking[cut]
    for g, rows in zip(gamma, groups):
        rows = slice(rows.start, min(rows.stop, k))
        tracking[rows] = ops.y_sq(diff[rows], g if target is None else g - target.gamma_series)
    # sum_k |rho_k h + g_k|^2 expanded: rho_k is a scalar and |h|^2 is u_sq
    out.noise_sq[cut] = ((rho @ rho) * out.u_sq[cut] + 2.0 * np.einsum("...i,i->...", h, add @ rho)
                         + np.einsum("ik,ik->", add, add))
    step, length = out.blowup_step[cut], h.shape[1]
    past = np.arange(length) >= np.where(step < 0, length, step)[:, None]
    for series in (out.u_sq, out.u_esq, out.tracking, out.noise_sq):
        series[cut][past] = np.nan


class Simulator:
    """Bundles the assembled operators with a time grid and noise model.

    `convection` is the kernel's one evaluator, `ops.convection`, shared
    with `step_em` and every simulator on the same `ops`.  A kernel pass
    reads its rows for the control's active columns only.  A linear run
    (include_nonlinear False) has none and builds none.
    """

    def __init__(self, basis: Basis, cache: LiftingCache, noise: NoiseModel,
                 t_final: float, dt: float, include_nonlinear: bool = True,
                 ops: GalerkinOperators | None = None):
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
        self.ops = assemble_operators(basis, cache) if ops is None else ops
        # the kernel's large arrays, reused by every call: fresh ones would be
        # new pages, faulted in on every call.  Sized for the widest pass; a
        # pass of k blocks views the head it needs and touches nothing past
        # it (but for the rest of a 2 MB huge page, where the OS backs the
        # buffer with them)
        self._work = np.empty(2 * (n_steps + 1) * STACK * BLOCK * basis.size)
        self.convection = self.ops.convection if include_nonlinear else None

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

    def gamma_series(self, ctrl: BoundaryControl):
        """Control values and slopes on the time grid, (C, L, n_ctrl) each for
        a stack of C controls."""
        if ctrl.n_modes != self.cache.n_modes:
            raise DynamicsError("control does not match the lifting cache")
        if not ctrl.covers(self.t_final):
            raise DynamicsError("control horizon shorter than the simulation")
        return ctrl.series(self.times)

    def _simulate(self, seeds: list, ctrl: BoundaryControl, u0: np.ndarray | None = None,
                  noise_on: bool = True, store_beta: bool = False, target=None,
                  dw: np.ndarray | None = None, keep_wiener: bool = False) -> Paths:
        """`run_many`'s work: check the options, allocate the result once, and
        let each pass of k = ceil(rows / BLOCK) blocks, the last one padded,
        write its rows of it, copied out of the kernel's work buffer."""
        n, m, n_steps, size = self.ops.n, self.noise.m, self.n_steps, len(seeds)
        gamma, gdot = self.gamma_series(ctrl)
        gamma, gdot = (a.reshape((-1,) + a.shape[-2:]) for a in (gamma, gdot))   # (C, L, n_ctrl)
        count = size * len(gamma)
        if dw is not None:
            dw = np.asarray(dw, float)
            if dw.shape != (size, n_steps, m):
                raise DynamicsError("dw must be a (seeds, n_steps, m) stack of increments")
        beta0 = np.zeros(n) if u0 is None else np.asarray(u0, float).copy()
        if beta0.shape != (n,):
            raise DynamicsError("initial coefficients do not match the basis size")
        if target is not None and target.beta_series.shape != (n_steps + 1, n):
            raise DynamicsError("target does not match the simulation grid")
        add, rho = self.noise.additive, self.noise.mult_gain
        if not noise_on:
            add, rho = np.zeros_like(add), np.zeros_like(rho)
        out = Paths(np.array(seeds * len(gamma), dtype=object), self.times.copy(), beta0,
                    np.empty((count, n)), *np.empty((4, count, n_steps + 1)),
                    blowup_step=np.empty(count, int),
                    beta_series=np.empty((count, n_steps + 1, n)) if store_beta else None,
                    wiener=np.empty((count, n_steps, m)) if keep_wiener else None,
                    hint=self.blowup_hint())
        for lo in range(0, count, STACK * BLOCK):
            cut = slice(lo, min(lo + STACK * BLOCK, count))
            k = cut.stop - lo
            w_rows = -(-k // BLOCK) * BLOCK
            b0 = np.zeros((w_rows, n))
            b0[:k] = beta0
            inc = np.zeros((w_rows, n_steps, m))      # padding rows: no noise
            if noise_on:      # row r takes seed r mod size: each seed the pass needs, once
                need = (lo + np.arange(min(k, size))) % size
                drawn = self.increments([seeds[j] for j in need]) if dw is None else dw[need]
                np.take(drawn, np.arange(k), axis=0, mode="wrap", out=inc[:k])
            # the pass's rows of the controls' seed groups, padding with the last
            first, last = lo // size, (cut.stop - 1) // size + 1
            edges = [0, *range((first + 1) * size - lo, k, size), w_rows]
            groups = [slice(a, b) for a, b in zip(edges, edges[1:])]
            work = self._work[: 2 * (n_steps + 1) * w_rows * n].reshape(2, n_steps + 1, w_rows, n)
            hist, beta_final, blow = _em_block(b0, self.ops, self.convection, self.nu, self.dt,
                                               gamma[first:last], gdot[first:last], groups,
                                               add, rho, inc, work)
            out.beta_final[cut], out.blowup_step[cut] = beta_final[:k], blow[:k]
            _measure(out, cut, groups, hist, self.ops, gamma[first:last], target, add, rho,
                     work[0])
            if store_beta:                            # hist views the work buffer
                out.beta_series[cut] = hist[:, :k].transpose(1, 0, 2)
            if keep_wiener:
                out.wiener[cut] = inc[:k]
        return out

    def increments(self, seeds) -> np.ndarray:
        """The (len(seeds), n_steps, m) stack of the seeds' Wiener increments,
        the ones run_many draws; a caller that runs one seed bank many times
        draws it once and passes it as dw."""
        out = np.empty((len(seeds), self.n_steps, self.noise.m))
        for row, seed in zip(out, seeds):
            row[...] = wiener_increments(seed, self.n_steps, self.noise.m, self.dt)
        return out

    def run(self, seed: int = 0, *, ctrl: BoundaryControl, **kw) -> Trajectory:
        """One path as a `Trajectory`, bitwise equal to its run_many path; the
        options are run_many's, and dw, if given, is a (1, n_steps, m) stack."""
        return self._simulate([int(seed)], ctrl, **kw)[0]

    def run_many(self, seeds, *, ctrl: BoundaryControl, **kw) -> Paths:
        """Paths for many seeds, one kernel pass per STACK * BLOCK of them.

        Each pass steps up to STACK blocks of BLOCK seeds in one loop, the
        last block of the run padded; a seed's path is the same bits as in a
        one-block pass.  The result's arrays are its own: a later call leaves
        them as they are.  ctrl is the boundary control, the zero control for
        an uncontrolled run, or a stack of C controls: then the result is C
        contiguous groups of len(seeds) paths, group c every seed under
        ctrl[c], each path the same bits as in a run of the seeds under that
        control alone.  dw, if given, is a (len(seeds), n_steps, m) stack that
        every group runs: path w of a group is driven by dw[w] instead of its
        seed's increments.
        Options: u0, noise_on, store_beta (keep beta_series), target (of the
        tracking series), dw and keep_wiener (keep the increments).
        """
        return self._simulate([int(s) for s in seeds], ctrl, **kw)
