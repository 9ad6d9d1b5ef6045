"""Numerical certification of the weighted energy and stability estimates.

Every bound is checked the same way: Monte Carlo surrogates of both sides
are computed from simulated paths, the fitted constant is their ratio, and
a bootstrap over paths provides a confidence interval.  Expectations are
plain path means, `sup over [0, t]` is the max over the time grid, and time
integrals are trapezoidal.

The exponential damping weight is

    w(t) = exp(-c0 * t - c0 * int_0^t ||(a, b)||^2 ds)

built from the control trace-norm series; it is 1 at t = 0, nonincreasing,
and strictly positive.  The stability check between two solution bundles
uses the pathwise weight exp(-int f1) with
f1 = c3 + max(3 c0, c2) * (1 + combined squared trace norms + energy norm
of the first solution), mirroring the damping that closes the two-solution
energy balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GalerkinOperators, InsufficientPathsError, Simulator, Trajectory, drift
from .lifting import BoundaryControl, trace_norm_series

__all__ = [
    "WeightSeries",
    "EstimateReport",
    "energy_weight",
    "certify_second_moment",
    "certify_fourth_moment",
    "certify_stability",
    "certify_wellposed_cost",
    "empirical_damping_rate",
    "bootstrap_ci",
]


@dataclass(eq=False)
class WeightSeries:
    """Exponential damping weight and the control load series on a time grid."""

    kind: str                   # "energy" (control-only) or "stability" (pathwise)
    times: np.ndarray
    values: np.ndarray          # weight in (0, 1]
    trace_sq: np.ndarray        # squared trace-norm series of the control
    load2: np.ndarray           # trace_sq + 1
    load4: np.ndarray           # trace_sq^2 + 1
    c0: float

    def __post_init__(self):
        v = self.values
        if v[0] != 1.0 or (np.diff(v) > 1e-12).any() or (v <= 0).any():
            raise ValueError("weight must start at 1, be nonincreasing and positive")


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def energy_weight(ctrl: BoundaryControl | None, c0: float, times: np.ndarray) -> WeightSeries:
    """Damping weight exp(-c0 t - c0 int ||(a,b)||^2) on the given time grid."""
    times = np.asarray(times, float)
    if ctrl is None:
        tn2 = np.zeros_like(times)
    else:
        tn2 = trace_norm_series(ctrl, times) ** 2
    expo = c0 * times + c0 * _cumtrapz(tn2, times)
    return WeightSeries(
        kind="energy",
        times=times,
        values=np.exp(-expo),
        trace_sq=tn2,
        load2=tn2 + 1.0,
        load4=tn2**2 + 1.0,
        c0=c0,
    )


@dataclass
class EstimateReport:
    """Fitted constant of one inequality with its Monte Carlo context."""

    name: str
    lhs: float
    rhs: float
    fitted_c: float
    ci_low: float
    ci_high: float
    n_paths: int
    n_excluded: int
    details: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.fitted_c))


def bootstrap_ci(stat, n: int, seed, n_boot: int = 200) -> tuple:
    """2.5/97.5 percentile interval of stat(idx) over path resamples.

    Each of the n_boot resamples idx draws n path indices with replacement
    from a generator seeded by `seed`.
    """
    rng = np.random.default_rng(seed)
    stats = np.array([stat(rng.integers(0, n, size=n)) for _ in range(n_boot)])
    return float(np.quantile(stats, 0.025)), float(np.quantile(stats, 0.975))


def _ratio_ci(per_path_lhs, per_path_rhs, rhs_const: float, seed: int) -> tuple:
    """Percentile CI of the fitted constant under path resampling."""
    lhs = np.asarray(per_path_lhs, float)
    rhs = np.asarray(per_path_rhs, float)

    def ratio(idx):
        num = lhs[idx].mean()
        den = rhs[idx].mean() + rhs_const
        if den > 0:
            return num / den
        return 0.0 if num == 0 else np.inf

    return bootstrap_ci(ratio, lhs.size, np.random.SeedSequence([0xB001, seed]))


def _usable(trajectories) -> tuple[list, int]:
    good = [tr for tr in trajectories if not tr.blown_up]
    if not good:
        raise InsufficientPathsError(f"no usable path among {len(trajectories)}")
    return good, len(trajectories) - len(good)


def certify_second_moment(trajectories, ctrl: BoundaryControl | None, c0: float,
                          nu: float, seed: int = 0) -> EstimateReport:
    """Fitted constant of the weighted second-moment energy bound.

    LHS: E max_t w^2 |u|^2 + nu E int w^2 |u|_E^2.
    RHS: E |u(0)|^2 + int w^2 (trace^2 + 1).
    """
    good, excluded = _usable(trajectories)
    t = good[0].times
    w = energy_weight(ctrl, c0, t)
    w2 = w.values**2
    lhs_paths = np.array(
        [
            np.max(w2 * tr.u_sq) + nu * np.trapezoid(w2 * tr.u_esq, t)
            for tr in good
        ]
    )
    rhs_paths = np.array([tr.u_sq[0] for tr in good])
    rhs_const = float(np.trapezoid(w2 * w.load2, t))
    lhs = float(lhs_paths.mean())
    rhs = float(rhs_paths.mean()) + rhs_const
    lo, hi = _ratio_ci(lhs_paths, rhs_paths, rhs_const, seed)
    return EstimateReport(
        name="second_moment",
        lhs=lhs,
        rhs=rhs,
        fitted_c=lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
        ci_low=lo,
        ci_high=hi,
        n_paths=len(good),
        n_excluded=excluded,
        details={"c0": c0, "nu": nu},
    )


def _initial_full_sq(tr: Trajectory, ops: GalerkinOperators, gamma0: np.ndarray) -> float:
    b0 = tr.beta0
    return float(
        b0 @ b0 + 2.0 * b0 @ (ops.lift_h @ gamma0) + gamma0 @ (ops.gram_h @ gamma0)
    )


def certify_fourth_moment(trajectories, ctrl: BoundaryControl | None, c0: float,
                          nu: float, ops: GalerkinOperators | None = None,
                          seed: int = 0) -> EstimateReport:
    """Fitted constant of the weighted fourth-moment bound.

    LHS: E max_t w^4 |u|^4 + nu^2 E (int w^2 |u|_E^2)^2.
    RHS: E |y(0)|^4 + nu^2 int w^4 (trace^4 + 1); with no lifting data the
    initial term falls back to |u(0)|^4.
    """
    good, excluded = _usable(trajectories)
    t = good[0].times
    w = energy_weight(ctrl, c0, t)
    w2, w4 = w.values**2, w.values**4
    lhs_paths = np.array(
        [
            np.max(w4 * tr.u_sq**2) + nu**2 * np.trapezoid(w2 * tr.u_esq, t) ** 2
            for tr in good
        ]
    )
    if ops is not None and ctrl is not None:
        gamma0, _ = ctrl.interp(0.0)
        rhs_paths = np.array([_initial_full_sq(tr, ops, gamma0) ** 2 for tr in good])
    else:
        rhs_paths = np.array([tr.u_sq[0] ** 2 for tr in good])
    rhs_const = float(nu**2 * np.trapezoid(w4 * w.load4, t))
    lhs = float(lhs_paths.mean())
    rhs = float(rhs_paths.mean()) + rhs_const
    lo, hi = _ratio_ci(lhs_paths, rhs_paths, rhs_const, seed)
    return EstimateReport(
        name="fourth_moment",
        lhs=lhs,
        rhs=rhs,
        fitted_c=lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
        ci_low=lo,
        ci_high=hi,
        n_paths=len(good),
        n_excluded=excluded,
        details={"c0": c0, "nu": nu},
    )


def certify_stability(trajs_1, ctrl_1, trajs_2, ctrl_2, ops: GalerkinOperators,
                      c0: float, nu: float, c2: float = 1.0, c3: float = 0.0,
                      seed: int = 0) -> EstimateReport:
    """Fitted constant of the two-solution stability bound under common noise.

    Paths are paired by position (they must share Wiener increments).  The
    difference field yhat = (u1 - u2) + (lift1 - lift2) is measured in the
    pathwise-weighted mass and energy norms; the right side carries the
    squared trace norm of the control difference plus the initial gap.
    """
    if len(trajs_1) != len(trajs_2):
        raise ValueError("bundles must pair path for path")
    pairs = [(a, b) for a, b in zip(trajs_1, trajs_2) if not (a.blown_up or b.blown_up)]
    if not pairs:
        raise InsufficientPathsError(f"no usable path pair among {len(trajs_1)}")
    t = pairs[0][0].times
    zero = np.zeros((len(t), ops.n_ctrl))
    g1 = zero if ctrl_1 is None else ctrl_1.series(t)[0]
    g2 = zero if ctrl_2 is None else ctrl_2.series(t)[0]
    ghat = g1 - g2

    tn1 = np.zeros(len(t)) if ctrl_1 is None else trace_norm_series(ctrl_1, t)
    tn2 = np.zeros(len(t)) if ctrl_2 is None else trace_norm_series(ctrl_2, t)
    dctrl = _diff_control(ctrl_1, ctrl_2)
    tnd = np.zeros(len(t)) if dctrl is None else trace_norm_series(dctrl, t)

    lhs_paths, rhs_paths = [], []
    for tr1, tr2 in pairs:
        if tr1.seed != tr2.seed:
            raise ValueError("paired paths must share seeds")
        if tr1.beta_series is None or tr2.beta_series is None:
            raise ValueError("stability needs trajectories with stored coefficients")
        bhat = tr1.beta_series - tr2.beta_series
        yhat_sq = (
            np.einsum("li,li->l", bhat, bhat)
            + 2.0 * np.einsum("li,li->l", bhat, ghat @ ops.lift_h.T)
            + np.einsum("lc,lc->l", ghat, ghat @ ops.gram_h.T)
        )
        yhat_esq = (
            np.einsum("li,li,i->l", bhat, bhat, ops.lam)
            + 2.0 * np.einsum("li,li->l", bhat, ghat @ ops.lift_v.T)
            + np.einsum("lc,lc->l", ghat, ghat @ ops.gram_v.T)
        )
        f1 = c3 + max(3.0 * c0, c2) * (1.0 + tn1**2 + tn2**2 + tr1.u_esq)
        xi = np.exp(-_cumtrapz(f1, t))
        lhs_paths.append(np.max(xi**2 * yhat_sq) + 2.0 * nu * np.trapezoid(xi**2 * yhat_esq, t))
        rhs_paths.append(yhat_sq[0] + np.trapezoid(xi**2 * tnd**2, t))
    lhs_paths = np.asarray(lhs_paths)
    rhs_paths = np.asarray(rhs_paths)
    lhs = float(lhs_paths.mean())
    rhs = float(rhs_paths.mean())
    lo, hi = _ratio_ci(lhs_paths, rhs_paths, 0.0, seed)
    if rhs > 0:
        fitted = lhs / rhs
    else:
        fitted = 0.0 if lhs <= 1e-24 else np.inf
    return EstimateReport(
        name="stability",
        lhs=lhs,
        rhs=rhs,
        fitted_c=fitted,
        ci_low=lo,
        ci_high=hi,
        n_paths=lhs_paths.size,
        n_excluded=len(trajs_1) - lhs_paths.size,
        details={"c0": c0, "c2": c2, "c3": c3, "nu": nu},
    )


def _diff_control(c1: BoundaryControl | None, c2: BoundaryControl | None):
    if c1 is None and c2 is None:
        return None
    base = c1 if c1 is not None else c2
    out = base.copy()
    if c1 is not None and c2 is not None:
        if c1.t_grid.shape != c2.t_grid.shape or not np.allclose(c1.t_grid, c2.t_grid):
            raise ValueError("controls must share a time grid for differencing")
        out.gamma = c1.gamma - c2.gamma
    elif c1 is None:
        out.gamma = -out.gamma
    return out


def certify_wellposed_cost(trajectories, ctrl: BoundaryControl | None, c0: float,
                           seed: int = 0) -> EstimateReport:
    """Sample-exact chain bounding the unweighted second moment.

    Pathwise, max_t |u|^2 <= max_t (w^2 |u|^2) * w(T)^-2 because the weight
    is nonincreasing; averaging and one Cauchy-Schwarz give

        E max |u|^2 <= sqrt(E max (w^2 |u|^2)^2) * w(T)^-2,

    which holds on every empirical sample.  With deterministic controls the
    weight is deterministic, so the exponential factor is a plain number.
    """
    good, excluded = _usable(trajectories)
    t = good[0].times
    w = energy_weight(ctrl, c0, t)
    w2 = w.values**2
    lhs_paths = np.array([np.max(tr.u_sq) for tr in good])
    wx_paths = np.array([np.max(w2 * tr.u_sq) for tr in good])
    lhs = float(lhs_paths.mean())
    rhs = float(np.sqrt(np.mean(wx_paths**2)) / w.values[-1] ** 2)
    lo, hi = _ratio_ci(lhs_paths, wx_paths * 0.0, rhs, seed)
    return EstimateReport(
        name="wellposed_cost",
        lhs=lhs,
        rhs=rhs,
        fitted_c=lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
        ci_low=lo,
        ci_high=hi,
        n_paths=len(good),
        n_excluded=excluded,
        details={
            "c0": c0,
            "weight_at_horizon": float(w.values[-1]),
            "holds_exactly": bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300),
        },
    )


def empirical_damping_rate(trajectories, ctrl: BoundaryControl | None,
                           sim: Simulator) -> float:
    """Smallest rate c closing the drift-side bound along the sampled paths.

    The one-step energy balance reads d|u|^2 + 2 nu |u|_E^2 dt = (I1 + I2
    + I3) dt + martingale, where I1 collects the lifted-field energy
    coupling and the wall terms, I2 the time-derivative and convective
    couplings against u, and I3 the squared noise magnitude.  Their sum
    equals 2 beta . drift + 2 nu |u|_E^2 + I3 exactly, with the drift the
    simulator integrated (convection included only if it was), which is how
    it is evaluated here; the reported value is the max over paths and
    times of (I1 + I2 + I3) / (2 (trace^2 + 1)(|u|^2 + 1)).  Needs stored
    coefficient series.
    """
    ops, nu, t = sim.ops, sim.nu, sim.times
    gam, gdot = sim.gamma_series(ctrl)
    tn = np.zeros(len(t)) if ctrl is None else trace_norm_series(ctrl, t)
    load = tn**2 + 1.0
    worst = -np.inf
    for tr in trajectories:
        if tr.blown_up or tr.beta_series is None:
            continue
        b = tr.beta_series
        total = np.empty(len(t))
        for ell in range(len(t)):
            f = drift(b[ell], ops, nu, gam[ell], gdot[ell], sim.include_nonlinear)
            total[ell] = 2.0 * b[ell] @ f + 2.0 * nu * (ops.lam @ b[ell] ** 2)
        total += tr.noise_sq
        denom = 2.0 * load * (tr.u_sq + 1.0)
        worst = max(worst, float(np.max(total / denom)))
    return worst
