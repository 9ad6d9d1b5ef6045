"""Numerical certification of the weighted energy and stability estimates.

Every bound is checked the same way: Monte Carlo surrogates of both sides
are computed from simulated paths, the fitted constant is their ratio, and
a bootstrap over paths provides a confidence interval.  Expectations are
plain path means, `sup over [0, t]` is the max over the time grid, and time
integrals are trapezoidal.  The certifiers read the (paths, times) stacks of
a `dynamics.Paths` and its mask of usable paths, and the bootstrap draws all
its 200 resamples as one (200, n) index matrix, kept for the next call with
the same n and seed: the second-, fourth-moment and well-posed-cost reports
of one bundle draw it once.  Norms of y = u + lift, and of differences of
two such fields, come from `GalerkinOperators.y_sq`, the form of the
kernel's tracking series.

The exponential damping weight is

    w(t) = exp(-c0 * t - c0 * int_0^t ||(a, b)||^2 ds)

built from the control trace-norm series; it is 1 at t = 0, nonincreasing,
and strictly positive.  Every certifier takes a `BoundaryControl`; the
uncontrolled flow is the zero control, whose trace norms are 0.  The
stability check between two solution bundles uses the pathwise weight
exp(-int f1) with f1 = c3 + max(3 c0, c2) * (1 + combined squared trace
norms + energy norm of the first solution), c2 = 1, mirroring the damping
that closes the two-solution energy balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .dynamics import (DynamicsError, GalerkinOperators, InsufficientPathsError, Paths, Simulator,
                       drift)
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

    values: np.ndarray          # weight in (0, 1]
    load2: np.ndarray           # squared trace-norm series of the control + 1
    load4: np.ndarray           # its square + 1

    def __post_init__(self):
        v = self.values
        if v[0] != 1.0 or (np.diff(v) > 1e-12).any() or (v <= 0).any():
            raise DynamicsError(
                "damping weight must start at 1, be nonincreasing and positive "
                "(c0 times the control load is too large: it underflows)"
            )


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis, 0 at t[0]."""
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(t), axis=-1)
    return out


def energy_weight(ctrl: BoundaryControl, c0: float, times: np.ndarray) -> WeightSeries:
    """Damping weight exp(-c0 t - c0 int ||(a,b)||^2) on the given time grid."""
    times = np.asarray(times, float)
    tn2 = trace_norm_series(ctrl, times) ** 2
    expo = c0 * times + c0 * _cumtrapz(tn2, times)
    return WeightSeries(values=np.exp(-expo), load2=tn2 + 1.0, load4=tn2**2 + 1.0)


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


def bootstrap_ci(stat, n: int, seed) -> tuple:
    """2.5/97.5 percentile interval of stat over 200 path resamples.

    The resamples are the rows of one (200, n) matrix of path indices drawn
    with replacement from a generator seeded by `seed` (an int, a tuple of
    ints or a SeedSequence), the same stream as 200 successive draws of n;
    stat maps the matrix to 200 values.
    """
    # stat gathers with intp indices, NumPy's fast path
    stats = np.sort(stat(_resamples(n, seed).astype(np.intp)))
    return _quantile(stats, 0.025), _quantile(stats, 0.975)


@lru_cache(maxsize=1)
def _resamples(n: int, seed) -> np.ndarray:
    """The read-only (200, n) index matrix of `bootstrap_ci`, kept until a call
    with another n or seed (a SeedSequence is its own key, ints their value).
    It is kept in the narrowest unsigned type that holds n: `verify` keeps it
    through its stability runs, where an int64 copy raised `verify_mc`'s
    peak RSS by about 0.3 MB."""
    idx = np.random.default_rng(seed).integers(0, n, size=(200, n)).astype(np.min_scalar_type(n))
    idx.flags.writeable = False
    return idx


def _quantile(stats: np.ndarray, q: float) -> float:
    """np.quantile's linear rule on sorted stats, except that between two equal
    infinite order statistics the bound is that infinity (np.quantile gives
    inf - inf = nan there)."""
    i = int((stats.size - 1) * q)
    if np.isinf(stats[i]) and stats[i] == stats[min(i + 1, stats.size - 1)]:
        return float(stats[i])
    return float(np.quantile(stats, q))


def _ratio(num, den):
    """num / den where den > 0; elsewhere 0 for a zero num and inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, np.divide(num, den), np.where(num == 0, 0.0, np.inf))


def _ratio_ci(lhs: np.ndarray, rhs: np.ndarray, rhs_const: float) -> tuple:
    """Percentile CI of the fitted constant under path resampling."""
    return bootstrap_ci(
        lambda idx: _ratio(lhs[idx].mean(axis=1), rhs[idx].mean(axis=1) + rhs_const),
        lhs.size, (0xB001, 0),
    )


def _report(name, lhs_paths, rhs_paths, rhs_const, total, details) -> EstimateReport:
    """Fitted constant mean(lhs) / (mean(rhs) + rhs_const) with its bootstrap CI;
    the paths of the `total` missing from lhs_paths are the excluded ones."""
    lhs = float(lhs_paths.mean())
    rhs = float(rhs_paths.mean()) + rhs_const
    lo, hi = _ratio_ci(lhs_paths, rhs_paths, rhs_const)
    return EstimateReport(name=name, lhs=lhs, rhs=rhs, fitted_c=float(_ratio(lhs, rhs)),
                          ci_low=lo, ci_high=hi, n_paths=lhs_paths.size,
                          n_excluded=total - lhs_paths.size, details=details)


def certify_second_moment(paths: Paths, ctrl: BoundaryControl, c0: float,
                          nu: float) -> EstimateReport:
    """Fitted constant of the weighted second-moment energy bound.

    LHS: E max_t w^2 |u|^2 + nu E int w^2 |u|_E^2.
    RHS: E |u(0)|^2 + int w^2 (trace^2 + 1).
    """
    ok = paths.usable()
    t, u_sq, u_esq = paths.times, paths.u_sq[ok], paths.u_esq[ok]
    w = energy_weight(ctrl, c0, t)
    w2 = w.values**2
    lhs_paths = np.max(w2 * u_sq, axis=1) + nu * np.trapezoid(w2 * u_esq, t, axis=-1)
    rhs_const = float(np.trapezoid(w2 * w.load2, t))
    return _report("second_moment", lhs_paths, u_sq[:, 0], rhs_const, len(paths),
                   {"c0": c0, "nu": nu})


def certify_fourth_moment(paths: Paths, ctrl: BoundaryControl, c0: float,
                          nu: float, ops: GalerkinOperators) -> EstimateReport:
    """Fitted constant of the weighted fourth-moment bound.

    LHS: E max_t w^4 |u|^4 + nu^2 E (int w^2 |u|_E^2)^2.
    RHS: E |y(0)|^4 + nu^2 int w^4 (trace^4 + 1).
    """
    ok = paths.usable()
    t, u_sq, u_esq = paths.times, paths.u_sq[ok], paths.u_esq[ok]
    w = energy_weight(ctrl, c0, t)
    w2, w4 = w.values**2, w.values**4
    lhs_paths = (np.max(w4 * u_sq**2, axis=1)
                 + nu**2 * np.trapezoid(w2 * u_esq, t, axis=-1) ** 2)
    # |y(0)|^2 = |u(0) + lift(0)|^2, the same on every path
    rhs_paths = np.full(len(u_sq), ops.y_sq(paths.beta0, ctrl.interp(0.0)[0]) ** 2)
    rhs_const = float(nu**2 * np.trapezoid(w4 * w.load4, t))
    return _report("fourth_moment", lhs_paths, rhs_paths, rhs_const, len(paths),
                   {"c0": c0, "nu": nu})


def certify_stability(one: Paths, ctrl_1: BoundaryControl, two: Paths,
                      ctrl_2: BoundaryControl, ops: GalerkinOperators,
                      c0: float, nu: float, c3: float = 0.0) -> EstimateReport:
    """Fitted constant of the two-solution stability bound under common noise.

    Paths are paired by position (they must share Wiener increments).  The
    difference field yhat = (u1 - u2) + (lift1 - lift2) is measured in the
    pathwise-weighted mass and energy norms; the right side carries the
    squared trace norm of the control difference plus the initial gap.
    """
    if len(one) != len(two):
        raise ValueError("bundles must pair path for path")
    ok = ~(one.blown_up | two.blown_up)
    if not ok.any():
        raise InsufficientPathsError(f"no usable path pair among {len(one)}")
    if not (one.seeds == two.seeds).all():
        raise ValueError("paired paths must share seeds")
    if one.beta_series is None or two.beta_series is None:
        raise ValueError("stability needs paths with stored coefficients")
    if ctrl_1.t_grid.shape != ctrl_2.t_grid.shape or not np.allclose(ctrl_1.t_grid, ctrl_2.t_grid):
        raise ValueError("controls must share a time grid for differencing")
    t = one.times
    ghat = ctrl_1.series(t)[0] - ctrl_2.series(t)[0]
    tnd_sq = trace_norm_series(replace(ctrl_1, gamma=ctrl_1.gamma - ctrl_2.gamma), t) ** 2

    bhat = one.beta_series[ok] - two.beta_series[ok]                    # (P, L, n)
    yhat_sq, yhat_esq = ops.y_sq(bhat, ghat), ops.y_sq(bhat, ghat, energy=True)
    load = (1.0 + trace_norm_series(ctrl_1, t) ** 2 + trace_norm_series(ctrl_2, t) ** 2
            + one.u_esq[ok])
    c2 = 1.0
    xi2 = np.exp(-_cumtrapz(c3 + max(3.0 * c0, c2) * load, t)) ** 2
    lhs_paths = np.max(xi2 * yhat_sq, axis=1) + 2.0 * nu * np.trapezoid(xi2 * yhat_esq, t, axis=-1)
    rhs_paths = yhat_sq[:, 0] + np.trapezoid(xi2 * tnd_sq, t, axis=-1)
    rep = _report("stability", lhs_paths, rhs_paths, 0.0, len(one),
                  {"c0": c0, "c2": c2, "c3": c3, "nu": nu})
    if rep.rhs <= 0:
        rep.fitted_c = 0.0 if rep.lhs <= 1e-24 else np.inf
    return rep


def certify_wellposed_cost(paths: Paths, ctrl: BoundaryControl, c0: float) -> EstimateReport:
    """Sample-exact chain bounding the unweighted second moment.

    Pathwise, max_t |u|^2 <= max_t (w^2 |u|^2) * w(T)^-2 because the weight
    is nonincreasing; averaging and one Cauchy-Schwarz give

        E max |u|^2 <= sqrt(E max (w^2 |u|^2)^2) * w(T)^-2,

    which holds on every empirical sample.  With deterministic controls the
    weight is deterministic, so the exponential factor is a plain number.
    """
    ok = paths.usable()
    t, u_sq = paths.times, paths.u_sq[ok]
    w = energy_weight(ctrl, c0, t)
    lhs_paths = np.max(u_sq, axis=1)
    wx_paths = np.max(w.values**2 * u_sq, axis=1)
    rhs = float(np.sqrt(np.mean(wx_paths**2)) / w.values[-1] ** 2)
    rep = _report("wellposed_cost", lhs_paths, np.zeros_like(lhs_paths), rhs, len(paths),
                  {"c0": c0, "weight_at_horizon": float(w.values[-1])})
    rep.details["holds_exactly"] = bool(rep.lhs <= rhs * (1.0 + 1e-12) + 1e-300)
    return rep


def empirical_damping_rate(paths: Paths, ctrl: BoundaryControl, sim: Simulator) -> float:
    """Smallest rate c closing the drift-side bound along the sampled paths.

    The one-step energy balance reads d|u|^2 + 2 nu |u|_E^2 dt = (I1 + I2
    + I3) dt + martingale, where I1 collects the lifted-field energy
    coupling and the wall terms, I2 the time-derivative and convective
    couplings against u, and I3 the squared noise magnitude.  Their sum
    equals 2 beta . drift + 2 nu |u|_E^2 + I3 exactly, with the drift the
    simulator integrated (convection included only if it was), which is how
    it is evaluated here, for all usable paths and times at once; the
    reported value is the max over paths and times of
    (I1 + I2 + I3) / (2 (trace^2 + 1)(|u|^2 + 1)).  Without stored
    coefficient series or a usable path it is -inf.
    """
    ok = ~paths.blown_up
    if paths.beta_series is None or not ok.any():
        return -np.inf
    ops, nu, t = sim.ops, sim.nu, sim.times
    gam, gdot = sim.gamma_series(ctrl)
    b = paths.beta_series[ok]                                           # (P, L, n)
    f = drift(b, ops, nu, gam, gdot, sim.convection)
    total = 2.0 * np.vecdot(b, f) + 2.0 * nu * np.vecdot(b**2, ops.lam) + paths.noise_sq[ok]
    denom = 2.0 * (trace_norm_series(ctrl, t) ** 2 + 1.0) * (paths.u_sq[ok] + 1.0)
    return float(np.max(total / denom))
