"""Boundary velocity-tracking control: admissible set, cost, optimizer.

The decision variable is a compatible boundary-control coefficient vector
restricted to a ball: the admissible set is the compatible subspace
intersected with { ||(a,b)||_{L2(0,T; trace norm)} <= radius }, a compact
set in which every point satisfies the exponential-integrability surrogate
exp(4 c0 radius^2) deterministically, because controls here carry
deterministic coefficients.

The cost is the Monte Carlo tracking error of y = u + lift against a target
field plus a deterministic wall penalty on (a, b).  Common random numbers
(a frozen seed bank) make the cost a deterministic function of the control,
so the optimizer's accepted iterates are exactly nonincreasing.  Two
derivative-free methods are provided: a compass (coordinate pattern) search
and simultaneous-perturbation descent, both projected onto the admissible
set at every candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import bootstrap_ci
from .dynamics import BlowupError, Simulator
from .lifting import BoundaryControl, project_compatible, trace_norm_series, wall_norm_sq

__all__ = [
    "ControlError",
    "AdmissibleSpec",
    "CostReport",
    "Target",
    "ParamMap",
    "admissible_norm",
    "project_admissible",
    "estimate_cost",
    "make_target",
    "optimize",
]


class ControlError(RuntimeError):
    """Invalid control-problem setup."""


@dataclass(frozen=True)
class AdmissibleSpec:
    """Compact admissible family of boundary controls."""

    radius: float            # bound on the time-integrated trace norm
    lambda1: float = 1.0     # wall penalty weight on a
    lambda2: float = 1.0     # wall penalty weight on b
    p: float = 4.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ControlError("radius must be positive")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ControlError("penalty weights must be positive")


def admissible_norm(ctrl: BoundaryControl) -> float:
    """sqrt of the time integral of the squared trace norm over the horizon."""
    tn = trace_norm_series(ctrl, ctrl.t_grid)
    if ctrl.t_grid.size == 1:
        return float(tn[0])
    return float(np.sqrt(np.trapezoid(tn**2, ctrl.t_grid)))


def project_admissible(ctrl: BoundaryControl, spec: AdmissibleSpec) -> BoundaryControl:
    """Compatibility projection followed by radial scaling into the norm ball."""
    out = project_compatible(ctrl)
    nrm = admissible_norm(out)
    if nrm > spec.radius:
        out.gamma *= spec.radius / nrm
    return out


def exponential_integrability_bound(ctrl: BoundaryControl, c0: float) -> float:
    """Deterministic value of exp(4 c0 int ||(a,b)||^2); finite on the ball."""
    return float(np.exp(4.0 * c0 * admissible_norm(ctrl) ** 2))


@dataclass
class CostReport:
    total: float
    tracking: float
    penalty: float
    ci_half_width: float
    paths_used: int
    blowup_count: int


@dataclass(eq=False)
class Target:
    """Reference space-time field in simulation coordinates."""

    times: np.ndarray
    beta_series: np.ndarray    # (n_steps + 1, n)
    gamma_series: np.ndarray   # (n_steps + 1, n_ctrl)
    meta: dict = field(default_factory=dict)

    def save(self, path):
        np.savez(
            path,
            times=self.times,
            beta_series=self.beta_series,
            gamma_series=self.gamma_series,
            meta=np.array(json.dumps(self.meta, sort_keys=True)),
        )

    @classmethod
    def load(cls, path) -> "Target":
        with np.load(path) as data:
            return cls(
                times=data["times"],
                beta_series=data["beta_series"],
                gamma_series=data["gamma_series"],
                meta=json.loads(str(data["meta"])),
            )

    @classmethod
    def zero(cls, sim: Simulator) -> "Target":
        n_l = sim.n_steps + 1
        return cls(
            times=sim.times.copy(),
            beta_series=np.zeros((n_l, sim.ops.n)),
            gamma_series=np.zeros((n_l, sim.ops.n_ctrl)),
            meta={"kind": "zero"},
        )


def make_target(ctrl_star: BoundaryControl | None, sim: Simulator,
                u0: np.ndarray | None = None, meta: dict | None = None) -> Target:
    """Reference field from a noise-free simulation under the given control."""
    tr = sim.run(seed=0, ctrl=ctrl_star, u0=u0, noise_on=False, store_beta=True)
    if tr.blown_up:
        raise BlowupError("target simulation blew up" + sim.blowup_hint())
    gamma, _ = sim.gamma_series(ctrl_star)
    return Target(
        times=sim.times.copy(),
        beta_series=tr.beta_series,
        gamma_series=gamma,
        meta=meta or {},
    )


def penalty_term(ctrl: BoundaryControl, spec: AdmissibleSpec) -> float:
    """Exact wall penalty int_0^T int_Gamma (l1/2 a^2 + l2/2 b^2).

    Coefficients are piecewise linear in time, so the squared wall norm is
    piecewise quadratic and Simpson per segment integrates it exactly.
    """
    tg, g = ctrl.t_grid, ctrl.gamma
    if tg.size == 1:
        raise ControlError("penalty needs a time horizon (t_grid of length >= 2)")
    # (start, mid, end) rows of every segment
    tab = ctrl.coeffs(np.stack([g[:-1], 0.5 * (g[:-1] + g[1:]), g[1:]]))
    a0, am, a1 = wall_norm_sq(tab[..., :2, :], 0.0, ctrl.length_x)
    b0, bm, b1 = wall_norm_sq(tab[..., 2:, :], 0.0, ctrl.length_x)
    h = np.diff(tg)
    ia = h / 6.0 * (a0 + 4.0 * am + a1)
    ib = h / 6.0 * (b0 + 4.0 * bm + b1)
    return float(np.sum(0.5 * spec.lambda1 * ia + 0.5 * spec.lambda2 * ib))


def estimate_cost(ctrl: BoundaryControl | None, target: Target, sim: Simulator,
                  spec: AdmissibleSpec, seeds, u0: np.ndarray | None = None,
                  noise_on: bool = True, threads: int = 1) -> CostReport:
    """Monte Carlo tracking cost plus exact penalty under the given seed bank."""
    seeds = list(seeds)
    if not seeds:
        raise ControlError("empty seed bank")
    trajs = sim.run_many(
        seeds, ctrl=ctrl, u0=u0, noise_on=noise_on, target=target, threads=threads
    )
    good = [tr.tracking for tr in sim.usable(trajs)]
    per_path = 0.5 * np.trapezoid(np.stack(good), sim.times, axis=-1)
    tracking = float(per_path.mean())
    pen = 0.0 if ctrl is None else penalty_term(ctrl, spec)
    if per_path.size > 1:
        lo, hi = bootstrap_ci(lambda idx: per_path[idx].mean(axis=1), per_path.size,
                              np.random.SeedSequence([0xC051, 0]))
        ci = 0.5 * (hi - lo)
    else:
        ci = 0.0
    return CostReport(
        total=tracking + pen,
        tracking=tracking,
        penalty=pen,
        ci_half_width=ci,
        paths_used=per_path.size,
        blowup_count=len(trajs) - len(good),
    )


# -- parametrized controls ----------------------------------------------------


@dataclass(frozen=True)
class ParamMap:
    """Maps a low-dimensional parameter vector onto static control slots.

    Each slot names (kind, wall, mode, part); the parameter value fills that
    coefficient at every control time point.
    """

    length_x: float
    n_modes: int
    t_grid: tuple
    slots: tuple              # tuple of (kind, wall, mode, part)
    p: float = 4.0

    @property
    def dim(self) -> int:
        return len(self.slots)

    def control(self, theta) -> BoundaryControl:
        theta = np.asarray(theta, float)
        if theta.shape != (self.dim,):
            raise ControlError(f"expected {self.dim} parameters")
        ctrl = BoundaryControl.zeros(
            self.length_x, self.n_modes, np.asarray(self.t_grid), self.p
        )
        for val, (kind, wall, mode, part) in zip(theta, self.slots):
            ctrl.gamma[:, ctrl.dof_index(kind, wall, mode, part)] = val
        return ctrl

    def read(self, ctrl: BoundaryControl) -> np.ndarray:
        out = np.empty(self.dim)
        for d, (kind, wall, mode, part) in enumerate(self.slots):
            out[d] = ctrl.gamma[0, ctrl.dof_index(kind, wall, mode, part)]
        return out


@dataclass
class OptimizeHistory:
    method: str
    evaluations: int
    budget: int
    budget_exhausted: bool
    iterates: list = field(default_factory=list)  # accepted iterates only

    def record(self, theta, report: CostReport, ctrl: BoundaryControl, c0: float):
        """Append an accepted iterate with the admissibility bookkeeping of its control."""
        self.iterates.append(
            {
                "iterate": len(self.iterates),
                "theta": [float(v) for v in np.asarray(theta)],
                "cost": report.total,
                "tracking": report.tracking,
                "penalty": report.penalty,
                "ci_half_width": report.ci_half_width,
                "admissible_norm": admissible_norm(ctrl),
                "exp_integrability": exponential_integrability_bound(ctrl, c0),
            }
        )

    @property
    def costs(self) -> np.ndarray:
        return np.array([it["cost"] for it in self.iterates])


def optimize(theta0, pmap: ParamMap, spec: AdmissibleSpec, target: Target,
             sim: Simulator, seeds, budget: int, method: str = "compass",
             u0: np.ndarray | None = None, noise_on: bool = True,
             step0: float = 0.25, step_min: float = 1e-4, threads: int = 1,
             c0: float = 1.0) -> tuple:
    """Projected derivative-free descent with a frozen seed bank.

    `budget` counts cost evaluations.  A candidate replaces the incumbent
    only when its cost is strictly lower, so the accepted-iterate cost
    sequence is nonincreasing by construction; on ties the incumbent stays.
    Returns (best control, history).
    """
    if method not in ("compass", "spsa"):
        raise ControlError(f"unknown optimizer method {method!r}")
    seeds = list(seeds)
    theta = np.asarray(theta0, float).copy()

    def build(th):
        return project_admissible(pmap.control(th), spec)

    def cost(ctrl):
        return estimate_cost(
            ctrl, target, sim, spec, seeds, u0=u0, noise_on=noise_on, threads=threads
        )

    history = OptimizeHistory(method=method, evaluations=0, budget=budget,
                              budget_exhausted=False)
    ctrl_inc = build(theta)
    theta = pmap.read(ctrl_inc)  # projection may rescale the parameters
    if budget < 1:
        return ctrl_inc, history

    rep_inc = cost(ctrl_inc)
    history.evaluations = 1
    history.record(theta, rep_inc, ctrl_inc, c0)

    dim = pmap.dim
    step = step0
    rng = np.random.default_rng(np.random.SeedSequence([0x5B5A, len(seeds), dim]))
    k_spsa = 0

    while history.evaluations < budget and step > step_min:
        improved = False
        if method == "compass":
            for d in range(dim):
                for sgn in (+1.0, -1.0):
                    if history.evaluations >= budget:
                        break
                    cand_theta = theta.copy()
                    cand_theta[d] += sgn * step
                    cand = build(cand_theta)
                    rep = cost(cand)
                    history.evaluations += 1
                    if rep.total < rep_inc.total:
                        theta = pmap.read(cand)
                        ctrl_inc, rep_inc = cand, rep
                        history.record(theta, rep_inc, cand, c0)
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                step *= 0.5
        else:  # spsa
            k_spsa += 1
            ck = step / k_spsa**0.101
            ak = step / k_spsa**0.602
            delta = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            if history.evaluations + 3 > budget:
                history.budget_exhausted = True
                break
            rp = cost(build(theta + ck * delta))
            rm = cost(build(theta - ck * delta))
            history.evaluations += 2
            grad = (rp.total - rm.total) / (2.0 * ck) * (1.0 / delta)
            cand = build(theta - ak * grad)
            rep = cost(cand)
            history.evaluations += 1
            if rep.total < rep_inc.total:
                theta = pmap.read(cand)
                ctrl_inc, rep_inc = cand, rep
                history.record(theta, rep_inc, cand, c0)
            else:
                step *= 0.7
    history.budget_exhausted = history.evaluations >= budget
    return ctrl_inc, history
