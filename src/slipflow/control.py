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
so the optimizer's accepted iterates are exactly nonincreasing.  The
optimizer is a derivative-free compass (coordinate pattern) search on two
scales, projected onto the admissible set at every candidate: a generating
set search (Kolda, Lewis and Torczon, SIAM Review 45, 2003), whose poll set
holds the positive spanning set +-e_d at the full and at the half step.  It
polls completely: every candidate of a poll is simulated and counts as an
evaluation, and the first improving one in poll order is taken; a poll that
would pass the budget is cut to the evaluations left.  Both scales share a
poll because a narrow kernel pass costs mostly per step, not per row: on a
4-seed bank at n = 16 a 32-row pass takes about 1.6 times a 16-row one.  A
poll's C candidates are one stacked `BoundaryControl` (C, n_t, n_dofs): one
projection, one admissible norm and one wall penalty each take the whole
stack, and one run_many call runs the seed bank under every candidate, one
seed group each, on the same increments.
`estimate_cost` forms one candidate's cost from its rows of that call and
its entry of the stacked penalty.  Each candidate's numbers are the bits of
its own one-control calls.  A target and a cost take a `BoundaryControl`:
the uncontrolled flow is the zero control, whose wall penalty is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice, product

import numpy as np

from .diagnostics import bootstrap_ci
from .dynamics import BlowupError, Paths, Simulator
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

    def __post_init__(self):
        if self.radius <= 0:
            raise ControlError("radius must be positive")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ControlError("penalty weights must be positive")


def admissible_norm(ctrl: BoundaryControl):
    """sqrt of the time integral of the squared trace norm over the horizon,
    (C,) for a stack."""
    tn = trace_norm_series(ctrl, ctrl.t_grid)
    if ctrl.t_grid.size == 1:
        return np.take(tn, 0, axis=-1)
    return np.sqrt(np.trapezoid(tn**2, ctrl.t_grid))


def project_admissible(ctrl: BoundaryControl, spec: AdmissibleSpec) -> BoundaryControl:
    """Compatibility projection followed by radial scaling into the norm ball;
    a stack's controls each scaled by their own norm."""
    out = project_compatible(ctrl)
    nrm = np.asarray(admissible_norm(out))
    # inside the ball the factor is 1.0, which leaves gamma's bits as they are
    scale = np.divide(spec.radius, nrm, out=np.ones_like(nrm), where=nrm > spec.radius)
    out.gamma *= scale[..., None, None]
    return out


def exponential_integrability_bound(norm: float, c0: float) -> float:
    """Deterministic value exp(4 c0 int ||(a,b)||^2) of a control of admissible
    norm `norm`; finite on the ball."""
    return float(np.exp(4.0 * c0 * norm**2))


@dataclass
class CostReport:
    """The cost of one control under a seed bank.

    `per_path` holds the usable paths' tracking costs.  `ci_half_width`, half
    the width of the bootstrap interval of their mean (0.0 for one path), is
    formed when first read: an optimizer reads it only for the iterates it
    accepts.
    """

    total: float
    tracking: float
    penalty: float
    per_path: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def ci_half_width(self) -> float:
        if self.per_path.size < 2:
            return 0.0
        lo, hi = bootstrap_ci(lambda idx: self.per_path[idx].mean(axis=1), self.per_path.size,
                              (0xC051, 0))
        return 0.5 * (hi - lo)


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


def make_target(ctrl_star: BoundaryControl, sim: Simulator,
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


def penalty_term(ctrl: BoundaryControl, spec: AdmissibleSpec):
    """Exact wall penalty int_0^T int_Gamma (l1/2 a^2 + l2/2 b^2), (C,) for a stack.

    Coefficients are piecewise linear in time, so the squared wall norm is
    piecewise quadratic and Simpson per segment integrates it exactly.
    """
    tg, g = ctrl.t_grid, ctrl.gamma
    if tg.size == 1:
        raise ControlError("penalty needs a time horizon (t_grid of length >= 2)")
    # (start, mid, end) rows of every segment
    start, end = g[..., :-1, :], g[..., 1:, :]
    tab = ctrl.coeffs(np.stack([start, 0.5 * (start + end), end]))
    a0, am, a1 = wall_norm_sq(tab[..., :2, :], 0.0, ctrl.length_x)
    b0, bm, b1 = wall_norm_sq(tab[..., 2:, :], 0.0, ctrl.length_x)
    h = np.diff(tg)
    ia = h / 6.0 * (a0 + 4.0 * am + a1)
    ib = h / 6.0 * (b0 + 4.0 * bm + b1)
    return np.sum(0.5 * spec.lambda1 * ia + 0.5 * spec.lambda2 * ib, axis=-1)


def estimate_cost(paths: Paths, penalty: float) -> CostReport:
    """Monte Carlo tracking cost plus the exact wall penalty of one control.

    paths are the control's simulated paths under the seed bank, run_many's
    rows of it with the target's tracking series, and penalty its
    `penalty_term`; a control's paths and penalty are the same bits as its
    seed group's rows and its entry of a stack's.
    """
    if not len(paths):
        raise ControlError("empty seed bank")
    per_path = 0.5 * np.trapezoid(paths.tracking[paths.usable()], paths.times, axis=-1)
    tracking = float(per_path.mean())
    return CostReport(
        total=tracking + penalty,
        tracking=tracking,
        penalty=penalty,
        per_path=per_path,
    )


# -- parametrized controls ----------------------------------------------------


@dataclass(frozen=True)
class ParamMap:
    """Maps a low-dimensional parameter vector onto static control slots.

    Each slot names (kind, wall, mode, part); the parameter value fills that
    coefficient at every control time point.  A (C, dim) stack of vectors
    maps to a stack of C controls.
    """

    length_x: float
    n_modes: int
    t_grid: tuple
    slots: tuple              # tuple of (kind, wall, mode, part)
    p: float                  # trace exponent of its controls

    @property
    def dim(self) -> int:
        return len(self.slots)

    def control(self, theta) -> BoundaryControl:
        theta = np.asarray(theta, float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            raise ControlError(f"expected {self.dim} parameters")
        ctrl = BoundaryControl.zeros(
            self.length_x, self.n_modes, np.asarray(self.t_grid), self.p, stack=theta.shape[:-1]
        )
        for d, (kind, wall, mode, part) in enumerate(self.slots):
            ctrl.gamma[..., ctrl.dof_index(kind, wall, mode, part)] = theta[..., d, None]
        return ctrl

    def read(self, ctrl: BoundaryControl) -> np.ndarray:
        out = np.empty(self.dim)
        for d, (kind, wall, mode, part) in enumerate(self.slots):
            out[d] = ctrl.gamma[0, ctrl.dof_index(kind, wall, mode, part)]
        return out


@dataclass
class OptimizeHistory:
    evaluations: int
    budget: int
    budget_exhausted: bool
    iterates: list = field(default_factory=list)  # accepted iterates only

    def record(self, theta, report: CostReport, ctrl: BoundaryControl, c0: float):
        """Append an accepted iterate with the admissibility bookkeeping of its control."""
        norm = admissible_norm(ctrl)
        self.iterates.append(
            {
                "iterate": len(self.iterates),
                "theta": [float(v) for v in np.asarray(theta)],
                "cost": report.total,
                "tracking": report.tracking,
                "penalty": report.penalty,
                "ci_half_width": report.ci_half_width,
                "admissible_norm": norm,
                "exp_integrability": exponential_integrability_bound(norm, c0),
            }
        )


def optimize(theta0, pmap: ParamMap, spec: AdmissibleSpec, target: Target,
             sim: Simulator, seeds, budget: int, u0: np.ndarray | None = None,
             noise_on: bool = True, step0: float = 0.25, step_min: float = 1e-4,
             c0: float = 1.0) -> tuple:
    """Two-scale projected compass search with a frozen seed bank, polling
    completely.

    Each poll evaluates +-step along every coordinate, then +-step/2 along
    every coordinate, all 4 dim candidates as one projected stack in one
    run_many call that runs the bank under each candidate, and counts each
    one as an evaluation; the starting point rides the first poll's call,
    first in its stack.  It takes the first candidate in that order whose
    cost is strictly lower: a full-step one keeps the step, a half-step one
    halves it, and a poll without one quarters it, since both scales failed.
    So the accepted-iterate cost sequence is nonincreasing by construction,
    and on ties the incumbent stays.  `budget` counts cost evaluations: a
    poll that would pass it is cut to the evaluations left, full-step
    candidates first.  Returns (best control, history).
    """
    seeds = list(seeds)
    theta = np.asarray(theta0, float).copy()
    # common random numbers: every evaluation runs the same increments
    dw = sim.increments(seeds) if noise_on else None

    def costs(ctrls):
        """Each report of a stack of controls (or of one), its seed group's rows
        of one run_many call and its entry of one stacked penalty."""
        pens = np.atleast_1d(penalty_term(ctrls, spec)).tolist()
        paths = sim.run_many(seeds, ctrl=ctrls, u0=u0, noise_on=noise_on, target=target, dw=dw)
        size = len(seeds)
        return [estimate_cost(paths[c * size : (c + 1) * size], pen) for c, pen in enumerate(pens)]

    history = OptimizeHistory(evaluations=0, budget=budget, budget_exhausted=False)
    ctrl_inc = project_admissible(pmap.control(theta), spec)
    theta = pmap.read(ctrl_inc)  # projection may rescale the parameters
    if budget < 1:
        return ctrl_inc, history

    def poll(left):
        """(moves, projected stack) of a poll around theta, cut to `left` candidates."""
        moves = list(islice(product((1.0, 0.5), range(pmap.dim), (1.0, -1.0)), left))
        thetas = np.tile(theta, (len(moves), 1))
        for row, (scale, d, sgn) in zip(thetas, moves):
            row[d] += sgn * scale * step
        return moves, project_admissible(pmap.control(thetas), spec)

    step, moves, stack = step0, [], ctrl_inc
    if budget > 1 and step > step_min:      # the incumbent rides the first poll's pass
        moves, cands = poll(budget - 1)
        stack = replace(cands, gamma=np.concatenate([ctrl_inc.gamma[None], cands.gamma]))
    rep_inc, *reports = costs(stack)
    history.evaluations = 1 + len(reports)
    history.record(theta, rep_inc, ctrl_inc, c0)
    while moves:
        for c, ((scale, _, _), rep) in enumerate(zip(moves, reports)):
            if rep.total < rep_inc.total:
                ctrl_inc, rep_inc = cands[c], rep
                theta = pmap.read(ctrl_inc)
                history.record(theta, rep_inc, ctrl_inc, c0)
                step *= scale        # a half-step success halves the step
                break
        else:
            step *= 0.25             # both scales failed
        moves = []
        if history.evaluations < budget and step > step_min:
            moves, cands = poll(budget - history.evaluations)
            reports = costs(cands)
            history.evaluations += len(reports)
    history.budget_exhausted = history.evaluations >= budget
    return ctrl_inc, history
