"""Command-line entry point: basis | lift | simulate | verify | optimize.

Every JSON report and CSV table embeds the config hash and toolkit
version; basis.npz and target.npz carry the config hash only, and the
control JSON files carry neither.  Workflows that promise determinism write
byte-identical files on rerun.  Exit codes: 0 success, 1
configuration/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import control as ctl
from . import diagnostics as diag
from .basis import BasisError, energy_pairing, inner_h, mass_pairing, norm_h1, save_basis
from .config import SEED_LIMIT, ConfigError, load_config
from .control import ControlError
from .dynamics import DynamicsError
from .geometry import GeometryError
from .lifting import LiftingError, lift, project_compatible

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _json_dump(path, payload, cfg):
    payload = dict(payload)
    payload["config_hash"] = cfg.config_hash
    payload["version"] = __version__
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")


def _write_csv(path, cfg, header, rows):
    """A CSV table under a config-hash line: integers verbatim, other values to 17 digits."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash} version={__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            # seeds reach 2**64, which a float format would round
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}"
                              for v in row) + "\n")


def cmd_basis(cfg, out: Path, args) -> int:
    basis = cfg.basis()
    save_basis(out / "basis.npz", basis, meta={"config_hash": cfg.config_hash})
    columns = ["index", "eigenvalue", "wavenumber", "family", "shell"]
    rows = zip(range(basis.size), basis.eigenvalues, basis.mode_j, basis.family, basis.shell_index)
    _write_csv(out / "eigenvalues.csv", cfg, columns, rows)
    # residual report over a fixed probe set
    probes = basis.field(np.random.default_rng(0).standard_normal((5, basis.size)))
    lam = basis.eigenvalues
    worst = np.abs(energy_pairing(probes, basis.fields)
                   - lam * mass_pairing(probes, basis.fields)) / lam
    gram = mass_pairing(basis.fields, basis.fields)
    ortho = np.abs(gram - np.eye(basis.size)).max()
    _json_dump(
        out / "basis_report.json",
        {
            "size": basis.size,
            "eigenvalue_min": float(basis.eigenvalues[0]),
            "eigenvalue_max": float(basis.eigenvalues[-1]),
            "max_weak_residual": float(worst.max()),
            "max_orthonormality_defect": float(ortho),
        },
        cfg,
    )
    return EXIT_OK


def cmd_lift(cfg, out: Path, args) -> int:
    grid = cfg.grid()
    cache = cfg.lifting_cache(grid)
    ctrl = cfg.control()
    if ctrl is None:
        ctrl = cfg.param_map().control(np.ones(cfg.param_map().dim))
    ctrl = project_compatible(ctrl)
    lifted = lift(ctrl, cache)
    res = lifted.boundary_residuals()
    tn = lifted.trace_norms
    # lifting-estimate surrogate: lifted size against the trace norm
    ratios = []
    for ti, t in enumerate(ctrl.t_grid):
        f = lifted.field_at(float(t))
        df = lifted.dt_field_at(float(t))
        if tn[ti] > 1e-14:
            num = norm_h1(f) + np.sqrt(max(inner_h(df, df), 0.0))
            ratios.append(num / tn[ti])
    _write_csv(out / "trace_norms.csv", cfg, ["time", "trace_norm"], zip(ctrl.t_grid, tn))
    _json_dump(
        out / "lift_report.json",
        {
            "normal_residual": res["normal"],
            "tangential_residual": res["tangential"],
            "divergence_residual": res["divergence"],
            "bound_ratio_max": max(ratios) if ratios else 0.0,
        },
        cfg,
    )
    ctrl.save(out / "control.json")
    return EXIT_OK


def cmd_simulate(cfg, out: Path, args) -> int:
    basis = cfg.basis()
    cache = cfg.lifting_cache(basis.grid)
    noise = cfg.noise()
    sim = cfg.simulator(basis, cache, noise)
    ctrl = cfg.control()
    if ctrl is not None:
        ctrl = project_compatible(ctrl)
    u0 = cfg.initial_coeffs()
    paths = args.paths or cfg.data["monte_carlo"]["paths"]
    seeds = cfg.seed_bank(paths, args.seed)
    noise_on = cfg.data["simulate"]["noise_on"]
    trajs = sim.run_many(
        seeds,
        ctrl=ctrl,
        u0=u0,
        noise_on=noise_on,
        store_beta=cfg.data["simulate"]["store_beta"],
        threads=args.threads,
    )
    save_n = min(len(trajs), cfg.data["simulate"]["save_paths"])
    for i, tr in enumerate(trajs[:save_n]):
        cols = min(4, tr.beta_final.size)
        beta = np.full((tr.times.size, cols), np.nan) if tr.beta_series is None else tr.beta_series
        norms = np.sqrt(np.stack([tr.u_sq, tr.u_esq, tr.noise_sq], axis=1))
        norms[~np.isfinite(norms)] = np.nan  # a blown-up path writes nan, not inf
        header = ["time", "u_l2", "u_energy", "tracking", "noise_frob"]
        _write_csv(out / f"traj_{i:03d}.csv", cfg, header + [f"beta_{c}" for c in range(cols)],
                   np.column_stack([tr.times, norms[:, :2], tr.tracking, norms[:, 2],
                                    beta[:, :cols]]))
    good = sim.usable(trajs)
    blow = len(trajs) - len(good)
    final_sq = np.array([tr.u_sq[-1] for tr in good])
    sup_sq = np.array([np.max(tr.u_sq) for tr in good])
    ci = diag.bootstrap_ci(lambda idx: final_sq[idx].mean(axis=1), final_sq.size, 0)
    _write_csv(out / "summary.csv", cfg, ["seed", "final_u_sq", "sup_u_sq", "blown_up"],
               [(tr.seed, tr.u_sq[-1], np.nanmax(tr.u_sq), int(tr.blown_up)) for tr in trajs])
    _json_dump(
        out / "summary.json",
        {
            "paths": len(trajs),
            "blowups": blow,
            "mean_final_u_sq": float(final_sq.mean()),
            "mean_sup_u_sq": float(sup_sq.mean()),
            "ci_final_u_sq": list(ci),
            "noise_on": bool(noise_on),
        },
        cfg,
    )
    return EXIT_OK


def cmd_verify(cfg, out: Path, args) -> int:
    basis = cfg.basis()
    cache = cfg.lifting_cache(basis.grid)
    noise = cfg.noise()
    sim = cfg.simulator(basis, cache, noise)
    ctrl = cfg.control()
    if ctrl is not None:
        ctrl = project_compatible(ctrl)
    u0 = cfg.initial_coeffs()
    c0 = cfg.data["damping_rate"]
    nu = cfg.domain_spec().viscosity

    paths = args.paths
    if paths is None:
        paths = cfg.data["verify"]["paths"]
    if paths is None:
        paths = cfg.data["monte_carlo"]["paths"]
    seeds = cfg.seed_bank(paths, args.seed)
    trajs = sim.run_many(seeds, ctrl=ctrl, u0=u0, threads=args.threads)
    sim.usable(trajs)  # exit 2 if every path blew up

    rep2 = diag.certify_second_moment(trajs, ctrl, c0, nu)
    rep4 = diag.certify_fourth_moment(trajs, ctrl, c0, nu, sim.ops)
    repw = diag.certify_wellposed_cost(trajs, ctrl, c0)

    n_stab = min(cfg.data["verify"]["stability_paths"], paths)
    seeds_s = cfg.seed_bank(n_stab, args.seed)
    if ctrl is None:
        pmap = cfg.param_map()
        ctrl_a = ctl.project_admissible(pmap.control(0.2 * np.ones(pmap.dim)), cfg.admissible_spec())
    else:
        ctrl_a = ctrl
    ctrl_b = ctrl_a.copy()
    ctrl_b.gamma *= cfg.data["verify"]["stability_scale"]
    tr_a = sim.run_many(seeds_s, ctrl=ctrl_a, u0=u0, store_beta=True, threads=args.threads)
    tr_b = sim.run_many(seeds_s, ctrl=ctrl_b, u0=u0, store_beta=True, threads=args.threads)
    reps = diag.certify_stability(
        tr_a, ctrl_a, tr_b, ctrl_b, sim.ops, c0, nu, c3=2.0 * noise.lipschitz_k
    )
    damping = diag.empirical_damping_rate(tr_a[:5], ctrl_a, sim)

    reports = {
        "second_moment": rep2,
        "fourth_moment": rep4,
        "wellposed_cost": repw,
        "stability": reps,
    }
    all_finite = True
    for name, rep in reports.items():
        _json_dump(out / f"report_{name}.json", asdict(rep), cfg)
        all_finite &= rep.finite
    _json_dump(
        out / "verify_summary.json",
        {
            "constants": {k: r.fitted_c for k, r in reports.items()},
            "all_finite": bool(all_finite),
            "paths": paths,
            "holder_chain_exact": repw.details["holds_exactly"],
            "empirical_damping_rate": damping,
        },
        cfg,
    )
    return EXIT_OK if all_finite else EXIT_NUMERICAL


def cmd_optimize(cfg, out: Path, args) -> int:
    basis = cfg.basis()
    cache = cfg.lifting_cache(basis.grid)
    noise = cfg.noise()
    sim = cfg.simulator(basis, cache, noise)
    aspec = cfg.admissible_spec()
    pmap = cfg.param_map()
    u0 = cfg.initial_coeffs()
    opt = cfg.data["optimize"]

    theta_star = np.asarray(opt["theta_star"], float)
    ctrl_star = ctl.project_admissible(pmap.control(theta_star), aspec)
    target = ctl.make_target(ctrl_star, sim, u0=u0, meta={"config_hash": cfg.config_hash})
    target.save(out / "target.npz")

    theta0 = np.asarray(opt["theta0"] if opt["theta0"] is not None else np.zeros(pmap.dim), float)
    paths = args.paths or opt["paths"]
    seeds = cfg.seed_bank(paths, args.seed)
    best, hist = ctl.optimize(
        theta0,
        pmap,
        aspec,
        target,
        sim,
        seeds,
        budget=opt["budget"],
        method=opt["method"],
        u0=u0,
        noise_on=opt["noise_on"],
        step0=opt["step0"],
        step_min=opt["step_min"],
        threads=args.threads,
        c0=cfg.data["damping_rate"],
    )
    _json_dump(
        out / "history.json",
        {**asdict(hist), "theta_star": [float(v) for v in pmap.read(ctrl_star)]},
        cfg,
    )
    dim = len(hist.iterates[0]["theta"]) if hist.iterates else 0
    keys = ["iterate", "cost", "tracking", "penalty", "ci_half_width"]
    _write_csv(out / "history.csv", cfg, keys + [f"theta_{i}" for i in range(dim)],
               [[it[k] for k in keys] + it["theta"] for it in hist.iterates])
    best.save(out / "best_control.json")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 like any validation error, not 2
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="slipflow",
        description="stochastic channel-flow toolkit with slip-wall boundary control",
    )
    parser.add_argument("command", choices=["basis", "lift", "simulate", "verify", "optimize"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None, help="seed bank start override")
    parser.add_argument("--paths", type=int, default=None, help="path count override")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="workers over fixed-width path chunks (default from SLIPFLOW_THREADS, else 1)",
    )
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit:  # --help, after printing the usage
        return EXIT_OK
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        print("validation error: --seed must be >= 0 and < 2**64", file=sys.stderr)
        return EXIT_CONFIG
    if args.paths is not None and args.paths < 1:
        print("validation error: --paths must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    source = "--threads"
    if args.threads is None:
        source = "SLIPFLOW_THREADS"
        try:
            args.threads = int(os.environ.get(source, "1"))
        except ValueError:
            print(f"validation error: {source} must be an integer", file=sys.stderr)
            return EXIT_CONFIG
    if args.threads < 1:
        print(f"validation error: {source} must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out or cfg.data["output"]["dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"validation error: cannot create output directory {out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    handlers = {
        "basis": cmd_basis,
        "lift": cmd_lift,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "optimize": cmd_optimize,
    }
    try:
        return handlers[args.command](cfg, out, args)
    except (ConfigError, GeometryError, ControlError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BasisError, LiftingError, DynamicsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
