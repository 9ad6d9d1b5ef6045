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
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import control as ctl
from . import diagnostics as diag
from .basis import BasisError, energy_pairing, mass_pairing, save_basis
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
    """A CSV table under a config-hash line: integers verbatim, other values to 17 digits.

    rows is an iterable of rows, or a 2-D float array, whose rows are formatted
    by one "%.17g" template each (the same text as one value at a time).
    """
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash} version={__version__}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
            return
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
    probes = basis.fields.combine(np.random.default_rng(0).standard_normal((5, basis.size)))
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
    if not ctrl.gamma.any():
        pmap = cfg.param_map()
        ctrl = pmap.control(np.ones(pmap.dim))
    ctrl = project_compatible(ctrl)
    lifted = lift(ctrl, cache)
    tn = lifted["trace_norm"]
    # lifting-estimate surrogate: lifted size against the trace norm
    ratios = lifted["size"][tn > 1e-14] / tn[tn > 1e-14]
    _write_csv(out / "trace_norms.csv", cfg, ["time", "trace_norm"], zip(ctrl.t_grid, tn))
    _json_dump(
        out / "lift_report.json",
        {
            "normal_residual": lifted["normal"].max(),
            "tangential_residual": lifted["tangential"].max(),
            "divergence_residual": lifted["divergence"].max(),
            "bound_ratio_max": ratios.max() if ratios.size else 0.0,
        },
        cfg,
    )
    ctrl.save(out / "control.json")
    return EXIT_OK


def _simulator(cfg):
    basis = cfg.basis()
    return cfg.simulator(basis, cfg.lifting_cache(basis.grid), cfg.noise())


def cmd_simulate(cfg, out: Path, args) -> int:
    sim = _simulator(cfg)
    ctrl = project_compatible(cfg.control())
    u0 = cfg.initial_coeffs()
    paths = args.paths or cfg.data["monte_carlo"]["paths"]
    seeds = cfg.seed_bank(paths, args.seed)
    noise_on = cfg.data["simulate"]["noise_on"]
    paths = sim.run_many(seeds, ctrl=ctrl, u0=u0, noise_on=noise_on,
                         store_beta=cfg.data["simulate"]["store_beta"])
    saved = paths[: cfg.data["simulate"]["save_paths"]]
    cols = min(4, sim.ops.n)
    norms = np.sqrt(np.stack([saved.u_sq, saved.u_esq, saved.noise_sq], axis=-1))
    norms[~np.isfinite(norms)] = np.nan  # a blown-up path writes nan, not inf
    beta = (np.full(norms.shape[:2] + (cols,), np.nan) if saved.beta_series is None
            else saved.beta_series[..., :cols])
    header = ["time", "u_l2", "u_energy", "tracking", "noise_frob"]
    for i in range(len(saved)):
        _write_csv(out / f"traj_{i:03d}.csv", cfg, header + [f"beta_{c}" for c in range(cols)],
                   np.column_stack([saved.times, norms[i, :, :2], saved.tracking[i],
                                    norms[i, :, 2], beta[i]]))
    ok = paths.usable()
    final_sq = paths.u_sq[ok, -1]
    sup_sq = paths.u_sq[ok].max(axis=1)
    ci = diag.bootstrap_ci(lambda idx: final_sq[idx].mean(axis=1), final_sq.size, 0)
    _write_csv(out / "summary.csv", cfg, ["seed", "final_u_sq", "sup_u_sq", "blown_up"],
               zip(paths.seeds, paths.u_sq[:, -1], np.nanmax(paths.u_sq, axis=1),
                   paths.blown_up.astype(int)))
    _json_dump(
        out / "summary.json",
        {
            "paths": len(paths),
            "blowups": len(paths) - final_sq.size,
            "mean_final_u_sq": float(final_sq.mean()),
            "mean_sup_u_sq": float(sup_sq.mean()),
            "ci_final_u_sq": list(ci),
            "noise_on": bool(noise_on),
        },
        cfg,
    )
    return EXIT_OK


def cmd_verify(cfg, out: Path, args) -> int:
    sim = _simulator(cfg)
    ctrl = project_compatible(cfg.control())
    u0 = cfg.initial_coeffs()
    c0, nu = cfg.data["damping_rate"], sim.nu

    paths = args.paths or cfg.data["verify"]["paths"] or cfg.data["monte_carlo"]["paths"]
    seeds = cfg.seed_bank(paths, args.seed)
    bundle = sim.run_many(seeds, ctrl=ctrl, u0=u0)
    rep2 = diag.certify_second_moment(bundle, ctrl, c0, nu)  # exit 2 if every path blew up
    rep4 = diag.certify_fourth_moment(bundle, ctrl, c0, nu, sim.ops)
    repw = diag.certify_wellposed_cost(bundle, ctrl, c0)

    # the stability pair as one two-control stack over the bank's first seeds,
    # each seed's increments drawn once and driving both controls
    n = min(cfg.data["verify"]["stability_paths"], paths)
    if not ctrl.gamma.any():
        pmap = cfg.param_map()
        ctrl = ctl.project_admissible(pmap.control(0.2 * np.ones(pmap.dim)), cfg.admissible_spec())
    scale = cfg.data["verify"]["stability_scale"]
    pair = replace(ctrl, gamma=np.stack([ctrl.gamma, ctrl.gamma * scale]))
    runs = sim.run_many(seeds[:n], ctrl=pair, u0=u0, store_beta=True)
    reps = diag.certify_stability(
        runs[:n], pair[0], runs[n:], pair[1], sim.ops, c0, nu, c3=2.0 * sim.noise.lipschitz_k
    )
    damping = diag.empirical_damping_rate(runs[:min(n, 5)], pair[0], sim)

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
    sim = _simulator(cfg)
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
        u0=u0,
        noise_on=opt["noise_on"],
        step0=opt["step0"],
        step_min=opt["step_min"],
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
    parser.add_argument("--threads", type=int, choices=[1], help="accepted for old callers")
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
