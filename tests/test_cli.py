import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slipflow.cli import _write_csv, main
from slipflow.config import ConfigError, load_config
from slipflow.dynamics import Simulator

BASE = {
    "domain": {"modes_x": 3, "nodes_y": 16, "friction_alpha": 0.0, "viscosity": 0.5},
    "basis_size": 8,
    "time": {"t_final": 0.2, "dt": 0.005},
    "monte_carlo": {"paths": 6},
    "control": {"n_modes": 2, "theta": [0.3, 0.2]},
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_config_defaults_and_hash(tmp_path):
    p = write_cfg(tmp_path)
    cfg = load_config(p)
    assert cfg.data["damping_rate"] == 1.0
    assert len(cfg.config_hash) == 16
    # hash stable under rewrite
    assert load_config(p).config_hash == cfg.config_hash


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"domian": {}}))
    with pytest.raises(ConfigError, match=r"unknown keys \['domian'\] in section <root>"):
        load_config(p)
    p.write_text(json.dumps({"time": {"dt": 0.1, "t_end": 1.0}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_config_one_gain_serves_every_factor(tmp_path):
    # a one-entry mult_gain is the gain of each of the m noise factors
    for m, want in ((3, [0.2] * 3), (0, [])):
        p = write_cfg(tmp_path, name=f"m{m}.json", noise={"m": m, "mult_gain": [0.2]})
        assert load_config(p).noise().mult_gain.tolist() == want


def test_config_validation_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"time": {"dt": -0.1}}))
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text(json.dumps({"time": {"t_final": 0.5, "dt": 0.3}}))
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_cli_invalid_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"time": {"dt": -1.0}}))
    assert main(["basis", "--config", str(p), "--out", str(tmp_path / "o")]) == 1


def test_cmd_basis_artifacts(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["basis", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "basis.npz").exists()
    rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# config_hash=")
    # free-slip mean-mode branch shows (j pi)^2
    lam = [float(r.split(",")[1]) for r in rows[2:] if r.split(",")[2] == "0"]
    assert any(abs(v - np.pi**2) < 1e-6 * np.pi**2 for v in lam)
    report = json.loads((out / "basis_report.json").read_text())
    assert report["max_weak_residual"] < 1e-6
    assert report["max_orthonormality_defect"] < 1e-8


def test_cmd_basis_deterministic(tmp_path):
    p = write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["basis", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["basis", "--config", str(p), "--out", str(out2)]) == 0
    assert (out1 / "basis.npz").read_bytes() == (out2 / "basis.npz").read_bytes()
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()


def test_cmd_lift_report(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["lift", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "lift_report.json").read_text())
    assert rep["normal_residual"] < 1e-8
    assert rep["tangential_residual"] < 1e-6
    assert rep["divergence_residual"] < 1e-10
    assert np.isfinite(rep["bound_ratio_max"])
    assert (out / "control.json").exists()


def test_cmd_lift_default_control(tmp_path):
    # an all-zero theta lifts the default control, theta = 1 in every slot
    from slipflow.lifting import project_compatible

    p = write_cfg(tmp_path, control={"theta": [0.0, 0.0]})
    out = tmp_path / "out"
    assert main(["lift", "--config", str(p), "--out", str(out)]) == 0
    pmap = load_config(p).param_map()
    project_compatible(pmap.control(np.ones(pmap.dim))).save(tmp_path / "expected.json")
    assert (out / "control.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    rep = json.loads((out / "lift_report.json").read_text())
    for key in ("normal_residual", "tangential_residual", "divergence_residual",
                "bound_ratio_max"):
        assert np.isfinite(rep[key]), key
    assert rep["bound_ratio_max"] > 0.0


def test_cmd_simulate_reproducible(tmp_path):
    p = write_cfg(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(p), "--out", str(out2)]) == 0
    for name in ("traj_000.csv", "summary.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["paths"] == 6
    assert summary["blowups"] == 0
    assert "config_hash" in summary


def test_cmd_simulate_threads_one_is_no_flag(tmp_path):
    # --threads is kept for old callers, accepts only 1 and changes nothing
    p = write_cfg(tmp_path)
    out1, out2 = tmp_path / "plain", tmp_path / "threads1"
    assert main(["simulate", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(p), "--out", str(out2), "--threads", "1"]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert names == sorted(f.name for f in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_simulate_energy_decay(tmp_path):
    p = write_cfg(
        tmp_path,
        name="decay.json",
        control={"n_modes": 2, "theta": [0.0, 0.0]},
        simulate={"noise_on": False, "save_paths": 1},
        monte_carlo={"paths": 1},
    )
    out = tmp_path / "decay"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    rows = (out / "traj_000.csv").read_text().strip().splitlines()[2:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    t, u_l2, u_energy = data[:, 0], data[:, 1], data[:, 2]
    # homogeneous decay: per-step balance holds to first order in dt
    nu, dt = 0.5, 0.005
    defect = u_l2[1:] ** 2 - u_l2[:-1] ** 2 + 2 * nu * u_energy[:-1] ** 2 * dt
    assert np.abs(defect).max() < 10.0 * dt**2
    assert (np.diff(u_l2) <= 1e-12).all()


def test_cmd_simulate_seed_and_paths_flags(tmp_path):
    p = write_cfg(tmp_path)
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert main(["simulate", "--config", str(p), "--out", str(out1),
                 "--seed", "5", "--paths", "3"]) == 0
    assert main(["simulate", "--config", str(p), "--out", str(out2),
                 "--seed", "6", "--paths", "3"]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["paths"] == 3
    assert s1["mean_final_u_sq"] != s2["mean_final_u_sq"]


def test_cmd_verify_reports(tmp_path, monkeypatch):
    # verify makes two kernel calls and passes no increments: the bundle, then
    # the stability pair as one two-control stack over the bank's first seeds,
    # every seed under each control, so each group's paths are bitwise its
    # one-control run on those seeds; the damping rate reads at most 5 paths
    # of the first group, also when it has fewer (at n = 3 and scale 2 the
    # second group's paths would move it)
    from slipflow.diagnostics import empirical_damping_rate

    calls, run_many = [], Simulator.run_many

    def spy(self, seeds, **kw):
        paths = run_many(self, seeds, **kw)
        calls.append((self, list(seeds), kw, paths))
        return paths

    monkeypatch.setattr(Simulator, "run_many", spy)
    for n in (3, 7):
        calls.clear()
        p = write_cfg(tmp_path, name=f"v{n}.json", verify={"stability_paths": n, "stability_scale": 2.0})
        out = tmp_path / f"verify{n}"
        assert main(["verify", "--config", str(p), "--out", str(out), "--paths", "12"]) == 0
        assert len(calls) == 2
        assert all("dw" not in kw for _, _, kw, _ in calls)
        (_, seeds, _, _), (sim, pair_seeds, kw, pair) = calls
        assert seeds == load_config(p).seed_bank(12) and pair_seeds == seeds[:n]
        ctrl = kw["ctrl"]
        assert ctrl.gamma.shape[0] == 2
        assert np.array_equal(ctrl.gamma[1], ctrl.gamma[0] * 2.0)
        for c, rows in enumerate((slice(0, n), slice(n, 2 * n))):
            alone = run_many(sim, seeds[:n], ctrl=ctrl[c], u0=kw["u0"], store_beta=True)
            for name in ("beta_series", "beta_final", "u_sq", "u_esq", "tracking", "noise_sq"):
                assert np.array_equal(getattr(pair, name)[rows], getattr(alone, name))
            if c == 0:
                damping = empirical_damping_rate(alone[:5], ctrl[0], sim)
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["empirical_damping_rate"] == damping
        assert summary["all_finite"]
        assert summary["holder_chain_exact"]
        assert np.isfinite(summary["empirical_damping_rate"])
        for name in ("second_moment", "fourth_moment", "wellposed_cost", "stability"):
            rep = json.loads((out / f"report_{name}.json").read_text())
            assert np.isfinite(rep["fitted_c"])


def test_cmd_verify_refinement_gate(tmp_path):
    # fitted constants stay within 2x when the truncation level doubles
    consts = {}
    for n in (8, 16):
        p = write_cfg(tmp_path, name=f"v{n}.json", basis_size=n)
        out = tmp_path / f"verify{n}"
        assert main(["verify", "--config", str(p), "--out", str(out), "--paths", "24"]) == 0
        consts[n] = json.loads((out / "verify_summary.json").read_text())["constants"]
    for name in ("second_moment", "fourth_moment"):
        ratio = consts[16][name] / consts[8][name]
        assert 0.5 < ratio < 2.0


def test_cmd_optimize_recovery_and_rerun(tmp_path):
    p = write_cfg(
        tmp_path,
        name="opt.json",
        domain={"modes_x": 3, "nodes_y": 16, "friction_alpha": 1.0, "viscosity": 0.5},
        time={"t_final": 0.25, "dt": 0.005},
        optimize={"budget": 40, "theta_star": [0.4, 0.5], "paths": 1, "noise_on": False},
    )
    out1, out2 = tmp_path / "opt1", tmp_path / "opt2"
    assert main(["optimize", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["optimize", "--config", str(p), "--out", str(out2)]) == 0
    hist = json.loads((out1 / "history.json").read_text())
    costs = [it["cost"] for it in hist["iterates"]]
    assert costs[-1] <= 0.1 * costs[0]
    assert (np.diff(costs) <= 0).all()
    for name in ("history.json", "history.csv", "best_control.json", "target.npz"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_tables_format(tmp_path):
    # seeds near 2**64 round under a float format, so integer columns must stay verbatim
    seed = 2**64 - 6
    p = write_cfg(tmp_path, simulate={"store_beta": True},
                  optimize={"budget": 4, "theta_star": [0.4, 0.5], "paths": 2})
    out = tmp_path / "out"
    for cmd in ("basis", "lift", "simulate", "optimize"):
        argv = [cmd, "--config", str(p), "--out", str(out), "--seed", str(seed)]
        assert main(argv + (["--paths", "2"] if cmd == "simulate" else [])) == 0
    tables = {
        "eigenvalues.csv": ("index,eigenvalue,wavenumber,family,shell", {0, 2, 3, 4}),
        "trace_norms.csv": ("time,trace_norm", set()),
        "summary.csv": ("seed,final_u_sq,sup_u_sq,blown_up", {0, 3}),
        "traj_000.csv": ("time,u_l2,u_energy,tracking,noise_frob,beta_0,beta_1,beta_2,beta_3",
                         set()),
        "history.csv": ("iterate,cost,tracking,penalty,ci_half_width,theta_0,theta_1", {0}),
    }
    for name, (header, int_cols) in tables.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# config_hash="), name
        assert lines[1] == header, name
        for line in lines[2:]:
            for i, c in enumerate(line.split(",")):
                if i in int_cols:
                    assert c.isdigit(), (name, c)  # every integer column is nonnegative
                else:
                    assert f"{float(c):.17g}" == c, (name, c)
    summary = (out / "summary.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[0]) for r in summary] == [seed, seed + 1]
    iterates = json.loads((out / "history.json").read_text())["iterates"]
    assert len((out / "history.csv").read_text().splitlines()) == len(iterates) + 2


def test_float_table_rows_match_value_formatting(tmp_path):
    # a float array's rows take one template each; the text is the same as
    # formatting one value at a time, on signed zeros, subnormals and nonfinite
    # values too
    rows = np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324],
                     [1.0 / 3.0, 1e300, -2.5e-310, 0.1, 2.0**64]])
    cfg = SimpleNamespace(config_hash="cafe")
    _write_csv(tmp_path / "array.csv", cfg, list("abcde"), rows)
    _write_csv(tmp_path / "lists.csv", cfg, list("abcde"), [list(r) for r in rows])
    text = (tmp_path / "array.csv").read_bytes()
    assert text == (tmp_path / "lists.csv").read_bytes()
    assert text.splitlines()[2] == b"nan,inf,-inf,-0,4.9406564584124654e-324"


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"control": {"theta": [0.0, 0.0, 0.0]}}),
    ("simulate", {"control": {"theta": [0.1, 0.0, 0.0]}}),
    ("simulate", {"optimize": {"theta_star": [0.6]}}),
    ("optimize", {"optimize": {"theta_star": [0.6]}}),
    ("optimize", {"optimize": {"theta0": [0.1, 0.2, 0.3]}}),
], ids=["zero-theta-three-entries", "theta-three-entries", "simulate-theta-star-one-entry",
        "optimize-theta-star-one-entry", "theta0-three-entries"])
def test_parameter_count_must_match_slots(tmp_path, command, overrides):
    # one entry per control slot, checked when the config loads: one config
    # error line, before the output directory or any operator is built
    p = write_cfg(tmp_path, **overrides)
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(p), "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1 and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert "one entry per control.slots" in lines[0]


@pytest.mark.parametrize("method", ["compass", "spsa", "genetic"])
def test_optimize_unknown_method(tmp_path, method):
    # compass is the one optimizer and has no key: a config that names a
    # method, even compass, fails as it loads, before the output directory
    p = write_cfg(tmp_path, optimize={"method": method})
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["optimize", "--config", str(p), "--out", str(out)])
    assert code == 1 and not out.exists()
    assert err.getvalue().splitlines() == [
        "config error: unknown keys ['method'] in section optimize"]


def test_cmd_optimize_zero_budget(tmp_path):
    p = write_cfg(
        tmp_path,
        name="opt0.json",
        optimize={"budget": 0, "theta_star": [0.4, 0.5], "paths": 1, "noise_on": False},
    )
    out = tmp_path / "opt0"
    assert main(["optimize", "--config", str(p), "--out", str(out)]) == 0
    hist = json.loads((out / "history.json").read_text())
    assert hist["iterates"] == []
    best = json.loads((out / "best_control.json").read_text())
    assert np.abs(np.array(best["gamma"])).max() == 0.0


@pytest.mark.parametrize(
    "command, flags, overrides, code",
    [
        ("verify", ["--paths", "2"], {"noise": {"mult_gain": [5000.0, 5000.0]}}, 2),
        ("optimize", [], {"noise": {"mult_gain": [5000.0, 5000.0]},
                          "optimize": {"budget": 4, "paths": 2, "noise_on": True}}, 2),
        ("simulate", ["--seed", "-1"], {}, 1),
        ("simulate", ["--paths", "-3"], {}, 1),
        ("verify", ["--paths", "0"], {}, 1),
        ("simulate", [], {"monte_carlo": {"paths": 2, "seed_bank_start": -5}}, 1),
        ("verify", [], {"verify": {"paths": 0}}, 1),
        ("verify", [], {"verify": {"paths": -2}}, 1),
        ("verify", [], {"verify": {"stability_paths": 0}}, 1),
        ("optimize", [], {"optimize": {"paths": 0}}, 1),
        ("optimize", [], {"optimize": {"paths": -2}}, 1),
        ("simulate", ["--threads", "0"], {}, 1),
        ("simulate", ["--threads", "-2"], {}, 1),
        ("simulate", ["--threads", "2"], {}, 1),
        ("simulate", ["--seed", str(2**64)], {}, 1),
        ("simulate", [], {"monte_carlo": {"paths": "abc"}}, 1),
        ("simulate", [], {"basis_size": "8"}, 1),
        ("optimize", [], {"optimize": {"budget": "x"}}, 1),
        ("simulate", [], {"control": {"theta": ["a", 0.2]}}, 1),
        ("optimize", [], {"optimize": {"theta0": "x"}}, 1),
        ("optimize", [], {"optimize": {"theta_star": ["q", 1]}}, 1),
        ("simulate", [], {"noise": {"mult_gain": ["a"]}}, 1),
        ("simulate", [], {"control": {"n_modes": -1}}, 1),
        ("simulate", [], {"control": {"coeff_file": 3}}, 1),
        ("simulate", [], {"control": {"slots": [["a", "middle", 1, "re"], ["b", "top", 2, "re"]]}}, 1),
        ("verify", [], {"control": {"slots": [["a", "bottom", 9, "re"], ["b", "top", 2, "re"]]}}, 1),
        ("simulate", [], {"control": {"slots": [["z", "bottom", 1, "re"], ["b", "top", 2, "re"]]}}, 1),
        ("simulate", [], {"control": {"slots": [["a", "bottom", 1.5, "re"], ["b", "top", 2, "re"]]}}, 1),
        ("simulate", [], {"control": {"slots": [["a", "bottom", 0, "im"], ["b", "top", 2, "re"]]}}, 1),
        ("simulate", [], {"noise": {"seed": -1}}, 1),
        ("simulate", [], {"initial": {"seed": -1}}, 1),
        ("simulate", [], {"noise": {"m": -1, "mult_gain": [0.1]}}, 1),
        ("simulate", [], {"initial": {"kind": "bogus"}}, 1),
        ("verify", ["--paths", "2"], {"damping_rate": 1e5}, 2),
        ("simulate", ["--bogus"], {}, 1),
        ("simulate", ["--seed", "abc"], {}, 1),
        ("simulate", [], b"3", 1),
        ("simulate", [], b"null", 1),
        ("simulate", [], b"[{}]", 1),
        ("simulate", [], b'"x"', 1),
        ("simulate", [], b'{"basis_size": "\xff"}', 1),
        ("simulate", [], b"[" * 100000, 1),
        ("simulate", ["--config", "."], {}, 1),
        ("simulate", ["--out", "cfg.json"], {}, 1),
        ("simulate", ["--out", "cfg.json/sub"], {}, 1),
        ("simulate", [], {"simulate": {"save_paths": -1}}, 1),
        ("basis", [], {"basis_size": 10000}, 1),
        ("simulate", [], {"basis_size": 100}, 1),
        ("simulate", [], {"time": {"dt": float("nan")}}, 1),
        ("simulate", [], {"time": {"t_final": float("inf")}}, 1),
        ("simulate", [], {"domain": {"friction_alpha": float("nan")}}, 1),
        ("optimize", [], {"control": {"lambda1": float("nan")}}, 1),
        ("verify", [], {"damping_rate": float("nan")}, 1),
        ("simulate", [], b'{"time": {"t_final": 1e400}}', 1),
        ("basis", [], {"domain": {"length_x": 1e-300}}, 1),
        # no lifted wavenumber: the basis bound alone
        ("basis", [], {"domain": {"length_x": 1.7e-76},
                       "control": {"n_modes": 0, "slots": [], "theta": []},
                       "optimize": {"theta_star": []}}, 0),
        ("simulate", [], {"domain": {"length_x": 0.01}}, 1),
        ("simulate", [], {"domain": {"length_x": 0.7}}, 0),
        ("optimize", [], {"optimize": {"budget": -3}}, 1),
    ],
    ids=["verify-all-paths-blow-up", "optimize-all-paths-blow-up", "negative-seed", "negative-paths", "zero-paths",
         "negative-seed-bank", "zero-verify-paths", "negative-verify-paths", "zero-stability-paths",
         "zero-optimize-paths", "negative-optimize-paths",
         "zero-threads", "negative-threads", "threads-above-one", "seed-past-philox-range",
         "string-paths",
         "string-basis-size", "string-budget", "string-in-theta", "string-theta0",
         "string-in-theta-star", "string-in-mult-gain", "negative-control-modes",
         "integer-coeff-file", "slot-wall-middle", "slot-mode-past-band", "slot-kind-z",
         "slot-float-mode", "slot-imaginary-mean", "negative-noise-seed",
         "negative-initial-seed", "negative-noise-m", "unknown-initial-kind", "weight-underflow",
         "unknown-flag", "string-seed", "top-level-number", "top-level-null",
         "top-level-list", "top-level-string", "config-not-utf8", "config-nested-too-deep",
         "config-is-directory", "out-is-file", "out-under-file", "negative-save-paths",
         "basis-size-past-capacity", "basis-size-one-past-capacity", "nan-dt",
         "infinite-t-final", "nan-friction", "nan-lambda1", "nan-damping-rate",
         "t-final-past-float-range", "length-x-defeats-eigensolver",
         "length-x-inside-wavenumber-bound", "length-x-defeats-lifting",
         "length-x-inside-lifting-bound", "negative-budget"],
)
def test_cli_exit_code_without_traceback(tmp_path, command, flags, overrides, code):
    err = _check_exit_code(tmp_path, command, flags, overrides, code)
    # stderr is exactly one error line of the exit code's kind, none on exit 0
    lines = err.splitlines()
    kinds = ("config error: ", "validation error: ") if code == 1 else ("numerical failure: ",)
    assert len(lines) == (code != 0) and all(line.startswith(kinds) for line in lines), err
    if code == 1:   # found before optimize writes its target
        assert not (tmp_path / "out" / "target.npz").exists()


def test_main_returns_1_on_usage_errors(tmp_path, capsys):
    p = str(write_cfg(tmp_path))
    for argv in (["simulate", "--config", p, "--bogus"],
                 ["simulate", "--config", p, "--seed", "abc"],
                 ["simulate", "--config", p, "--threads", "2"],
                 ["simulate"]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: slipflow")


@pytest.mark.parametrize("command", ["simulate", "verify", "optimize"])
def test_cli_names_explicit_euler_limit_when_all_paths_blow_up(tmp_path, command):
    # lam_max = 39.48 on BASE's basis, so the limit 2/(nu*lam_max) is 0.101
    err = _check_exit_code(tmp_path, command, ["--paths", "2"],
                           {"time": {"t_final": 8.0, "dt": 0.2},
                            "optimize": {"budget": 2, "paths": 2, "noise_on": True}}, 2)
    assert "dt = 0.2 is at or past the explicit Euler limit 2/(nu*lam_max) = 0.101" in err


def test_cli_blowup_below_euler_limit_has_no_hint(tmp_path):
    err = _check_exit_code(tmp_path, "simulate", ["--paths", "2"],
                           {"noise": {"mult_gain": [5000.0, 5000.0]}}, 2)
    assert "all 2 paths blew up" in err and "Euler" not in err


def test_runtime_does_not_import_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded through the test oracles
    p = write_cfg(tmp_path, optimize={"budget": 2, "theta_star": [0.4, 0.5], "paths": 1})
    argv = ["--config", str(p), "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from slipflow.cli import main\n"
        "for cmd in ('basis', 'lift', 'simulate', 'verify', 'optimize'):\n"
        f"    assert main([cmd, *{argv!r}]) == 0, cmd\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _check_exit_code(tmp_path, command, flags, overrides, code):
    # overrides as bytes are the whole config file; relative paths in flags
    # resolve against tmp_path, which holds the config as cfg.json
    if isinstance(overrides, bytes):
        p = tmp_path / "cfg.json"
        p.write_bytes(overrides)
    else:
        p = write_cfg(tmp_path, **overrides)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "slipflow.cli", command, "--config", str(p),
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=env, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() or code == 0
    return proc.stderr


# a control file that fits BASE, and faults in it: malformed entries, and
# constants that differ from the config's own
_GOOD_CONTROL = {"length_x": 2 * np.pi, "n_modes": 2, "p": 4.0, "t_grid": [0.0, 0.2],
                 "gamma": [[0.0] * 20, [0.1] * 20]}


def _simulate_under_control(tmp_path, data):
    path = tmp_path / "control.json"
    path.write_text(json.dumps(data))
    cfg = write_cfg(tmp_path, control={"coeff_file": str(path)})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, err.getvalue().splitlines()


def test_control_file_fitting_config_runs(tmp_path):
    assert _simulate_under_control(tmp_path, _GOOD_CONTROL) == (0, [])


def test_one_point_control_file_is_constant(tmp_path):
    # a one-point t_grid covers any horizon, for the config and the simulator
    # alike: the constant control, the same numbers as on a two-point grid
    gamma = [0.1] * 10 + [-0.05] * 10
    tables = []
    for name, t_grid in (("one", [0.0]), ("two", [0.0, 0.2])):
        run = tmp_path / name
        run.mkdir()
        data = {**_GOOD_CONTROL, "t_grid": t_grid, "gamma": [gamma] * len(t_grid)}
        assert _simulate_under_control(run, data) == (0, [])
        tables.append((run / "out" / "summary.csv").read_text().split("\n", 1)[1])
    assert tables[0] == tables[1]


@pytest.mark.parametrize("fault", [
    {"n_modes": None}, [], {"gamma": [[0.0] * 19] * 2}, {"p": 1.0}, {"length_x": 3.0},
    {"n_modes": 3}, {"p": 5.0}, {"t_grid": [0.0, 0.1]},
    {"t_grid": [0.0, 0.5, 0.5], "gamma": [[0.0] * 20] * 3}, {"t_grid": [0.1, 0.2]},
    {"t_grid": "x"}, {"gamma": [[0.0] * 20, [0.1] * 19 + [float("nan")]]},
    {"gamma": [[0.0] * 20, [1e300] * 20]}, {"n_modes": 2.7}, {"n_modes": "2"},
    {"n_modes": True}, {"length_x": str(2 * np.pi)}, {"p": "4"},
    {"gamma": [_GOOD_CONTROL["gamma"]] * 2},
], ids=["null-modes", "top-level-list", "gamma-shape", "p-one", "length-x-differs",
        "modes-differ", "p-differs", "horizon-short", "repeated-time", "late-start",
        "string-times", "nan-gamma", "overflowing-gamma", "float-modes", "string-modes",
        "bool-modes", "string-length-x", "string-p", "stacked-gamma"])
def test_control_file_faults_exit_one(tmp_path, fault):
    data = {**_GOOD_CONTROL, **fault} if isinstance(fault, dict) else fault
    code, lines = _simulate_under_control(tmp_path, data)
    assert code == 1, lines
    assert len(lines) == 1 and lines[0].startswith("validation error: "), lines


def test_verify_zero_control_file_is_no_control(tmp_path):
    # an all-zero coeff_file is the zero control, as an all-zero theta is:
    # verify then runs its default stability controls, and every report
    # number agrees with the control-free config's
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({**_GOOD_CONTROL, "gamma": [[0.0] * 20] * 2}))
    reports = []
    for name, control in (("free", {"theta": [0.0, 0.0]}), ("file", {"coeff_file": str(zero)})):
        p = write_cfg(tmp_path, name=f"{name}.json", control=control)
        out = tmp_path / name
        assert main(["verify", "--config", str(p), "--out", str(out), "--paths", "6"]) == 0
        reports.append({f.name: json.loads(f.read_text()) for f in sorted(out.glob("*.json"))})
    free, from_file = reports
    assert len(free) == 5 and free.keys() == from_file.keys()
    for name, rep in free.items():
        assert rep.pop("config_hash") != from_file[name].pop("config_hash")
        assert rep == from_file[name], name
    assert free["verify_summary.json"]["constants"]["stability"] > 0.0


# well-formed inputs plus up to two injected faults, so that a fair share
# of the examples gets past validation into the certifiers
_FAULTS = [("--seed", -1), ("--seed", 2**64), ("--paths", 0), ("--paths", -2),
           ("--threads", 0), ("--threads", -1), ("--threads", 2),
           ("paths", 0), ("paths", -3), ("paths", 2.5), ("stability_paths", 0),
           ("stability_paths", "3"), ("stability_scale", "0.5"), ("stability_scale", True)]

# config leaves that hold lists, may be null or need a check beyond their
# type: well-formed, wrong-typed and out-of-range values, plus scalars of
# every JSON type
_SLOT = ["b", "top", 2, "re"]
_LEAF_FAULTS = [
    (("control", "theta"), v) for v in ([0.1, -0.2], [0.0, 0.0], ["a", 0.2], [True, 0.1], [0.1])
] + [
    (("control", "slots"), [s, _SLOT]) for s in (["b", "bottom", 0, "re"], ["a", "middle", 1, "re"],
                                                ["z", "bottom", 1, "re"], ["a", "bottom", 9, "re"],
                                                ["a", "bottom", 1.5, "re"], ["a", "bottom", 0, "im"],
                                                ["a", "top", 1, "x"], ["a", "bottom", 1], "a")
] + [
    (("control", "n_modes"), v) for v in (0, 1, 3, -1, 4)
] + [
    (("control", "coeff_file"), v) for v in (3, "", "missing.json", ["x"])
] + [
    (("optimize", "theta0"), v) for v in (None, [0.1, 0.2], "x", ["a"], [True])
] + [
    (("optimize", "theta_star"), v) for v in ([0.4, 0.5], ["q", 1])
] + [
    (("noise", "mult_gain"), v) for v in ([0.0], [0.2, 0.1], [-0.1], ["a"], [0.1, 0.1, 0.1])
] + [
    (("noise", "m"), v) for v in (-1, 0)
] + [
    ((section, "seed"), -1) for section in ("noise", "initial")
] + [
    (("initial", "kind"), v) for v in ("zero", "bogus")
]
_LEAVES = sorted({leaf for leaf, _ in _LEAF_FAULTS})
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2.0, 2.0)
            | st.sampled_from(["", "a", "re"]))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.none() | st.integers(0, 2**64 - 1),
    paths=st.none() | st.integers(1, 12),
    threads=st.none() | st.just(1),
    verify_paths=st.none() | st.integers(1, 12),
    stability_paths=st.integers(1, 6),
    stability_scale=st.floats(-2.0, 2.0),
    faults=st.lists(st.sampled_from(_FAULTS), max_size=2),
    leaves=st.lists(st.sampled_from(_LEAF_FAULTS) | st.tuples(st.sampled_from(_LEAVES), _SCALARS),
                    max_size=2),
)
def test_verify_exit_code_property(tmp_path, seed, paths, threads, verify_paths,
                                   stability_paths, stability_scale, faults, leaves):
    # any mix of flags, verify keys and list or nullable config leaves ends
    # in a documented exit code with a message, never in an exception
    flags = {"--seed": seed, "--paths": paths, "--threads": threads}
    sections = {"verify": {"paths": verify_paths, "stability_paths": stability_paths,
                           "stability_scale": stability_scale}}
    for key, value in faults:
        (flags if key in flags else sections["verify"])[key] = value
    for (section, key), value in leaves:
        sections.setdefault(section, {})[key] = value
    _check_verify_in_process(tmp_path, flags, sections)


@pytest.mark.parametrize("leaf, value", _LEAF_FAULTS, ids=repr)
def test_verify_exit_code_config_leaves(tmp_path, leaf, value):
    # every curated leaf value on its own, which the derandomized property
    # test above reaches only in part
    _check_verify_in_process(tmp_path, {}, {leaf[0]: {leaf[1]: value}})


def _check_verify_in_process(tmp_path, flags, sections):
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    p = write_cfg(out, time={"t_final": 0.05, "dt": 0.005}, **sections)
    argv = ["verify", "--config", str(p), "--out", str(out / "out")]
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, str(value)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()
