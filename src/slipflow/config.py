"""Run configuration: one structured-text (JSON) file drives every workflow.

The file is a nested key/value document; unknown keys are rejected so typos
fail loudly.  A canonical hash of the parsed content is embedded in every
output artifact, which is what makes reruns byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .control import AdmissibleSpec, ParamMap
from .dynamics import Simulator, build_noise, make_initial_coeffs
from .geometry import DomainSpec, GeometryError, build_grid
from .lifting import BoundaryControl, LiftingCache, LiftingError

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid run configuration."""


_SECTIONS = {
    "domain", "basis_size", "time", "noise", "control", "initial",
    "monte_carlo", "damping_rate", "simulate", "verify", "optimize", "output",
}

_DEFAULTS = {
    "domain": {
        "length_x": 2.0 * np.pi,
        "modes_x": 4,
        "nodes_y": 24,
        "friction_alpha": 1.0,
        "viscosity": 0.5,
    },
    "basis_size": 12,
    "time": {"t_final": 0.5, "dt": 0.005},
    "noise": {
        "m": 2,
        "additive_scale": 0.05,
        "additive_decay": 1.0,
        "seed": 7,
        "mult_gain": [0.1, 0.1],
    },
    "control": {
        "n_modes": 2,
        "n_times": 2,
        "p": 4.0,
        "radius": 20.0,
        "lambda1": 1e-4,
        "lambda2": 1e-4,
        "coeff_file": None,
        "slots": [["a", "bottom", 1, "re"], ["b", "top", 2, "re"]],
        "theta": [0.0, 0.0],
    },
    "initial": {"kind": "random", "seed": 3, "scale": 0.3, "decay": 1.0},
    "monte_carlo": {"paths": 50, "seed_bank_start": 0},
    "damping_rate": 1.0,
    "simulate": {"store_beta": False, "save_paths": 2, "nonlinear": True, "noise_on": True},
    "verify": {"paths": None, "stability_paths": 24, "stability_scale": 0.5},
    "optimize": {
        "method": "compass",
        "budget": 80,
        "theta_star": [0.6, 0.8],
        "theta0": None,
        "paths": 4,
        "noise_on": False,
        "step0": 0.3,
        "step_min": 1e-4,
    },
    "output": {"dir": "out"},
}


# seed-bank starts stay below this, so every Philox key (start + path index)
# fits in the generator's 128 bits
SEED_LIMIT = 2**64


# type of a leaf's default -> accepted types of its value, and their name
_LEAF_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
}


def _merge(defaults, user, path=""):
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"section {path or '<root>'} must be a mapping")
        unknown = set(user) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)} in section {path or '<root>'}")
        return {
            key: _merge(defaults[key], user[key], f"{path}.{key}" if path else key)
            if key in user
            else (dict(defaults[key]) if isinstance(defaults[key], dict) else defaults[key])
            for key in defaults
        }
    if defaults is not None:  # a None default has its own check in validate
        _check_leaf(defaults, user, path)
    return user


def _check_leaf(default, value, path, record=False):
    """Raise unless value has the type of default.  A list's elements are
    checked against its first default element; a list inside a list is a
    record, checked position by position."""
    accepted, name = _LEAF_TYPES[type(default)]
    if not isinstance(value, accepted) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(f"{path} must be {name}")
    if isinstance(default, list) and default:
        if record and len(value) != len(default):
            raise ConfigError(f"{path} must hold {len(default)} entries")
        for i, item in enumerate(value):
            _check_leaf(default[i] if record else default[0], item, f"{path}[{i}]", True)


@dataclass(eq=False)
class RunConfig:
    data: dict

    def __post_init__(self):
        self.validate()

    # -- bookkeeping -------------------------------------------------------

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"), default=float)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def validate(self):
        d = self.data
        t = d["time"]
        if t["dt"] <= 0 or t["t_final"] <= 0:
            raise ConfigError("time.dt and time.t_final must be positive")
        n_steps = t["t_final"] / t["dt"]
        if abs(round(n_steps) - n_steps) > 1e-9 or round(n_steps) < 1:
            raise ConfigError("t_final must be a positive integer multiple of dt")
        if d["monte_carlo"]["paths"] < 1:
            raise ConfigError("monte_carlo.paths must be >= 1")
        if not 0 <= d["monte_carlo"]["seed_bank_start"] < SEED_LIMIT:
            raise ConfigError("monte_carlo.seed_bank_start must be >= 0 and < 2**64")
        if d["basis_size"] < 1:
            raise ConfigError("basis_size must be >= 1")
        if d["damping_rate"] <= 0:
            raise ConfigError("damping_rate must be positive")
        c = d["control"]
        if not 0 <= c["n_modes"] <= d["domain"]["modes_x"]:
            raise ConfigError("control.n_modes must lie in 0..domain.modes_x")
        if c["coeff_file"] is not None and not isinstance(c["coeff_file"], str):
            raise ConfigError("control.coeff_file must be null or a string")
        theta0 = d["optimize"]["theta0"]
        if theta0 is not None:
            _check_leaf([0.0], theta0, "optimize.theta0")
        try:
            DomainSpec(**d["domain"])
            proto = BoundaryControl.zeros(d["domain"]["length_x"], c["n_modes"], [0.0], c["p"])
        except (GeometryError, LiftingError) as exc:
            raise ConfigError(str(exc)) from exc
        for i, slot in enumerate(c["slots"]):
            try:
                proto.dof_index(*slot)
            except LiftingError as exc:
                raise ConfigError(f"control.slots[{i}]: {exc}") from exc
        m = d["noise"]["m"]
        gains = d["noise"]["mult_gain"]
        if m < 0:
            raise ConfigError("noise.m must be >= 0")
        for section in ("noise", "initial"):
            if d[section]["seed"] < 0:
                raise ConfigError(f"{section}.seed must be >= 0")
        if d["initial"]["kind"] not in ("zero", "random"):
            raise ConfigError("initial.kind must be 'zero' or 'random'")
        if len(gains) not in (1, m):
            raise ConfigError("noise.mult_gain must have length 1 or m")
        if not all(g >= 0 for g in gains):
            raise ConfigError("noise.mult_gain must be nonnegative")
        v = d["verify"]
        if v["paths"] is not None and (type(v["paths"]) is not int or v["paths"] < 1):
            raise ConfigError("verify.paths must be null or an integer >= 1")
        if v["stability_paths"] < 1:
            raise ConfigError("verify.stability_paths must be >= 1")
        if not math.isfinite(v["stability_scale"]):
            raise ConfigError("verify.stability_scale must be finite")

    # -- builders ----------------------------------------------------------

    def domain_spec(self) -> DomainSpec:
        return DomainSpec(**self.data["domain"])

    def grid(self):
        return build_grid(self.domain_spec())

    def basis(self):
        from .basis import build_eigenbasis

        return build_eigenbasis(self.domain_spec(), self.data["basis_size"])

    def lifting_cache(self, grid) -> LiftingCache:
        c = self.data["control"]
        return LiftingCache(grid, self.domain_spec().friction_alpha, c["n_modes"], c["p"])

    def noise(self):
        nz = self.data["noise"]
        gains = nz["mult_gain"]
        if len(gains) == 1:
            gains = gains * nz["m"]
        return build_noise(
            self.data["basis_size"],
            nz["m"],
            nz["additive_scale"],
            nz["additive_decay"],
            nz["seed"],
            gains,
        )

    def simulator(self, basis, cache, noise) -> Simulator:
        t = self.data["time"]
        return Simulator(
            basis,
            cache,
            noise,
            t_final=t["t_final"],
            dt=t["dt"],
            include_nonlinear=self.data["simulate"]["nonlinear"],
        )

    def initial_coeffs(self):
        ic = self.data["initial"]
        return make_initial_coeffs(
            self.data["basis_size"], ic["kind"], ic["seed"], ic["scale"], ic["decay"]
        )

    def admissible_spec(self) -> AdmissibleSpec:
        c = self.data["control"]
        return AdmissibleSpec(
            radius=c["radius"],
            lambda1=c["lambda1"],
            lambda2=c["lambda2"],
            p=c["p"],
        )

    def param_map(self) -> ParamMap:
        c = self.data["control"]
        t = self.data["time"]
        t_grid = tuple(np.linspace(0.0, t["t_final"], max(2, c["n_times"])))
        return ParamMap(
            length_x=self.data["domain"]["length_x"],
            n_modes=c["n_modes"],
            t_grid=t_grid,
            slots=tuple(map(tuple, c["slots"])),
            p=c["p"],
        )

    def control(self) -> BoundaryControl | None:
        """Control from coeff_file if given, else static slots at theta."""
        c = self.data["control"]
        if c["coeff_file"]:
            try:
                return BoundaryControl.load(c["coeff_file"])
            except (OSError, ValueError, KeyError) as exc:
                raise ConfigError(f"cannot read control.coeff_file: {exc}") from exc
        theta = np.asarray(c["theta"], float)
        if not theta.any():
            return None
        pmap = self.param_map()
        if theta.shape != (pmap.dim,):
            raise ConfigError("control.theta length must match control.slots")
        return pmap.control(theta)

    def seed_bank(self, n_paths=None, start=None) -> list:
        mc = self.data["monte_carlo"]
        n = n_paths if n_paths is not None else mc["paths"]
        s0 = start if start is not None else mc["seed_bank_start"]
        return [s0 + i for i in range(n)]


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("the config's top level is not a JSON object")
    unknown = set(user) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown top-level sections {sorted(unknown)}")
    return RunConfig(_merge(_DEFAULTS, user))
