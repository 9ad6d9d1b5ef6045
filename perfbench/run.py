"""Layered benchmark of slipflow's CLI workflows.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_mc --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

It drives ``slipflow.cli.main`` in-process on a config generated from the
workload and seed, one invocation after another (closed loop, one client),
until ``--seconds`` of wall time are spent.  Before the timed loop it sets up a
``Simulator`` once and checks the kernel against the ``step_em`` reference
on one path, which also warms up every layer.  Every invocation's artifacts
are checked outside the timed region, and reruns must be byte-identical; a
failed check counts as a failed invocation.  ``setup_s`` is timed inside
each invocation, from the call until its ``Simulator`` is constructed; that
one marker is the only instrumentation on untraced invocations.

Every time the benchmark reports is in reference seconds (see ``speed.py``):
the wall time of an interval multiplied by the host speed sampled during it,
so a neighbour that slows the shared host slows the program and the
reference kernel alike and cancels out.  The raw wall times and the speed
are printed beside them.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones, with ``trace.overhead_s`` the
difference of their median wall times.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``fail_frac``,
failed over attempted invocations, is printed on its own line and carried
by ``attempted`` and ``failed``.  Spans and a result record with the
environment go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1       # fixed for every timed run, so all work runs on the sampled core
MIN_INVOCATIONS = 3    # per run, even when one invocation outlasts --seconds
ORACLE_RTOL = 1e-9     # reordered sums differ by ~1e-16; a wrong term by far more

# end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}

WRITERS = {
    "write.Trajectory.export_csv": "slipflow.dynamics:Trajectory.export_csv",
    "write.save_basis": "slipflow.basis:save_basis",
    "write.EstimateReport.to_json": "slipflow.diagnostics:EstimateReport.to_json",
    "write.CostReport.to_json": "slipflow.control:CostReport.to_json",
    "write.OptimizeHistory.to_json": "slipflow.control:OptimizeHistory.to_json",
    "write.OptimizeHistory.to_csv": "slipflow.control:OptimizeHistory.to_csv",
    "write.Target.save": "slipflow.control:Target.save",
    "write.BoundaryControl.save": "slipflow.lifting:BoundaryControl.save",
    "write.json_dump": "slipflow.cli:_json_dump",
}

LAYERS = {
    "config.load_config": "slipflow.config:load_config",
    "geometry.build_grid": "slipflow.geometry:build_grid",
    "basis.build_eigenbasis": "slipflow.basis:build_eigenbasis",
    "lifting.LiftingCache": "slipflow.lifting:LiftingCache.__init__",
    "lifting.project_compatible": "slipflow.lifting:project_compatible",
    "dynamics.Simulator.__init__": "slipflow.dynamics:Simulator.__init__",
    "dynamics.assemble_operators": "slipflow.dynamics:assemble_operators",
    "dynamics.Simulator.run_many": "slipflow.dynamics:Simulator.run_many",
    "dynamics.Simulator.run": "slipflow.dynamics:Simulator.run",
    "dynamics.Simulator.gamma_series": "slipflow.dynamics:Simulator.gamma_series",
    "diagnostics.certify_second_moment": "slipflow.diagnostics:certify_second_moment",
    "diagnostics.certify_fourth_moment": "slipflow.diagnostics:certify_fourth_moment",
    "diagnostics.certify_wellposed_cost": "slipflow.diagnostics:certify_wellposed_cost",
    "diagnostics.certify_stability": "slipflow.diagnostics:certify_stability",
    "diagnostics.empirical_damping_rate": "slipflow.diagnostics:empirical_damping_rate",
    "diagnostics.bootstrap_ci": "slipflow.diagnostics:bootstrap_ci",
    "control.make_target": "slipflow.control:make_target",
    "control.estimate_cost": "slipflow.control:estimate_cost",
    "control.project_admissible": "slipflow.control:project_admissible",
    "control.penalty_term": "slipflow.control:penalty_term",
    "control.optimize": "slipflow.control:optimize",
    **WRITERS,
}

# per-layer metrics: name -> unit.  Plain "<layer>.s", ".calls" and ".self_s"
# are read off the spans of that layer; the rest are derived in layer_metrics.
PER_LAYER = {
    "config.load_config.s": "s",
    "geometry.build_grid.s": "s",
    "basis.build_eigenbasis.s": "s",
    "lifting.LiftingCache.s": "s",
    "dynamics.assemble_operators.s": "s",
    "dynamics.Simulator.run_many.calls": "count",
    "dynamics.Simulator.run_many.s": "s",
    "dynamics.Simulator.run_many.self_s": "s",
    "dynamics.Simulator.run.calls": "count",
    "dynamics.Simulator.run.s": "s",
    "dynamics.Simulator.gamma_series.s": "s",
    "dynamics.path_step_us": "us",
    "dynamics.paths_requested": "count",
    "dynamics.paths_blown_up": "count",
    "diagnostics.certify_second_moment.s": "s",
    "diagnostics.certify_fourth_moment.s": "s",
    "diagnostics.certify_wellposed_cost.s": "s",
    "diagnostics.certify_stability.s": "s",
    "diagnostics.empirical_damping_rate.s": "s",
    "diagnostics.bootstrap_ci.calls": "count",
    "control.make_target.s": "s",
    "control.estimate_cost.calls": "count",
    "control.estimate_cost.s": "s",
    "control.estimate_cost.self_s": "s",
    "control.estimate_cost.ms_p50": "ms",
    "control.estimate_cost.ms_tail": "ms",
    "control.project_admissible.s": "s",
    "control.penalty_term.s": "s",
    "control.optimize.accepted_frac": "ratio",
    "cli.write.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _probe_run_many(args, kwargs, result):
    return {"paths": len(result), "blown": sum(1 for tr in result if tr.blown_up)}


def _probe_optimize(args, kwargs, result):
    _, hist = result
    return {"accepted": len(hist.iterates), "evaluations": hist.evaluations}


PROBES = {"dynamics.Simulator.run_many": _probe_run_many, "control.optimize": _probe_optimize}

# set-up ends when the invocation's Simulator is constructed
READY = "dynamics.Simulator.__init__"


# -- environment -----------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fix_blas_threads() -> int:
    """Pin the BLAS pool size; it is read when numpy is first imported."""
    n = min(BLAS_THREADS, nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": blas_threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": nproc(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# -- measurement -------------------------------------------------------------------


def setup_once(config_path):
    """Config file to a ready Simulator, through RunConfig's public builders."""
    from slipflow.config import load_config

    cfg = load_config(config_path)
    basis = cfg.basis()
    cache = cfg.lifting_cache(basis.grid)
    noise = cfg.noise()
    return cfg, cfg.simulator(basis, cache, noise)


def tail(sorted_vals: list) -> tuple:
    """(percentile, value) of the highest percentile with ten samples above it.

    With ten samples or fewer no such percentile exists; the maximum is given.
    """
    n = len(sorted_vals)
    if n <= 10:
        return 100.0, sorted_vals[-1]
    return 100.0 * (n - 10) / n, sorted_vals[n - 11]


def _median(vals: list) -> float:
    return statistics.median(vals) if vals else 0.0


class Run:
    """One benchmark run: a workload, a seed, a time budget, traced or not."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        # imported here, after fix_blas_threads: both import numpy
        from speed import SpeedSampler
        from workloads import REFERENCE, make_config

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = make_config(workload, seed, tiny)
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.dir = WORK / self.tag
        self.config_path = self.dir / "config.json"
        self.attempted = 0
        self.failures: list[str] = []
        # per passed invocation, keyed by traced?: wall, set-up and path count
        self.walls = {False: [], True: []}
        self.setups = {False: [], True: []}
        self.paths = {False: [], True: []}
        self.raw_walls = {False: [], True: []}
        self.speeds = {}  # invocation -> mean host speed while it ran
        self.sampler = SpeedSampler(REFERENCE[workload])
        self.reference = None  # artifacts of the first passed invocation
        self.oracle = float("nan")
        self.oracle_failure = None
        self.n_steps = 0
        # Untraced invocations record only the root span and the Simulator's
        # construction, whose end marks the end of set-up.
        self.marker = Tracer({READY: LAYERS[READY]})
        self.tracer = Tracer(LAYERS, PROBES) if trace else None

    def invoke(self, k: int, traced: bool) -> None:
        from slipflow import cli
        from workloads import CheckError, artifact_digest, check_outputs, cli_args

        out = self.dir / f"inv{k:03d}"
        argv = cli_args(self.workload, self.config_path, out, self.seed)
        tracer = self.tracer if traced else self.marker
        first = len(tracer.spans)
        tracer.invocation = k
        self.attempted += 1
        gc.collect()
        try:
            tracer.install()
            try:
                self.sampler.start()
                t0 = time.perf_counter()
                rc = tracer.span("cli.main", cli.main, argv)
                wall = time.perf_counter() - t0
            finally:
                self.sampler.stop()
                tracer.uninstall()
        except Exception:  # the CLI must not raise; record it as a failed invocation
            self.failures.append(f"invocation {k} raised:\n{traceback.format_exc()}")
            shutil.rmtree(out, ignore_errors=True)
            return
        spans = tracer.spans[first:]
        speed = self.speeds[k] = self.sampler.factor(t0, t0 + wall)
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            ready = [s.end for s in spans if s.name == READY]
            if not ready:
                raise CheckError("no Simulator was built")
            paths = check_outputs(self.workload, self.cfg, out)
            digest = artifact_digest(out)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                raise CheckError("artifacts differ from the first invocation's")
            if traced:
                self.check_counts(spans, paths, out)
        except CheckError as exc:
            self.failures.append(f"invocation {k}: {exc}")
        else:
            self.walls[traced].append(wall * speed)
            self.setups[traced].append((ready[0] - t0) * self.sampler.factor(t0, ready[0]))
            self.paths[traced].append(paths)
            self.raw_walls[traced].append(wall)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_counts(self, spans: list, paths: int, out: Path):
        """The traced counts must agree with what the artifacts say was done."""
        from workloads import CheckError

        absent = set(self.tracer.absent)
        if "dynamics.Simulator.run_many" not in absent:
            seen = sum(s.info["paths"] for s in spans if s.name == "dynamics.Simulator.run_many")
            if seen != paths:
                raise CheckError(f"run_many saw {seen} paths, the artifacts imply {paths}")
        if self.workload == "optimize_crn" and "control.estimate_cost" not in absent:
            calls = sum(1 for s in spans if s.name == "control.estimate_cost")
            with open(out / "history.json") as fh:
                evaluations = json.load(fh)["evaluations"]
            if calls != evaluations:
                raise CheckError(f"{calls} estimate_cost calls, history says {evaluations}")

    def execute(self) -> dict:
        from workloads import CheckError, oracle_error

        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.cfg, indent=1))

        # the oracle also warms up every layer the set-up touches
        cfg_obj, sim = setup_once(self.config_path)
        self.n_steps = sim.n_steps
        try:
            self.oracle = oracle_error(sim, cfg_obj, self.seed)
        except CheckError as exc:
            self.oracle_failure = str(exc)
        else:
            if not self.oracle <= ORACLE_RTOL:
                self.oracle_failure = f"kernel differs from step_em by {self.oracle:.3g}"
        del cfg_obj, sim

        start = time.perf_counter()
        walls = []
        while True:
            # a traced run alternates untraced and traced invocations
            traced = self.trace and self.attempted % 2 == 1
            t0 = time.perf_counter()
            self.invoke(self.attempted, traced)
            walls.append(time.perf_counter() - t0)
            if self.attempted < MIN_INVOCATIONS or (self.trace and self.attempted % 2):
                continue
            if time.perf_counter() - start + statistics.median(walls) > self.seconds:
                break
        return self.layer_metrics() if self.trace else self.end_to_end_metrics()

    # -- metrics ---------------------------------------------------------------

    def end_to_end_metrics(self) -> dict:
        rates = [p / (w - s) for p, w, s in
                 zip(self.paths[False], self.walls[False], self.setups[False])]
        return {
            "wall_s": _median(self.walls[False]),
            "setup_s": _median(self.setups[False]),
            "paths_per_s": _median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def layer_metrics(self) -> dict:
        tr = self.tracer
        # span times in reference seconds, at the speed of their invocation
        scale = [self.speeds.get(s.invocation, 1.0) for s in tr.spans]
        dur = [d * f for d, f in zip(tr.durations(), scale)]
        own = [d * f for d, f in zip(tr.self_times(), scale)]
        by_inv: dict[int, dict] = {}
        for i, s in enumerate(tr.spans):
            acc = by_inv.setdefault(s.invocation, {})
            if s.name.startswith("write."):
                if s.parent >= 0 and tr.spans[s.parent].name.startswith("write."):
                    continue
                key = "cli.write"
            else:
                key = s.name
            rec = acc.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += own[i]
            for name, val in (s.info or {}).items():
                rec[name] = rec.get(name, 0) + val

        def per_inv(layer, field):
            """Median over traced invocations of one layer's total."""
            return _median([inv.get(layer, {}).get(field, 0) for inv in by_inv.values()])

        out = {}
        for name in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("s", "calls", "self_s") and (layer in LAYERS or layer == "cli.write"):
                out[name] = per_inv(layer, field)
        paths = per_inv("dynamics.Simulator.run_many", "paths")
        out["dynamics.paths_requested"] = paths
        out["dynamics.paths_blown_up"] = per_inv("dynamics.Simulator.run_many", "blown")
        out["dynamics.path_step_us"] = (
            1e6 * out["dynamics.Simulator.run_many.s"] / (paths * self.n_steps) if paths else 0.0
        )
        cost_ms = sorted(1e3 * dur[i] for i, s in enumerate(tr.spans)
                         if s.name == "control.estimate_cost")
        self.cost_tail_pct, tail_ms = tail(cost_ms) if cost_ms else (0.0, 0.0)
        out["control.estimate_cost.ms_p50"] = _median(cost_ms)
        out["control.estimate_cost.ms_tail"] = tail_ms
        evals = per_inv("control.optimize", "evaluations")
        out["control.optimize.accepted_frac"] = (
            per_inv("control.optimize", "accepted") / evals if evals else 0.0
        )
        out["cli.self_s"] = per_inv("cli.main", "self_s")
        out["trace.overhead_s"] = _median(self.walls[True]) - _median(self.walls[False])
        return out


def report(run: Run, metrics: dict, env: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    from workloads import REFERENCE

    units = PER_LAYER if run.trace else END_TO_END
    failed = len(run.failures)
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"invocations {run.attempted}  closed loop, 1 client")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"oracle  max |kernel - step_em| / max(1, |beta|) = {run.oracle:.3e}"
          f"  (tolerance {ORACLE_RTOL:g})")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    walls = sorted(run.walls[False])
    if walls:
        pct, tail_wall = tail(walls)
        print(f"  untraced wall_s: median of {len(walls)} invocations,"
              f" min {walls[0]:.4f} p{pct:.0f} {tail_wall:.4f} reference s;"
              f" setup_s median of {len(run.setups[False])} set-ups;"
              f" {_median(run.paths[False]):g} paths per invocation")
        speeds = sorted(run.speeds.values())
        print(f"  raw wall time: median {_median(run.raw_walls[False]):.4f} s;"
              f" host speed per invocation ({REFERENCE[run.workload]} kernel"
              f" in {run.sampler.nominal_s * 1e6:g} us = 1):"
              f" median {_median(speeds):.4f}, min {speeds[0]:.4f}, max {speeds[-1]:.4f}")
    if run.trace:
        print(f"  traced invocations {len(run.walls[True])};"
              f" estimate_cost tail is p{run.cost_tail_pct:.1f}")
        if run.tracer.absent:
            print("  absent from the program: " + ", ".join(sorted(run.tracer.absent)))
    print(f"fail_frac {failed / max(run.attempted, 1):.6g}"
          f" ({failed} of {run.attempted} invocations)")
    for f in run.failures:
        print("FAILED " + f, file=sys.stderr)
    if run.oracle_failure:
        print("FAILED oracle: " + run.oracle_failure, file=sys.stderr)
    return {
        "correct": failed == 0 and run.oracle_failure is None,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    def seed_arg(text):
        val = int(text)
        if val < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return val

    def positive(text):
        val = float(text)
        if not val > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return val

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them in turn, each in its own process")
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (for the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    blas_threads = fix_blas_threads()  # before anything imports numpy
    args = parse_args(argv)
    if args.workload == "all":
        from workloads import WORKLOADS

        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), *(["--tiny"] if args.tiny else [])]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *common]).returncode
                 for w in WORKLOADS]
        return max(codes)
    src = ROOT / "src"
    if not (src / "slipflow" / "__init__.py").is_file():
        print(f"slipflow sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import warnings

    # the numba fallback warning is expected where numba is not installed
    warnings.filterwarnings("ignore", message="numba unavailable")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        metrics = run.execute()
        env = environment(blas_threads)
        result = report(run, metrics, env)
        if run.tracer is not None:
            run.tracer.dump(WORK / f"spans-{run.tag}.jsonl")
        with open(WORK / f"result-{run.tag}.json", "w") as fh:
            json.dump({"env": env, "failures": run.failures, "oracle": run.oracle,
                       "walls": run.walls, "setups": run.setups,
                       "raw_walls": run.raw_walls, "speeds": run.speeds, **result},
                      fh, indent=1)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
