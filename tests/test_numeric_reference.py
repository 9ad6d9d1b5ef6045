"""The benchmark workloads' numbers against a committed reference.

Each workload of perfbench/workloads.py runs its command on its seed-3
config, and every numeric leaf of the JSON reports and CSV tables it writes
is compared with tests/numeric_reference.json.  A leaf belongs to a series:
a CSV column, or a JSON key with its list positions dropped
(`iterates.cost` holds every iterate's cost).

* Counts, booleans, seeds, iterates and the accepted theta sequence must
  match exactly.
* Every other number matches to 1e-12 relative, with an absolute floor of
  1e-14 of the largest magnitude in its series.  A tolerance, not a digest,
  lets another BLAS build pass.  NaN must stay NaN.

A change that moves a number past the tolerance rewrites the reference with

    PYTHONPATH=src python tests/test_numeric_reference.py

and lists every number that moved, with its old and new value.
"""

import csv
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).with_name("numeric_reference.json")
SEED = 3
RTOL, FLOOR = 1e-12, 1e-14
EXACT = {"seed", "blown_up", "iterate"}   # integer series the CSVs write as text

_PATH = ROOT / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def _leaves(node, key: str, out: dict):
    """Append the numeric leaves of a JSON value to out[series]; strings are skipped."""
    if isinstance(node, dict):
        for k, v in node.items():
            _leaves(v, f"{key}.{k}" if key else k, out)
    elif isinstance(node, list):
        for v in node:
            _leaves(v, key, out)
    elif isinstance(node, (int, float)):
        out.setdefault(key, []).append(node)


def _csv_series(path: Path) -> dict:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return {col: [float(r[i]) for r in rows[1:]] for i, col in enumerate(rows[0])}


def artifact_numbers(out: Path) -> dict:
    """{artifact: {series: values}} of every JSON and CSV artifact in out; NaN is None."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            series = {}
            _leaves(json.loads(path.read_text()), "", series)
        elif path.suffix == ".csv":
            series = _csv_series(path)
        else:
            continue
        found[path.name] = {k: [None if isinstance(v, float) and math.isnan(v) else v
                                for v in vals] for k, vals in series.items()}
    return found


def run_workload(name: str, tmp: Path) -> dict:
    """The artifact numbers of one workload's command on its seed-3 config."""
    from slipflow.cli import main

    cfg_path, out = tmp / f"{name}.json", tmp / name
    cfg_path.write_text(json.dumps(workloads.make_config(name, SEED)))
    assert main(workloads.cli_args(name, cfg_path, out, SEED)) == 0
    return artifact_numbers(out)


def _exact(series: str, values: list) -> bool:
    leaf = series.rsplit(".", 1)[-1]
    return (leaf in EXACT or leaf.startswith("theta")
            or all(isinstance(v, (bool, int)) for v in values))


def mismatches(ref: dict, new: dict) -> list:
    """One line per leaf of ref that new lacks or that differs past the tolerance."""
    bad = []
    for art in sorted(ref.keys() | new.keys()):
        want, got = ref.get(art, {}), new.get(art, {})
        for series in sorted(want.keys() | got.keys()):
            a, b = want.get(series, []), got.get(series, [])
            where = f"{art} {series}"
            if len(a) != len(b):
                bad.append(f"{where}: {len(b)} values, reference has {len(a)}")
                continue
            exact = _exact(series, a)
            scale = max((abs(v) for v in a if v is not None), default=0.0)
            for i, (x, y) in enumerate(zip(a, b)):
                if (x is None or y is None or exact) and x != y:
                    bad.append(f"{where}[{i}]: {y!r}, reference {x!r}")
                elif x is not None and y is not None and abs(x - y) > max(
                        RTOL * abs(x), FLOOR * scale):
                    bad.append(f"{where}[{i}]: {y!r}, reference {x!r}, "
                               f"off by {abs(x - y) / max(abs(x), 1e-300):.2e} relative")
    return bad


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_numbers_match_reference(tmp_path, name):
    ref = json.loads(REFERENCE.read_text())
    assert ref["seed"] == SEED
    bad = mismatches(ref["workloads"][name], run_workload(name, tmp_path))
    assert not bad, f"{name} (seed {SEED}):\n" + "\n".join(bad[:20])


def write_reference():
    with tempfile.TemporaryDirectory() as tmp:
        numbers = {name: run_workload(name, Path(tmp)) for name in sorted(workloads.WORKLOADS)}
    # json writes each float as its shortest round-trip repr, at most 17 digits
    REFERENCE.write_text(json.dumps({"seed": SEED, "workloads": numbers}, indent=0) + "\n")


if __name__ == "__main__":
    write_reference()
    print(f"wrote {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
