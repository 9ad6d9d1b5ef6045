"""The benchmark workloads' numbers against a committed reference.

Each workload of perfbench/workloads.py runs its command on its seed-3
config, and criterion 10's config runs through `basis`, `lift`, `simulate`,
`optimize` and `verify`.  Every numeric leaf of the JSON reports, CSV tables
and npz arrays they write is compared with tests/numeric_reference.json.  A
leaf belongs to a series: a CSV column, an npz array (flattened), or a JSON
key with its list positions dropped (`iterates.cost` holds every iterate's
cost).

* Counts, booleans, seeds, iterates and the accepted theta sequence must
  match exactly.
* Every other number matches to 1e-12 relative, with an absolute floor of
  1e-14 of the largest magnitude in its series.  A tolerance, not a digest,
  lets another BLAS build pass.  NaN must stay NaN.

A change that moves a number past the tolerance rewrites the reference with

    PYTHONPATH=src python tests/test_numeric_reference.py [BASE.json ...]

and lists every number that moved, with its old and new value.  Before it
writes, the script prints each series' largest move against the committed
file: |new - old| / max(|old|, 1e-2 of the series' scale), so a series passes
while its move is at most 1e-12; inf for a changed exact value, NaN or count.
It prints the same list against each BASE, a reference this script wrote
elsewhere.  The committed file may come from another host, whose BLAS rounds
some sums differently; a BASE written by a checkout of the parent commit on
the same host gives the moves of the change alone.  So a series whose new
values equal a BASE's keeps its committed values: the rewrite holds the
change's own moves, not this host's rounding.
"""

import csv
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import run_determinism_config

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


def _npz_series(path: Path) -> dict:
    with np.load(path) as z:
        return {k: z[k].ravel().tolist() for k in z.files if z[k].dtype.kind in "biuf"}


def artifact_numbers(out: Path) -> dict:
    """{artifact: {series: values}} of every JSON, CSV and npz artifact in out; NaN is None."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            series = {}
            _leaves(json.loads(path.read_text()), "", series)
        elif path.suffix == ".csv":
            series = _csv_series(path)
        elif path.suffix == ".npz":
            series = _npz_series(path)
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


def run_determinism(tmp: Path) -> dict:
    """The artifact numbers of criterion 10's config through its five commands."""
    run_determinism_config(tmp / "determinism")
    return artifact_numbers(tmp / "determinism")


def _exact(series: str, values: list) -> bool:
    leaf = series.rsplit(".", 1)[-1]
    return (leaf in EXACT or leaf.startswith("theta")
            or all(isinstance(v, (bool, int)) for v in values))


def _series(ref: dict, new: dict):
    """(where, ref values, new values, moves) per series of ref or new: the
    move of each leaf, or None when the two differ in length."""
    for art in sorted(ref.keys() | new.keys()):
        want, got = ref.get(art, {}), new.get(art, {})
        for series in sorted(want.keys() | got.keys()):
            a, b = want.get(series, []), got.get(series, [])
            where = f"{art} {series}"
            if len(a) != len(b):
                yield where, a, b, None
                continue
            exact = _exact(series, a)
            scale = FLOOR / RTOL * max((abs(v) for v in a if v is not None), default=0.0)
            moves = []
            for x, y in zip(a, b):
                if x is None or y is None or exact or not max(abs(x), scale):
                    moves.append(0.0 if x == y else math.inf)
                else:
                    moves.append(abs(x - y) / max(abs(x), scale))
            yield where, a, b, moves


def mismatches(ref: dict, new: dict) -> list:
    """One line per leaf of ref that new lacks or that moved past RTOL."""
    bad = []
    for where, a, b, moves in _series(ref, new):
        if moves is None:
            bad.append(f"{where}: {len(b)} values, reference has {len(a)}")
            continue
        for i, (x, y, move) in enumerate(zip(a, b, moves)):
            if move == math.inf:
                bad.append(f"{where}[{i}]: {y!r}, reference {x!r}")
            elif move > RTOL:
                bad.append(f"{where}[{i}]: {y!r}, reference {x!r}, off by {move:.2e} relative")
    return bad


def largest_moves(ref: dict, new: dict) -> list:
    """(move, where) of every series that moved, the largest first."""
    found = [(math.inf if moves is None else max(moves, default=0.0), where)
             for where, _, _, moves in _series(ref, new)]
    return sorted((m for m in found if m[0] > 0.0), reverse=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_numbers_match_reference(tmp_path, name):
    ref = json.loads(REFERENCE.read_text())
    assert ref["seed"] == SEED
    bad = mismatches(ref["workloads"][name], run_workload(name, tmp_path))
    assert not bad, f"{name} (seed {SEED}):\n" + "\n".join(bad[:20])


def test_determinism_config_numbers_match_reference(tmp_path):
    ref = json.loads(REFERENCE.read_text())
    bad = mismatches(ref["determinism"], run_determinism(tmp_path))
    assert not bad, "criterion 10's config:\n" + "\n".join(bad[:20])


def test_rewrite_keeps_series_that_equal_base():
    # against a BASE the series that did not move keep their committed values
    # (another host's rounding); moved, new and uncommitted series take the new
    def ref(a, b, **more):
        return {"seed": SEED, "workloads": {"w": {"x.json": {"a": a, "b": b, **more}}},
                "determinism": {"x.json": {"a": a}}}

    committed = ref([1.0, None], [2.0])
    base = ref([1.0 + 1e-15, None], [2.0], c=[3.0])
    new = ref([1.0 + 1e-15, None], [2.5], c=[3.0])
    assert keep_unmoved(new, committed, [base]) == 2
    assert new == ref([1.0, None], [2.5], c=[3.0])
    new = ref([1.0 + 1e-15, None], [2.5])
    assert keep_unmoved(new, committed, []) == 0 and new == ref([1.0 + 1e-15, None], [2.5])


def reference_numbers() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"seed": SEED,
                "workloads": {name: run_workload(name, Path(tmp))
                              for name in sorted(workloads.WORKLOADS)},
                "determinism": run_determinism(Path(tmp))}


def _runs(numbers: dict) -> dict:
    """{run: {artifact: {series: values}}} of a reference."""
    return {**numbers["workloads"], "determinism": numbers["determinism"]}


def keep_unmoved(numbers: dict, committed: dict, bases: list) -> int:
    """Give each series of numbers whose values equal a base's, and that the
    committed reference has, its committed values; returns how many."""
    committed, bases, kept = _runs(committed), [_runs(b) for b in bases], 0
    for run, found in _runs(numbers).items():
        for art, series in found.items():
            for key, values in series.items():
                old = committed.get(run, {}).get(art, {}).get(key)
                if old is not None and any(
                        b.get(run, {}).get(art, {}).get(key) == values for b in bases):
                    series[key], kept = old, kept + 1
    return kept


def write_reference(bases: list):
    numbers = reference_numbers()
    refs = {base: json.loads(base.read_text()) if base.exists() else None
            for base in [REFERENCE, *map(Path, bases)]}
    for base, ref in refs.items():
        print(f"moves against {base}:")
        old = _runs(ref) if ref else {}
        for run, found in _runs(numbers).items():
            for move, where in largest_moves(old.get(run, {}), found):
                print(f"{run} {where}: {move:.2e}")
    committed, *found = refs.values()
    if committed and any(found):
        kept = keep_unmoved(numbers, committed, [ref for ref in found if ref])
        print(f"kept {kept} series that equal a BASE as committed")
    # json writes each float as its shortest round-trip repr, at most 17 digits
    REFERENCE.write_text(json.dumps(numbers, indent=0) + "\n")


if __name__ == "__main__":
    write_reference(sys.argv[1:])
    print(f"wrote {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
