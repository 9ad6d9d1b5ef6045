"""Every public function, class and method of slipflow has a caller in the program.

A name that only tests call is library surface that no workflow needs.  The
scan parses src/slipflow and perfbench with `ast`.  A top-level function or
class counts as referenced when its name occurs as a name or an attribute, a
method when its name occurs as an attribute, and perfbench's tracer targets
("slipflow.<module>:<qualified name>" strings) count for both; `__all__`
strings do not.  Names are matched without types, so a method is referenced
by any attribute of the same name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the public names no program code calls, each with the reason it stays
ALLOWED = {
    "basis.truncate_basis": "library basis API beside save_basis; tests cut bases with it",
    "basis.load_basis": "reads back what save_basis writes for the basis command",
    "basis.sample_fields": "the sampler tests/oracles.py builds its reference tensors with",
    "geometry.Grid.quad_weights_domain": "the reference weights tests/oracles.py integrates with",
    "control.OptimizeHistory.costs": "the accepted costs as an array, for checks on a history",
    "cli._ArgumentParser.error": "argparse calls it on a usage error",
}


def unreferenced_names() -> set:
    src = sorted((ROOT / "src" / "slipflow").glob("*.py"))
    names, attrs, defined = set(), set(), []
    for path in src + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = re.fullmatch(r"slipflow\.\w+:([\w.]+)", node.value)
                attrs.update(target.group(1).split(".") if target else ())
        if path not in src:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{sub.name}", True) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
    return {qual for qual, method in defined
            if not (leaf := qual.rsplit(".", 1)[1]).startswith("_")
            and leaf not in (attrs if method else names | attrs)}


def test_every_public_name_has_a_caller_in_the_program():
    found = unreferenced_names()
    assert sorted(found - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - found) == []  # a name with a caller leaves the list
