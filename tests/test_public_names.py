"""Every public function, class and method of slipflow has a caller in the
program, and every defaulted parameter a call in the program that passes it.

A name or a default that only tests use is library surface that no workflow
needs.  The scan parses src/slipflow and perfbench with `ast`; `__all__`
strings count for nothing.

* A top-level function or class counts as referenced by a bare name, by an
  attribute of a name bound to a slipflow module (`ctl.optimize`,
  `diag.bootstrap_ci`) or by a perfbench tracer target
  ("slipflow.<module>:<qualified name>").  An attribute of the same name on
  anything else does not count: `conv.project` is no call of a top-level
  `project`.
* A method counts as referenced by any attribute of its name, or by a tracer
  target.  Methods are matched without types.
* A defaulted parameter of a src function or method counts as passed by a
  call of that name (a class name calls `__init__`) that names it as a
  keyword, reaches it by position, or has a `*` or `**` argument that may
  carry it.  A call made on a bare src class name, `Class.name(...)`, is a
  call of that class's method only.
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

# the defaulted parameters no program call passes, each with the reason it stays
ALLOWED_PARAMS = {
    "dynamics.Simulator.__init__.ops": "tests share one assembly across time steps",
    "cli.main.argv": "perfbench passes it through tracer.span, as a positional argument",
}


def _module_aliases(tree) -> set:
    """The names one file binds to slipflow modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "slipflow" or (node.level and node.module is None)):
            out.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.asname for a in node.names
                       if a.name.startswith("slipflow.") and a.asname)
    return out


def _program() -> dict:
    """{module stem: (source, is src)} of src/slipflow and perfbench."""
    src = sorted((ROOT / "src" / "slipflow").glob("*.py"))
    return {path.stem: (path.read_text(), path in src)
            for path in src + sorted((ROOT / "perfbench").glob("*.py"))}


def _scan(program):
    """(names, attrs, calls, defined, classes): the references and calls of the
    program, the (qualified name, def node, is method) of every src function
    and the names of the src classes."""
    names, attrs, calls, defined, classes = set(), set(), [], [], set()
    for stem, (text, is_src) in program.items():
        tree = ast.parse(text, stem)
        modules = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = re.fullmatch(r"slipflow\.\w+:([\w.]+)", node.value)
                if target:
                    top, *rest = target.group(1).split(".")
                    names.add(top)
                    attrs.update(rest)
            elif isinstance(node, ast.Call):
                calls.append(node)
        if not is_src:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{stem}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
                defined += [(f"{stem}.{node.name}.{sub.name}", sub, True)
                            for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return names, attrs, calls, defined, classes


def unreferenced_names() -> set:
    names, attrs, _, defined, _ = _scan(_program())
    return {qual for qual, _, method in defined
            if not (leaf := qual.rsplit(".", 1)[1]).startswith("_")
            and leaf not in (attrs if method else names)}


def _callee(call, classes) -> tuple:
    """(name, class) of a call: the class is the src class a `Class.name(...)`
    call is made on, None for any other receiver."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id, None
    if isinstance(f, ast.Attribute):
        on = f.value.id if isinstance(f.value, ast.Name) else None
        return f.attr, on if on in classes else None
    return None, None


def unpassed_parameters(program=None) -> set:
    _, _, calls, defined, classes = _scan(program or _program())
    out = set()
    for qual, fn, method in defined:
        if not isinstance(fn, ast.FunctionDef):
            continue
        *owner, leaf = qual.split(".")
        callees = {leaf, owner[-1]} if leaf == "__init__" else {leaf}
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        bound = method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list)
        passed = set()
        for call in calls:
            name, on = _callee(call, classes)
            # `Class.name(...)` is a call of that class's method only
            if name not in callees or on not in (None, method and owner[-1]):
                continue
            if any(k.arg is None for k in call.keywords):          # **kwargs
                passed.update(p.arg for p in defaulted)
            if any(isinstance(x, ast.Starred) for x in call.args):  # *args
                passed.update(p.arg for p in positional)
            passed.update(p.arg for p in positional[bound : bound + len(call.args)])
            passed.update(k.arg for k in call.keywords)
        out.update(f"{qual}.{p.arg}" for p in defaulted if p.arg not in passed)
    return out


def test_every_public_name_has_a_caller_in_the_program():
    found = unreferenced_names()
    assert sorted(found - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - found) == []  # a name with a caller leaves the list


def test_every_defaulted_parameter_is_passed_by_the_program():
    found = unpassed_parameters()
    assert sorted(found - ALLOWED_PARAMS.keys()) == []
    assert sorted(ALLOWED_PARAMS.keys() - found) == []  # a passed parameter leaves the list


def test_a_call_on_a_class_passes_only_that_class_parameters():
    # B.zeros shares its leaf name with A.zeros, but a call made on A is no call of it
    snippet = """
class A:
    @classmethod
    def zeros(cls, n, stack=()):
        return n

class B:
    @classmethod
    def zeros(cls, n, stack=()):
        return n

def use():
    return A.zeros(1, ()), B.zeros(1)
"""
    assert unpassed_parameters({"m": (snippet, True)}) == {"m.B.zeros.stack"}
