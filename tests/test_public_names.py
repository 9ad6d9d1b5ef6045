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
* A method counts as referenced by an attribute of its name on a receiver of
  its class, on a receiver whose class the scan does not know, or by a tracer
  target.  An attribute of a name bound by `import` of a module outside
  slipflow references no src name: `np.load` and `json.load` are no call of
  a `load` method.  The scan knows the class of `self` and `cls` in a method of a src
  class that no other src class derives from or is derived from, of a bare
  src class name, and of a name that every binding in its function binds to
  one src class: as a parameter annotated with it (`basis: Basis`), by a
  call of it (`cache = LiftingCache(...)`), or by a call of a src function
  or method whose every definition of that name is annotated to return it
  (`basis = cfg.basis()`).
* A defaulted parameter of a src function or method counts as passed by a
  call of that name (a class name calls `__init__`) that names it as a
  keyword, reaches it by position, or has a `*` or `**` argument that may
  carry it.  A call made on a bare src class name, `Class.name(...)`, is a
  call of that class's method only.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the public names no program code calls, each with the reason it stays
ALLOWED = {
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


def _foreign_modules(tree) -> set:
    """The names one file binds by `import` of a module outside slipflow."""
    return {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names
            if a.name.split(".")[0] != "slipflow"}


def _program() -> dict:
    """{module stem: (source, is src)} of src/slipflow and perfbench."""
    src = sorted((ROOT / "src" / "slipflow").glob("*.py"))
    return {path.stem: (path.read_text(), path in src)
            for path in src + sorted((ROOT / "perfbench").glob("*.py"))}


def _own_nodes(fn):
    """The nodes of a function's body, outside the functions and classes it defines."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _annotated(note, classes):
    """The src class an annotation names, or None."""
    name = getattr(note, "id", getattr(note, "value", None))
    return name if isinstance(name, str) and name in classes else None


def _receivers(tree, classes, returns) -> dict:
    """{id(attribute node): src class} of the attributes whose receiver's class
    is known: a bare src class name, `self`/`cls` in a method of a class with
    no src base or subclass, or a name every binding in its function binds to
    one src class, as a parameter annotated with it or by a call of it or of
    a src function whose every definition of that name returns it."""
    def made(value):
        f = value.func if isinstance(value, ast.Call) else None
        name = getattr(f, "attr", getattr(f, "id", None))
        if name in classes:
            return name
        made_by = returns.get(name, {None})
        return next(iter(made_by)) if len(made_by) == 1 else None

    related = {name for cls, bases in classes.items() for name in (cls, *bases)
               if any(b in classes for b in bases)}
    known = {}
    for owner in ast.walk(tree):
        fns = [(fn, owner.name if isinstance(owner, ast.ClassDef) else None)
               for fn in ast.iter_child_nodes(owner) if isinstance(fn, ast.FunctionDef)]
        for fn, cls in fns:
            nodes = list(_own_nodes(fn))
            # every binding of a name, and the class each `name = Class(...)` makes
            binds = Counter(a.arg for a in fn.args.posonlyargs + fn.args.args
                            + fn.args.kwonlyargs)
            binds.update(node.id for node in nodes
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
            made_by = {a.arg: [_annotated(a.annotation, classes)] for a in fn.args.posonlyargs
                       + fn.args.args + fn.args.kwonlyargs}
            for node in nodes:
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    made_by.setdefault(node.targets[0].id, []).append(made(node.value))
            kind = {name: c for name, (c, *rest) in made_by.items()
                    if c and set(rest) <= {c} and len(rest) + 1 == binds[name]}
            first = (fn.args.posonlyargs + fn.args.args)[:1]
            if (cls in classes and cls not in related and first and binds[first[0].arg] == 1
                    and not any(getattr(d, "id", None) == "staticmethod"
                                for d in fn.decorator_list)):
                kind[first[0].arg] = cls
            known.update((id(node), kind[node.value.id]) for node in nodes
                         if isinstance(node, ast.Attribute)
                         and getattr(node.value, "id", None) in kind)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in classes:
            known[id(node)] = node.value.id
    return known


def _scan(program):
    """(names, attrs, calls, defined, classes): the references and calls of the
    program, with each attribute as (name, receiver's src class or None), the
    (qualified name, def node, is method) of every src function and the src
    classes with the names of their bases."""
    trees = {stem: (ast.parse(text, stem), is_src) for stem, (text, is_src) in program.items()}
    names, attrs, calls, defined = set(), set(), [], []
    classes = {node.name: [getattr(b, "id", None) for b in node.bases]
               for tree, is_src in trees.values() if is_src
               for node in tree.body if isinstance(node, ast.ClassDef)}
    returns = {}    # src function name -> the src classes its definitions return
    for tree, is_src in trees.values():
        for node in ast.walk(tree) if is_src else ():
            if isinstance(node, ast.FunctionDef):
                returns.setdefault(node.name, set()).add(_annotated(node.returns, classes))
    for stem, (tree, is_src) in trees.items():
        modules, foreign = _module_aliases(tree), _foreign_modules(tree)
        known = _receivers(tree, classes, returns)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in foreign:
                attrs.add((node.attr, known.get(id(node))))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = re.fullmatch(r"slipflow\.\w+:([\w.]+)", node.value)
                if target:
                    top, *rest = target.group(1).split(".")
                    names.add(top)
                    attrs.update((attr, top) for attr in rest)
            elif isinstance(node, ast.Call):
                calls.append(node)
        if not is_src:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{stem}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{stem}.{node.name}.{sub.name}", sub, True)
                            for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return names, attrs, calls, defined, classes


def unreferenced_names(program=None) -> set:
    names, attrs, _, defined, _ = _scan(program or _program())
    out = set()
    for qual, _, method in defined:
        *_, owner, leaf = qual.split(".")
        if not leaf.startswith("_") and not (
                {(leaf, None), (leaf, owner)} & attrs if method else leaf in names):
            out.add(qual)
    return out


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


def test_a_method_is_referenced_through_its_own_class():
    # A.field and B.field share a name: self.field inside B and b = B() reach
    # B's method only, and a receiver of no known class reaches both
    snippet = """
class A:
    def field(self):
        return 1

class B:
    def field(self):
        return 2

    def both(self):
        return self.field()

def use():
    b = B()
    return b.field() + b.both()

KINDS = (A, B, use)
"""
    assert unreferenced_names({"m": (snippet, True)}) == {"m.A.field"}
    unknown = snippet + "\ndef any_field(x):\n    return x.field()\n\nKINDS += (any_field,)\n"
    assert unreferenced_names({"m": (unknown, True)}) == set()


def test_a_module_attribute_references_no_method():
    # json.load is the json module's function: it reaches no src method named load
    snippet = """
import json

class A:
    @classmethod
    def load(cls, fh):
        return cls(json.load(fh))

KINDS = (A,)
"""
    assert unreferenced_names({"m": (snippet, True)}) == {"m.A.load"}
    used = snippet + "\ndef use(fh):\n    return A.load(fh)\n\nKINDS += (use,)\n"
    assert unreferenced_names({"m": (used, True)}) == set()
