"""Runtime checks in the package survive ``python -O``.

``assert`` statements are stripped under -O, so every check the package
makes at run time must raise a typed ``eislab.errors`` exception instead.
The same source scan keeps ``policy`` off public functions whose callers
all use the default, keeps calls from restating the default oversampling,
and keeps every public name reachable from a command.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import eislab

PACKAGE = Path(eislab.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


# the public functions whose ``policy`` some caller sets to a second value
POLICY_TAKERS = {"bessel_k_scaled", "EisensteinEvaluator", "fourth_moment",
                 "g_lower_incomplete"}


def _functions(tree):
    """(name, def) for module-level functions and class methods; a class's
    ``__init__`` goes by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else f"{node.name}.{item.name}"
                    yield name, item


def test_policy_parameter_only_where_a_caller_varies_it():
    takers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(), filename=str(path))):
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            public = not any(part.startswith("_") for part in name.split("."))
            if public and "policy" in {a.arg for a in params}:
                takers.add(name)
    assert takers == POLICY_TAKERS


def test_no_call_restates_the_default_oversampling():
    # the panel rules, the moment grids and PrecisionPolicy share one default,
    # quadrature.OVERSAMPLE; DEFAULT_POLICY.bessel_freq_oversample restates it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "bessel_freq_oversample"
                  and isinstance(node.value, ast.Name) and node.value.id == "DEFAULT_POLICY"]
    assert not found, "pass nothing for the default oversampling: " + ", ".join(found)


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)


_CORRUPT_DIVISORS = """
import numpy as np

from eislab import arith
from eislab.errors import InvariantError

arith.divisors = lambda m: [1, 2] if m == 3 else []
for call in (lambda: arith.tau_gen(3, 1.7), lambda: arith.tau_gen(3, np.array([0.0, 1.7])),
             lambda: arith.kloosterman(1, 1, 5)):
    try:
        call()
    except InvariantError as exc:
        print("InvariantError:", exc)
    else:
        print("no error")
"""


def test_corrupted_divisors_raise_typed_errors_under_optimize():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_DIVISORS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("InvariantError: tau_gen(3, 1.7) is not real")
    # the array form checks every element: gamma = 0 is real, 1.7 is not
    assert lines[1].startswith("InvariantError: tau_gen(3, 1.7) is not real")
    assert lines[2].startswith("InvariantError: Weil bound violated")


# what runs: the two command modules, the benchmark and the scripts
ENTRY_POINTS = [PACKAGE / "cli.py", PACKAGE / "acceptance.py",
                *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
# the tests' high-precision reference module, which no command imports by design
REFERENCE_MODULES = {"oracles.py"}
# "eislab.eisenstein:EisensteinEvaluator.eval_row", as the bench tracer names its layers
_QUALIFIED = re.compile(r"eislab(?:\.\w+)*:([\w.]+)")


class _References(ast.NodeVisitor):
    """The names, attributes, imported names and qualified strings a tree
    refers to; type annotations and keyword names do not count."""

    def __init__(self):
        self.words = set()

    def visit_Name(self, node):
        self.words.add(node.id)

    def visit_Attribute(self, node):
        self.words.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.words.add(node.asname or node.name.split(".")[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.words.update(_QUALIFIED.findall(node.value))

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node):
        for child in node.decorator_list + [node.args] + node.body:
            self.visit(child)


def _words(*nodes):
    refs = _References()
    for node in nodes:
        refs.visit(node)
    return refs.words


def _package_definitions():
    """({key: (class, name, nodes)}, words): every function, class, method
    and assigned name of the package outside the reference modules, keyed
    "module:Class.method" (class None off a class) with the nodes whose words
    it reaches, and the words of the statements that run on import."""
    defs, on_import = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in REFERENCE_MODULES:
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}:{node.name}"] = (None, node.name, [node])
            elif isinstance(node, ast.ClassDef):
                defs[f"{module}:{node.name}"] = (
                    None, node.name, node.decorator_list + node.bases + node.keywords)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}:{node.name}.{item.name}"] = (node.name, item.name, [item])
                    else:  # fields and class attributes come with the class
                        defs[f"{module}:{node.name}"][2].append(item)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[f"{module}:{t.id}"] = (None, t.id, [])
                if node.value is not None:
                    on_import |= _words(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import |= _words(node)
    return defs, on_import


def unreached_public_names():
    """Public names of the package that no entry point reaches, directly or
    through other package code.  A function or class is reached by its name,
    a method by its qualified name or, once its class is reached, by its
    attribute name; special methods come with their class."""
    defs, words = _package_definitions()
    for path in ENTRY_POINTS:
        words |= _words(ast.parse(path.read_text(), filename=str(path)))
    reached = set()
    grew = True
    while grew:
        grew = False
        for key, (owner, name, nodes) in defs.items():
            if key in reached:
                continue
            qual = key.split(":")[1]
            if owner is None:
                hit = name in words
            else:
                cls = f"{key.split(':')[0]}:{owner}"
                hit = cls in reached and (qual in words or name in words
                                          or name.startswith("__"))
            if hit:
                reached.add(key)
                words |= _words(*nodes)
                grew = True
    return sorted(key for key in defs if key not in reached
                  and not any(part.startswith("_") for part in re.split(r"[:.]", key)))


def test_every_public_name_is_reached_from_a_command():
    unreached = unreached_public_names()
    assert not unreached, "nothing under cli, acceptance, bench/ or scripts/ reaches: " \
        + ", ".join(unreached)
