"""Runtime checks in the package survive ``python -O``.

``assert`` statements are stripped under -O, so every check the package
makes at run time must raise a typed ``eislab.errors`` exception instead.
The same source scan keeps ``policy`` off public functions whose callers
all use the default.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import eislab

PACKAGE = Path(eislab.__file__).resolve().parent


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
