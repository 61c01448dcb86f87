"""Runtime checks in the package survive ``python -O``.

``assert`` statements are stripped under -O, so every check the package
makes at run time must raise a typed ``eislab.errors`` exception instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import eislab

PACKAGE = Path(eislab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)


_CORRUPT_DIVISORS = """
from eislab import arith
from eislab.errors import InvariantError

arith.divisors = lambda m: [1, 2] if m == 3 else []
for call in (lambda: arith.tau_gen(3, 1.7), lambda: arith.kloosterman(1, 1, 5)):
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
    assert len(lines) == 2
    assert lines[0].startswith("InvariantError: tau_gen(3, 1.7) is not real")
    assert lines[1].startswith("InvariantError: Weil bound violated")
