"""What the benchmark's tracer (perfbench/tracer.py) needs from the package.

The tracer reads each module of its ``MODULES`` tuple from ``sys.modules``
after ``import altalg.cli``, gives every public ``linalg`` function's span
the (field kind, rows, columns) of its first argument, a Matrix, and patches
a few methods in their class dicts.  A source change that breaks one of these
crashes every traced run, so each is pinned here.
"""

import ast
import inspect
import os
import subprocess
import sys

from altalg import linalg
from altalg.algebra import Algebra
from altalg.fields import RatFunField

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def tracer_constant(name: str):
    """The literal value of a module-level constant of perfbench/tracer.py."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py defines no {name}")


def test_importing_the_cli_loads_every_traced_module():
    modules = tracer_constant("MODULES")
    assert "linalg" in modules and "suites" in modules
    code = ("import sys, altalg.cli\n"
            f"missing = [m for m in {modules!r} if 'altalg.' + m not in sys.modules]\n"
            "assert not missing, missing\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_the_public_linalg_functions_are_rref_kernel_and_solve():
    # each takes a Matrix first; the tracer reads its field kind and shape
    public = {name for name, obj in vars(linalg).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and obj.__module__ == linalg.__name__}
    assert public == {"rref", "kernel", "solve"}


def test_the_patched_methods_are_in_their_class_dicts():
    classes = {"Algebra": Algebra, "RatFunField": RatFunField}
    methods = tracer_constant("COUNTED_METHODS") + tracer_constant("TIMED_METHODS")
    patched = {(cls, meth) for _, cls, meth, _ in methods} | {("RatFunField", "_guard")}
    assert patched >= {("Algebra", "mul"), ("Algebra", "invert_element"),
                       ("Algebra", "find_unit"), ("RatFunField", "mul"),
                       ("RatFunField", "add"), ("RatFunField", "_guard")}
    for cls, meth in patched:
        assert inspect.isfunction(vars(classes[cls]).get(meth)), f"{cls}.{meth}"
