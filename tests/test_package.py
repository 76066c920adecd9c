"""Package-shape tests: every public function and method of iekf_kit is
reached from inside the package, and every exception class is raised there,
so code that only the tests exercise does not accumulate.  A name counts as
reached when it appears as a name or an attribute anywhere in the package
outside its own definition; the check is by name only, so it can miss dead
code that shares a name with live code, but it never flags live code.  The
package runs on numpy and PyYAML alone: scipy is a test dependency only."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import iekf_kit

PACKAGE = pathlib.Path(iekf_kit.__file__).parent

# public API with no caller inside the package, one reason each
ALLOWED = {
    "sim.run_sliding_window": "criterion 9 and the perfbench window workload",
}


def _public_definitions(module, tree):
    """(qualified name, node) of public module functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item


def _referenced_names(node):
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def unreferenced_definitions():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere += _referenced_names(tree)
    out = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(module, tree):
            name = qualname.rsplit(".", 1)[1]
            if everywhere[name] - _referenced_names(node)[name] == 0:
                out.append(qualname)
    return out


def test_every_public_function_has_a_caller_in_the_package():
    unreferenced = unreferenced_definitions()
    assert sorted(set(unreferenced) - set(ALLOWED)) == []
    # an entry that gained a caller, or is gone, leaves the allowlist
    assert sorted(set(ALLOWED) - set(unreferenced)) == []


def unraised_exceptions():
    """The classes of exceptions.py, other than the base IekfKitError, that
    no raise statement in the package names."""
    tree = ast.parse((PACKAGE / "exceptions.py").read_text())
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)} - {"IekfKitError"}
    raised = collections.Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                raised += _referenced_names(
                    exc.func if isinstance(exc, ast.Call) else exc)
    return sorted(classes - set(raised))


def test_every_exception_is_raised_in_the_package():
    assert unraised_exceptions() == []


# imports every module, runs every self-check and one short simulation,
# then lists the scipy modules that were loaded along the way
NO_SCIPY_SCRIPT = """
import sys
from iekf_kit import cli, config, errorprop, filters, imu, lie, sim, vision
for argv in (["selfcheck"], ["simulate", sys.argv[1], "--output-dir",
                             sys.argv[2]]):
    try:
        cli.main(argv)
    except SystemExit as e:
        assert e.code == 0, (argv, e.code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_runs_without_scipy(tmp_path):
    cfg = tmp_path / "smoke.yaml"
    cfg.write_text("scenario:\n  duration: 2.0\n  imu_rate: 50.0\n"
                   "  cam_rate: 5.0\n  n_landmarks: 4\n"
                   "variants: [ekf, iekf, 'ij_iekf:0.1']\nruns: 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.count("PASS") == 6
    assert out.stdout.splitlines()[-1] == "[]"
