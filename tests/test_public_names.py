"""Every public name earns its place: each name in a ``symrank`` module's
``__all__`` is used by the package itself, outside its own definition, or
named by the acceptance suite. A helper that only tests need lives in the
tests as an oracle. ``import symrank`` loads each module of ``__all__`` on
first use, and the CLI loads only the modules its commands share."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import symrank

PACKAGE = Path(symrank.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in tree, attributes taken and modules imported from
    (relative imports), leaving out the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_every_public_name_has_a_caller_or_a_criterion():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = _references(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unused = []
    for module, tree in modules.items():
        definitions = {node.name: node for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _public_names(tree):
            used = name in acceptance or any(
                name in _references(other, definitions.get(name) if other is tree else None)
                for other in modules.values())
            if not used:
                unused.append(f"{module}.{name}")
    assert not unused, f"no caller in symrank nor in the acceptance suite: {unused}"


LAZY_IMPORTS = """
import sys
import symrank.cli
loaded = sorted(m for m in sys.modules if m.startswith("symrank."))
assert not {"symrank.tree", "symrank.monotonic", "symrank.partition"} & set(loaded), loaded
import symrank
for name in symrank.__all__:
    assert getattr(symrank, name) is sys.modules[f"symrank.{name}"], name
assert not hasattr(symrank, "no_such_module")  # hasattr catches only AttributeError
"""


def test_cli_loads_only_what_it_runs_and_every_module_loads_on_first_use():
    # a fresh interpreter: this one has already imported every module
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
