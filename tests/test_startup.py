"""Start-up cost and import structure: importing bernkit loads no
standard-library module that its arithmetic does not use, its modules
import one another in one order, at top level only, and its public names
are the ones README lists.

Every bernkit command runs in a fresh interpreter, so what the import pulls
in is paid once per command.  This file uses the standard library only, so
it also runs without pytest, from the repository root:

    PYTHONPATH=src:tests python -c "import test_startup as t; \\
        t.test_import_loads_no_heavy_module()"
"""

import ast
import inspect
import os
import re
import subprocess
import sys

import bernkit

#: modules that cost start-up time and that no bernkit computation needs
HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "json",
         "argparse", "gettext")


def test_import_loads_no_heavy_module():
    # -S skips `site`, whose hooks may load typing on their own; the child
    # imports the same bernkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(bernkit.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bernkit.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


#: bernkit's modules in import order: each imports only modules before it
LAYERS = ("polycore", "specialfns", "series", "convolution", "cli")


def _bernkit_imports(node):
    # the bernkit modules that one import statement names
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return ([node.module.split(".")[0]] if node.module
                    else [alias.name for alias in node.names])
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [name.split(".")[1] for name in names
            if name.startswith("bernkit.")]


def test_modules_import_one_another_in_layer_order_at_top_level_only():
    # parsed here, in the test process, so no module is imported to check it
    package = os.path.dirname(bernkit.__file__)
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py"))
    assert names == sorted(LAYERS + ("__init__",))
    for name in names:
        with open(os.path.join(package, f"{name}.py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        nested = [(node.name, imported)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for sub in ast.walk(node)
                  for imported in _bernkit_imports(sub)]
        assert nested == [], f"{name} imports inside a function: {nested}"
        if name != "__init__":
            top = {imported for node in tree.body
                   for imported in _bernkit_imports(node)}
            below = set(LAYERS[:LAYERS.index(name)])
            assert top <= below, f"{name} imports {sorted(top - below)}"


def test_readme_lists_the_public_api_exactly():
    # the backticked names of the bullets under README's "`import bernkit`
    # gives exactly this API:", a call's arguments dropped
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    bullets = text.split("`import bernkit` gives exactly this API:\n\n")[1]
    listed = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`",
                        bullets.split("\n\n")[0])
    public = {name for name, obj in vars(bernkit).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(listed)
