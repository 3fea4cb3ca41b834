"""The oracles stay apart: no command imports them, and they reach the
routes they check through public names only."""
import ast
import os
import subprocess
import sys

import wgbound

PACKAGE = os.path.dirname(wgbound.__file__)


def module_imports(path):
    """(module, names) per import of a wgbound module in one source file:
    names are the imported names, or () for a whole module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wgbound."):
                    yield alias.name.split(".")[1], ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "wgbound":
                    continue
                module = module.removeprefix("wgbound").lstrip(".")
            if module:
                yield module.split(".")[0], tuple(a.name for a in node.names)
            else:
                for alias in node.names:
                    yield alias.name, ()


def sources():
    return sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))


def test_cli_import_leaves_oracles_out():
    src = os.path.dirname(PACKAGE)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wgbound.cli; print('wgbound.oracles' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_no_other_module_imports_oracles():
    assert "oracles.py" in sources()
    for name in sources():
        if name != "oracles.py":
            modules = {m for m, _ in module_imports(os.path.join(PACKAGE, name))}
            assert "oracles" not in modules, name


def test_oracles_read_no_private_name():
    path = os.path.join(PACKAGE, "oracles.py")
    imports = list(module_imports(path))
    assert imports
    for module, names in imports:
        assert not [n for n in names if n.startswith("_")], module
    # nor through a module it imports whole
    whole = {m for m, names in imports if not names}
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in whole):
            assert not node.attr.startswith("_"), f"{node.value.id}.{node.attr}"
