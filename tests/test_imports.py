"""What importing the package loads.

Start-up time is dominated by imports, so ``scipy.integrate`` must stay
off the import path, and no module may defer an import into a function
body, where it would only move the cost into the first call.
"""
import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import sys, mcastsim.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_imports_sit_at_module_level():
    for path in sorted((SRC / "mcastsim").glob("*.py")):
        top = ast.parse(path.read_text())
        module_level = {id(node) for node in top.body}
        nested = [
            node.lineno for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in module_level
        ]
        assert not nested, f"{path.name} imports inside a body at lines {nested}"
