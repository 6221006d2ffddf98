"""What importing the package loads.

Start-up time is dominated by imports, so scipy must stay off the import
path, and no module may defer an import into a function body, where it
would only move the cost into the first call.  The package runs without
scipy at all: the tests keep it only as an oracle.
"""
import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, mcastsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert _run_python(code).strip() == "[]"


def test_cli_runs_without_scipy(tmp_path):
    # an import of scipy anywhere, even a deferred one, raises ImportError
    # here: the oracle checks, a static row at L = 2 with its alpha = 2
    # delay, and a cooperative row at N = 108, whose relay gains are inverted
    # (N/2 = 54 is past the ball-count table)
    out = tmp_path / "rows.csv"
    code = f"""
import sys
sys.modules["scipy"] = None
from mcastsim import cli
assert cli.main(["verify"]) == 0
assert cli.main(["run", "--scheme", "static", "--n-users", "8", "--alpha", "2",
                 "--antennas", "2", "--iterations", "50", "--out", {str(out)!r}]) == 0
assert cli.main(["run", "--scheme", "coop", "--n-users", "108", "--iterations", "50",
                 "--out", {str(out)!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    assert _run_python(code).splitlines()[-1] == "['scipy']"


def test_recipe_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without index flags calls np.ma.is_masked, which loads
    # numpy.ma (about 13 ms of start-up)
    code = f"""
import sys
from mcastsim import cli
assert cli.main(["run", "--recipe", "fig-compt", "--iterations", "50",
                 "--out", {str(tmp_path / "rows.csv")!r}]) == 0
print('numpy.ma' in sys.modules)
"""
    assert _run_python(code).splitlines()[-1] == "False"


def test_imports_sit_at_module_level():
    for path in sorted((SRC / "mcastsim").glob("*.py")):
        top = ast.parse(path.read_text())
        module_level = {id(node) for node in top.body}
        nested = [
            node.lineno for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in module_level
        ]
        assert not nested, f"{path.name} imports inside a body at lines {nested}"
