"""What a process imports: numpy only where the arrays are, and the package
exports that resolve on first access."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import parlimits
from test_cli import ANALYZE_ALL, BOUNDS_GROUPED, FORECAST_GOLDEN, GOLDEN

# Run in a fresh interpreter: argv[1] is a statement to execute first, the
# rest a CLI call if any. Prints the call's exit code and whether numpy loaded.
PROBE = """\
import contextlib, io, sys
exec(sys.argv[1])
code = None
if len(sys.argv) > 2:
    from parlimits.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[2:])
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("statement, argv, expected", [
    ("import parlimits", [], "None False"),
    ("import parlimits.cli; assert 'parlimits.forecast' not in sys.modules", [], "None False"),
    ("", ANALYZE_ALL, "0 False"),
    ("", BOUNDS_GROUPED, "0 False"),
    ("import parlimits.forecast", [], "None False"),
    ("", ["simulate", "uniform_8.scn"], "0 True"),
    ("", FORECAST_GOLDEN, "0 False"),
], ids=["import-package", "import-cli", "analyze", "bounds", "import-forecast", "simulate",
        "forecast"])
def test_only_simulate_loads_numpy(statement, argv, expected):
    env = dict(os.environ, PYTHONPATH=str(Path(parlimits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PROBE, statement, *argv], cwd=GOLDEN,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected + "\n")


def test_every_exported_name_resolves_once():
    for name in parlimits.__all__:
        value = getattr(parlimits, name)
        assert vars(parlimits)[name] is value, name


def test_dir_lists_every_exported_name():
    assert set(parlimits.__all__) <= set(dir(parlimits))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from parlimits import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(parlimits.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'parlimits' has no attribute 'no_such_name'"):
        parlimits.no_such_name
    assert not hasattr(parlimits, "no_such_name")


def test_readme_module_map_matches_the_package():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `parlimits\.(\w+)`", readme, re.MULTILINE))
    modules = {path.stem for path in Path(parlimits.__file__).parent.glob("*.py")}
    assert rows <= modules - {"__init__"}
    assert set(parlimits._EXPORTS.values()) <= rows
