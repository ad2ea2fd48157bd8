import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import softhandoff

PACKAGE = Path(softhandoff.__file__).resolve().parent


def test_pyproject_version_is_the_package_version():
    # every manifest records softhandoff.__version__ as its tool_version
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == softhandoff.__version__


def test_no_module_imports_dataclasses():
    # records derive from model.Record, whose methods are shared: a dataclass would generate and
    # compile its methods on every start of the CLI
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_importing_the_cli_loads_every_module():
    # no module is imported lazily, so a command pays no import after start-up
    code = "import sys, softhandoff.cli; print(' '.join(m for m in sys.modules if m.startswith('softhandoff.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    modules = {f"softhandoff.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert len(modules) == 8
    assert set(loaded.stdout.split()) == modules
