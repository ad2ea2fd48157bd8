import tomllib
from pathlib import Path

import softhandoff


def test_pyproject_version_is_the_package_version():
    # every manifest records softhandoff.__version__ as its tool_version
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == softhandoff.__version__
