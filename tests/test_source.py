"""Every package module compiles with warnings treated as errors.

Invalid escape sequences in string literals warn at compile time
(DeprecationWarning, SyntaxWarning from Python 3.12), and byte-compiled
caches hide the warning on later imports, so compile from source here.
"""

import pathlib
import warnings

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vifkit"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
