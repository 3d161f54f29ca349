"""Every package module compiles with warnings treated as errors, and every
exported name exists.

Invalid escape sequences in string literals warn at compile time
(DeprecationWarning, SyntaxWarning from Python 3.12), and byte-compiled
caches hide the warning on later imports, so compile from source here.
"""

import pathlib
import warnings

import pytest

import vifkit

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vifkit"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_every_exported_name_resolves():
    missing = [name for name in vifkit.__all__ if not hasattr(vifkit, name)]
    assert missing == []
