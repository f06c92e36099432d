"""Source-level gates on the library: exact arithmetic only."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uqwb"


def test_no_float_in_library():
    """No float literal and no float(...) call anywhere under src/uqwb."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                found.append("%s:%d literal %r"
                             % (path.name, node.lineno, node.value))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append("%s:%d float() call" % (path.name, node.lineno))
    assert list(SRC.rglob("*.py")), "library sources not found"
    assert not found, found
