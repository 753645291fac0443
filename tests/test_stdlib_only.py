"""The package imports nothing but its own modules and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistlab"


def imported_modules(path):
    """(top-level name, is relative) of every import statement in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], False
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0], node.level > 0


def test_package_imports_only_itself_and_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    seen, foreign = set(), set()
    for path in files:
        for name, relative in imported_modules(path):
            seen.add(name)
            if relative:
                own = not name or (PACKAGE / f"{name}.py").exists()
            else:
                own = name == "twistlab" or name in sys.stdlib_module_names
            if not own:
                foreign.add((path.name, name))
    assert foreign == set()
    # the walk reads real imports of both kinds
    assert len(files) > 10 and {"itertools", "action", "ring"} <= seen
