"""The package imports nothing but its own modules and the standard library."""

import ast
import os
import subprocess
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


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost a cold start about 10 ms; the records are NamedTuples.  -S
    # keeps site hooks of the interpreter out of the count.
    code = ("import sys, twistlab, twistlab.cli, twistlab.verify; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
