"""The package surface is what the commands use: every top-level function
and class of a module, and every public method, is named somewhere other
than its own definition, in the package, a script or the acceptance gate.
A helper only its unit tests call belongs in those tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# __init__.py holds only the version: a name it re-exported would be no use
MODULES = sorted(path for path in (ROOT / "src" / "beltrami_lab").glob("*.py")
                 if path.name != "__init__.py")
READERS = [*MODULES, *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_definition_is_named_outside_itself():
    lines = {path: path.read_text().splitlines() for path in READERS}
    unnamed = []
    for path in MODULES:
        for node in _definitions(ast.parse(path.read_text())):
            own = range(node.lineno - 1, node.end_lineno)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for reader, text in lines.items()
                       for i, line in enumerate(text) if not (reader == path and i in own)):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []
