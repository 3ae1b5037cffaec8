"""Every function, method and class of the package is referenced somewhere.

A name counts as referenced when it appears, as a whole word, anywhere in
the Python sources of src/, tests/ or perfbench/ other than its own
definitions.  The package's __init__.py is skipped: a re-export alone does
not keep a name alive.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tanisaki"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names():
    """Count of definitions per non-dunder name in the package modules."""
    names = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, DEFINITIONS) and not node.name.startswith("__"):
                names[node.name] += 1
    return names


def source_text():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return "\n".join(p.read_text() for p in files if p != PACKAGE / "__init__.py")


def test_every_defined_name_is_referenced():
    # an identifier is a whole word exactly when it is a maximal run of \w
    words = Counter(re.findall(r"\w+", source_text()))
    dead = sorted(name for name, defs in defined_names().items() if words[name] <= defs)
    assert dead == []
