"""Rules on the library's source, read from its files: no assertion, only standard-library imports, no dead code.

Each failure lists every offending line as path:line.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.relative_to(ROOT): path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "nctorus").glob("*.py"))}
TREES = {path: ast.parse(text, str(path)) for path, text in SOURCES.items()}


def test_no_assertion_in_the_library():
    """A failed check is a certificate or an error document, never an assertion."""
    found = [
        f"{path}:{lineno}: {line.strip()}"
        for path, text in SOURCES.items()
        for lineno, line in enumerate(text.splitlines(), 1)
        if re.search(r"AssertionError|^\s*assert\b", line)
    ]
    assert not found, "assertions in the library:\n" + "\n".join(found)


def test_the_library_imports_only_the_standard_library():
    """Imports inside functions included."""
    found = []
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path}:{node.lineno}: {m}" for m in modules if m.split(".")[0] not in (*sys.stdlib_module_names, "nctorus")]
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def test_no_unused_import_and_no_unreferenced_private_name():
    loaded = set()  # every name a library module reads, as a name, an attribute or an imported name
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    found = []
    for path, tree in TREES.items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if path.name != "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        found.append(f"{path}:{node.lineno}: unused import {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{path}:{node.lineno}: {name} is never referenced"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in loaded
            ]
    assert not found, "dead code in the library:\n" + "\n".join(found)
