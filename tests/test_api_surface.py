"""Every definition in `src/tmgad` serves the library, the benchmark or the scripts.

A function, class, method or property that only tests call belongs in
`tests/oracles.py`, not in the package. The scan below flags each definition
whose name appears nowhere outside its own body in `src/tmgad` (re-exports in
`__init__.py` do not count), `perfbench/` or `scripts/`. A string holding the
name counts, because perfbench's traced mode looks functions up by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tmgad"

# definitions kept although only tests name them, with the reason
ALLOWED = {
    "model.instance_weight": "acceptance criterion 5 checks this formula as the thing itself",
}


def _definitions(node, prefix):
    """(qualified name, node) of every function and class under `node`, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _mentions(tree):
    """(name, line) of every identifier, attribute and identifier-like string in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unused_definitions() -> list[str]:
    """Qualified names of the `src/tmgad` definitions that nothing outside tests names."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in files}
    where = {}
    for path, tree in trees.items():
        for name, line in _mentions(tree):
            where.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree, path.stem):
            if node.name.startswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in body for p, line in where.get(node.name, ())):
                unused.append(qualname)
    return unused


def test_every_definition_has_a_caller_outside_tests():
    unused = unused_definitions()
    assert [q for q in unused if q not in ALLOWED] == [], (
        "only tests name these; delete them or move them to tests/oracles.py")
    stale = sorted(set(ALLOWED) - set(unused))
    assert stale == [], "these allowlist entries now have callers; drop them from ALLOWED"
