"""Every module-level function of ``src/wgcalc``, and every method and
property of its module-level classes other than the ``__dunder__`` ones,
has a caller outside the tests.  A function counts as called when its name
is read as code somewhere in ``src/wgcalc`` other than its own definition
(docstrings and comments do not count), or appears in ``bench/*.py`` or
``pyproject.toml``.  Helpers that only the tests need live in
``tests/oracles.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wgcalc"


def _names_read(node: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attribute names read as code in ``node``, outside ``skip``."""
    out: set[str] = set()
    stack = [node]
    while stack:
        here = stack.pop()
        if here is skip:
            continue
        if isinstance(here, ast.Name):
            out.add(here.id)
        elif isinstance(here, ast.Attribute):
            out.add(here.attr)
        stack.extend(ast.iter_child_nodes(here))
    return out


def _definitions(tree: ast.Module):
    """``(name, def node)`` of the module-level functions, then each class's
    non-dunder methods and properties as ``Class.name``, in source order."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, functions) and not (fn.name.startswith("__")
                                                      and fn.name.endswith("__")):
                    yield f"{node.name}.{fn.name}", fn


def _uncalled(src: Path = SRC) -> list[str]:
    """``module:line name`` of every function, method or property in ``src``
    with no caller."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    outside = "\n".join(path.read_text(encoding="utf-8")
                        for path in [*sorted((ROOT / "bench").glob("*.py")),
                                     ROOT / "pyproject.toml"])
    missing = []
    for module, tree in trees.items():
        for label, fn in _definitions(tree):
            if any(fn.name in _names_read(other, fn) for other in trees.values()):
                continue
            if re.search(rf"\b{re.escape(fn.name)}\b", outside):
                continue
            missing.append(f"{module}:{fn.lineno} {label}")
    return missing


def test_every_function_and_method_has_a_caller_outside_the_tests():
    assert _uncalled() == []


def test_the_scan_sees_a_function_without_a_caller(tmp_path):
    # the same scan over a copy of the package with one extra, uncalled
    # function, one that only its own docstring and body mention, and a
    # class with an uncalled method and property; its dunder is not scanned
    copy = tmp_path / "src" / "wgcalc"
    copy.mkdir(parents=True)
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(copy / "graphs.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _orphan_helper():\n    return 1\n"
                 "\n\ndef lonely_walk(n):\n"
                 '    """``lonely_walk(n - 1)`` below is its only mention."""\n'
                 "    return lonely_walk(n - 1) if n else 0\n"
                 "\n\nclass _Planted:\n"
                 "    def __repr__(self):\n        return 'planted'\n\n"
                 "    def unheard_method(self):\n        return self.unheard_method\n\n"
                 "    @property\n    def unheard_size(self):\n        return 0\n")
    found = _uncalled(copy)
    assert [entry.split()[1] for entry in found] == [
        "_orphan_helper", "lonely_walk", "_Planted.unheard_method", "_Planted.unheard_size"]
