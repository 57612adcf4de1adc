"""Every family is described once, by its record in ``exact.FAMILIES``.
No module of ``src/wgcalc`` compares a family name to a string literal
(``family == "coe"``, ``family in ("u", "aiii")``), and no ``--family``
option lists its choices by hand: each reads the record instead."""

import ast
from pathlib import Path

from wgcalc import exact

SRC = Path(__file__).resolve().parent.parent / "src" / "wgcalc"
NAMES = set(exact.FAMILIES)


def _names_in(node: ast.AST) -> bool:
    """A family name as a string literal, alone or in a tuple, list or set literal."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(x, ast.Constant) and x.value in NAMES for x in items)


def _literal_uses(src: Path = SRC) -> list[str]:
    """``module:line`` of every family-name comparison and hand-written
    ``--family`` choice list in ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                hit = any(_names_in(x) for x in [node.left, *node.comparators])
            elif isinstance(node, ast.MatchValue):
                hit = _names_in(node.value)
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Constant) and node.args[0].value == "--family"):
                hit = any(kw.arg == "choices" and _names_in(kw.value) for kw in node.keywords)
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_no_module_compares_a_family_name_to_a_literal():
    assert _literal_uses() == []


def test_the_scan_sees_a_literal_comparison_and_a_hand_written_choice_list(tmp_path):
    # the same scan over a copy of the package with one function planted in
    # graphs.py that does each thing the table replaces
    copy = tmp_path / "wgcalc"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    source = (copy / "graphs.py").read_text(encoding="utf-8")
    first = source.count("\n") + 4
    planted = ("\n\ndef _planted(family, parser):\n"
               '    if family == "coe":\n'
               "        return 1\n"
               '    if family not in ("u", "aiii"):\n'
               "        return 2\n"
               '    parser.add_argument("--family", choices=["u", "o"])\n'
               "    match family:\n"
               '        case "sp":\n'
               "            return 3\n")
    (copy / "graphs.py").write_text(source + planted, encoding="utf-8")
    assert _literal_uses(copy) == [f"graphs.py:{first + n}" for n in (0, 2, 4, 6)]
