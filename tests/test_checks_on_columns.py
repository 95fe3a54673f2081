# tests/test_checks_on_columns.py
"""The checks over the forms of a run read the form table's columns.

counting.FormTable keeps each kind of per-form data as a column in the
order of its entries, and every verify_* function of counting.py checks
the forms with array expressions over those columns.  None loops over
table.entries (a for statement or a comprehension), and none names a
per-form accessor: the table's row, census, types and _index, or
geometry's one-form read-offs _mask and _tau, which are deleted.
"""
import ast
from pathlib import Path

from polargrass import counting, geometry

COUNTING = Path(__file__).resolve().parents[1] / "src" / "polargrass" / "counting.py"
ACCESSORS = ("row", "census", "types", "_index", "_mask", "_tau")


def _offences(tree):
    """(function, line, what) of every loop over table.entries and every
    accessor named inside a verify_* function."""
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("verify_")):
            continue
        for node in ast.walk(func):
            loop = node.iter if isinstance(node, (ast.For, ast.comprehension)) else None
            if isinstance(loop, ast.Attribute) and loop.attr == "entries":
                yield func.name, loop.lineno, "loops over entries"
            if isinstance(node, ast.Attribute) and node.attr in ACCESSORS:
                yield func.name, node.lineno, f"names .{node.attr}"


def test_no_check_walks_the_forms_one_at_a_time():
    found = list(_offences(ast.parse(COUNTING.read_text(encoding="utf-8"))))
    assert not found, found


def test_the_per_form_accessors_are_gone():
    assert not [name for name in ("row", "census", "types", "_index") if hasattr(counting.FormTable, name)]
    assert not [name for name in ("_mask", "_tau") if hasattr(geometry, name)]


def test_the_guard_sees_a_loop_and_an_accessor():
    source = (
        "def verify_x(table):\n"
        "    for _, af in table.entries:\n"
        "        table.census(af)\n"
        "    return [af for _, af in table.entries]\n"
        "def helper(table):\n"
        "    for _, af in table.entries:\n"
        "        table.row(0, af)\n"
    )
    assert sorted(_offences(ast.parse(source))) == [
        ("verify_x", 2, "loops over entries"),
        ("verify_x", 3, "names .census"),
        ("verify_x", 4, "loops over entries"),
    ]
