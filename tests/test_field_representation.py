# tests/test_field_representation.py
"""Only field.py knows how a field element is represented.  No other
module under src/polargrass/ reads the characteristic or the degree (`.p`,
`.e`) off a field context: sums, products and reductions go through the
FieldCtx array operations, which pick the prime or the extension path
themselves.

The check is by attribute name, as in test_public_names.py: a load of an
attribute named `p` or `e` outside field.py fails it, whatever object it
is read from, and so does a getattr with either name.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polargrass"
REPRESENTATION = ("p", "e")


def _reads(tree):
    """(line, name) of every read of a representation attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in REPRESENTATION:
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in REPRESENTATION
        ):
            yield node.lineno, node.args[1].value


def test_only_field_reads_the_representation():
    found = [
        f"{path.name}:{line} reads .{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "field.py"
        for line, name in _reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_the_guard_sees_a_read():
    tree = ast.parse("def f(ctx):\n    return ctx.p + getattr(ctx, 'e')\n")
    assert list(_reads(tree)) == [(2, "p"), (2, "e")]
