"""The table at the top of ``qbayes.linalg`` is the library's only source of
tolerances.

The table is the run of module-level numeric constants in ``linalg.py``,
each under a comment line giving its reason, and each read somewhere in the
package, so that folding two values into one leaves no dead constant behind.
Everywhere else in the package a float literal with 0 < |x| < 1e-5, or a
module-level ``*_TOL`` / ``*_FLOOR`` assignment, is a tolerance that escaped
the table.  ``cli.py`` is exempt from the literal rule: its check thresholds
are each named by the check that uses them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qbayes"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
SMALL = 1e-5


def _parse(name: str) -> tuple[ast.Module, list[str]]:
    text = (SRC / name).read_text()
    return ast.parse(text), text.splitlines()


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _table(tree: ast.Module) -> list[ast.Assign]:
    return [n for n in tree.body if isinstance(n, ast.Assign) and _is_number(n.value)]


def _assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("name", MODULES)
def test_no_tolerance_outside_the_table(name):
    tree, _ = _parse(name)
    table = _table(tree) if name == "linalg.py" else []
    allowed = {id(c) for n in table for c in ast.walk(n)}
    escaped = []
    if name != "cli.py":
        escaped += [
            f"line {n.lineno}: literal {n.value!r}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant)
            and isinstance(n.value, float)
            and 0.0 < abs(n.value) < SMALL
            and id(n) not in allowed
        ]
    if name != "linalg.py":
        escaped += [
            f"line {n.lineno}: constant {target}"
            for n in tree.body
            if isinstance(n, (ast.Assign, ast.AnnAssign))
            for target in _assigned_names(n)
            if target.endswith(("_TOL", "_FLOOR"))
        ]
    assert not escaped, f"{name}: tolerances outside linalg's table: {escaped}"


def test_table_entries_are_unique_and_documented():
    tree, lines = _parse("linalg.py")
    table = _table(tree)
    names = [t for n in table for t in _assigned_names(n)]
    assert "HERMITIAN_TOL" in names and "PROB_FLOOR" in names
    assert len(names) == len(set(names))
    undocumented = [
        t
        for n in table
        for t in _assigned_names(n)
        if not lines[n.lineno - 2].lstrip().startswith("#")
    ]
    assert not undocumented, f"table entries without a reason comment: {undocumented}"


def test_every_table_entry_is_read():
    reads = set()
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
    tree, _ = _parse("linalg.py")
    unread = [t for n in _table(tree) for t in _assigned_names(n) if t not in reads]
    assert not unread, f"table entries nothing reads: {unread}"


def test_lint_flags_an_escaped_tolerance(tmp_path, monkeypatch):
    # The rules must see each kind of escape, or the tests above prove nothing.
    (tmp_path / "stray.py").write_text("LOOSE_TOL = 0.1\n\ndef f(x):\n    return x < 1e-9\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    with pytest.raises(AssertionError, match=r"literal 1e-09.*constant LOOSE_TOL"):
        test_no_tolerance_outside_the_table("stray.py")
    # A table entry that a fold left behind: nothing reads DEAD_TOL.
    table = "# Read below.\nUSED_TOL = 1e-9\n# Read nowhere.\nDEAD_TOL = 1e-8\n"
    (tmp_path / "linalg.py").write_text(table + "\n\ndef g(x):\n    return x < USED_TOL\n")
    with pytest.raises(AssertionError, match=r"nothing reads: \['DEAD_TOL'\]"):
        test_every_table_entry_is_read()
