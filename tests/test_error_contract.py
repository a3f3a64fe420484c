"""Every failure the library raises on purpose is a ``QbayesError``.

A bad argument raises ``errors.InvalidArgument``, which also derives from
``ValueError`` so that callers catching ``ValueError`` keep working; a bare
``raise ValueError`` anywhere in the package escapes the contract.
"""

import ast
import pathlib

import numpy as np
import pytest

from helpers import random_instrument
from qbayes import update
from qbayes.errors import InvalidArgument, QbayesError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qbayes"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _raises_value_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


@pytest.mark.parametrize("name", MODULES)
def test_no_bare_value_error(name):
    tree = ast.parse((SRC / name).read_text())
    bare = [f"line {line}" for line in sorted(n.lineno for n in ast.walk(tree) if _raises_value_error(n))]
    assert not bare, f"{name}: raise ValueError instead of InvalidArgument at {bare}"


def test_lint_flags_a_bare_value_error(tmp_path, monkeypatch):
    # Both the call and the bare class must be seen, or the test above proves nothing.
    (tmp_path / "stray.py").write_text("def f(x):\n    if x:\n        raise ValueError('x')\n    raise ValueError\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    with pytest.raises(AssertionError, match=r"line 3.*line 4"):
        test_no_bare_value_error("stray.py")


def test_invalid_argument_is_a_qbayes_error_and_a_value_error():
    inst = random_instrument(2, 2, 3, np.random.default_rng(0))
    with pytest.raises(InvalidArgument, match="efficient") as caught:
        update.factor_update(np.eye(2) / 2.0, inst.outcomes)
    assert isinstance(caught.value, QbayesError) and isinstance(caught.value, ValueError)
