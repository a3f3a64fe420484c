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
from qbayes import definetti, effects, entropy, linalg, locality, states, update
from qbayes.errors import DimensionMismatch, InvalidArgument, QbayesError

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


RAGGED = [[1.0, 0.0], [0.0]]
UNREADABLE = [
    ("trace_distance of a string", lambda: linalg.trace_distance("abc", np.eye(2))),
    ("trace_distance of a ragged list", lambda: linalg.trace_distance(RAGGED, np.eye(2))),
    ("born of a ragged state", lambda: effects.born(RAGGED, effects.standard_sqm(2).base)),
    ("born of a string state", lambda: effects.born("abc", effects.standard_sqm(2).base)),
    ("density_spectrum of a ragged list", lambda: states.density_spectrum(RAGGED)),
    ("mat_sqrt of an entry that is no number", lambda: linalg.mat_sqrt([[object()]])),
    ("tensor of a ragged factor", lambda: linalg.tensor(np.eye(2), RAGGED)),
    (
        "a joint state's frame at a string effect",
        lambda: locality.BilinearFrame.from_state(np.eye(4) / 4.0, (2, 2))("abc", np.eye(2)),
    ),
]


@pytest.mark.parametrize("call", [c for _, c in UNREADABLE], ids=[n for n, _ in UNREADABLE])
def test_operator_input_numpy_cannot_read_raises_dimension_mismatch(call):
    # linalg.as_operators is the one coercion of operator input; numpy's bare
    # ValueError or TypeError never escapes it.
    with pytest.raises(DimensionMismatch, match="no complex operator array"):
        call()


NONSENSE_DIMS = [
    ("random_state(0)", lambda: linalg.random_state(0), "need dimension >= 1"),
    ("random_povm(0, 2)", lambda: linalg.random_povm(0, 2), "need dimension >= 1"),
    ("random_ket(0)", lambda: linalg.random_ket(0), "need dimension >= 1"),
    ("random_unitary(2.0)", lambda: linalg.random_unitary(2.0), "is not an integer"),
    ("harmonic_tail(0)", lambda: entropy.harmonic_tail(0), "need dimension >= 1"),
    ("harmonic_tail(-2)", lambda: entropy.harmonic_tail(-2), "need dimension >= 1"),
    ("bloch_grid(0)", lambda: definetti.bloch_grid(0), "need n_directions >= 1"),
    ("certainty_bound(2.5)", lambda: effects.certainty_bound(2.5), "is not an integer"),
    ("build_ic_kets(2.5)", lambda: effects.build_ic_kets(2.5), "is not an integer"),
]


@pytest.mark.parametrize(
    "call, match", [(c, m) for _, c, m in NONSENSE_DIMS], ids=[n for n, _, _ in NONSENSE_DIMS]
)
def test_nonsense_dimensions_raise_invalid_argument(call, match):
    with pytest.raises(InvalidArgument, match=match):
        call()


def test_one_dimension_stays_valid_for_the_samplers():
    g = np.random.default_rng(0)
    assert linalg.random_state(1, g).shape == (1, 1)
    assert np.allclose(sum(linalg.random_povm(1, 2, g)), 1.0)
    assert entropy.harmonic_tail(1) == 0.0
