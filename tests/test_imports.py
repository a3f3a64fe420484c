"""The lazy import contract: a command loads only the modules it calls, and
no module imports scipy, which is no runtime dependency.

Each probe runs in a fresh interpreter, since the test process has already
imported every module.
"""

import ast
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import qbayes


def probe(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def loaded(after):
    return (
        f"import sys\n{after}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qbayes'))\n"
        "print('numpy.random' in sys.modules)"
    )


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qbayes"


def scipy_imports(source: str) -> list[int]:
    """Lines of the ``import scipy...`` and ``from scipy... import`` statements."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if (isinstance(n, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in n.names))
        or (isinstance(n, ast.ImportFrom) and n.level == 0 and (n.module or "").split(".")[0] == "scipy")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the only runtime dependency; scipy is in the bench extra.
    assert scipy_imports(path.read_text()) == []


def test_scipy_lint_sees_both_import_forms():
    source = "import numpy\nimport scipy.linalg as sl\nfrom scipy import optimize\nfrom .scipy import x\n"
    assert scipy_imports(source) == [2, 3]


def test_import_qbayes_loads_no_submodule():
    assert probe(loaded("import qbayes")) == ["qbayes", "False"]


def test_sqm_build_loads_only_the_modules_it_calls():
    modules = probe(loaded("from qbayes import cli; assert cli.run(['sqm-build'])[0] == 0"))
    expected = ["qbayes", "qbayes.cli", "qbayes.effects", "qbayes.errors", "qbayes.linalg"]
    assert modules == [*expected, "False"]


def test_all_sections_load_no_numpy_ma():
    # np.unique and np.median import numpy.ma, 10 to 16 ms of a cold run.
    out = probe(
        "import sys\nfrom qbayes import cli\n"
        "assert cli.run(['all', '--trials', '2'])[0] == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert out == ["False"]


def test_every_public_name_resolves_as_an_attribute():
    submodules = [name for name in qbayes.__all__ if name != "__version__"]
    out = probe(
        "import qbayes\n"
        "print(set(qbayes.__all__) <= set(dir(qbayes)))\n"
        f"print(*(getattr(qbayes, name).__name__ for name in {submodules!r}))"
    )
    assert out == ["True", *(f"qbayes.{name}" for name in submodules)]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        qbayes.nonexistent


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(qbayes.__path__)))
def test_each_submodule_imports_first_in_a_fresh_interpreter(name):
    """An import cycle that only one load order exposes fails here."""
    assert probe(f"import qbayes.{name}; print('ok')") == ["ok"]
