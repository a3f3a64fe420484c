import pathlib
import runpy

import numpy as np
import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # Some demos set numpy print options; restore them afterwards.
    with np.printoptions():
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
