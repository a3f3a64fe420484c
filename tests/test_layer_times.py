import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_times.py"
LAYERS = [
    "to_sqm",
    "from_sqm",
    "in_sqm_set.member",
    "in_sqm_set.reject",
    "frame.from_state",
    "frame.plain",
    "frame.reconstruct",
    "born",
    "born.stack",
    "sqm.build",
    "factor_update",
    "factor_update.stack",
    "subentropy",
    "subentropy.stack",
    "merging_experiment",
]


def load_script():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_times_reports_a_median_per_layer_and_dim(capsys):
    code = load_script().main(["--dims", "2", "3", "--number", "2", "--repeat", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (summary["dims"], summary["number"], summary["repeat"]) == ([2, 3], 2, 1)
    assert list(summary["median_us"]) == LAYERS + ["reconstruct_joint_operator"]
    assert all(list(summary["median_us"][name]) == ["2", "3"] for name in LAYERS)
    assert list(summary["median_us"]["reconstruct_joint_operator"]) == ["3x3"]
    medians = [us for by_key in summary["median_us"].values() for us in by_key.values()]
    assert min(medians) > 0.0


@pytest.mark.parametrize(
    "argv",
    [["--number", "0"], ["--repeat", "0"], ["--dims", "1"], ["--dims", "99"], ["--dims"]],
)
def test_layer_times_rejects_bad_ranges(argv):
    with pytest.raises(SystemExit) as exc:
        load_script().main(argv)
    assert exc.value.code == 2
