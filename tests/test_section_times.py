import importlib.util
import json
import pathlib

import pytest

from qbayes import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "section_times.py"


def load_script():
    spec = importlib.util.spec_from_file_location("section_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_section_times_reports_a_median_per_section_and_dim(capsys):
    code = load_script().main(["--dims", "2", "3", "--seeds", "5", "6", "--passes", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (summary["dims"], summary["seeds"], summary["passes"]) == ([2, 3], [5, 6], 1)
    assert list(summary["median_ms"]) == list(cli._COMMANDS)
    medians = [ms for by_dim in summary["median_ms"].values() for ms in by_dim.values()]
    assert all(list(by_dim) == ["2", "3"] for by_dim in summary["median_ms"].values())
    assert min(medians) > 0.0 and summary["sum_of_medians_ms"] == pytest.approx(sum(medians))


def test_section_times_times_only_the_named_sections(capsys):
    names = ["update-factor", "entropy-sweep"]
    code = load_script().main(["--dims", "2", "--seeds", "1", "1", "--passes", "1", "--sections", *names])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(summary["median_ms"]) == names
    assert summary["sum_of_medians_ms"] == pytest.approx(sum(summary["median_ms"][n]["2"] for n in names))


@pytest.mark.parametrize(
    "argv",
    [
        ["--passes", "0"],
        ["--seeds", "3", "2"],
        ["--dims", str(cli.MAX_DIM + 1)],
        ["--sections", "all"],
        ["--sections", "entropy-sweep", "no-such-section"],
        ["--sections"],
    ],
)
def test_section_times_rejects_bad_ranges(argv):
    with pytest.raises(SystemExit) as exc:
        load_script().main(argv)
    assert exc.value.code == 2
