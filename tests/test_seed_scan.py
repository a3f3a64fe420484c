import importlib.util
import json
import pathlib

from qbayes import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "seed_scan.py"


def load_script():
    spec = importlib.util.spec_from_file_location("seed_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_scan_summarizes_every_check_of_all(capsys):
    code = load_script().main(["--seeds", "3", "4", "--dims", "2"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (summary["runs"], summary["failed_runs"], summary["seeds"]) == (2, 0, [3, 4])
    _, report = cli.run(["all", "--dim", "2", "--seed", "3"])
    assert list(summary["checks"]) == [c["name"] for c in report["checks"]]
    for row in summary["checks"].values():
        assert row["failures"] == 0 and row["worst_margin"] >= 0.0
        assert row["worst_dim"] == 2 and row["worst_seed"] in (3, 4)


def test_margin_is_negative_exactly_when_a_check_fails():
    margin = load_script().margin
    assert margin({"op": "<=", "value": 19.5, "threshold": 25.74}) == 25.74 - 19.5
    assert margin({"op": ">=", "value": -2e-8, "threshold": -1e-8}) < 0.0
    assert margin({"op": "<", "value": 1.0, "threshold": 2.0}) == 1.0
