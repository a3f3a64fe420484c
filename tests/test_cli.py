import json
import subprocess
import sys

import pytest

from qbayes import cli

TIMING_FIELDS = ("timestamp", "wall_time_s")


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "qbayes.cli", *args], capture_output=True, text=True
    )


def strip_timing(payload):
    report = json.loads(payload)
    for field in TIMING_FIELDS:
        report.pop(field)
    return json.dumps(report, sort_keys=True)


def test_real_counterexample_imports_no_scipy():
    probe = (
        "import sys; from qbayes import cli; "
        "code, _ = cli.run(['real-counterexample']); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.stdout.split() == ["0", "[]"], out.stderr


def test_every_subcommand_passes_quickly():
    for name in cli._COMMANDS:
        code, report = cli.run([name, "--trials", "3", "--seed", "9"])
        assert code == 0, report
        assert report["pass"]
        assert all(set(c) >= {"name", "value", "threshold", "pass"} for c in report["checks"])


def test_certainty_bound_report_value():
    code, report = cli.run(["certainty-bound", "--dim", "2", "--trials", "10"])
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["certainty_bound_value"]["value"] == pytest.approx(
        0.7734590, abs=1e-7
    )


def test_teleport_report():
    code, report = cli.run(["teleport", "--seed", "7", "--trials", "10"])
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["teleport_fidelity_error_max"]["value"] <= 1e-9


def test_overall_pass_iff_every_check_passes():
    code, report = cli.run(
        ["sqm-build", "--tol", "sqm_gram_min_singular_value=0.5"]
    )
    assert code == 1
    assert not report["pass"]
    assert any(not c["pass"] for c in report["checks"])


def test_reports_echo_config_and_thresholds():
    _, report = cli.run(["swap-counterexample", "--trials", "5", "--seed", "3"])
    assert report["config"]["seed"] == 3
    assert report["config"]["rng"] == "pcg64"
    for check in report["checks"]:
        assert check["threshold"] is not None


def test_byte_identical_json_reports():
    a = run_cli(["all", "--seed", "1", "--trials", "3"])
    b = run_cli(["all", "--seed", "1", "--trials", "3"])
    assert a.returncode == 0 and b.returncode == 0
    assert strip_timing(a.stdout) == strip_timing(b.stdout)


def test_seed_changes_values():
    a = run_cli(["gleason-roundtrip", "--seed", "1", "--trials", "3"])
    b = run_cli(["gleason-roundtrip", "--seed", "2", "--trials", "3"])
    va = json.loads(a.stdout)["checks"][0]["value"]
    vb = json.loads(b.stdout)["checks"][0]["value"]
    assert va != vb


def test_usage_errors_exit_two():
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["teleport", "--dim", "1"]).returncode == 2
    assert run_cli(["teleport", "--tol", "oops"]).returncode == 2
    assert run_cli([]).returncode == 2


def test_dim_above_limit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["entropy-sweep", "--dim", "17"])
    assert exc.value.code == 2
    assert "between 2 and 16" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.run(["entropy-sweep", "--help"])
    assert exc.value.code == 0
    assert "2 to 16" in capsys.readouterr().out


def test_check_failure_exits_one():
    result = run_cli(
        ["teleport", "--trials", "2", "--tol", "teleport_fidelity_error_max=-1"]
    )
    assert result.returncode == 1


def test_csv_format():
    result = run_cli(["sqm-build", "--format", "csv"])
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "name,value,op,threshold,pass"
    assert len(lines) == 5


def test_text_format_names_thresholds():
    result = run_cli(["sqm-build", "--format", "text"])
    assert "PASS" in result.stdout
    assert "overall: PASS" in result.stdout


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli(["sqm-build", "--out", str(target)])
    assert result.returncode == 0
    assert result.stdout == ""
    report = json.loads(target.read_text())
    assert report["command"] == "sqm-build"


def test_cached_parser_keeps_no_state_between_runs(capsys):
    name = "teleport_fidelity_error_max"
    args = ["teleport", "--trials", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.run(["teleport", "--dim", "1"])
    assert exc.value.code == 2
    code, report = cli.run(args + ["--tol", f"{name}=-1"])
    assert code == 1
    assert report["config"]["tolerance_overrides"] == {name: -1.0}
    code, report = cli.run(args)
    assert code == 0
    assert report["config"]["tolerance_overrides"] == {}
    assert {c["name"]: c["threshold"] for c in report["checks"]}[name] == 1e-9
    with pytest.raises(SystemExit) as exc:
        cli.run(["teleport", "--dim", "1"])
    assert exc.value.code == 2
    assert "between 2 and" in capsys.readouterr().err
