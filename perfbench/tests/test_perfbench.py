"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "suite": lambda seed: workloads.Suite(
        seed, dims=(2,), trials={"sqm-build": 1, "teleport": 2, "update-factor": 2}
    ),
    "tomography": lambda seed: workloads.Tomography(seed, n_states=2),
    "cli-cold": lambda seed: workloads.CliCold(seed, ops=(("sqm-build", "--dim", "2"),)),
}


def tiny(name, seed=3):
    return TINY[name](seed)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_appears_with_its_unit(name, trace):
    result, _ = run.measure(tiny(name), seconds=0, trace=trace, setup_repeats=1)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_per_layer_list_matches_benchmark_json():
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_reconstruction_counts_as_failed(monkeypatch):
    from qbayes import states

    original = states.from_sqm

    def skewed(*args, **kwargs):
        rho = original(*args, **kwargs)
        shift = rho.copy()
        shift[0, 0] += 1e-3
        shift[1, 1] -= 1e-3
        return shift

    monkeypatch.setattr(states, "from_sqm", skewed)
    result, info = run.measure(tiny("tomography"), seconds=0, trace=False, setup_repeats=1)
    assert result["failed"] == 2
    assert result["correct"] is False
    assert all("from_sqm error" in e for e in info["errors"])


def test_nonzero_cli_exit_counts_as_failed():
    ops = (
        ("certainty-bound", "--trials", "5", "--tol", "certainty_bound_value=0.1"),
        ("sqm-build", "--dim", "1"),
        ("sqm-build", "--dim", "2"),
    )
    log = workloads.OpLog()
    workloads.CliCold(1, ops=ops).run_pass(log)
    assert (log.attempted, log.failed) == (3, 2)
    assert "exit status 1" in log.errors[0]
    assert "exit 2, no JSON report" in log.errors[1]


def test_nondeterministic_report_fails_the_determinism_op(monkeypatch):
    from qbayes import cli

    original = cli.run
    calls = []

    def drifting(argv):
        code, report = original(argv)
        calls.append(1)
        report["checks"][0]["value"] += len(calls)
        return code, report

    suite = workloads.Suite(1, dims=(2,), trials={"teleport": 2})
    log = workloads.OpLog()
    suite.run_pass(log)
    suite.after_pass(log)
    assert (log.attempted, log.failed) == (2, 0)
    monkeypatch.setattr(cli, "run", drifting)
    suite.run_pass(log)
    suite.after_pass(log)
    assert (log.attempted, log.failed) == (4, 1)
    assert "reports differ" in log.errors[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_call_counts_repeat_exactly_for_one_seed(name):
    code = (
        "import json, sys\nsys.path.insert(0, 'perfbench/tests')\n"
        "from perfbench import run\nfrom test_perfbench import tiny\n"
        f"result, _ = run.measure(tiny({name!r}, seed=11), 0, True, setup_repeats=1)\n"
        "print(json.dumps(result['metrics']))\n"
    )
    counts = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", code], env=workloads.child_env(), cwd=workloads.ROOT,
            capture_output=True, text=True, check=True,
        )
        metrics = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
