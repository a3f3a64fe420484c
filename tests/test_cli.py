import json
import subprocess
import sys

import numpy as np
import pytest

from qbayes import cli, definetti, entropy, linalg

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


def test_adjacent_seeds_give_distinct_definetti_reports():
    values = [
        [c["value"] for c in cli.run(["definetti-merge", "--seed", seed])[1]["checks"]]
        for seed in ("2", "3")
    ]
    assert all(a != b for a, b in zip(*values))


def check_passes(argv):
    return {c["name"]: c["pass"] for c in cli.run(argv)[1]["checks"]}


@pytest.mark.parametrize("dim", ["2", "3"])
def test_chi2_check_fails_on_a_one_percent_bias_in_mean_entropy(monkeypatch, dim):
    argv = ["entropy-sweep", "--dim", dim, "--trials", "10"]
    assert check_passes(argv)["entropy_mc_chi2"]
    mean_entropy = entropy.mean_entropy
    monkeypatch.setattr(entropy, "mean_entropy", lambda rho: 1.01 * mean_entropy(rho))
    assert not check_passes(argv)["entropy_mc_chi2"]


def test_median_to_truth_check_fails_on_truths_off_the_grid(monkeypatch):
    argv = ["definetti-merge", "--trials", "10"]
    assert check_passes(argv)["definetti_median_to_truth"]
    merging_experiment = definetti.merging_experiment
    off_grid = np.random.default_rng(0)

    def random_truths(prior_a, prior_b, truths, *args):
        truths = linalg.state_from_normals(off_grid.normal(size=(len(truths), 2, 2, 2)))
        return merging_experiment(prior_a, prior_b, truths, *args)

    monkeypatch.setattr(definetti, "merging_experiment", random_truths)
    assert not check_passes(argv)["definetti_median_to_truth"]


def test_usage_errors_exit_two():
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["teleport", "--dim", "1"]).returncode == 2
    assert run_cli(["teleport", "--tol", "oops"]).returncode == 2
    assert run_cli(["teleport", "--tol", "teleport_fidelity_error_max=abc"]).returncode == 2
    assert run_cli(["teleport", "--tol", "teleport_fidelity_eror_max=-1"]).returncode == 2
    for value in ("nan", "inf", "-inf"):
        assert run_cli(["teleport", "--tol", f"teleport_fidelity_error_max={value}"]).returncode == 2
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


# The ordered checks of ``all``: name, op and default threshold.
ALL_CHECKS = [
    ("sqm_element_count_error", "<=", 0.0),
    ("sqm_sum_to_identity_dev", "<=", 1e-09),
    ("sqm_rank_one_second_eigenvalue", "<=", 1e-09),
    ("sqm_gram_min_singular_value", ">=", 1e-08),
    ("gleason_roundtrip_trace_distance_max", "<=", 1e-08),
    ("gleason_heldout_probability_error_max", "<=", 1e-08),
    ("certainty_bound_value", "<", 1.0),
    ("certainty_closed_vs_numeric_gap_max", "<=", 1e-09),
    ("certainty_sqm_probability_excess_max", "<=", 1e-09),
    ("certainty_asymptote_ratio_dev", "<=", 0.1),
    ("teleport_fidelity_error_max", "<=", 1e-09),
    ("teleport_bob_marginal_dev_max", "<=", 1e-12),
    ("teleport_outcome_prob_dev_max", "<=", 1e-12),
    ("update_refinement_mixture_dev_max", "<=", 1e-09),
    ("update_spectrum_match_dev_max", "<=", 1e-08),
    ("update_readjustment_dev_max", "<=", 1e-08),
    ("update_pure_refinement_dev_max", "<=", 1e-10),
    ("entropy_subentropy_half_identity_error", "<=", 1e-06),
    ("entropy_mean_half_identity_error", "<=", 1e-09),
    ("entropy_subentropy_cap_excess_max", "<=", 1e-06),
    ("entropy_mc_chi2", "<=", 25.74),
    ("entropy_refinement_s_gap_min", ">=", -1e-08),
    ("entropy_refinement_q_gap_min", ">=", -1e-08),
    ("entropy_classical_gap_min", ">=", -1e-08),
    ("locality_roundtrip_2x2_max", "<=", 1e-08),
    ("locality_roundtrip_2x3_max", "<=", 1e-08),
    ("locality_real_rank_error", "<=", 0.0),
    ("locality_null_overlap_with_yy", ">=", 0.99),
    ("locality_domino_resolution_dev", "<=", 1e-10),
    ("swap_tree_normalization_dev_max", "<=", 1e-09),
    ("swap_min_frame_value", ">=", -1e-12),
    ("swap_joint_min_eigenvalue", "<=", -0.001),
    ("definetti_median_inter_agent", "<=", 0.05),
    ("definetti_median_to_truth", "<=", 0.05),
    ("definetti_non_ic_median_inter_agent", ">=", 0.05),
    ("real_max_imag_entry", "<=", 1e-12),
    ("real_transposition_dev", "<=", 1e-09),
    ("real_witness_bound", ">=", 0.05),
    ("real_fit_residual_vs_witness", ">=", -1e-09),
    ("real_complex_fit_residual", "<=", 1e-09),
]
DEFINETTI_NOTE = (
    "definetti-merge thresholds are engineering targets for the default grid, not derived constants"
)
# Each section's notes, in report order; the sections that ignore --dim say so.
SECTION_NOTES = {
    "teleport": ["teleport ignores --dim: it teleports qubits (D = 2)"],
    "locality-reconstruct": [
        "locality-reconstruct ignores --dim: it reconstructs at 2 x 2 and 2 x 3, counts "
        "real dimensions at 2 x 2 and checks the domino POVM at 3 x 3"
    ],
    "definetti-merge": [
        DEFINETTI_NOTE,
        "definetti-merge ignores --dim: its priors and data are on qubits (D = 2)",
    ],
    "real-counterexample": [
        "real-counterexample ignores --dim: it certifies two copies of a qubit (D = 2)"
    ],
}


def test_report_shape_is_pinned_and_sections_are_slices_of_all():
    argv = ["--trials", "2", "--seed", "4"]
    _, report = cli.run(["all", *argv])
    assert [(c["name"], c["op"], c["threshold"]) for c in report["checks"]] == ALL_CHECKS
    assert report["notes"] == [note for notes in SECTION_NOTES.values() for note in notes]
    start = 0
    for name in cli._COMMANDS:
        _, alone = cli.run([name, *argv])
        rows = report["checks"][start : start + len(alone["checks"])]
        assert alone["checks"] == rows, name
        assert alone["notes"] == SECTION_NOTES.get(name, [])
        start += len(rows)
    assert start == len(ALL_CHECKS)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_section_that_ignores_dim_says_so(name):
    # A note must name the dimensions exactly when --dim 2 and --dim 3 give
    # bitwise the same check values.
    two, three = (cli.run([name, "--dim", d, "--trials", "2", "--seed", "3"])[1] for d in "23")
    same = [c["value"] for c in two["checks"]] == [c["value"] for c in three["checks"]]
    says_so = [n for n in three["notes"] if n.startswith(f"{name} ignores --dim: ")]
    assert len(says_so) == same
    assert all("D = 2" in n or "2 x 2" in n for n in says_so)


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["teleport", "--tol", "teleport_fidelity_eror_max=-1"], "teleport_fidelity_eror_max"),
        (["teleport", "--tol", "sqm_gram_min_singular_value=0.5"], "sqm_gram_min_singular_value"),
        (
            ["all", "--tol", "zeta=1", "--tol", "certainty_bound_value=2", "--tol", "alpha=1"],
            "alpha, zeta",
        ),
    ],
)
def test_unknown_tol_names_are_usage_errors(argv, unknown, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--trials", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"--tol names no check of {argv[0]}: {unknown}\n")
