import importlib.util
import json
import os
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "blas_stall_probe.py"


def load_script():
    spec = importlib.util.spec_from_file_location("blas_stall_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_times_one_process_per_thread_setting(capsys):
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    code = load_script().main(["--processes", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["processes"] == 1
    assert [r["threads"] for r in summary["runs"]] == ["default", "1"]
    # The one-thread setting reaches the child's environment only.
    assert [r["openblas_num_threads"] for r in summary["runs"]] == [None, "1"]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before
    for r in summary["runs"]:
        assert min(r["import_numpy_ms"], r["sqm_9_ms"], r["sqm_10_ms"]) > 0.0
        assert r["stalled"] == (r["sqm_10_ms"] > summary["stall_factor"] * summary["runs"][1]["sqm_10_ms"])
    assert summary["stalls"] == {t: sum(r["stalled"] for r in summary["runs"] if r["threads"] == t) for t in ("default", "1")}
    assert summary["stalls"]["1"] == 0


@pytest.mark.parametrize("n", ["0", "51"])
def test_probe_rejects_a_process_count_out_of_range(n):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--processes", n])
    assert exc.value.code == 2
