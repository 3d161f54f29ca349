"""Tests of the stage benchmark: smoke run, output checks and the contract.

Run with: python3 -m pytest -q bench/tests
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_stage_check_and_trace(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    summary = _last_json(done.stdout)
    assert summary["correct"] and summary["failed"] == 0
    for name, workload in run.WORKLOADS.items():
        with open(tmp_path / f"BENCH_{name}_trace.json") as fh:
            record = json.load(fh)
        ran = {(s["stage"], s["traced"]) for s in record["stages"]}
        for stage, _ in workload.stages:
            assert (stage, False) in ran and (stage, True) in ran, (name, stage)
        assert all(s["check"] == "ok" for s in record["stages"])
        assert record["tracer_missing"] == []
        assert run.tracer_ok(record), record["tracer_check"]
        assert set(record["per_layer"]) == {m.name for m in run.PER_LAYER}
        assert record["machine"]["blas_threads_in_effect"]
        for m in run.END_TO_END:
            assert record["end_to_end"][m.name] > 0, m.name


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.benchmark_spec()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ltr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _rundir_with_scores(tmp_path, rows) -> run.RunDir:
    workload = run.WORKLOADS["ltr"]
    rundir = run.RunDir(str(tmp_path), workload, {"synth": {}})
    rundir.objects = 1 + max(o for o, _, _ in rows)
    rundir.targets = 1 + max(t for _, t, _ in rows)
    with open(tmp_path / "influences.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["object_id", "test_id", "vif", "loo"])
        for o, t, v in rows:
            w.writerow([o, t, repr(v), ""])
    return rundir


def test_reference_check_flags_drift_beyond_rounding(tmp_path):
    with open(run.reference_path("ltr")) as fh:
        ref = json.load(fh)
    assert ref["stride"] == 1  # every ltr score is stored
    rows = [tuple(r) for r in ref["scores"]]
    assert run.check_reference(_rundir_with_scores(tmp_path, rows)).startswith("pass")

    o, t, v = rows[7]
    rows[7] = (o, t, v * (1 + 1e-12))  # rounding-level change passes
    assert run.check_reference(_rundir_with_scores(tmp_path, rows)).startswith("pass")
    rows[7] = (o, t, v * (1 + 1e-6))
    assert run.check_reference(_rundir_with_scores(tmp_path, rows)).startswith("fail")


@pytest.mark.parametrize(
    "rows, problem",
    [
        ([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)], None),
        ([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, float("nan"))], "non-finite"),
        ([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 0, 4.0)], "covering 3 of 4"),
    ],
)
def test_score_check_counts_pairs_and_finiteness(tmp_path, rows, problem):
    rundir = _rundir_with_scores(tmp_path, rows)
    rundir.objects, rundir.targets = 2, 2
    result = rundir.check_scores("influences.csv", ("vif",))
    assert result == "ok" if problem is None else problem in result
