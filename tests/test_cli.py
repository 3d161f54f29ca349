"""End-to-end command-line pipeline: synth, train, attribute, loo, compare."""

import csv
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import LinearTarget, subprocess_env
from vifkit import cli, files, harness, logisticloss, scenarios
from vifkit.attributor import attribute_target
from vifkit.cli import main
from vifkit.errors import DataError
from vifkit.files import read_checkpoint, write_checkpoint
from vifkit.losscore import LossTarget, PresenceVector, TrainConfig, train
from vifkit.synth import synth_graph


def _die_in_worker(*args):
    """A retraining whose worker process exits without a result."""
    os._exit(1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stderr_payload(err):
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture
def cox_run(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "scenario": "cox",
        "seed": 7,
        "out": str(out),
        "synth": {"n": 60, "d": 3, "censor_rate": 0.2, "n_test": 6},
        "train": {"optimizer": "newton", "epochs": 50},
    }
    cfg_path = tmp_path / "cox.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg, cfg_path, out


class TestPipeline:
    def test_full_cox_pipeline(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train", "attribute", "loo"):
            code, _, err = run(capsys, cmd, "--config", str(cfg_path))
            assert code == 0, f"{cmd} failed: {err}"
        code, _, _ = run(capsys, "compare", "--config", str(cfg_path))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pearson_r"] > 0.9
        assert summary["n_pairs"] == 60 * 6
        assert summary["improvement_ratio"] > 1.0
        assert summary["config_hash"]
        # merged influence table now carries both columns
        header, first = (out / "influences.csv").read_text().splitlines()[:2]
        assert header == "object_id,test_id,vif,loo"
        assert first.count(",") == 3 and not first.endswith(",")

    def test_attribute_outputs_byte_identical(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        assert run(capsys, "attribute", "--config", str(cfg_path))[0] == 0
        first = (out / "influences.csv").read_bytes()
        assert run(capsys, "attribute", "--config", str(cfg_path))[0] == 0
        assert (out / "influences.csv").read_bytes() == first

    def test_loo_jobs_do_not_change_bytes(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        assert run(capsys, "loo", "--config", str(cfg_path), "--jobs", "1")[0] == 0
        seq = (out / "loo.csv").read_bytes()
        assert run(capsys, "loo", "--config", str(cfg_path), "--jobs", "3")[0] == 0
        assert (out / "loo.csv").read_bytes() == seq

    def test_cg_solver_flag(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path),
                           "--solver", "cg")
        assert code == 0, err
        meta = json.loads((out / "attribute_meta.json").read_text())
        assert meta["config"]["solver"]["strategy"] == "cg"


def reference_records_csv(path, header, rows):
    """Row-at-a-time score table writer over (ids..., scores...) tuples: the
    bulk writer's oracle for the bytes of influences.csv and loo.csv.  A None
    or NaN score is an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([
                c if isinstance(c, int) else "" if c is None or np.isnan(c) else repr(float(c))
                for c in row
            ])


INFLUENCE_HEADER = ["object_id", "test_id", "vif", "loo"]


def run_config(cfg_path, command):
    return cli.load_config(cli.build_parser().parse_args([command, "--config", str(cfg_path)]))


class TestInfluenceTable:
    def test_attribute_and_compare_bytes_match_row_writer(self, capsys, cox_run, tmp_path):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train", "attribute", "loo"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        model, targets = cli.build_model(run_config(cfg_path, "attribute"))
        theta, _ = read_checkpoint(str(out / "checkpoint.bin"))
        result = attribute_target(model, theta, targets, range(60))
        records = [
            (o, t, vif)
            for o, row in zip(result.objects.tolist(), result.scores.tolist())
            for t, vif in enumerate(row)
        ]
        expected = tmp_path / "expected.csv"
        reference_records_csv(expected, INFLUENCE_HEADER, [r + (None,) for r in records])
        assert (out / "influences.csv").read_bytes() == expected.read_bytes()

        # drop one loo row so the merged table has an empty loo cell
        lines = (out / "loo.csv").read_text().splitlines(keepends=True)
        assert lines[8].startswith("1,1,")
        (out / "loo.csv").write_text("".join(lines[:8] + lines[9:]))
        with open(out / "loo.csv", newline="") as fh:
            loo = {(int(r["object_id"]), int(r["test_id"])): float(r["loo"])
                   for r in csv.DictReader(fh)}
        assert run(capsys, "compare", "--config", str(cfg_path))[0] == 0
        merged = [(o, t, vif, loo.get((o, t))) for o, t, vif in records]
        assert merged[7][3] is None
        reference_records_csv(expected, INFLUENCE_HEADER, merged)
        written = (out / "influences.csv").read_bytes()
        assert written == expected.read_bytes()
        assert written.splitlines()[8].endswith(b",")

    def test_bulk_writer_matches_row_writer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "CHUNK_ROWS", 4)  # several chunks
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(5), 3)
        tids = np.tile(np.arange(3), 5)
        vif = rng.standard_normal(15) * 10.0 ** rng.integers(-300, 300, 15)
        vif[[2, 11]] = np.nan
        vif[5] = -0.0
        loo = rng.standard_normal(15)
        loo[[0, 9]] = np.nan
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        objects, tests = np.arange(5), np.arange(3)
        for loo_col, with_loo in ((None, False), (loo, True)):
            files.write_scores(str(got), objects, tests, vif=vif.reshape(5, 3),
                               loo=None if loo_col is None else loo_col.reshape(5, 3))
            records = [
                (int(o), int(t), float(v), float(lv) if with_loo else None)
                for o, t, v, lv in zip(ids, tids, vif, loo)
            ]
            reference_records_csv(want, INFLUENCE_HEADER, records)
            assert got.read_bytes() == want.read_bytes()
        # loo.csv: the header follows the named columns
        files.write_scores(str(got), objects, tests, loo=loo.reshape(5, 3))
        reference_records_csv(want, ["object_id", "test_id", "loo"],
                              [(int(o), int(t), float(lv)) for o, t, lv in zip(ids, tids, loo)])
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("with_loo", [False, True])
    def test_matrix_writer_matches_row_writer(self, tmp_path, monkeypatch, with_loo):
        # 4 object rows of T=5 per chunk of 20 cells; T=1 and k=1 tables too
        monkeypatch.setattr(files, "CHUNK_ROWS", 20)
        rng = np.random.default_rng(2)
        special = [np.nan, -0.0, np.inf, -np.inf, 1e300, 1e-300, -1e300, -1e-300]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for k, n_tests in ((12, 5), (1, 5), (30, 1), (1, 1)):
            objects = 2**40 - 6 + np.arange(k) * 3  # ids around 2**40
            tests = 2**40 + np.arange(n_tests)
            vif, loo = rng.standard_normal((2, k * n_tests))
            # a run of the special values at the start and across each chunk
            # boundary; the NaNs share a cell, so the rows of the other
            # special values take the template
            for edge in (4, 20, 40):
                run = np.arange(edge - 4, edge + 4) % vif.size
                vif[run], loo[run] = special, special[:1] + special[:0:-1]
            files.write_scores(str(got), objects, tests, vif=vif.reshape(k, n_tests),
                               loo=loo.reshape(k, n_tests) if with_loo else None)
            reference_records_csv(want, INFLUENCE_HEADER, [
                (int(o), int(t), float(v), float(lv) if with_loo else None)
                for (o, t), v, lv in zip(itertools.product(objects, tests), vif, loo)
            ])
            assert got.read_bytes() == want.read_bytes(), (k, n_tests)

    def test_matrix_writer_leaves_out_unkept_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "CHUNK_ROWS", 6)  # two object rows per chunk
        rng = np.random.default_rng(3)
        objects, tests = np.array([1, 4, 9, 2**40, 2**40 + 1]), np.array([0, 2, 7])
        vif, loo = rng.standard_normal((2, 5, 3))
        keep = np.ones((5, 3), dtype=bool)
        keep[1, 2] = keep[3, 0] = False
        keep[4] = False  # an object row with no kept cell
        loo[0, 1] = np.nan
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        files.write_scores(str(got), objects, tests, keep=keep, vif=vif, loo=loo)
        reference_records_csv(want, INFLUENCE_HEADER, [
            (int(objects[i]), int(tests[j]), float(vif[i, j]), float(loo[i, j]))
            for i, j in zip(*np.nonzero(keep))
        ])
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_factored_scores_write_the_bytes_of_the_matrix(self, tmp_path, monkeypatch, with_nan):
        # 4 object rows of T=5 per chunk: 26 objects in 6 full chunks and a
        # 2-row tail.  A NaN target gradient makes its column NaN in every
        # row, so each row then takes the fallback writer.
        monkeypatch.setattr(files, "CHUNK_ROWS", 20)
        model = logisticloss.logistic_fixture(30, 4, seed=0)
        theta = train(model, PresenceVector.all_ones(30),
                      TrainConfig(optimizer="newton", epochs=50)).theta
        rng = np.random.default_rng(8)
        coefs = rng.standard_normal((5, 4))
        if with_nan:
            coefs[3, 1] = np.nan
        result = attribute_target(model, theta, [LinearTarget(c) for c in coefs],
                                  rng.permutation(30)[:26])
        scores = result.scores
        assert np.isnan(scores).any() == with_nan
        tests = np.arange(5)
        got, matrix, want = tmp_path / "got.csv", tmp_path / "matrix.csv", tmp_path / "want.csv"
        files.write_scores(str(got), result.objects, tests, vif=result, loo=None)
        files.write_scores(str(matrix), result.objects, tests, vif=scores, loo=None)
        reference_records_csv(want, INFLUENCE_HEADER, [
            (o, t, vif, None)
            for o, row in zip(result.objects.tolist(), scores.tolist())
            for t, vif in enumerate(row)
        ])
        assert got.read_bytes() == want.read_bytes() == matrix.read_bytes()

    def test_attribute_and_write_stay_below_the_score_matrix(self):
        # 1000 x 1000 scores are 8 MB as float64, the 1000 x 5 VIF rows 40 kB;
        # tracing every float the writer formats makes this test take seconds
        k, n_tests = 1000, 1000
        model = logisticloss.logistic_fixture(k, 5, seed=1)
        theta = train(model, PresenceVector.all_ones(k),
                      TrainConfig(optimizer="newton", epochs=20)).theta
        rng = np.random.default_rng(9)
        targets = [LossTarget(logisticloss.LogisticModel(x[None], [1.0], reg=0.0))
                   for x in rng.standard_normal((n_tests, 5))]
        tracemalloc.start()
        try:
            result = attribute_target(model, theta, targets, range(k))
            files.write_scores(os.devnull, result.objects, np.arange(n_tests),
                               vif=result, loo=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.vif.nbytes <= 2**20
        assert peak < k * n_tests * 8 / 4

    def test_meta_records_table_write(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train", "attribute", "loo"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        for name in ("attribute_meta.json", "loo_meta.json"):
            meta = json.loads((out / name).read_text())
            assert "write_processes" not in meta  # one process writes every table
            assert 0.0 < meta["write_s"] < meta["runtime_s"] + 1.0

    def test_attribute_meta_records_grad_norm_and_solver(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        model, _ = cli.build_model(run_config(cfg_path, "attribute"))
        theta, _ = read_checkpoint(str(out / "checkpoint.bin"))
        grad = model.gradient(theta, PresenceVector.all_ones(model.n_objects))
        for flags, solver in (((), "cholesky"), (("--solver", "cg"), "cg")):
            assert run(capsys, "attribute", "--config", str(cfg_path), *flags)[0] == 0
            meta = json.loads((out / "attribute_meta.json").read_text())
            assert meta["solver"] == solver
            assert meta["grad_norm"] == float(np.linalg.norm(grad))

    def test_attribute_meta_records_solver_settings(self, capsys, cox_run):
        _, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        metas = {}
        for strategy in ("explicit", "cg", "lissa"):
            assert run(capsys, "attribute", "--config", str(cfg_path),
                       "--solver", strategy)[0] == 0
            metas[strategy] = json.loads((out / "attribute_meta.json").read_text())
        assert "cg" not in metas["explicit"] and "lissa" not in metas["explicit"]
        cg = metas["cg"]
        assert cg["n_objects"] == cg["cg"]["n_converged"] == 60
        assert 1 <= cg["cg"]["max_iterations"] <= 30
        assert 0.0 <= cg["cg"]["worst_relative_residual"] <= 1e-8
        lissa = metas["lissa"]
        assert lissa["lissa"] == {"steps": 100, "scale": 10.0, "seed": 0, "mode": "per_term"}

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        code = "import sys, vifkit.cli; print('scipy.linalg' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_explicit_attribute_pipeline_never_loads_scipy(self, cox_run):
        _, cfg_path, out = cox_run
        code = (
            "import sys\n"
            "from vifkit.cli import main\n"
            "for stage in ('synth', 'train', 'attribute'):\n"
            f"    assert main([stage, '--config', {str(cfg_path)!r}]) == 0, stage\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"
        meta = json.loads((out / "attribute_meta.json").read_text())
        assert meta["solver"] == "cholesky"


class TestGuards:
    def test_checkpoint_hash_mismatch_refused(self, capsys, cox_run, tmp_path):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        drifted = dict(cfg, seed=8)
        drifted_path = tmp_path / "drifted.json"
        drifted_path.write_text(json.dumps(drifted))
        code, _, err = run(capsys, "attribute", "--config", str(drifted_path))
        assert code == 1
        payload = stderr_payload(err)
        assert payload["exit_code"] == 1
        assert "hash" in payload["message"]

    def test_compare_hash_mismatch_needs_force(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train", "attribute", "loo"):
            _, stdout, _ = run(capsys, cmd, "--config", str(cfg_path))
        meta_path = out / "loo_meta.json"
        meta = json.loads(meta_path.read_text())
        assert stdout.rstrip().endswith(f", {meta['n_converged']}/60 retrains converged)")
        loo_ids = [int(line.split(",")[0])
                   for line in (out / "loo.csv").read_text().splitlines()[1::6]]
        assert loo_ids == list(range(60))
        for key in ("grad_norm", "converged", "iterations", "wall_s"):
            assert len(meta[key]) == meta["n_retrains"] == 60
        assert all(g >= 0.0 for g in meta["grad_norm"])
        assert all(t > 0.0 for t in meta["wall_s"])
        # Newton retrains one object at a time and stops at grad_tol
        assert all(isinstance(k, int) and 0 <= k <= 50 for k in meta["iterations"])
        assert meta["group_rows"] == []
        assert meta["converged"] == [g <= 1e-8 for g in meta["grad_norm"]]
        assert meta["n_converged"] == sum(meta["converged"])
        assert meta["all_converged"] == (meta["n_converged"] == 60)
        meta["config_hash"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        code, _, err = run(capsys, "compare", "--config", str(cfg_path))
        assert code == 1
        assert "--force" in stderr_payload(err)["message"]
        code, _, _ = run(capsys, "compare", "--config", str(cfg_path), "--force")
        assert code == 0
        assert (out / "summary.json").exists()

    def test_lockstep_loo_meta(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        cfg["train"] = {"optimizer": "adam", "learning_rate": 0.01, "epochs": 20}
        cfg_path.write_text(json.dumps(cfg))
        for cmd in ("synth", "train", "loo"):
            code, _, err = run(capsys, cmd, "--config", str(cfg_path))
            assert code == 0, err
        meta = json.loads((out / "loo_meta.json").read_text())
        assert meta["group_rows"] == [60]
        assert meta["iterations"] == [20] * 60
        assert len(set(meta["wall_s"])) == 1 and meta["wall_s"][0] > 0.0

    def test_loo_reuses_checkpoint_without_retraining(self, capsys, cox_run, monkeypatch):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))

        retrain = harness.train

        def no_full_retrain(model, b, *args, **kwargs):
            if b.count == model.n_objects:
                raise AssertionError("loo retrained the full-data model")
            return retrain(model, b, *args, **kwargs)

        # loo_retrain trains the full-data model through harness.train when it
        # is given no full_result; the per-retrain path trains through it too
        monkeypatch.setattr(harness, "train", no_full_retrain)
        code, _, err = run(capsys, "loo", "--config", str(cfg_path))
        assert code == 0, err
        assert (out / "loo.csv").read_text().count("\n") == 1 + 60 * 6

    def test_checkpoint_without_dim_is_data_error(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        path = out / "checkpoint.bin"
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        del header["dim"]
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "DataError"
        assert "dim" in payload["message"]

    @pytest.mark.parametrize("stage", ["attribute", "loo"])
    @pytest.mark.parametrize("theta", [[0.5, 0.5], [0.5, np.nan, 0.5]], ids=["short", "nan"])
    def test_checkpoint_not_fitting_model_is_data_error(self, capsys, cox_run, stage, theta):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        path = out / "checkpoint.bin"
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        extra = {k: v for k, v in header.items() if k not in ("format", "dim", "layout")}
        write_checkpoint(str(path), np.array(theta), {"theta": (0, len(theta))}, extra)
        code, _, err = run(capsys, stage, "--config", str(cfg_path))
        assert code == 2
        assert stderr_payload(err)["error"] == "DataError"

    def test_loo_without_checkpoint_is_data_error(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        code, _, err = run(capsys, "loo", "--config", str(cfg_path))
        assert code == 2
        assert stderr_payload(err)["error"] == "DataError"


class TestExitCodes:
    def test_missing_config_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert stderr_payload(err)["error"] == "ConfigError"

    def test_missing_seed_is_config_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "cox", "out": str(tmp_path / "o"),
            "synth": {"n": 10, "d": 2, "censor_rate": 0.0, "n_test": 2},
        }))
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 1
        assert "seed" in stderr_payload(err)["message"]

    def test_corrupt_data_is_data_error(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        (out / "survival.csv").write_text("y,delta,x1\n1.0,1,oops\n")
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert stderr_payload(err)["error"] == "DataError"

    def test_degenerate_problem_is_numerical_error(self, capsys, tmp_path):
        # duplicated feature column: singular Hessian, nonzero gradient
        out = tmp_path / "run"
        out.mkdir()
        rng = np.random.default_rng(4)
        rows = ["y,delta,x1,x2"]
        for i in range(12):
            x = rng.standard_normal()
            rows.append(f"{float(i + 1)!r},1,{x!r},{x!r}")
        (out / "survival.csv").write_text("\n".join(rows) + "\n")
        (out / "survival_test.csv").write_text("y,delta,x1,x2\n99.0,1,0.5,0.5\n")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "cox", "seed": 1, "out": str(out),
            "train": {"optimizer": "newton", "epochs": 10},
        }))
        # training tolerates the singular Hessian via escalating damping
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
        # the undamped explicit solve cannot
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 3
        payload = stderr_payload(err)
        assert payload["exit_code"] == 3
        assert payload["error"] == "SingularMatrixError"

    def test_batch_size_without_term_gradients_is_config_error(self, capsys, tmp_path):
        # the embedding loss has no per-term gradients for minibatches
        cfg_path = tmp_path / "embed.json"
        cfg_path.write_text(json.dumps({
            "scenario": "embed", "seed": 3, "out": str(tmp_path / "run"),
            "model": {"walks_per_node": 5},
            "train": {"epochs": 2, "batch_size": 16},
        }))
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert "batch_size" in payload["message"]

    @pytest.mark.parametrize(
        "objects", [5, "some", [1.5, 2], [3, 3, 1], [True], [-1]], ids=repr
    )
    def test_bad_objects_are_config_errors(self, capsys, cox_run, objects):
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, objects=objects)))
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 1

    @pytest.mark.parametrize(
        "solver",
        [{"cg_max_iter": 0}, {"lissa_steps": -5}, {"lissa_steps": "100"}, {"cg_tol": "x"},
         {"lissa_batch": "full"}],
        ids=repr,
    )
    def test_bad_solver_settings_are_config_errors(self, capsys, cox_run, solver):
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, solver=solver)))
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_payload(err)["error"] == "ConfigError"
        assert not (out / "influences.csv").exists()

    @pytest.mark.parametrize(
        "jobs, flags",
        [("2", ()), (2.5, ()), (True, ()), (1, ("--jobs", "0"))],
        ids=["text", "fractional", "bool", "zero-flag"],
    )
    def test_bad_jobs_are_config_errors(self, capsys, cox_run, jobs, flags):
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, jobs=jobs)))
        code, _, err = run(capsys, "loo", "--config", str(cfg_path), *flags)
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert "jobs" in payload["message"]

    def test_dead_jobs_worker_is_an_os_error(self, capsys, cox_run, monkeypatch):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))
        monkeypatch.setattr(harness, "_loo_one", _die_in_worker)
        code, _, err = run(capsys, "loo", "--config", str(cfg_path), "--jobs", "2")
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ChildProcessError" and "--jobs" in payload["message"]
        assert multiprocessing.active_children() == []
        assert not (out / "loo.csv").exists()

    @pytest.mark.parametrize("rate", ["0.1", -0.1, 0.0])
    def test_bad_learning_rate_is_config_error(self, capsys, cox_run, rate):
        cfg, cfg_path, out = cox_run
        train = {"optimizer": "gd", "learning_rate": rate, "epochs": 5}
        cfg_path.write_text(json.dumps(dict(cfg, train=train)))
        run(capsys, "synth", "--config", str(cfg_path))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert "learning_rate" in payload["message"]
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("stage", ["synth", "train"])
    def test_bool_seed_is_config_error(self, capsys, cox_run, stage):
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, seed=True)))
        code, _, err = run(capsys, stage, "--config", str(cfg_path))
        assert code == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert "seed" in payload["message"]

    @pytest.mark.parametrize("stage", ["synth", "train"])
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_negative_seed_is_config_error(self, capsys, cox_run, stage, flag):
        # every stream is seeded from it, and SeedSequence refuses negative words
        cfg, cfg_path, out = cox_run
        if not flag:
            cfg_path.write_text(json.dumps(dict(cfg, seed=-3)))
        code, _, err = run(capsys, stage, "--config", str(cfg_path), *(["--seed", "-3"] * flag))
        assert code == 1 and err.count("\n") == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == "seed must be an integer >= 0, got -3"

    @pytest.mark.parametrize(
        "train",
        [{"epochs": 2.5}, {"batch_size": True}, {"grad_tol": "1e-8"}, {"weight_decay": 0.1}],
        ids=repr,
    )
    def test_bad_train_settings_are_config_errors(self, capsys, cox_run, train):
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, train={"optimizer": "gd", "epochs": 1, **train})))
        run(capsys, "synth", "--config", str(cfg_path))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert stderr_payload(err)["error"] == "ConfigError"
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "scenario, section, settings",
        [
            ("cox", "synth", {"n": "30"}),
            ("cox", "synth", {"n_test": 0}),
            ("cox", "synth", {"censor_rate": 1.0}),
            ("cox", "synth", {"theta_star": "planted"}),
            ("cox", "synth", {"size": 30}),
            ("ltr", "synth", {"k": 2.0}),
            ("embed", "synth", {"preset": "dolphins"}),
            ("embed", "synth", {"edge_prob": True}),
            ("logistic", "synth", {"d": None}),
            ("cox", "model", {"l2": 0.1}),
            ("ltr", "model", {"l2": -1.0}),
            ("embed", "model", {"k": "2"}),
            ("embed", "model", {"walks_per_node": 0}),
            ("logistic", "model", {"reg": True}),
            ("logistic", "model", []),
        ],
        ids=repr,
    )
    def test_bad_synth_and_model_settings_are_config_errors(
        self, capsys, tmp_path, scenario, section, settings
    ):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(
            {"scenario": scenario, "seed": 1, "out": str(out), section: settings}
        ))
        stage = "synth" if section == "synth" else "train"
        code, _, err = run(capsys, stage, "--config", str(cfg_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert section in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, value, stage, flags",
        [
            ("train", 5, "train", ()),
            ("solver", 5, "attribute", ("--solver", "cg")),
            ("solver", 5, "attribute", ("--damping", "0.1")),
            ("data", 5, "train", ()),
            ("data", {"survival": None, "survival_test": "test.csv"}, "train", ()),
            ("data", {"survival": 1, "survival_test": 2}, "train", ()),
        ],
        ids=["train", "solver-flag", "damping-flag", "data", "null-path", "descriptor-path"],
    )
    def test_sections_that_are_not_objects_are_config_errors(
        self, capsys, cox_run, section, value, stage, flags
    ):
        # an int data path would otherwise open that file descriptor
        cfg, cfg_path, out = cox_run
        cfg_path.write_text(json.dumps(dict(cfg, **{section: value})))
        code, stdout, err = run(capsys, stage, "--config", str(cfg_path), *flags)
        assert code == 1 and stdout == ""
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert section in payload["message"]
        assert not out.exists()

    def test_unknown_top_level_keys_are_config_errors(self, capsys, cox_run):
        # misspelled sections, which would otherwise train at the defaults
        cfg, cfg_path, out = cox_run
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        cfg_path.write_text(json.dumps(dict(cfg, trian={"epochs": 2}, solvr={"damping": 5})))
        for stage in ("train", "synth"):
            code, stdout, err = run(capsys, stage, "--config", str(cfg_path))
            assert code == 1 and stdout == ""
            payload = stderr_payload(err)
            assert payload["error"] == "ConfigError"
            assert payload["message"] == "unknown config keys: ['solvr', 'trian']"
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("section, key, stage", [
        ("train", "epohcs", "train"), ("train", "seed", "train"), ("solver", "stratgy", "attribute"),
    ])
    def test_misspelled_train_and_solver_keys_are_named(self, capsys, cox_run, section, key, stage):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        cfg_path.write_text(json.dumps(dict(cfg, **{section: {key: 1}})))
        code, stdout, err = run(capsys, stage, "--config", str(cfg_path))
        assert code == 1 and stdout == ""
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == f"unknown {section} settings: ['{key}']"

    @pytest.mark.parametrize("bad", ["misspelled", "missing"])
    def test_compare_checks_the_config_it_is_given(self, capsys, cox_run, tmp_path, bad):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train", "attribute", "loo"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        bad_path = tmp_path / "bad.json"
        if bad == "misspelled":
            bad_path.write_text(json.dumps(dict(cfg, trian={})))
        code, stdout, err = run(capsys, "compare", "--out", str(out), "--config", str(bad_path))
        assert code == 1 and stdout == ""
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == {
            "misspelled": "unknown config keys: ['trian']",
            "missing": f"config file not found: {bad_path}",
        }[bad]
        assert not (out / "summary.json").exists()
        # the run's own config, or none, still compares; --out overrides the file's out
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(cfg, out=str(tmp_path / "elsewhere"))))
        assert run(capsys, "compare", "--out", str(out), "--config", str(other))[0] == 0
        assert run(capsys, "compare", "--out", str(out))[0] == 0
        assert (out / "summary.json").exists()

    def test_unknown_data_entries_are_config_errors(self, capsys, cox_run, tmp_path):
        cfg, cfg_path, out = cox_run
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        data = {"survival": str(out / "survival.csv"),
                "survival_test": str(out / "survival_test.csv"), "survival_tset": 3}
        ext = tmp_path / "ext"
        cfg_path.write_text(json.dumps(dict(cfg, out=str(ext), data=data)))
        code, stdout, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 1 and stdout == ""
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == "unknown data entries: ['survival_tset']"
        assert not ext.exists()
        del data["survival_tset"]
        cfg_path.write_text(json.dumps(dict(cfg, out=str(ext), data=data)))
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0

    @pytest.mark.parametrize("scenario", [["cox"], {"cox": 1}, "coxx"], ids=repr)
    def test_unknown_scenario_is_config_error(self, capsys, tmp_path, scenario):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "seed": 1, "out": "run"}))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 1 and len(err.strip().splitlines()) == 1
        assert stderr_payload(err)["message"] == (
            f"scenario must be one of ['cox', 'embed', 'logistic', 'ltr'], got {scenario!r}"
        )

    def test_usage_error_is_exit_one(self, capsys):
        code, _, err = run(capsys, "explode")
        assert code == 1

    def test_bad_log_level_rejected(self, capsys, monkeypatch, cox_run):
        _, cfg_path, _ = cox_run
        monkeypatch.setenv("VIF_LOG", "chatty")
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 1
        assert "VIF_LOG" in stderr_payload(err)["message"]

    def test_warning_log_level_shows_warnings_only(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        cfg["solver"] = {"strategy": "cg", "cg_max_iter": 1}  # CG stops short
        cfg_path.write_text(json.dumps(cfg))
        done = subprocess.run(
            [sys.executable, "-m", "vifkit.cli", "attribute", "--config", str(cfg_path)],
            env=dict(subprocess_env(), VIF_LOG="warning"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert any(line.startswith("WARNING vifkit.attributor: CG stopped short") for line in lines)
        assert all(line.startswith("WARNING ") for line in lines)

    def test_default_log_level_shows_warnings(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        cfg["solver"] = {"strategy": "cg", "cg_max_iter": 1}  # CG stops short
        cfg_path.write_text(json.dumps(cfg))
        argv = [sys.executable, "-m", "vifkit.cli", "attribute", "--config", str(cfg_path)]
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert any(line.startswith("WARNING vifkit.attributor: CG stopped short")
                   for line in done.stderr.splitlines())
        # the warnings come first; a failure still ends stderr with its JSON object
        (out / "influences.csv").unlink()
        (out / "influences.csv").mkdir()
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        assert lines[0].startswith("WARNING ")
        assert json.loads(lines[-1])["error"] == "IsADirectoryError"

    def test_lu_path_warns_and_is_recorded(self, capsys, tmp_path):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "embed", "seed": 42, "out": str(out),
            "model": {"walks_per_node": 5}, "train": {"epochs": 10},
        }))
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        done = subprocess.run(
            [sys.executable, "-m", "vifkit.cli", "attribute", "--config", str(cfg_path)],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lu = "WARNING vifkit.attributor: damped Hessian is not positive definite; solved by LU"
        assert done.stderr.splitlines().count(lu) == 1
        assert json.loads((out / "attribute_meta.json").read_text())["solver"] == "lu"

    @pytest.mark.parametrize("stage", ["attribute", "loo"])
    def test_empty_objects_list_is_config_error(self, capsys, tmp_path, stage):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg = {"scenario": "cox", "seed": 1, "out": str(out), "synth": {"n": 30}, "objects": []}
        cfg_path.write_text(json.dumps(cfg))
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        code, _, err = run(capsys, stage, "--config", str(cfg_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("objects is an empty list")
        assert not (out / "influences.csv").exists() and not (out / "loo.csv").exists()

    def test_out_of_memory_is_exit_three(self, capsys, monkeypatch, cox_run):
        _, cfg_path, _ = cox_run
        run(capsys, "synth", "--config", str(cfg_path))

        class _ArrayMemoryError(MemoryError):  # numpy's private subclass
            pass

        def too_big(cfg):
            raise _ArrayMemoryError("Unable to allocate 29.8 GiB for an array")

        monkeypatch.setattr(cli, "build_model", too_big)
        code, stdout, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 3
        assert stdout == "" and err.count("\n") == 1
        assert stderr_payload(err) == {
            "error": "MemoryError",
            "message": "Unable to allocate 29.8 GiB for an array",
            "exit_code": 3,
        }

    @pytest.mark.parametrize("under_file", [False, True])
    def test_unusable_out_is_config_error(self, capsys, tmp_path, under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "run" if under_file else blocker
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"scenario": "cox", "seed": 1, "out": str(out)}))
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 1 and err.count("\n") == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"out {str(out)!r} is not a usable directory")
        # compare only reads the run directory: nothing is there to read
        code, _, err = run(capsys, "compare", "--out", str(out))
        assert code == 2 and err.count("\n") == 1
        assert stderr_payload(err)["message"].startswith("missing ")

    def test_unwritable_output_is_exit_three(self, capsys, cox_run):
        _, cfg_path, out = cox_run
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0
        (out / "influences.csv").mkdir()
        code, _, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 3 and err.count("\n") == 1
        assert stderr_payload(err)["error"] == "IsADirectoryError"

    def test_failed_table_write_is_one_json_error(self, capsys, cox_run, monkeypatch):
        _, cfg_path, out = cox_run
        for cmd in ("synth", "train"):
            assert run(capsys, cmd, "--config", str(cfg_path))[0] == 0

        class FullDisk:
            """A score column whose rows fail as a full disk would."""

            def __getitem__(self, rows):
                raise OSError(28, "No space left on device")

        # the real writer opens the table and writes its header first
        def full_disk(path, objects, tests, keep=None, **scores):
            files.write_scores(path, objects, tests, keep,
                               **{k: None if m is None else FullDisk() for k, m in scores.items()})

        monkeypatch.setattr(cli, "_write_records_csv", full_disk)
        code, stdout, err = run(capsys, "attribute", "--config", str(cfg_path))
        assert code == 3 and stdout == "" and err.count("\n") == 1
        payload = stderr_payload(err)
        assert payload["error"] == "OSError" and "No space left on device" in payload["message"]
        assert (out / "influences.csv").read_text() == "object_id,test_id,vif,loo\n"

    def test_extreme_theta_star_is_one_json_error(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "cox", "seed": 0, "out": str(tmp_path / "run"),
            "synth": {"n": 10, "d": 1, "n_test": 1, "censor_rate": 0, "theta_star": [1e6]},
        }))
        done = subprocess.run(
            [sys.executable, "-m", "vifkit.cli", "synth", "--config", str(cfg_path)],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        payload = json.loads(done.stderr)  # all of stderr is the one object
        assert payload["error"] == "DataError"


def row_writer_survival_csv(path, x, y, delta):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["y", "delta"] + [f"x{j + 1}" for j in range(x.shape[1])])
        for i in range(x.shape[0]):
            w.writerow([repr(float(y[i])), int(delta[i])] + [repr(float(v)) for v in x[i]])


def row_writer_points_csv(path, x, labels):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["label"] + [f"x{j + 1}" for j in range(x.shape[1])])
        for i in range(x.shape[0]):
            w.writerow([int(labels[i])] + [repr(float(v)) for v in x[i]])


def row_writer_ranking_csv(qpath, lpath, data):
    with open(qpath, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["query_id"] + [f"x{j + 1}" for j in range(data.p)])
        for qi in range(data.m):
            w.writerow([qi] + [repr(float(v)) for v in data.features[qi]])
    with open(lpath, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["query_id", "rank", "item_id"])
        for qi, lst in enumerate(data.rel_lists):
            for rank, item in enumerate(lst):
                w.writerow([qi, rank, item])


class TestSynthFiles:
    @pytest.mark.parametrize("scenario", ["cox", "ltr", "logistic"])
    def test_synth_bytes_match_row_writers(self, capsys, tmp_path, scenario):
        """The row-at-a-time dataset writers are the oracle: each synth file,
        read back and rewritten by them, is unchanged byte for byte."""
        out, want = tmp_path / "run", tmp_path / "want"
        want.mkdir()
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "seed": 42, "out": str(out)}))
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        names = scenarios.SCENARIOS[scenario].data_files
        if scenario == "cox":
            for name in names:
                data = files.read_survival(str(out / name))
                row_writer_survival_csv(want / name, data.x, data.y, data.delta)
        elif scenario == "ltr":
            for qname, lname in (names[:2], names[2:]):
                data = files.read_ranking(str(out / qname), str(out / lname))
                row_writer_ranking_csv(want / qname, want / lname, data)
        else:
            for name in names:
                x, labels = files.read_points(str(out / name))
                row_writer_points_csv(want / name, x, labels)
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_embed_random_graph_without_preset(self, capsys, tmp_path):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "embed", "seed": 5, "out": str(out),
            "synth": {"preset": None, "n": 8, "edge_prob": 0.5},
        }))
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 0, err
        graph = files.read_edges(str(out / "edges.txt"))
        want = synth_graph(n=8, edge_prob=0.5, seed=5)
        np.testing.assert_array_equal(graph.edges, want.edges)

    def test_edgeless_random_graph_is_config_error(self, capsys, tmp_path):
        """`train` refuses an empty edges.txt, so synth writes none."""
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "embed", "seed": 1, "out": str(out),
            "synth": {"preset": None, "n": 6, "edge_prob": 0.0},
        }))
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError" and payload["exit_code"] == 1
        for part in ("n=6", "edge_prob=0.0", "seed 1"):
            assert part in payload["message"]
        assert not (out / "edges.txt").exists()
        assert not (out / "synth_meta.json").exists()


class TestScenarioRecords:
    def test_a_record_is_all_a_loss_family_needs(self, capsys, tmp_path, monkeypatch):
        """A scenario added to the table alone runs every stage, under its
        own name and dataset file names."""
        clone = scenarios.SCENARIOS["logistic"]._replace(data_files=("pts.csv", "pts_held.csv"))
        monkeypatch.setitem(scenarios.SCENARIOS, "logistic2", clone)
        out, cfg_path = tmp_path / "run", tmp_path / "c.json"
        cfg = {"scenario": "logistic2", "seed": 3, "out": str(out),
               "synth": {"n": 30, "d": 3, "n_test": 4}}
        cfg_path.write_text(json.dumps(cfg))
        for stage in ("synth", "train", "attribute", "loo", "compare"):
            code, _, err = run(capsys, stage, "--config", str(cfg_path))
            assert code == 0, (stage, err)
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["scenario"] == "logistic2" and meta["files"] == ["pts.csv", "pts_held.csv"]
        assert "n_objects" not in meta and not (out / "points.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_pairs"] == 30 * 4 and summary["pearson_r"] > 0.9
        # a data section names the files by the record's stems
        data = {"pts": str(out / "pts.csv"), "pts_held": str(out / "pts_held.csv")}
        cfg_path.write_text(json.dumps(dict(cfg, out=str(tmp_path / "ext"), data=data)))
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0

        cfg_path.write_text(json.dumps(dict(cfg, scenario="logistc")))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        names = ["cox", "embed", "logistic", "logistic2", "ltr"]
        assert code == 1
        assert stderr_payload(err)["message"] == (
            f"scenario must be one of {names}, got 'logistc'"
        )


LABELS = ("query_id", "rank", "item_id")


class TestSynthObjectCount:
    """A synthesized ltr or embed run keeps the object count synth recorded,
    even where the drawn data names fewer ids, and whatever the config's
    model, train and objects sections say after synth."""

    def test_ltr_items_are_synth_n(self, capsys, tmp_path):
        out, cfg_path = tmp_path / "run", tmp_path / "c.json"
        cfg = {
            "scenario": "ltr", "seed": 3, "out": str(out),
            "synth": {"m": 4, "n": 40, "k": 3, "p": 2, "n_test": 4},
        }
        cfg_path.write_text(json.dumps(cfg))
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        # sections that do not describe the data change the config hash only
        cfg.update(model={"l2": 0.01}, train={"epochs": 20}, objects=[0, 39])
        cfg_path.write_text(json.dumps(cfg))
        # the training lists name items up to 36, a held-out list item 39
        _, labels = files.read_table(str(out / "labels.csv"), LABELS)
        _, test_labels = files.read_table(str(out / "labels_test.csv"), LABELS)
        assert labels[:, 2].max() == 36 and test_labels[:, 2].max() == 39
        for stage in ("train", "attribute"):
            code, _, err = run(capsys, stage, "--config", str(cfg_path))
            assert code == 0, err
        assert read_checkpoint(str(out / "checkpoint.bin"))[1]["dim"] == 40 * 2
        meta = json.loads((out / "attribute_meta.json").read_text())
        assert meta["n_objects"] == 2

        # an item at or beyond synth.n is a data error naming the file
        (out / "labels_test.csv").write_text("query_id,rank,item_id\n0,0,40\n")
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2 and "labels_test.csv: item 40" in stderr_payload(err)["message"]

        # with a data section the training data's largest item + 1 is the count
        names = scenarios.SCENARIOS["ltr"].data_files
        data = {name.split(".")[0]: str(out / name) for name in names}
        (out / "labels_test.csv").write_text("query_id,rank,item_id\n0,0,39\n")
        external = tmp_path / "external.json"
        external.write_text(json.dumps({
            "scenario": "ltr", "seed": 3, "out": str(tmp_path / "ext"), "data": data,
        }))
        code, _, err = run(capsys, "train", "--config", str(external))
        message = stderr_payload(err)["message"]
        assert code == 2 and "labels_test.csv: item 39 is outside the items [0, 37)" in message

    def test_embed_nodes_are_synth_n(self, capsys, tmp_path):
        out, cfg_path = tmp_path / "run", tmp_path / "c.json"
        cfg = {
            "scenario": "embed", "seed": 4, "out": str(out),
            "synth": {"preset": None, "n": 12, "edge_prob": 0.15},
            "model": {"k": 2, "walks_per_node": 20, "walk_length": 6, "window": 3},
        }
        cfg_path.write_text(json.dumps(cfg))
        assert run(capsys, "synth", "--config", str(cfg_path))[0] == 0
        cfg["train"] = {"optimizer": "adam", "learning_rate": 0.05, "epochs": 20}
        cfg_path.write_text(json.dumps(cfg))
        # no edge touches nodes 8-11
        assert files.read_edges(str(out / "edges.txt")).n == 8
        for stage in ("train", "attribute"):
            code, _, err = run(capsys, stage, "--config", str(cfg_path))
            assert code == 0, err
        model, targets = cli.build_model(run_config(cfg_path, "attribute"))
        assert model.n_objects == 12 and model.dim == 2 * 12 * 2
        meta = json.loads((out / "attribute_meta.json").read_text())
        assert meta["n_objects"] == 12 and meta["n_targets"] == len(targets)

        # a node at or beyond synth.n is a data error naming the file
        with open(out / "edges.txt", "a") as fh:
            fh.write("3 12\n")
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2 and "edges.txt: node 12" in stderr_payload(err)["message"]

        # a recorded count that is not a positive integer names synth_meta.json
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["n_objects"] == 12
        (out / "synth_meta.json").write_text(json.dumps({**meta, "n_objects": 0}))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2 and "synth_meta.json: n_objects" in stderr_payload(err)["message"]
        # and so is a record that is not a JSON object
        (out / "synth_meta.json").write_text(json.dumps([meta]))
        code, _, err = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2 and "synth_meta.json: not a JSON object" in stderr_payload(err)["message"]


def write_score_run(out, influences, loo):
    """A run directory holding only what compare reads."""
    out.mkdir()
    for stage in ("attribute", "loo"):
        (out / f"{stage}_meta.json").write_text(json.dumps({"config_hash": "h", "runtime_s": 1.0}))
    (out / "influences.csv").write_text("object_id,test_id,vif,loo\n" + influences)
    (out / "loo.csv").write_text("object_id,test_id,loo\n" + loo)


# One small valid run directory per reader; each malformed-table case below
# replaces one of its files.
VALID_TABLES = {
    "cox": {
        "survival.csv": "y,delta,x1\n1.0,1,0.5\n2.0,0,-0.5\n3.0,1,0.25\n",
        "survival_test.csv": "y,delta,x1\n1.5,1,0.5\n",
    },
    "ltr": {
        "queries.csv": "query_id,x1\n0,0.5\n1,-0.5\n",
        "labels.csv": "query_id,rank,item_id\n0,0,0\n0,1,1\n1,0,1\n",
        "queries_test.csv": "query_id,x1\n0,0.25\n",
        "labels_test.csv": "query_id,rank,item_id\n0,0,1\n",
    },
    "logistic": {
        "points.csv": "label,x1\n1,0.5\n-1,-0.5\n",
        "points_test.csv": "label,x1\n1,0.25\n",
    },
    "embed": {
        "edges.txt": "0 1\n1 2\n2 0\n",
    },
    "compare": {
        "influences.csv": "object_id,test_id,vif,loo\n0,0,1.0,\n1,0,2.0,\n2,0,0.5,\n",
        "loo.csv": "object_id,test_id,loo\n0,0,1.5\n1,0,2.5\n2,0,0.0\n",
        "attribute_meta.json": '{"config_hash": "h", "runtime_s": 1.0}',
        "loo_meta.json": '{"config_hash": "h", "runtime_s": 1.0}',
    },
}

MALFORMED_TABLES = {
    "cox-bad-header": ("cox", "survival.csv", "time,delta,x1\n1.0,1,0.5\n"),
    "cox-no-rows": ("cox", "survival_test.csv", "y,delta,x1\n"),
    "cox-ragged-row": ("cox", "survival.csv", "y,delta,x1\n1.0,1,0.5\n2.0,0\n"),
    "cox-non-numeric": ("cox", "survival.csv", "y,delta,x1\n1.0,1,oops\n2.0,0,0.5\n"),
    "cox-empty-delta": ("cox", "survival.csv", "y,delta,x1\n1.0,1,0.5\n2.0,,0.5\n"),
    "cox-nan-delta": ("cox", "survival.csv", "y,delta,x1\n1.0,1,0.5\n2.0,nan,0.5\n"),
    "cox-not-text": ("cox", "survival.csv", b"y,delta,x1\n1.0,1,\xff\n"),
    "cox-test-width": ("cox", "survival_test.csv", "y,delta,x1,x2\n1.5,1,0.5,0.5\n"),
    "logistic-bad-header": ("logistic", "points.csv", "lbl,x1\n1,0.5\n"),
    "logistic-ragged-row": ("logistic", "points.csv", "label,x1\n1,0.5,0.5\n-1,0.5,0.5\n"),
    "logistic-non-numeric": ("logistic", "points_test.csv", "label,x1\nyes,0.5\n"),
    "logistic-empty-feature": ("logistic", "points.csv", "label,x1\n1,0.5\n-1,\n"),
    "logistic-test-width": ("logistic", "points_test.csv", "label,x1,x2\n1,0.25,0.5\n"),
    "logistic-test-label": ("logistic", "points_test.csv", "label,x1\n3,0.25\n"),
    "logistic-test-inf": ("logistic", "points_test.csv", "label,x1\n1,inf\n"),
    "cox-tied-times": ("cox", "survival.csv", "y,delta,x1\n1.0,1,0.5\n1.0,0,-0.5\n3.0,1,0.25\n"),
    "ltr-inf-feature": ("ltr", "queries.csv", "query_id,x1\n0,inf\n1,-0.5\n"),
    "ltr-bad-header": ("ltr", "labels.csv", "query_id,position,item_id\n0,0,0\n1,0,1\n"),
    "ltr-no-rows": ("ltr", "queries.csv", "query_id,x1\n"),
    "ltr-fractional-id": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0.5\n1,0,1\n"),
    "ltr-negative-id": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,-1\n1,0,1\n"),
    "ltr-huge-id": ("ltr", "labels_test.csv", "query_id,rank,item_id\n0,0,1e30\n"),
    "ltr-query-order": ("ltr", "queries.csv", "query_id,x1\n1,0.5\n0,-0.5\n"),
    "ltr-unknown-query": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0\n1,0,1\n2,0,1\n"),
    "ltr-rank-gap": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0\n0,2,1\n1,0,1\n"),
    "ltr-test-width": ("ltr", "queries_test.csv", "query_id,x1,x2\n0,0.25,0.5\n"),
    "ltr-test-item": ("ltr", "labels_test.csv", "query_id,rank,item_id\n0,0,2\n"),
    "embed-not-text": ("embed", "edges.txt", b"0 1\n1 \xff\n"),
    "embed-three-tokens": ("embed", "edges.txt", "0 1\n1 2 0\n"),
    "embed-self-loop": ("embed", "edges.txt", "0 1\n1 1\n"),
    "embed-one-row-three-columns": ("embed", "edges.txt", "0 1 2\n"),
    "embed-comments-only": ("embed", "edges.txt", "# no edges\n"),
    "embed-fractional-endpoint": ("embed", "edges.txt", "0 1\n1 2.5\n"),
    "embed-huge-endpoint": ("embed", "edges.txt", "0 1\n" + "9" * 20 + " 1\n"),
    "compare-bad-header": ("compare", "influences.csv", "object,test_id,vif,loo\n0,0,1.0,\n"),
    "compare-no-rows": ("compare", "loo.csv", "object_id,test_id,loo\n"),
    "compare-ragged-row": ("compare", "influences.csv", "object_id,test_id,vif,loo\n0,0,1.0\n"),
    "compare-non-numeric": ("compare", "loo.csv", "object_id,test_id,loo\n0,0,high\n"),
    "compare-huge-id": ("compare", "loo.csv", "object_id,test_id,loo\n" + "9" * 20 + ",0,1.0\n"),
}


def write_tables(out, scenario, replace=None):
    """Write VALID_TABLES[scenario] into out, with replace = (name, text) swapped in."""
    out.mkdir()
    files = dict(VALID_TABLES[scenario])
    if replace is not None:
        files[replace[0]] = replace[1]
    for name, text in files.items():
        (out / name).write_bytes(text if isinstance(text, bytes) else text.encode())


def run_on_tables(capsys, tmp_path, scenario, stage="train"):
    out = tmp_path / "run"
    if scenario == "compare":
        return run(capsys, "compare", "--out", str(out))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "scenario": scenario, "seed": 1, "out": str(out),
        "train": {"optimizer": "gd", "epochs": 1},
    }))
    return run(capsys, stage, "--config", str(cfg_path))


class TestMalformedTables:
    @pytest.mark.parametrize("scenario", list(VALID_TABLES))
    def test_valid_tables_run(self, capsys, tmp_path, scenario):
        write_tables(tmp_path / "run", scenario)
        code, _, err = run_on_tables(capsys, tmp_path, scenario)
        assert code == 0, err

    # a warning raised on the way, such as numpy's for casting a NaN, fails
    # the case instead of reaching stderr ahead of the JSON error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scenario, name, text", MALFORMED_TABLES.values(), ids=list(MALFORMED_TABLES)
    )
    def test_malformed_table_is_one_data_error(self, capsys, tmp_path, scenario, name, text):
        write_tables(tmp_path / "run", scenario, (name, text))
        code, _, err = run_on_tables(capsys, tmp_path, scenario)
        assert code == 2
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "DataError" and payload["exit_code"] == 2
        assert name in payload["message"]

    def test_non_finite_held_out_feature_writes_no_scores(self, capsys, tmp_path):
        write_tables(tmp_path / "run", "logistic")
        assert run_on_tables(capsys, tmp_path, "logistic")[0] == 0
        (tmp_path / "run" / "points_test.csv").write_text("label,x1\n1,inf\n")
        code, _, err = run_on_tables(capsys, tmp_path, "logistic", "attribute")
        assert code == 2 and "points_test.csv" in stderr_payload(err)["message"]
        assert not (tmp_path / "run" / files.INFLUENCES_NAME).exists()


def test_write_edges_writes_the_bytes_of_a_line_per_edge(tmp_path):
    graph = synth_graph(preset="karate")
    path = tmp_path / "edges.txt"
    files.write_edges(str(path), graph)
    assert path.read_bytes() == "".join(f"{u} {v}\n" for u, v in graph.edges).encode()
    np.testing.assert_array_equal(files.read_edges(str(path)).edges, graph.edges)


class TestCompareTable:
    def test_unmatched_pairs_dropped_and_rows_ascending(self, capsys, tmp_path):
        out = tmp_path / "run"
        write_score_run(
            out,
            "2,0,3.0,\n0,1,1.5,\n0,0,1.0,\n1,0,2.0,\n10,0,5.0,\n",
            "0,0,1.0\n1,0,2.5\n0,1,1.0\n9,0,9.0\n2,0,\n",
        )
        code, stdout, err = run(capsys, "compare", "--out", str(out))
        assert code == 0, err
        assert json.loads((out / "summary.json").read_text())["n_pairs"] == 3
        assert (out / "influences.csv").read_text() == (
            "object_id,test_id,vif,loo\n"
            "0,0,1.0,1.0\n0,1,1.5,1.0\n1,0,2.0,2.5\n2,0,3.0,\n10,0,5.0,\n"
        )

    @pytest.mark.parametrize("rows", [
        "0,0,1.0,\n1,0,2.0,\n0,0,3.0,\n",
        "0,0,1.0,\n-1,0,2.0,\n1,0,3.0,\n",
        "0,0,1.0,\n1,0,2.0,\n1.5,0,3.0,\n",
        "0,0,1.0,\n1,x,2.0,\n",
    ], ids=["duplicate", "negative", "fractional", "text"])
    def test_bad_score_ids_are_data_errors(self, capsys, tmp_path, rows):
        out = tmp_path / "run"
        write_score_run(out, rows, "0,0,1.0\n1,0,2.0\n")
        code, _, err = run(capsys, "compare", "--out", str(out))
        assert code == 2
        assert stderr_payload(err)["error"] == "DataError"

    @pytest.mark.parametrize("name, text", [
        ("attribute_meta.json", b"[1]"),
        ("loo_meta.json", b"5"),
        ("loo_meta.json", b'"h"'),
        ("attribute_meta.json", b'{"config_hash": "\xff"}'),
    ], ids=["list", "number", "string", "not-text"])
    def test_meta_that_is_not_an_object_is_one_data_error(self, capsys, tmp_path, name, text):
        out = tmp_path / "run"
        write_score_run(out, "0,0,1.0,\n1,0,2.0,\n", "0,0,1.5\n1,0,2.5\n")
        (out / name).write_bytes(text)
        code, _, err = run(capsys, "compare", "--out", str(out))
        assert code == 2 and err.count("\n") == 1
        payload = stderr_payload(err)
        assert payload["error"] == "DataError" and name in payload["message"]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        theta = np.random.default_rng(0).standard_normal(17)
        extra = {
            "config_hash": "f" * 64,
            "diagnostics": {"grad_norm": 1e-9, "converged": True},
        }
        write_checkpoint(str(path), theta, {"theta": (0, 17)}, extra)
        loaded_theta, header = read_checkpoint(str(path))
        assert header["format"] == "vif-checkpoint-v1"
        assert header["config_hash"] == "f" * 64
        assert header["layout"] == {"theta": [0, 17]}
        np.testing.assert_array_equal(loaded_theta, theta)

    def test_malformed_checkpoints_are_data_errors(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(str(path), np.ones(3), {"theta": (0, 3)}, {})
        header_line, blob = path.read_bytes().split(b"\n", 1)
        no_dim = json.loads(header_line)
        del no_dim["dim"]
        for content in (
            json.dumps(no_dim).encode() + b"\n" + blob,  # header without dim
            b"[1, 2]\n" + blob,  # header that is not an object
            b"\xff\xfe\n" + blob,  # header that is not text
            header_line + b"\n" + blob[:-3],  # truncated payload
        ):
            path.write_bytes(content)
            with pytest.raises(DataError):
                read_checkpoint(str(path))

    def test_train_writes_readable_checkpoint(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
        theta, header = read_checkpoint(str(out / "checkpoint.bin"))
        assert header["dim"] == 3 == theta.shape[0]
        assert header["converged"] is True
        assert header["grad_norm"] < 1e-6


class TestCheck:
    def test_check_reports_small_errors(self, capsys, cox_run):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        code, stdout, _ = run(capsys, "check", "--config", str(cfg_path),
                              "--trials", "3")
        assert code == 0
        report = json.loads(stdout)
        assert report["grad_ok"] and report["hess_ok"]
        assert report["max_grad_error"] <= 1e-4
        assert len(report["trials"]) == 3
        saved = json.loads((out / "check_report.json").read_text())
        assert saved["max_hess_error"] == report["max_hess_error"]

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_a_config_error(self, capsys, cox_run, trials):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        code, stdout, err = run(capsys, "check", "--config", str(cfg_path), "--trials", trials)
        assert code == 1 and stdout == ""
        assert len(err.strip().splitlines()) == 1
        assert stderr_payload(err)["error"] == "ConfigError"
