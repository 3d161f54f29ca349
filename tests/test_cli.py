"""End-to-end command-line pipeline: synth, train, attribute, loo, compare."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vifkit
from vifkit import cli
from vifkit.attributor import attribute_target
from vifkit.cli import main, read_checkpoint, write_checkpoint
from vifkit.errors import DataError
from vifkit.harness import synth_graph
from vifkit.losscore import PresenceVector


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
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4)  # several chunks
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(5), 3)
        tids = np.tile(np.arange(3), 5)
        vif = rng.standard_normal(15) * 10.0 ** rng.integers(-300, 300, 15)
        vif[[2, 11]] = np.nan
        vif[5] = -0.0
        loo = rng.standard_normal(15)
        loo[[0, 9]] = np.nan
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for loo_col, with_loo in ((None, False), (loo, True)):
            cli._write_records_csv(str(got), object_id=ids, test_id=tids, vif=vif, loo=loo_col)
            records = [
                (int(o), int(t), float(v), float(lv) if with_loo else None)
                for o, t, v, lv in zip(ids, tids, vif, loo)
            ]
            reference_records_csv(want, INFLUENCE_HEADER, records)
            assert got.read_bytes() == want.read_bytes()
        # loo.csv: the header follows the named columns
        cli._write_records_csv(str(got), object_id=ids, test_id=tids, loo=loo)
        reference_records_csv(want, ["object_id", "test_id", "loo"],
                              [(int(o), int(t), float(lv)) for o, t, lv in zip(ids, tids, loo)])
        assert got.read_bytes() == want.read_bytes()

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

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        src = str(pathlib.Path(vifkit.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = "import sys, vifkit.cli; print('scipy.linalg' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_explicit_attribute_pipeline_never_loads_scipy(self, cox_run):
        _, cfg_path, out = cox_run
        src = str(pathlib.Path(vifkit.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = (
            "import sys\n"
            "from vifkit.cli import main\n"
            "for stage in ('synth', 'train', 'attribute'):\n"
            f"    assert main([stage, '--config', {str(cfg_path)!r}]) == 0, stage\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
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
        for key in ("grad_norm", "converged", "wall_s"):
            assert len(meta[key]) == meta["n_retrains"] == 60
        assert all(g >= 0.0 for g in meta["grad_norm"])
        assert all(t > 0.0 for t in meta["wall_s"])
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

    def test_loo_reuses_checkpoint_without_retraining(self, capsys, cox_run, monkeypatch):
        cfg, cfg_path, out = cox_run
        run(capsys, "synth", "--config", str(cfg_path))
        run(capsys, "train", "--config", str(cfg_path))

        def no_full_retrain(*args, **kwargs):
            raise AssertionError("loo retrained the full-data model")

        monkeypatch.setattr("vifkit.cli.train", no_full_retrain)
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
        assert not out.exists() or os.listdir(out) == []

    def test_usage_error_is_exit_one(self, capsys):
        code, _, err = run(capsys, "explode")
        assert code == 1

    def test_bad_log_level_rejected(self, capsys, monkeypatch, cox_run):
        _, cfg_path, _ = cox_run
        monkeypatch.setenv("VIF_LOG", "chatty")
        code, _, err = run(capsys, "synth", "--config", str(cfg_path))
        assert code == 1
        assert "VIF_LOG" in stderr_payload(err)["message"]


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
        names = cli._FILES[scenario]
        if scenario == "cox":
            for name in names:
                data = cli._read_survival(str(out / name))
                row_writer_survival_csv(want / name, data.x, data.y, data.delta)
        elif scenario == "ltr":
            for qname, lname in (names[:2], names[2:]):
                data = cli._read_ranking(str(out / qname), str(out / lname))
                row_writer_ranking_csv(want / qname, want / lname, data)
        else:
            for name in names:
                x, labels = cli._read_points(str(out / name))
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
        graph = cli._read_edges(str(out / "edges.txt"))
        want = synth_graph(n=8, edge_prob=0.5, seed=5)
        np.testing.assert_array_equal(graph.edges, want.edges)


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
    "logistic-bad-header": ("logistic", "points.csv", "lbl,x1\n1,0.5\n"),
    "logistic-ragged-row": ("logistic", "points.csv", "label,x1\n1,0.5,0.5\n-1,0.5,0.5\n"),
    "logistic-non-numeric": ("logistic", "points_test.csv", "label,x1\nyes,0.5\n"),
    "logistic-empty-feature": ("logistic", "points.csv", "label,x1\n1,0.5\n-1,\n"),
    "ltr-bad-header": ("ltr", "labels.csv", "query_id,position,item_id\n0,0,0\n1,0,1\n"),
    "ltr-no-rows": ("ltr", "queries.csv", "query_id,x1\n"),
    "ltr-fractional-id": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0.5\n1,0,1\n"),
    "ltr-negative-id": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,-1\n1,0,1\n"),
    "ltr-huge-id": ("ltr", "labels_test.csv", "query_id,rank,item_id\n0,0,1e30\n"),
    "ltr-query-order": ("ltr", "queries.csv", "query_id,x1\n1,0.5\n0,-0.5\n"),
    "ltr-unknown-query": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0\n1,0,1\n2,0,1\n"),
    "ltr-rank-gap": ("ltr", "labels.csv", "query_id,rank,item_id\n0,0,0\n0,2,1\n1,0,1\n"),
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


def run_on_tables(capsys, tmp_path, scenario):
    out = tmp_path / "run"
    if scenario == "compare":
        return run(capsys, "compare", "--out", str(out))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "scenario": scenario, "seed": 1, "out": str(out),
        "train": {"optimizer": "gd", "epochs": 1},
    }))
    return run(capsys, "train", "--config", str(cfg_path))


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
